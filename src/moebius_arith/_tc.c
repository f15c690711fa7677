/* HLT coset enumeration in C: a port of coset_enum._Engine's HLT path.

   Every function below mirrors the method of the same name in the pure
   engine, step for step: the same definition order, coincidence queue,
   lookahead, compaction policy, table-full recovery and peak accounting.
   A run therefore produces a byte-identical table and identical counters;
   the pure engine is the specification, so change both together.

   Cosets are int32 ids (max_cosets < 2^31), rows are indexed in int64.
   libc only; _fast.py compiles this file on first use.  */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#define UNDEF (-1)
#define COMPACT_MIN_ROWS 4096
#define DEADLINE_EVERY 4096
#define FIRST_CAPACITY 1024

/* tc_hlt's return codes; the Python wrapper maps them to outcomes */
enum { TC_OK = 0, TC_MAX_COSETS, TC_TIME_LIMIT, TC_ABORTED, TC_NO_MEMORY };

/* nonzero return aborts the run (the Python callback raised) */
typedef int (*tc_progress)(int64_t defined, int64_t live);

typedef struct {
    int64_t w;
    const int32_t *rel;
    const int64_t *rel_off;
    int64_t nrel;
    const int32_t *sub;
    const int64_t *sub_off;
    int64_t nsub;
    int64_t max_cosets;
    int has_deadline;
    double deadline;
    tc_progress progress;
    int64_t progress_every;
    int32_t *tab;
    int32_t *p;
    int32_t *queue;      /* coincidence queue; compaction's renumbering */
    int64_t n;           /* allocated rows, len(p) in the pure engine */
    int64_t cap;
    int64_t live;
    int64_t defined;
    int64_t peak;
} Engine;

static double monotonic(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* -- primitive operations ------------------------------------------------ */

static int32_t rep(int32_t *p, int32_t k)
{
    int32_t r = k;
    while (p[r] != r)
        r = p[r];
    while (p[k] != r) {
        int32_t next = p[k];
        p[k] = r;
        k = next;
    }
    return r;
}

static void merge(Engine *e, int32_t a, int32_t b, int64_t *qn)
{
    int32_t ra = rep(e->p, a);
    int32_t rb = rep(e->p, b);
    if (ra != rb) {
        if (rb < ra) {
            int32_t t = ra;
            ra = rb;
            rb = t;
        }
        e->p[rb] = ra;
        e->live--;
        /* each coset enters the queue once, when it dies: qn < n <= cap */
        e->queue[(*qn)++] = rb;
    }
}

static void coincide(Engine *e, int32_t a, int32_t b)
{
    int32_t *tab = e->tab;
    const int64_t w = e->w;
    int64_t qn = 0, qi = 0;
    merge(e, a, b, &qn);
    while (qi < qn) {
        int32_t gamma = e->queue[qi++];
        int64_t row = (int64_t)gamma * w;
        for (int64_t x = 0; x < w; x++) {
            int32_t delta = tab[row + x];
            if (delta == UNDEF)
                continue;
            tab[(int64_t)delta * w + (x ^ 1)] = UNDEF;
            int32_t mu = rep(e->p, gamma);
            int32_t nu = rep(e->p, delta);
            int32_t tmu = tab[(int64_t)mu * w + x];
            if (tmu != UNDEF) {
                merge(e, nu, tmu, &qn);
            } else {
                int32_t tnu = tab[(int64_t)nu * w + (x ^ 1)];
                if (tnu != UNDEF) {
                    merge(e, mu, tnu, &qn);
                } else {
                    tab[(int64_t)mu * w + x] = nu;
                    tab[(int64_t)nu * w + (x ^ 1)] = mu;
                }
            }
        }
    }
}

static int grow(Engine *e)
{
    int64_t cap = 2 * e->cap;
    if (cap > e->max_cosets)
        cap = e->max_cosets;
    int32_t *tab = realloc(e->tab, (size_t)(cap * e->w) * sizeof(int32_t));
    if (!tab)
        return TC_NO_MEMORY;
    e->tab = tab;
    int32_t *p = realloc(e->p, (size_t)cap * sizeof(int32_t));
    if (!p)
        return TC_NO_MEMORY;
    e->p = p;
    int32_t *queue = realloc(e->queue, (size_t)cap * sizeof(int32_t));
    if (!queue)
        return TC_NO_MEMORY;
    e->queue = queue;
    e->cap = cap;
    return TC_OK;
}

static int define(Engine *e, int32_t alpha, int64_t x)
{
    const int64_t w = e->w;
    if (e->n >= e->max_cosets)
        return TC_MAX_COSETS;
    if (e->has_deadline && e->defined % DEADLINE_EVERY == 0
            && monotonic() > e->deadline)
        return TC_TIME_LIMIT;
    if (e->n == e->cap && grow(e) != TC_OK)
        return TC_NO_MEMORY;
    int32_t beta = (int32_t)e->n++;
    int32_t *row = e->tab + (int64_t)beta * w;
    for (int64_t k = 0; k < w; k++)
        row[k] = UNDEF;
    e->p[beta] = beta;
    e->tab[(int64_t)alpha * w + x] = beta;
    row[x ^ 1] = alpha;
    e->live++;
    e->defined++;
    if (e->live > e->peak)
        e->peak = e->live;
    if (e->progress && e->defined % e->progress_every == 0
            && e->progress(e->defined, e->live))
        return TC_ABORTED;
    return TC_OK;
}

static int scan(Engine *e, int32_t alpha, const int32_t *letters, int64_t len,
                int fill)
{
    const int64_t w = e->w;
    int32_t f = alpha, b = alpha;
    int64_t i = 0, j = len - 1;
    for (;;) {
        int32_t *tab = e->tab;          /* define may move the table */
        while (i <= j) {
            int32_t next = tab[(int64_t)f * w + letters[i]];
            if (next == UNDEF)
                break;
            f = next;
            i++;
        }
        if (i > j) {
            if (f != b)
                coincide(e, f, b);
            return TC_OK;
        }
        while (j >= i) {
            int32_t next = tab[(int64_t)b * w + (letters[j] ^ 1)];
            if (next == UNDEF)
                break;
            b = next;
            j--;
        }
        if (j < i) {
            coincide(e, f, b);
            return TC_OK;
        }
        if (j == i) {
            tab[(int64_t)f * w + letters[i]] = b;
            tab[(int64_t)b * w + (letters[i] ^ 1)] = f;
            return TC_OK;
        }
        if (!fill)
            return TC_OK;
        int rc = define(e, f, letters[i]);
        if (rc != TC_OK)
            return rc;
    }
}

static int scan_word(Engine *e, int32_t alpha, const int32_t *flat,
                     const int64_t *off, int64_t k, int fill)
{
    return scan(e, alpha, flat + off[k], off[k + 1] - off[k], fill);
}

/* -- table maintenance ----------------------------------------------------- */

static void lookahead(Engine *e)
{
    const int64_t n = e->n;
    for (int64_t gamma = 0; gamma < n; gamma++) {
        if (e->p[gamma] != gamma)
            continue;
        for (int64_t r = 0; r < e->nrel; r++) {
            scan_word(e, (int32_t)gamma, e->rel, e->rel_off, r, 0);
            if (e->p[gamma] != gamma)
                break;
        }
    }
}

/* Renumber live cosets densely, in place and in order; returns the new
   position of `mark`.  Rows only move down, so each is read before it is
   overwritten. */
static int64_t compact(Engine *e, int64_t mark)
{
    const int64_t w = e->w, old_n = e->n;
    int32_t *p = e->p, *tab = e->tab, *newid = e->queue;
    int64_t nid = 0, new_mark = 0, pos = 0;
    if (old_n > e->peak)
        e->peak = old_n;        /* peak is the allocation high-water mark */
    for (int64_t old = 0; old < old_n; old++) {
        if (p[old] == old) {
            newid[old] = (int32_t)nid;
            if (old < mark)
                new_mark++;
            nid++;
        } else {
            newid[old] = UNDEF;
        }
    }
    for (int64_t old = 0; old < old_n; old++) {
        if (p[old] != old)
            continue;
        int64_t row = old * w;
        for (int64_t x = 0; x < w; x++) {
            int32_t t = tab[row + x];
            tab[pos++] = t == UNDEF ? UNDEF : newid[t];
        }
    }
    for (int64_t i = 0; i < nid; i++)
        p[i] = (int32_t)i;
    e->n = nid;
    e->live = nid;
    return new_mark;
}

static int64_t maybe_compact(Engine *e, int64_t mark)
{
    if (e->n > COMPACT_MIN_ROWS && 4 * (e->n - e->live) > e->n)
        return compact(e, mark);
    return mark;
}

/* -- verification ------------------------------------------------------------ */

static int closing_pass(Engine *e)
{
    const int64_t w = e->w, live_before = e->live;
    for (int64_t s = 0; s < e->nsub; s++)
        scan_word(e, 0, e->sub, e->sub_off, s, 0);
    lookahead(e);
    if (e->live != live_before)
        return 0;
    for (int64_t gamma = 0; gamma < e->n; gamma++) {
        if (e->p[gamma] != gamma)
            continue;
        for (int64_t x = 0; x < w; x++)
            if (e->tab[gamma * w + x] == UNDEF)
                return 0;
    }
    return 1;
}

/* -- strategy ------------------------------------------------------------------ */

static int recover(Engine *e, int64_t *alpha)
{
    if (e->n > e->peak)
        e->peak = e->n;
    lookahead(e);
    *alpha = compact(e, *alpha);
    if ((double)e->n >= (double)e->max_cosets * 0.98)
        return TC_MAX_COSETS;
    return TC_OK;
}

static int run_hlt(Engine *e)
{
    const int64_t w = e->w;
    int64_t alpha = 0;
    int started = 0, rc;
    for (;;) {
        if (!started) {
            /* seed: subgroup generators close at coset 0 */
            rc = TC_OK;
            for (int64_t s = 0; s < e->nsub && rc == TC_OK; s++)
                rc = scan_word(e, 0, e->sub, e->sub_off, s, 1);
            if (rc == TC_MAX_COSETS) {
                int64_t seed_mark = 0;
                rc = recover(e, &seed_mark);
                if (rc != TC_OK)
                    return rc;
                continue;
            }
            if (rc != TC_OK)
                return rc;
            started = 1;
        }
        while (alpha < e->n) {
            if (e->p[alpha] != alpha) {
                alpha++;
                continue;
            }
            int dead = 0;
            rc = TC_OK;
            for (int64_t r = 0; r < e->nrel; r++) {
                rc = scan_word(e, (int32_t)alpha, e->rel, e->rel_off, r, 1);
                if (rc != TC_OK)
                    break;
                if (e->p[alpha] != alpha) {
                    dead = 1;
                    break;
                }
            }
            if (rc == TC_OK && !dead) {
                for (int64_t x = 0; x < w && rc == TC_OK; x++)
                    if (e->tab[alpha * w + x] == UNDEF)
                        rc = define(e, (int32_t)alpha, x);
            }
            if (rc == TC_MAX_COSETS) {
                rc = recover(e, &alpha);
                if (rc != TC_OK)
                    return rc;
                continue;
            }
            if (rc != TC_OK)
                return rc;
            alpha++;
            alpha = maybe_compact(e, alpha);
        }
        if (closing_pass(e))
            return TC_OK;
        /* a closing merge re-opened the table; re-run from the top */
        alpha = compact(e, 0);
        started = 0;
    }
}

/* -- entry points ------------------------------------------------------------ */

/* Enumerate; `counts` receives (rows, peak, defined).  On TC_OK `*table`
   is the compacted table of counts[0] rows, owned by the caller (release
   it with tc_free); on any other code nothing is handed over.  Relators
   must be nonempty and cyclically reduced, as coset_enum prepares them. */
int tc_hlt(int64_t w, const int32_t *rel, const int64_t *rel_off, int64_t nrel,
           const int32_t *sub, const int64_t *sub_off, int64_t nsub,
           int64_t max_cosets, int has_deadline, double deadline,
           tc_progress progress, int64_t progress_every,
           int32_t **table, int64_t *counts)
{
    Engine e = {
        .w = w, .rel = rel, .rel_off = rel_off, .nrel = nrel,
        .sub = sub, .sub_off = sub_off, .nsub = nsub,
        .max_cosets = max_cosets, .has_deadline = has_deadline,
        .deadline = deadline, .progress = progress,
        .progress_every = progress_every,
        .n = 1, .live = 1, .defined = 1, .peak = 1,
    };
    int rc = TC_NO_MEMORY;
    e.cap = max_cosets < FIRST_CAPACITY ? max_cosets : FIRST_CAPACITY;
    e.tab = malloc((size_t)(e.cap * w) * sizeof(int32_t));
    e.p = malloc((size_t)e.cap * sizeof(int32_t));
    e.queue = malloc((size_t)e.cap * sizeof(int32_t));
    *table = NULL;
    if (e.tab && e.p && e.queue) {
        for (int64_t x = 0; x < w; x++)
            e.tab[x] = UNDEF;
        e.p[0] = 0;
        rc = run_hlt(&e);
    }
    if (rc == TC_OK) {
        compact(&e, 0);
        *table = e.tab;
        e.tab = NULL;
    }
    counts[0] = e.n;
    counts[1] = e.peak > e.n ? e.peak : e.n;
    counts[2] = e.defined;
    free(e.tab);
    free(e.p);
    free(e.queue);
    return rc;
}

void tc_free(int32_t *table)
{
    free(table);
}
