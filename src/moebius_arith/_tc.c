/* Coset enumeration in C: a port of coset_enum._Engine, HLT and Felsch,
   without the engine's labelled mode (labels stay pure Python).

   Every function below mirrors the method of the same name in the pure
   engine: the same seeding, definition order, coincidence queue,
   deduction stack, lookahead and where it starts, compaction policy,
   table-full recovery, growth lookaheads and peak accounting (peak is the
   allocation high-water mark, counted at compaction and at the end).  A
   run therefore produces a byte-identical table and identical counters;
   the pure engine is the specification, so change both together.  Only
   the union-find links inside p differ: rep halves paths where
   _Engine._rep compresses them, and merge takes the representatives that
   coincide already holds instead of finding them again.  Classes and
   their representatives, the least members, are the same.

   HLT stops for a growth lookahead before the table is full: define
   refuses a row at e->limit, which stays below max_cosets until the
   growth lookaheads reach it, and recover runs the table-full recovery's
   lookahead from the walk position and compacts, without its overflow
   test.  The first comes at LOOKAHEAD_MIN_ROWS rows, each next at
   LOOKAHEAD_GROWTH times the rows the last one left; it finds a collapse
   while the table is small.
   Felsch has none: its limit is max_cosets, and define makes one
   comparison under either strategy.  Neither have the engine's labelled
   runs, in which a lookahead would change the labels and the witnesses.

   The last section, tc_verify, checks a completed table exhaustively.  It
   shares no code with the enumerator: it is the port of
   coset_enum._verify_table, not of anything in _Engine.

   Cosets are int32 ids (max_cosets < 2^31), rows are indexed in int64.
   libc only; _fast.py compiles this file on first use.  The enumerator
   keeps no clock: every POLL_EVERY definitions, and every POLL_EVERY live
   cosets a lookahead scans, it calls the caller's poll, which alone
   decides whether the run goes on.  */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNDEF (-1)
#define COMPACT_MIN_ROWS 4096
#define POLL_EVERY 4096
#define FIRST_CAPACITY 1024
#define STACK_FLOOR 4096
/* unlabelled HLT's growth lookaheads: the first at LOOKAHEAD_MIN_ROWS
   rows (8 * COMPACT_MIN_ROWS), each next at LOOKAHEAD_GROWTH times the
   rows the last one left */
#define LOOKAHEAD_MIN_ROWS 32768
#define LOOKAHEAD_GROWTH 4

/* a hint only, so a compiler without the builtin simply skips it */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr) ((void)0)
#endif

/* tc_enumerate's return codes; the Python wrapper maps them to outcomes */
enum { TC_OK = 0, TC_MAX_COSETS, TC_TIME_LIMIT, TC_ABORTED, TC_NO_MEMORY };

/* tc_enumerate's strategies */
enum { TC_HLT = 0, TC_FELSCH };

/* returns TC_OK to go on, else the code the run stops with (TC_TIME_LIMIT
   or TC_ABORTED) */
typedef int (*tc_poll)(int64_t defined, int64_t live);

typedef struct Engine Engine;

struct Engine {
    int64_t w;
    const int32_t *rel;
    const int64_t *rel_off;
    int64_t nrel;
    const int32_t *sub;
    const int64_t *sub_off;
    int64_t nsub;
    /* Felsch: relator rotations; those leading with letter x are words
       rot_first[x] .. rot_first[x + 1] - 1 of rot/rot_off */
    const int32_t *rot;
    const int64_t *rot_off;
    const int64_t *rot_first;
    int (*step)(Engine *e, int32_t alpha);
    int64_t max_cosets;
    tc_poll poll;
    int32_t *tab;
    int32_t *p;
    int32_t *queue;      /* coincidence queue; compaction's renumbering */
    int64_t n;           /* allocated rows, len(p) in the pure engine */
    int64_t cap;
    int64_t live;
    int64_t defined;
    int64_t peak;
    /* Felsch's deduction stack of (coset, column) pairs; HLT keeps none */
    int deduce;
    int32_t *ded;
    int64_t nded;
    int64_t ded_cap;
    /* define stops at `limit` rows: max_cosets, or for HLT the rows of the
       next growth lookahead if that is less.  Last, so that the fields
       above keep their offsets: placed after max_cosets it cost Felsch
       runs 6-7 % of their time on one x86-64 host */
    int64_t limit;
};

/* -- primitive operations ------------------------------------------------ */

static int push_deduction(Engine *e, int32_t a, int64_t x)
{
    if (e->nded == e->ded_cap) {
        int64_t cap = e->ded_cap ? 2 * e->ded_cap : FIRST_CAPACITY;
        int32_t *ded = realloc(e->ded, (size_t)(2 * cap) * sizeof(int32_t));
        if (!ded)
            return TC_NO_MEMORY;
        e->ded = ded;
        e->ded_cap = cap;
    }
    e->ded[2 * e->nded] = a;
    e->ded[2 * e->nded + 1] = (int32_t)x;
    e->nded++;
    return TC_OK;
}

/* The representative of k's class, its least member, found in one pass
   with path halving: every coset on the way is linked to its grandparent.
   Classes and representatives are those of _Engine._rep; only the links
   inside p differ from its full path compression. */
static int32_t rep(int32_t *p, int32_t k)
{
    while (p[k] != k) {
        p[k] = p[p[k]];
        k = p[k];
    }
    return k;
}

/* Join the classes of the representatives ra and rb, as _Engine._merge
   does those of any two cosets: the larger dies and is queued */
static void merge(Engine *e, int32_t ra, int32_t rb, int64_t *qn)
{
    if (ra == rb)
        return;
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

/* Holt's routine.  The queue is first in, first out; the row of the dead
   coset two places ahead is prefetched while this one is processed, since
   a large collapse visits rows all over the table. */
static int coincide(Engine *e, int32_t a, int32_t b)
{
    int32_t *tab = e->tab, *p = e->p, *queue = e->queue;
    const int64_t w = e->w;
    int64_t qn = 0, qi = 0;
    merge(e, rep(p, a), rep(p, b), &qn);
    while (qi < qn) {
        if (qi + 2 < qn)
            PREFETCH(tab + (int64_t)queue[qi + 2] * w);
        int32_t gamma = queue[qi++];
        int64_t row = (int64_t)gamma * w;
        for (int64_t x = 0; x < w; x++) {
            int32_t delta = tab[row + x];
            if (delta == UNDEF)
                continue;
            tab[(int64_t)delta * w + (x ^ 1)] = UNDEF;
            int32_t mu = rep(p, gamma);
            int32_t nu = rep(p, delta);
            int32_t tmu = tab[(int64_t)mu * w + x];
            if (tmu != UNDEF) {
                merge(e, nu, rep(p, tmu), &qn);
            } else {
                int32_t tnu = tab[(int64_t)nu * w + (x ^ 1)];
                if (tnu != UNDEF) {
                    merge(e, mu, rep(p, tnu), &qn);
                } else {
                    tab[(int64_t)mu * w + x] = nu;
                    tab[(int64_t)nu * w + (x ^ 1)] = mu;
                    if (e->deduce && push_deduction(e, mu, x) != TC_OK)
                        return TC_NO_MEMORY;
                }
            }
        }
    }
    return TC_OK;
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

/* At the row limit define returns TC_MAX_COSETS, which run hands to
   recover: the table is full, or a growth lookahead is due. */
static int define(Engine *e, int32_t alpha, int64_t x)
{
    const int64_t w = e->w;
    if (e->n >= e->limit)
        return TC_MAX_COSETS;
    if (e->n == e->cap && grow(e) != TC_OK)
        return TC_NO_MEMORY;
    int32_t beta = (int32_t)e->n++;
    int32_t *row = e->tab + (int64_t)beta * w;
    memset(row, 0xff, (size_t)w * sizeof(int32_t));   /* UNDEF is -1 */
    e->p[beta] = beta;
    e->tab[(int64_t)alpha * w + x] = beta;
    row[x ^ 1] = alpha;
    e->live++;
    e->defined++;
    if (e->deduce && push_deduction(e, alpha, x) != TC_OK)
        return TC_NO_MEMORY;
    if (e->defined % POLL_EVERY == 0)
        return e->poll(e->defined, e->live);
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
        if (i > j)
            return f != b ? coincide(e, f, b) : TC_OK;
        while (j >= i) {
            int32_t next = tab[(int64_t)b * w + (letters[j] ^ 1)];
            if (next == UNDEF)
                break;
            b = next;
            j--;
        }
        if (j < i)
            return coincide(e, f, b);
        if (j == i) {
            tab[(int64_t)f * w + letters[i]] = b;
            tab[(int64_t)b * w + (letters[i] ^ 1)] = f;
            return e->deduce ? push_deduction(e, f, letters[i]) : TC_OK;
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

/* Scan every relator at every live coset from `start` on without new
   definitions, polling every POLL_EVERY cosets scanned.  HLT's table-full
   recovery starts at the walk position, where the cosets below are closed
   (see recover); every other lookahead starts at 0. */
static int lookahead(Engine *e, int64_t start)
{
    const int64_t n = e->n;
    int64_t scanned = 0;
    for (int64_t gamma = start; gamma < n; gamma++) {
        if (e->p[gamma] != gamma)
            continue;
        for (int64_t r = 0; r < e->nrel; r++) {
            int rc = scan_word(e, (int32_t)gamma, e->rel, e->rel_off, r, 0);
            if (rc != TC_OK)
                return rc;
            if (e->p[gamma] != gamma)
                break;
        }
        if (++scanned % POLL_EVERY == 0) {
            int rc = e->poll(e->defined, e->live);
            if (rc != TC_OK)
                return rc;
        }
    }
    return TC_OK;
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
        e->peak = old_n;
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
    /* queued deductions name the old ids, so they go; dropping them is
       sound, the closing pass scans every relator anyway */
    e->nded = 0;
    return new_mark;
}

static int64_t maybe_compact(Engine *e, int64_t mark)
{
    if (e->n > COMPACT_MIN_ROWS && 4 * (e->n - e->live) > e->n)
        return compact(e, mark);
    return mark;
}

/* -- verification ------------------------------------------------------------ */

/* `*closed` is set when no merge happened and no entry is undefined */
static int closing_pass(Engine *e, int *closed)
{
    const int64_t w = e->w, live_before = e->live;
    int rc = TC_OK;
    *closed = 0;
    for (int64_t s = 0; s < e->nsub && rc == TC_OK; s++)
        rc = scan_word(e, 0, e->sub, e->sub_off, s, 0);
    if (rc == TC_OK)
        rc = lookahead(e, 0);
    if (rc != TC_OK || e->live != live_before)
        return rc;
    for (int64_t gamma = 0; gamma < e->n; gamma++) {
        if (e->p[gamma] != gamma)
            continue;
        for (int64_t x = 0; x < w; x++)
            if (e->tab[gamma * w + x] == UNDEF)
                return TC_OK;
    }
    *closed = 1;
    return TC_OK;
}

/* -- the enumeration loop ---------------------------------------------------- */

static int drain_deductions(Engine *e)
{
    /* the rotations of every relator and of its inverse, scanned from a,
       cover every relator cycle through the edge (a, x).  HLT keeps no
       stack, so this is a no-op there */
    while (e->nded > 0) {
        int64_t bound = 2 * e->live > STACK_FLOOR ? 2 * e->live : STACK_FLOOR;
        if (e->nded > bound) {
            /* stack blow-up: a full lookahead subsumes the queued work */
            e->nded = 0;
            int rc = lookahead(e, 0);
            if (rc != TC_OK)
                return rc;
            continue;
        }
        e->nded--;
        int32_t a = e->ded[2 * e->nded];
        int32_t x = e->ded[2 * e->nded + 1];
        if (e->p[a] != a)
            continue;
        for (int64_t k = e->rot_first[x]; k < e->rot_first[x + 1]; k++) {
            int rc = scan_word(e, a, e->rot, e->rot_off, k, 0);
            if (rc != TC_OK)
                return rc;
            if (e->p[a] != a)
                break;
        }
    }
    return TC_OK;
}

/* HLT: scan every relator at alpha with fill, then define the entries of
   alpha that are still open */
static int hlt_step(Engine *e, int32_t alpha)
{
    const int64_t w = e->w;
    for (int64_t r = 0; r < e->nrel; r++) {
        int rc = scan_word(e, alpha, e->rel, e->rel_off, r, 1);
        if (rc != TC_OK)
            return rc;
        if (e->p[alpha] != alpha)
            return TC_OK;
    }
    for (int64_t x = 0; x < w; x++) {
        if (e->tab[(int64_t)alpha * w + x] == UNDEF) {
            int rc = define(e, alpha, x);
            if (rc != TC_OK)
                return rc;
        }
    }
    return TC_OK;
}

/* Felsch: define each open entry of alpha and drain its deductions before
   the next one */
static int felsch_step(Engine *e, int32_t alpha)
{
    const int64_t w = e->w;
    for (int64_t x = 0; x < w; x++) {
        if (e->p[alpha] != alpha)
            return TC_OK;
        if (e->tab[(int64_t)alpha * w + x] == UNDEF) {
            int rc = define(e, alpha, x);
            if (rc == TC_OK)
                rc = drain_deductions(e);
            if (rc != TC_OK)
                return rc;
        }
    }
    return TC_OK;
}

/* Lookahead plus compaction once the rows reach the row limit, which also
   empties the deduction stack.  At max_cosets the table is full: overflow
   if the space recovered is too small to make progress.  Below it, this
   is unlabelled HLT's growth lookahead, and the next one comes when the
   rows reach LOOKAHEAD_GROWTH times those left now, and never before the
   rows of this one.  Felsch stops only at max_cosets (see _Engine._recover
   for why).

   Under HLT the lookahead starts at the walk position `alpha`, and skipping
   the cosets below it changes nothing.  The walk leaves a coset c < alpha
   only after hlt_step(c) has scanned every relator at c with fill, so while
   c is live every relator cycle from c is closed; alpha itself may have been
   cut off mid-step by the fill, so the scan starts at alpha, not after it.
   A closed cycle stays closed: definitions only fill undefined entries,
   coincidence processing moves each defined edge g -x-> d onto
   rep(g) -x-> rep(d), and compaction keeps order and returns the new alpha.
   A scan of a closed cycle without fill walks forward back to its start and
   writes nothing, so the skipped scans would neither change an entry nor
   find a coincidence.  Felsch starts at 0: it never scans with fill, and
   compaction drops its queued deductions, which this lookahead has to find
   again. */
static int recover(Engine *e, int64_t *alpha)
{
    const int full = e->n >= e->max_cosets;
    int rc = lookahead(e, e->deduce ? 0 : *alpha);
    if (rc != TC_OK)
        return rc;
    *alpha = compact(e, *alpha);
    if (full)
        return (double)e->n >= (double)e->max_cosets * 0.98 ? TC_MAX_COSETS
                                                             : TC_OK;
    if (LOOKAHEAD_GROWTH * e->n > e->limit)
        e->limit = LOOKAHEAD_GROWTH * e->n;
    if (e->limit > e->max_cosets)
        e->limit = e->max_cosets;
    return TC_OK;
}

/* Seed the subgroup words at coset 0, then apply the strategy's per-coset
   step to every live coset in order.  A full table is recovered by
   lookahead and the walk resumes where it stopped; when the closing pass
   re-opens the table the walk restarts from the top. */
static int run(Engine *e)
{
    int64_t alpha = 0;
    int seeded = 0, closed, rc;
    for (;;) {
        rc = TC_OK;
        if (!seeded) {
            for (int64_t s = 0; s < e->nsub && rc == TC_OK; s++)
                rc = scan_word(e, 0, e->sub, e->sub_off, s, 1);
            if (rc == TC_OK)
                rc = drain_deductions(e);
            seeded = rc == TC_OK;
        }
        while (rc == TC_OK && alpha < e->n) {
            if (e->p[alpha] != alpha) {
                alpha++;
                continue;
            }
            rc = e->step(e, (int32_t)alpha);
            if (rc == TC_OK)
                alpha = maybe_compact(e, alpha + 1);
        }
        if (rc == TC_MAX_COSETS) {
            rc = recover(e, &alpha);
            if (rc != TC_OK)
                return rc;
            continue;
        }
        if (rc != TC_OK)
            return rc;
        rc = closing_pass(e, &closed);
        if (rc != TC_OK || closed)
            return rc;
        /* a closing merge re-opened the table; re-run from the top */
        alpha = compact(e, 0);
        seeded = 0;
    }
}

/* -- entry points ------------------------------------------------------------ */

/* Enumerate with `strategy` (TC_HLT or TC_FELSCH; Felsch reads the
   rotations, HLT ignores them) until done, out of cosets, or stopped by
   `poll`; `counts` receives (rows, peak, defined).
   On TC_OK `*table` is the compacted table of counts[0] rows, owned by the
   caller (release it with tc_free); on any other code nothing is handed
   over.  Relators must be nonempty and cyclically reduced, as coset_enum
   prepares them. */
int tc_enumerate(int64_t w, const int32_t *rel, const int64_t *rel_off,
                 int64_t nrel, const int32_t *sub, const int64_t *sub_off,
                 int64_t nsub, int strategy, const int32_t *rot,
                 const int64_t *rot_off, const int64_t *rot_first,
                 int64_t max_cosets, tc_poll poll, int32_t **table,
                 int64_t *counts)
{
    Engine e = {
        .w = w, .rel = rel, .rel_off = rel_off, .nrel = nrel,
        .sub = sub, .sub_off = sub_off, .nsub = nsub,
        .rot = rot, .rot_off = rot_off, .rot_first = rot_first,
        .step = strategy == TC_FELSCH ? felsch_step : hlt_step,
        .deduce = strategy == TC_FELSCH,
        .max_cosets = max_cosets, .poll = poll,
        .limit = strategy != TC_FELSCH && LOOKAHEAD_MIN_ROWS < max_cosets
                     ? LOOKAHEAD_MIN_ROWS : max_cosets,
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
        rc = run(&e);
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
    free(e.ded);
    return rc;
}

/* release a buffer handed over by tc_enumerate or tc_ball */
void tc_free(void *buffer)
{
    free(buffer);
}

/* -- relator search -----------------------------------------------------------

   The syllable ball of coset_enum._SyllableBall and its equal evaluations,
   which stay the reference: the same elements in the same order, the same
   equal evaluations in the same order.  One call builds the ball and
   records its equal evaluations, entering each element in a hash table,
   the reference's dict, as it is written.  The conjugation collisions are
   found in Python, on this ball as on the reference's.  It shares no
   state with the enumerator above.

   A ball element is four int64 entries over the fixed denominator
   den = l^depth, a weight, a parent (-1 for the empty word) and a last
   syllable coded as 2*e + s, with s = 0 for A and 1 for B.  _fast.ball
   sends a ball here only when no entry can exceed 2^30 in absolute value,
   so every shear below and every determinant product stays within 2^60.
   Divisions floor, as Python's // does.  */

#define RS_MAX_DEPTH 8
/* the records a ball's buffer has room for at first; it doubles when full */
#define RS_FIRST_ROOM 64

/* tc_ball's return codes */
enum {
    RS_COMPLETE = 0, RS_CAPPED, RS_DETERMINANT, RS_BAD_ARGUMENT, RS_NO_MEMORY
};

/* floor(a / b) for b > 0: C's division truncates towards 0 */
static int64_t rs_floordiv(int64_t a, int64_t b)
{
    return a / b - (a % b < 0);
}

/* slot[j] is -1 or the first element with some entries, probed linearly
   from a hash of them; hits holds nhits records (i, first), room for room */
typedef struct { int64_t *slot, mask, *hits, nhits, room; } Seen;

/* Enter element i, whose entries are at nums + 4 * i, recording (i, first)
   if an earlier element has them.  0 when the records cannot grow. */
static int rs_enter(Seen *seen, const int64_t *nums, int64_t i)
{
    /* any hash finds the same equal entries; this one keeps probes short */
    const int64_t *key = nums + 4 * i;
    uint64_t h = 0x9E3779B97F4A7C15u;
    for (int k = 0; k < 4; k++) {
        h ^= (uint64_t)key[k];
        h *= 0xBF58476D1CE4E5B9u;
        h ^= h >> 31;
    }
    int64_t j = (int64_t)(h & (uint64_t)seen->mask);
    while (seen->slot[j] >= 0
           && memcmp(nums + 4 * seen->slot[j], key, 4 * sizeof(int64_t)) != 0)
        j = (j + 1) & seen->mask;
    if (seen->slot[j] < 0) {
        seen->slot[j] = i;
        return 1;
    }
    if (seen->nhits == seen->room) {
        int64_t *more = realloc(seen->hits,
                                (size_t)(4 * seen->room) * sizeof(int64_t));
        if (!more)
            return 0;
        seen->hits = more;
        seen->room *= 2;
    }
    seen->hits[2 * seen->nhits] = i;
    seen->hits[2 * seen->nhits + 1] = seen->slot[j];
    seen->nhits++;
    return 1;
}

/* release `seen`, handing its records over on success, and return rc */
static int rs_end(Seen *seen, int rc, int64_t **hits, int64_t *nhits)
{
    free(seen->slot);
    if (rc == RS_COMPLETE || rc == RS_CAPPED) {
        *hits = seen->hits;
        *nhits = seen->nhits;
    } else {
        free(seen->hits);
    }
    return rc;
}

/* The ball of coset_enum._SyllableBall(mnum / l, depth, erange) whose
   growth stops once it holds more than `cap` words, after the children of
   one parent, written to the caller's arrays of `capacity` elements;
   *count receives its size.  RS_COMPLETE or RS_CAPPED as growth ran to
   the end or stopped, with its equal evaluations in *hits: *nhits records
   (i, first) in element order, which the caller releases with tc_free.
   RS_DETERMINANT when a child's determinant is not den^2; RS_BAD_ARGUMENT
   for a depth outside [0, RS_MAX_DEPTH], l < 1, a capacity outside [0,
   INT32_MAX] or a ball larger than it; RS_NO_MEMORY when an allocation
   fails.  On these nothing is handed over. */
int tc_ball(int64_t mnum, int64_t l, int64_t depth, int64_t erange,
            int64_t cap, int64_t capacity, int64_t *nums, int64_t *weights,
            int32_t *parents, int32_t *syls, int64_t *count,
            int64_t **hits, int64_t *nhits)
{
    int64_t den = 1, n = 0, lo = -1, hi = 0, size = 2;
    *count = *nhits = 0;
    *hits = NULL;
    if (depth < 0 || depth > RS_MAX_DEPTH || l < 1 || capacity < 0
            || capacity > INT32_MAX)
        return RS_BAD_ARGUMENT;
    while (size < 2 * capacity)
        size *= 2;
    Seen seen = {.slot = malloc((size_t)size * sizeof(int64_t)),
                 .mask = size - 1, .room = RS_FIRST_ROOM,
                 .hits = malloc(2 * RS_FIRST_ROOM * sizeof(int64_t))};
    if (!seen.slot || !seen.hits)
        return rs_end(&seen, RS_NO_MEMORY, hits, nhits);
    memset(seen.slot, 0xff, (size_t)size * sizeof(int64_t));   /* -1 */
    for (int64_t k = 0; k < depth; k++)
        den *= l;
    const int64_t root[4] = {den, 0, 0, den}, dd = den * den;
    for (int64_t layer = 0; layer < depth; layer++) {
        int64_t start = n;
        /* the first layer's one parent is the empty word, -1 */
        for (int64_t parent = lo; parent < hi; parent++) {
            const int64_t *p = parent < 0 ? root : nums + 4 * parent;
            int64_t weight = parent < 0 ? 0 : weights[parent];
            int last = parent < 0 ? -1 : syls[parent] & 1;
            for (int s = 0; s < 2; s++) {
                if (s == last)
                    continue;
                for (int64_t e = -erange; e <= erange; e++) {
                    if (e == 0)
                        continue;
                    if (n == capacity)
                        return rs_end(&seen, RS_BAD_ARGUMENT, hits, nhits);
                    int64_t x = e * mnum, *c = nums + 4 * n;
                    /* a shear of the parent: under A its second column
                       gains the first times x / l, under B the first
                       column gains the second */
                    if (s == 0) {
                        c[0] = p[0];
                        c[1] = p[1] + rs_floordiv(p[0] * x, l);
                        c[2] = p[2];
                        c[3] = p[3] + rs_floordiv(p[2] * x, l);
                    } else {
                        c[0] = p[0] + rs_floordiv(p[1] * x, l);
                        c[1] = p[1];
                        c[2] = p[2] + rs_floordiv(p[3] * x, l);
                        c[3] = p[3];
                    }
                    if (c[0] * c[3] - c[1] * c[2] != dd)
                        return rs_end(&seen, RS_DETERMINANT, hits, nhits);
                    if (!rs_enter(&seen, nums, n))
                        return rs_end(&seen, RS_NO_MEMORY, hits, nhits);
                    weights[n] = weight + (e < 0 ? -e : e);
                    parents[n] = (int32_t)parent;
                    syls[n] = (int32_t)(2 * e + s);
                    n++;
                }
            }
            if (n > cap) {
                *count = n;
                return rs_end(&seen, RS_CAPPED, hits, nhits);
            }
        }
        lo = start;
        hi = n;
    }
    *count = n;
    return rs_end(&seen, RS_COMPLETE, hits, nhits);
}

/* -- table check --------------------------------------------------------------

   An exhaustive check of a completed table, kept apart from the enumerator
   above: it calls none of its functions and shares none of its state, so a
   fault in the enumeration cannot hide itself here.  tc_verify makes the
   five checks of coset_enum._verify_table in the same order and returns
   the code of the first that fails.  Every table entry and letter is
   checked to lie in range before it is used as an index.  */

enum {
    TV_OK = 0, TV_NOT_PERMUTATION, TV_NOT_INVERSE, TV_UNREACHABLE,
    TV_RELATOR_OPEN, TV_SUBGROUP_MOVED, TV_BAD_ARGUMENT, TV_NO_MEMORY
};

static int tv_letters_in_range(int64_t w, const int32_t *flat,
                               const int64_t *off, int64_t nwords)
{
    for (int64_t k = off[0]; k < off[nwords]; k++)
        if (flat[k] < 0 || flat[k] >= w)
            return 0;
    return 1;
}

/* n entries per column, each in [0, n), no two equal */
static int tv_permutations(int64_t n, int64_t w, const int32_t *tab,
                           unsigned char *seen)
{
    for (int64_t c = 0; c < w; c++) {
        for (int64_t i = 0; i < n; i++)
            seen[i] = 0;
        for (int64_t i = 0; i < n; i++) {
            int32_t t = tab[i * w + c];
            if (t < 0 || t >= n || seen[t])
                return 0;
            seen[t] = 1;
        }
    }
    return 1;
}

/* from here on every entry is known to be a valid row */
static int tv_inverses(int64_t n, int64_t w, const int32_t *tab)
{
    for (int64_t c = 0; c < w; c++)
        for (int64_t i = 0; i < n; i++)
            if (tab[(int64_t)tab[i * w + c] * w + (c ^ 1)] != i)
                return 0;
    return 1;
}

/* breadth first from coset 0 along the generator columns, which suffice
   once each inverse column inverts its generator's; `queue` holds n */
static int tv_reachable(int64_t n, int64_t w, const int32_t *tab,
                        unsigned char *seen, int32_t *queue)
{
    int64_t head = 0, tail = 1;
    for (int64_t i = 0; i < n; i++)
        seen[i] = 0;
    seen[0] = 1;
    queue[0] = 0;
    while (head < tail) {
        int64_t row = (int64_t)queue[head++] * w;
        for (int64_t c = 0; c < w; c += 2) {
            int32_t t = tab[row + c];
            if (!seen[t]) {
                seen[t] = 1;
                queue[tail++] = t;
            }
        }
    }
    return tail == n;
}

/* each relator read from every coset at once, letter by letter: `at[i]`
   is the coset that the letters read so far lead to from coset i */
static int tv_relators_close(int64_t n, int64_t w, const int32_t *tab,
                             const int32_t *rel, const int64_t *rel_off,
                             int64_t nrel, int32_t *at)
{
    for (int64_t r = 0; r < nrel; r++) {
        const int32_t *word = rel + rel_off[r];
        int64_t len = rel_off[r + 1] - rel_off[r];
        if (len == 0)
            continue;   /* the empty word closes everywhere */
        for (int64_t i = 0; i < n; i++)
            at[i] = tab[i * w + word[0]];
        for (int64_t k = 1; k < len; k++)
            for (int64_t i = 0; i < n; i++)
                at[i] = tab[(int64_t)at[i] * w + word[k]];
        for (int64_t i = 0; i < n; i++)
            if (at[i] != i)
                return 0;
    }
    return 1;
}

static int tv_subgroup_fixes_0(int64_t w, const int32_t *tab,
                               const int32_t *sub, const int64_t *sub_off,
                               int64_t nsub)
{
    for (int64_t s = 0; s < nsub; s++) {
        int32_t at = 0;
        for (int64_t k = sub_off[s]; k < sub_off[s + 1]; k++)
            at = tab[(int64_t)at * w + sub[k]];
        if (at != 0)
            return 0;
    }
    return 1;
}

/* `tab` holds n rows of w entries; relators and subgroup words are
   flattened as for tc_enumerate, and may be empty.  TV_BAD_ARGUMENT: n < 1,
   or a letter outside [0, w). */
int tc_verify(int64_t n, int64_t w, const int32_t *tab,
              const int32_t *rel, const int64_t *rel_off, int64_t nrel,
              const int32_t *sub, const int64_t *sub_off, int64_t nsub)
{
    if (n < 1 || !tv_letters_in_range(w, rel, rel_off, nrel)
            || !tv_letters_in_range(w, sub, sub_off, nsub))
        return TV_BAD_ARGUMENT;
    unsigned char *seen = malloc((size_t)n);
    int32_t *buf = malloc((size_t)n * sizeof(int32_t));
    int rc;
    if (!seen || !buf)
        rc = TV_NO_MEMORY;
    else if (!tv_permutations(n, w, tab, seen))
        rc = TV_NOT_PERMUTATION;
    else if (!tv_inverses(n, w, tab))
        rc = TV_NOT_INVERSE;
    else if (!tv_reachable(n, w, tab, seen, buf))
        rc = TV_UNREACHABLE;
    else if (!tv_relators_close(n, w, tab, rel, rel_off, nrel, buf))
        rc = TV_RELATOR_OPEN;
    else if (!tv_subgroup_fixes_0(w, tab, sub, sub_off, nsub))
        rc = TV_SUBGROUP_MOVED;
    else
        rc = TV_OK;
    free(seen);
    free(buf);
    return rc;
}
