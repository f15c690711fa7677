"""Todd-Coxeter coset enumeration over a finite presentation.

The enumerator keeps the coset table as one flat array('i') of 32-bit coset
ids, two columns per generator (even column = generator, odd = its inverse,
so `col ^ 1` flips direction).  At four generators a row costs 32 bytes, so
a 10^7-coset budget stays near desk-scale memory.  Coincidences are merged
eagerly through a union-find with path compression; dead rows are compacted
away once they exceed a quarter of the table.

Two strategies are provided: HLT with lookahead (default; scan-and-fill all
relators at each coset, one recovery lookahead pass when the table fills)
and Felsch (minimal definitions, deductions propagated against relator
cyclic conjugates).  On success both finish with an exhaustive verification
pass: every generator column a permutation, every relator closing at every
coset, every subgroup generator closing at coset 0.  Failure to finish
within the coset budget is reported as an Overflow outcome, which is an
explicitly inconclusive result, never evidence of infinite index.

`_Engine` below is the executable specification.  HLT runs in its C port
(`_fast`, source `_tc.c`) whenever that compiles and loads, which gives
the same table bytes and counters; otherwise, and for Felsch, `_Engine`
runs.  Either way the table goes through the same verification pass, and
the outcome names the engine that ran.

`find_relator` recovers a nonempty relator in the subgroup generators by
short-word search with exact matrix evaluation, falling back to an
augmented (word-labelled) re-enumeration that rewrites relator traces into
subgroup words.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import _fast
from .exact import GroupWord, UniModularMatrix, evaluate_word
from .presentation import Presentation

UNDEF = -1

DEFAULT_MAX_COSETS = 10_000_000

# dead-row fraction that triggers compaction
_COMPACT_FRACTION = 0.25
_COMPACT_MIN_ROWS = 4096

# syllables per word in the relator search's collision ball
_SYLLABLE_DEPTH = 3


@dataclass(frozen=True)
class EnumerationLimits:
    max_cosets: int = DEFAULT_MAX_COSETS
    strategy: str = "hlt"            # "hlt" | "felsch"
    time_limit_s: Optional[float] = None

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        if self.strategy not in ("hlt", "felsch"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


class CosetTable:
    """Complete, compacted coset table: rows 0..n-1, coset 0 = the subgroup.

    Column order is generator, inverse, generator, inverse, ... following
    the presentation's generator order.
    """

    def __init__(self, generators: Sequence[str], flat: array, n: int):
        self.generators = tuple(generators)
        self.width = 2 * len(self.generators)
        self._tab = flat
        self.n = n
        self.status = "complete"
        self.col_of = {g: 2 * i for i, g in enumerate(self.generators)}

    def _letters(self, w: GroupWord) -> list[int]:
        return word_to_letters(w, self.col_of)

    def target(self, coset: int, sym: str, invert: bool = False) -> int:
        col = self.col_of[sym] ^ (1 if invert else 0)
        return self._tab[coset * self.width + col]

    def trace(self, start: int, w: GroupWord) -> int:
        cur = start
        width = self.width
        tab = self._tab
        for letter in self._letters(w):
            cur = tab[cur * width + letter]
        return cur

    def generator_permutation(self, sym: str) -> list[int]:
        col = self.col_of[sym]
        width = self.width
        return [self._tab[i * width + col] for i in range(self.n)]

    def dump_text(self) -> str:
        """One line per coset: tab-separated 1-based targets in column order
        s, s^-1, t, t^-1, x_p, x_p^-1, ..."""
        width = self.width
        lines = []
        for i in range(self.n):
            row = self._tab[i * width:(i + 1) * width]
            lines.append("\t".join(str(e + 1) for e in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EnumerationOutcome:
    """Result of an enumeration: Completed(index, table) or Overflow."""

    completed: bool
    index: Optional[int] = None
    table: Optional[CosetTable] = None
    peak_cosets: int = 0
    defined_total: int = 0
    reason: Optional[str] = None     # set on overflow: "max_cosets" | "time_limit"
    engine: str = "pure"             # "c" (the _fast kernel) | "pure"


def word_to_letters(w: GroupWord, col_of: dict) -> list[int]:
    """Flatten a word into a sequence of column indices."""
    out: list[int] = []
    for sym, exp in w.syllables:
        try:
            col = col_of[sym]
        except KeyError:
            raise ValueError(f"word uses unknown generator {sym!r}") from None
        if exp > 0:
            out.extend([col] * exp)
        else:
            out.extend([col ^ 1] * (-exp))
    return out


def _free_reduce_letters(letters: Sequence[int]) -> list[int]:
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == (l ^ 1):
            stack.pop()
        else:
            stack.append(l)
    return stack


def _cyclic_reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    red = _free_reduce_letters(letters)
    i, j = 0, len(red)
    while j - i >= 2 and red[i] == (red[j - 1] ^ 1):
        i += 1
        j -= 1
    return tuple(red[i:j])


class _TableFull(Exception):
    pass


class _TimeLimit(Exception):
    pass


class _Engine:
    """One enumeration owns its engine exclusively; nothing here is shared."""

    def __init__(self, width: int, relators: Sequence[tuple[int, ...]],
                 subgroup: Sequence[tuple[int, ...]], limits: EnumerationLimits,
                 progress: Optional[Callable[[int, int], None]] = None,
                 progress_every: int = 100_000):
        self.w = width
        self.relators = [r for r in relators if r]
        self.subgroup = list(subgroup)
        self.max_cosets = limits.max_cosets
        self.deadline = (time.monotonic() + limits.time_limit_s
                         if limits.time_limit_s else None)
        self.tab = array("i", [UNDEF] * width)
        self.p = array("i", [0])
        self.live = 1
        self.defined_total = 1
        self.peak = 1
        self.progress = progress
        self.progress_every = progress_every
        self.deductions: Optional[list] = None   # Felsch only
        self._blank_row = array("i", [UNDEF] * width)

    # -- primitive operations ---------------------------------------------

    def _rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, a: int, b: int, queue: list) -> None:
        ra = self._rep(a)
        rb = self._rep(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.p[rb] = ra
            self.live -= 1
            queue.append(rb)

    def _coincide(self, a: int, b: int) -> None:
        tab = self.tab
        w = self.w
        queue: list[int] = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = gamma * w
            for x in range(w):
                delta = tab[row + x]
                if delta == UNDEF:
                    continue
                tab[delta * w + (x ^ 1)] = UNDEF
                mu = self._rep(gamma)
                nu = self._rep(delta)
                tmu = tab[mu * w + x]
                if tmu != UNDEF:
                    self._merge(nu, tmu, queue)
                else:
                    tnu = tab[nu * w + (x ^ 1)]
                    if tnu != UNDEF:
                        self._merge(mu, tnu, queue)
                    else:
                        tab[mu * w + x] = nu
                        tab[nu * w + (x ^ 1)] = mu
                        if self.deductions is not None:
                            self.deductions.append((mu, x))

    def _define(self, alpha: int, x: int) -> None:
        ncosets = len(self.p)
        if ncosets >= self.max_cosets:
            raise _TableFull
        if self.deadline is not None and self.defined_total % 4096 == 0 \
                and time.monotonic() > self.deadline:
            raise _TimeLimit
        beta = ncosets
        self.tab.extend(self._blank_row)
        self.p.append(beta)
        self.tab[alpha * self.w + x] = beta
        self.tab[beta * self.w + (x ^ 1)] = alpha
        self.live += 1
        self.defined_total += 1
        if self.live > self.peak:
            self.peak = self.live
        if self.deductions is not None:
            self.deductions.append((alpha, x))
        if self.progress and self.defined_total % self.progress_every == 0:
            self.progress(self.defined_total, self.live)

    def _scan(self, alpha: int, letters: tuple[int, ...], fill: bool) -> None:
        tab = self.tab
        w = self.w
        f = alpha
        b = alpha
        i = 0
        j = len(letters) - 1
        while True:
            while i <= j:
                nxt = tab[f * w + letters[i]]
                if nxt == UNDEF:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self._coincide(f, b)
                return
            while j >= i:
                nxt = tab[b * w + (letters[j] ^ 1)]
                if nxt == UNDEF:
                    break
                b = nxt
                j -= 1
            if j < i:
                self._coincide(f, b)
                return
            if j == i:
                tab[f * w + letters[i]] = b
                tab[b * w + (letters[i] ^ 1)] = f
                if self.deductions is not None:
                    self.deductions.append((f, letters[i]))
                return
            if not fill:
                return
            self._define(f, letters[i])

    # -- table maintenance ---------------------------------------------------

    def _lookahead(self) -> None:
        """Scan every relator at every live coset without new definitions."""
        p = self.p
        for gamma in range(len(p)):
            if p[gamma] != gamma:
                continue
            for rel in self.relators:
                self._scan(gamma, rel, False)
                if p[gamma] != gamma:
                    break

    def _compact(self, mark: int) -> int:
        """Renumber live cosets densely, preserving order.  Returns the new
        position of `mark` (count of live cosets below it)."""
        p = self.p
        w = self.w
        old_n = len(p)
        if old_n > self.peak:
            self.peak = old_n      # peak is the allocation high-water mark
        newid = array("i", [UNDEF]) * old_n
        nid = 0
        new_mark = 0
        for old in range(old_n):
            if p[old] == old:
                newid[old] = nid
                if old < mark:
                    new_mark += 1
                nid += 1
        old_tab = self.tab
        new_tab = array("i", bytes(4 * nid * w))  # zero-filled, overwritten below
        pos = 0
        for old in range(old_n):
            if p[old] != old:
                continue
            row = old * w
            for x in range(w):
                e = old_tab[row + x]
                new_tab[pos] = UNDEF if e == UNDEF else newid[e]
                pos += 1
        self.tab = new_tab
        self.p = array("i", range(nid))
        self.live = nid
        return new_mark

    def _maybe_compact(self, mark: int) -> int:
        n = len(self.p)
        if n > _COMPACT_MIN_ROWS and (n - self.live) > n * _COMPACT_FRACTION:
            return self._compact(mark)
        return mark

    # -- verification ----------------------------------------------------------

    def _closing_pass(self) -> bool:
        """Scan all relators everywhere and subgroup generators at 0 without
        filling.  Returns True when no merge happened and no entry is
        undefined, i.e. the table is complete and closed."""
        live_before = self.live
        for sub in self.subgroup:
            self._scan(0, sub, False)
        self._lookahead()
        if self.live != live_before:
            return False
        p = self.p
        tab = self.tab
        w = self.w
        for gamma in range(len(p)):
            if p[gamma] != gamma:
                continue
            row = gamma * w
            for x in range(w):
                if tab[row + x] == UNDEF:
                    return False
        return True

    # -- strategies --------------------------------------------------------------

    def run_hlt(self) -> None:
        p = self.p
        alpha = 0
        started = False
        while True:
            if not started:
                # seed: subgroup generators close at coset 0
                try:
                    for sub in self.subgroup:
                        self._scan(0, sub, True)
                    started = True
                except _TableFull:
                    self._recover(0)
                    continue
            while alpha < len(p):
                p = self.p
                if p[alpha] != alpha:
                    alpha += 1
                    continue
                try:
                    dead = False
                    for rel in self.relators:
                        self._scan(alpha, rel, True)
                        if p[alpha] != alpha:
                            dead = True
                            break
                    if not dead:
                        w = self.w
                        row = alpha * w
                        tab = self.tab
                        for x in range(w):
                            if tab[row + x] == UNDEF:
                                self._define(alpha, x)
                except _TableFull:
                    alpha = self._recover(alpha)
                    p = self.p
                    continue
                alpha += 1
                alpha = self._maybe_compact(alpha)
                p = self.p
            if self._closing_pass():
                return
            # a closing merge re-opened the table; re-run from the top
            alpha = self._compact(0)
            p = self.p
            started = False

    def _recover(self, alpha: int) -> int:
        """Lookahead plus compaction after the table filled; overflow if the
        space recovered is too small to make progress."""
        self.peak = max(self.peak, len(self.p))
        self._lookahead()
        new_alpha = self._compact(alpha)
        if len(self.p) >= self.max_cosets * 0.98:
            raise _TableFull
        return new_alpha

    def run_felsch(self) -> None:
        # relator cyclic conjugates, bucketed by leading letter
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(self.w)]
        seen = set()
        for rel in self.relators:
            for r in (rel, tuple(l ^ 1 for l in reversed(rel))):
                for k in range(len(r)):
                    rot = r[k:] + r[:k]
                    if rot not in seen:
                        seen.add(rot)
                        buckets[rot[0]].append(rot)
        self.deductions = []
        p = self.p
        while True:
            try:
                for sub in self.subgroup:
                    self._scan(0, sub, True)
                self._drain_deductions(buckets)
                alpha = 0
                while alpha < len(self.p):
                    p = self.p
                    if p[alpha] != alpha:
                        alpha += 1
                        continue
                    x = 0
                    while x < self.w:
                        if p[alpha] != alpha:
                            break
                        if self.tab[alpha * self.w + x] == UNDEF:
                            self._define(alpha, x)
                            self._drain_deductions(buckets)
                        x += 1
                    alpha += 1
            except _TableFull:
                self.peak = max(self.peak, len(self.p))
                self.deductions = []
                self._lookahead()
                self._compact(0)
                if len(self.p) >= self.max_cosets * 0.98:
                    raise
                continue
            if self._closing_pass():
                return
            self._compact(0)

    def _drain_deductions(self, buckets) -> None:
        # buckets hold the rotations of every relator and of its inverse,
        # so the scans from a cover every relator cycle through the edge
        # (a, x); the scan is bidirectional, so scanning the same cycles
        # again from a^x, reversed, would deduce nothing new
        stack = self.deductions
        p = self.p
        while stack:
            if len(stack) > max(4096, 2 * self.live):
                # stack blow-up: a full lookahead subsumes the queued work
                del stack[:]
                self._lookahead()
                continue
            a, x = stack.pop()
            if p[a] == a:
                for wrd in buckets[x]:
                    self._scan(a, wrd, False)
                    if p[a] != a:
                        break


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[GroupWord],
                 limits: Optional[EnumerationLimits] = None,
                 progress: Optional[Callable[[int, int], None]] = None,
                 progress_every: int = 100_000) -> EnumerationOutcome:
    """Enumerate cosets of the subgroup generated by `subgroup_gens` words
    in the finitely presented group.

    Returns a Completed outcome carrying the index and the verified table,
    or an Overflow outcome when the coset or time budget is exhausted.
    Overflow is inconclusive: it never demonstrates infinite index.

    HLT runs in the C kernel (`_fast`) whenever it can be built and
    loaded, else in the pure engine; both produce the same table and
    counters, and `engine` on the outcome says which one ran.  Felsch
    always runs in the pure engine.  Every completed table goes through
    the same exhaustive verification.  `progress(defined, live)` is
    called every `progress_every` definitions; an exception it raises
    aborts the run and propagates.
    """
    if limits is None:
        limits = EnumerationLimits()
    if progress is not None and progress_every < 1:
        raise ValueError("progress_every must be >= 1")
    col_of = {g: 2 * i for i, g in enumerate(pres.generators)}
    relators = [_cyclic_reduce_letters(word_to_letters(r, col_of))
                for r in pres.relators]
    subgroup = [tuple(_free_reduce_letters(word_to_letters(g, col_of)))
                for g in subgroup_gens]
    width = 2 * len(pres.generators)

    run = None
    if limits.strategy == "hlt" and limits.max_cosets <= _fast.MAX_COSETS:
        run = _fast.run_hlt(width, relators, subgroup, limits.max_cosets,
                            limits.time_limit_s, progress, progress_every)
    engine = "c"
    if run is None:
        engine = "pure"
        run = _run_pure(width, relators, subgroup, limits, progress,
                        progress_every)
    flat, n, peak, defined, reason = run
    if reason is not None:
        return EnumerationOutcome(completed=False, peak_cosets=peak,
                                  defined_total=defined, reason=reason,
                                  engine=engine)
    table = CosetTable(pres.generators, flat, n)
    _verify_table(table, relators, subgroup)
    return EnumerationOutcome(completed=True, index=n, table=table,
                              peak_cosets=peak, defined_total=defined,
                              engine=engine)


def _run_pure(width: int, relators, subgroup, limits: EnumerationLimits,
              progress, progress_every: int):
    """`_Engine` run, as (table, rows, peak, defined, reason) like
    `_fast.run_hlt`."""
    engine = _Engine(width, relators, subgroup, limits,
                     progress=progress, progress_every=progress_every)
    try:
        if limits.strategy == "felsch":
            engine.run_felsch()
        else:
            engine.run_hlt()
    except (_TableFull, _TimeLimit) as exc:
        reason = "max_cosets" if isinstance(exc, _TableFull) else "time_limit"
        return (None, len(engine.p), max(engine.peak, len(engine.p)),
                engine.defined_total, reason)
    engine._compact(0)
    return (engine.tab, engine.live, max(engine.peak, engine.live),
            engine.defined_total, None)


def _verify_table(table: CosetTable, relators: Sequence[tuple[int, ...]],
                  subgroup: Sequence[tuple[int, ...]]) -> None:
    """Exhaustive invariant check on a completed table."""
    n = table.n
    w = table.width
    tab = table._tab
    for col in range(w):
        seen = bytearray(n)
        for i in range(n):
            e = tab[i * w + col]
            if e < 0 or e >= n or seen[e]:
                raise RuntimeError("generator column is not a permutation")
            seen[e] = 1
    for col in range(w):
        for i in range(n):
            if tab[tab[i * w + col] * w + (col ^ 1)] != i:
                raise RuntimeError(
                    "inverse column does not invert its generator column")
    reached = bytearray(n)
    reached[0] = 1
    frontier = [0]
    for i in frontier:
        for e in tab[i * w:(i + 1) * w]:
            if not reached[e]:
                reached[e] = 1
                frontier.append(e)
    if len(frontier) != n:
        raise RuntimeError("some coset is not reachable from coset 0")
    for rel in relators:
        for i in range(n):
            cur = i
            for letter in rel:
                cur = tab[cur * w + letter]
            if cur != i:
                raise RuntimeError("relator does not close at every coset")
    for sub in subgroup:
        cur = 0
        for letter in sub:
            cur = tab[cur * w + letter]
        if cur != 0:
            raise RuntimeError("subgroup generator does not fix coset 0")


def word_stabilizes_one(table: CosetTable, w: GroupWord) -> bool:
    """True iff tracing w from coset 0 returns to coset 0; for a complete
    table this is membership of the word's image in the subgroup."""
    if table.status != "complete":
        raise ValueError("coset table is not complete")
    return table.trace(0, w) == 0


# -- relator recovery ---------------------------------------------------------

def find_relator(pres: Presentation, word_a: GroupWord, word_b: GroupWord,
                 table: CosetTable, bound: int = 300,
                 augmented_limit: int = 50_000) -> Optional[GroupWord]:
    """A nonempty relator of the subgroup generated by word_a, word_b, as a
    freely reduced word over the symbols A and B, or None within `bound`.

    `bound` limits the total of absolute exponents.  The search enumerates
    short-syllable words by increasing size and looks for two kinds of
    collisions with exact matrix arithmetic: equal evaluations (u = v gives
    the relator u v^-1) and conjugation collisions (translation powers fix
    a corner entry and the trace, so u, v agreeing there may satisfy
    g^k u g^-k = v with k solvable in closed form).  The latter is what
    recovers the long witnesses whose exponents scale with the index.  An
    augmented re-enumeration rewriting relator traces into subgroup words
    is the fallback.  Every returned word is re-verified by evaluation.
    """
    if table.status != "complete":
        raise ValueError("coset table is not complete")
    mat_a = evaluate_word(word_a, pres.assignment)
    mat_b = evaluate_word(word_b, pres.assignment)
    m = mat_a.e12  # the translation length a/b
    candidates = _collision_relator_search(mat_a, mat_b, m, bound)
    if not candidates and table.n <= augmented_limit:
        # intermediate blowup scales with the presentation, not the index
        candidates = _augmented_relator_search(
            pres, [word_a, word_b],
            max_cosets=max(200_000, 64 * table.n))
    best: Optional[GroupWord] = None
    asg = {"A": mat_a, "B": mat_b}
    for cand in candidates:
        cand = cand.cyclically_reduced().rotated_to("A")
        if cand.is_empty() or cand.weight > bound:
            continue
        if not evaluate_word(cand, asg).is_identity():
            continue
        if best is None or cand.weight < best.weight:
            best = cand
    return best


class _SyllableBall:
    """All alternating words in A, B with at most `depth` syllables and
    exponents in [-erange, erange], in breadth-first order, stored as
    parallel lists: evaluation, weight, and the parent element (-1 for
    the empty word) with the last syllable.  Only the few elements a
    collision reads get their word rebuilt (`word`)."""

    def __init__(self, mat_a: UniModularMatrix, mat_b: UniModularMatrix,
                 depth: int, erange: int, cap: int = 400_000):
        powers = {sym: [(e, mat.pow(e)) for e in range(-erange, erange + 1)
                        if e]
                  for sym, mat in (("A", mat_a), ("B", mat_b))}
        self.mats: list[UniModularMatrix] = []
        self.weights: list[int] = []
        self.parents: list[int] = []
        self.syllables: list[tuple[str, int]] = []
        identity = UniModularMatrix.identity()
        layer = range(-1, 0)
        for _ in range(depth):
            start = len(self.mats)
            for parent in layer:
                if parent < 0:
                    mat, weight, last = identity, 0, ""
                else:
                    mat = self.mats[parent]
                    weight = self.weights[parent]
                    last = self.syllables[parent][0]
                for sym in ("A", "B"):
                    if sym == last:
                        continue
                    for e, step in powers[sym]:
                        self.mats.append(mat * step)
                        self.weights.append(weight + abs(e))
                        self.parents.append(parent)
                        self.syllables.append((sym, e))
                if len(self.mats) > cap:
                    return
            layer = range(start, len(self.mats))

    def word(self, i: int) -> GroupWord:
        out = []
        while i >= 0:
            out.append(self.syllables[i])
            i = self.parents[i]
        return GroupWord(tuple(reversed(out)))


def _collision_relator_search(mat_a: UniModularMatrix, mat_b: UniModularMatrix,
                              m, bound: int,
                              pair_cap: int = 6_000_000) -> list[GroupWord]:
    erange = max(12, int(1 / m) + 2 if 0 < m < 1 else 12, m.denominator + 2)
    ball = _SyllableBall(mat_a, mat_b, _SYLLABLE_DEPTH, erange)
    mats, weights = ball.mats, ball.weights
    out: list[GroupWord] = []

    # equal-evaluation collisions
    seen: dict[UniModularMatrix, int] = {}
    for i, mat in enumerate(mats):
        first = seen.setdefault(mat, i)
        if first != i:
            rel = ball.word(i) * ball.word(first).inv()
            if not rel.is_empty():
                out.append(rel)
    if out:
        return out

    # conjugation collisions: bucket by the entry a translation power fixes
    # together with the trace, then solve for the conjugating exponent
    for sym, conj_mat, corner in (("A", mat_a, "e21"), ("B", mat_b, "e12")):
        buckets: dict[tuple, list[int]] = {}
        for i, mat in enumerate(mats):
            r = getattr(mat, corner)
            if r == 0:
                continue
            buckets.setdefault((r, mat.trace()), []).append(i)
        pairs = 0
        for (r, _), items in buckets.items():
            n = len(items)
            if n < 2:
                continue
            pairs += n * (n - 1) // 2
            if pairs > pair_cap:
                break
            for u in items:
                u_mat = mats[u]
                for v in items:
                    if u == v:
                        continue
                    v_mat = mats[v]
                    # translation by c = k*m moves the fixed-corner row:
                    # conj by A(c): p -> p + c*r;  conj by B(c): s -> s + c*q
                    if sym == "A":
                        c = (v_mat.e11 - u_mat.e11) / r
                    else:
                        c = (v_mat.e22 - u_mat.e22) / r
                    if c == 0:
                        continue
                    k = c / m
                    if k.denominator != 1:
                        continue
                    k = int(k)
                    if 2 * abs(k) + weights[u] + weights[v] > bound:
                        continue
                    gk = conj_mat.pow(k)
                    if gk * u_mat * gk.inv() != v_mat:
                        continue
                    rel = (GroupWord(((sym, k),)) * ball.word(u)
                           * GroupWord(((sym, -k),)) * ball.word(v).inv())
                    if not rel.is_empty():
                        out.append(rel)
            if out:
                break
        if out:
            break
    return out


# -- augmented enumeration (subgroup-word labels) ------------------------------
#
# Labels are lazy word DAGs: concatenation and inversion are O(1) node
# allocations, and a label is freely reduced only when it is finally read
# off the completed table.  Eager tuples would be copied on every
# coincidence and turn the merge cascade quadratic.

def _wmul(u, v):
    if u is None:
        return v
    if v is None:
        return u
    return ("cat", u, v)


def _winv(u):
    if u is None:
        return None
    if u[0] == "inv":
        return u[1]
    return ("inv", u)


def _wsyl(sym: str, exp: int):
    return ("syl", sym, exp)


def _wmaterialize(node, memo: dict) -> tuple:
    """Reduced syllable tuple for a lazy word node (iterative, memoized).

    Memo values keep a reference to their node: entries are keyed by id()
    and a collected node would let its id be reused by a fresh one.
    """
    if node is None:
        return ()
    hit = memo.get(id(node))
    if hit is not None:
        return hit[1]
    stack = [node]
    while stack:
        cur = stack[-1]
        if cur is None or id(cur) in memo:
            stack.pop()
            continue
        kind = cur[0]
        if kind == "syl":
            memo[id(cur)] = (cur, ((cur[1], cur[2]),))
            stack.pop()
        elif kind == "inv":
            inner = cur[1]
            if inner is not None and id(inner) not in memo:
                stack.append(inner)
                continue
            red = memo[id(inner)][1] if inner is not None else ()
            memo[id(cur)] = (cur, tuple((s, -e) for s, e in reversed(red)))
            stack.pop()
        else:  # cat
            left, right = cur[1], cur[2]
            missing = [n for n in (left, right)
                       if n is not None and id(n) not in memo]
            if missing:
                stack.extend(missing)
                continue
            lred = memo[id(left)][1] if left is not None else ()
            rred = memo[id(right)][1] if right is not None else ()
            merged = list(lred)
            ri = 0
            while merged and ri < len(rred) and merged[-1][0] == rred[ri][0]:
                e = merged[-1][1] + rred[ri][1]
                ri += 1
                if e == 0:
                    merged.pop()
                else:
                    merged[-1] = (merged[-1][0], e)
                    break
            memo[id(cur)] = (cur, tuple(merged) + rred[ri:])
            stack.pop()
    return memo[id(node)][1]


class _AugmentedEngine:
    """Todd-Coxeter with subgroup-word labels on every table entry.

    Kept deliberately simple (lists, no compaction): it only runs at
    moderate scale to extract subgroup relators, not to race the main
    enumerator.  Labels are lazy nodes; see _wmaterialize.
    """

    def __init__(self, width: int, relators, subgroup, max_cosets: int):
        self.w = width
        self.relators = [r for r in relators if r]
        self.subgroup = subgroup            # list of (letters, symbol)
        self.max_cosets = max_cosets
        self.tab: list[list[int]] = [[UNDEF] * width]
        self.ptab: list[list] = [[None] * width]   # labels; None = identity
        self.p: list[int] = [0]
        self.p_p: dict[int, object] = {0: None}

    def rep(self, k: int) -> int:
        p, p_p = self.p, self.p_p
        chain = []
        r = k
        while p[r] != r:
            chain.append(r)
            r = p[r]
        for node in reversed(chain):
            parent = p[node]
            if parent != r:
                p_p[node] = _wmul(p_p[node], p_p[parent])
                p[node] = r
        return r

    def merge(self, k: int, lam: int, wrd, queue: list) -> None:
        # relation: tau(k) = wrd * tau(lam) as subgroup elements
        phi = self.rep(k)
        psi = self.rep(lam)
        if phi == psi:
            return
        mu, v = (phi, psi) if phi < psi else (psi, phi)
        if v == phi:
            self.p_p[phi] = _wmul(_wmul(_winv(self.p_p[k]), wrd), self.p_p[lam])
        else:
            self.p_p[psi] = _wmul(_wmul(_winv(self.p_p[lam]), _winv(wrd)),
                                  self.p_p[k])
        self.p[v] = mu
        queue.append(v)

    def coincide(self, a: int, b: int, wrd) -> None:
        tab, ptab = self.tab, self.ptab
        queue: list[int] = []
        self.merge(a, b, wrd, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for x in range(self.w):
                delta = tab[gamma][x]
                if delta == UNDEF:
                    continue
                tab[delta][x ^ 1] = UNDEF
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if tab[mu][x] != UNDEF:
                    v = _wmul(_wmul(_winv(self.p_p[delta]),
                                    _winv(ptab[gamma][x])),
                              _wmul(self.p_p[gamma], ptab[mu][x]))
                    self.merge(nu, tab[mu][x], v, queue)
                elif tab[nu][x ^ 1] != UNDEF:
                    v = _wmul(_wmul(_winv(self.p_p[gamma]), ptab[gamma][x]),
                              _wmul(self.p_p[delta], ptab[nu][x ^ 1]))
                    self.merge(mu, tab[nu][x ^ 1], v, queue)
                else:
                    v = _wmul(_wmul(_winv(self.p_p[gamma]), ptab[gamma][x]),
                              self.p_p[delta])
                    tab[mu][x] = nu
                    tab[nu][x ^ 1] = mu
                    ptab[mu][x] = v
                    ptab[nu][x ^ 1] = _winv(v)

    def define(self, alpha: int, x: int) -> None:
        if len(self.p) >= self.max_cosets:
            raise _TableFull
        beta = len(self.p)
        self.tab.append([UNDEF] * self.w)
        self.ptab.append([None] * self.w)
        self.p.append(beta)
        self.p_p[beta] = None
        self.tab[alpha][x] = beta
        self.tab[beta][x ^ 1] = alpha

    def scan(self, alpha: int, letters, y, fill: bool) -> None:
        tab, ptab = self.tab, self.ptab
        f = alpha
        f_p = None
        b = alpha
        b_p = y
        i, j = 0, len(letters) - 1
        while True:
            while i <= j and tab[f][letters[i]] != UNDEF:
                f_p = _wmul(f_p, ptab[f][letters[i]])
                f = tab[f][letters[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b, _wmul(_winv(f_p), b_p))
                return
            while j >= i and tab[b][letters[j] ^ 1] != UNDEF:
                b_p = _wmul(b_p, ptab[b][letters[j] ^ 1])
                b = tab[b][letters[j] ^ 1]
                j -= 1
            if j < i:
                self.coincide(f, b, _wmul(_winv(f_p), b_p))
                return
            if j == i:
                tab[f][letters[i]] = b
                tab[b][letters[i] ^ 1] = f
                ptab[f][letters[i]] = _wmul(_winv(f_p), b_p)
                ptab[b][letters[i] ^ 1] = _wmul(_winv(b_p), f_p)
                return
            if not fill:
                return
            self.define(f, letters[i])

    def run(self) -> None:
        for letters, sym in self.subgroup:
            self.scan(0, letters, _wsyl(sym, 1), True)
        alpha = 0
        while alpha < len(self.p):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for rel in self.relators:
                self.scan(alpha, rel, None, True)
                if self.p[alpha] != alpha:
                    break
            else:
                for x in range(self.w):
                    if self.tab[alpha][x] == UNDEF:
                        self.define(alpha, x)
            alpha += 1

    def relator_words(self):
        """Rewrites of every relator trace at every live coset, plus the
        subgroup-generator traces against their own symbols.  Returns
        reduced syllable tuples."""
        out = []
        memo: dict = {}
        for rel in self.relators:
            for alpha in range(len(self.p)):
                if self.p[alpha] != alpha:
                    continue
                cur = alpha
                acc = None
                ok = True
                for letter in rel:
                    nxt = self.tab[cur][letter]
                    if nxt == UNDEF:
                        ok = False
                        break
                    acc = _wmul(acc, self.ptab[cur][letter])
                    cur = nxt
                if ok and cur == alpha:
                    red = _wmaterialize(acc, memo)
                    if red:
                        out.append(red)
        for letters, sym in self.subgroup:
            cur = 0
            acc = None
            ok = True
            for letter in letters:
                nxt = self.tab[cur][letter]
                if nxt == UNDEF:
                    ok = False
                    break
                acc = _wmul(acc, self.ptab[cur][letter])
                cur = nxt
            if ok and cur == 0:
                red = _wmaterialize(_wmul(acc, _winv(_wsyl(sym, 1))), memo)
                if red:
                    out.append(red)
        return out


def _augmented_relator_search(pres: Presentation, sub_words: Sequence[GroupWord],
                              max_cosets: int) -> list[GroupWord]:
    col_of = {g: 2 * i for i, g in enumerate(pres.generators)}
    relators = [_cyclic_reduce_letters(word_to_letters(r, col_of))
                for r in pres.relators]
    symbols = ["A", "B"]
    subgroup = [(tuple(_free_reduce_letters(word_to_letters(g, col_of))),
                 symbols[i]) for i, g in enumerate(sub_words)]
    engine = _AugmentedEngine(2 * len(pres.generators), relators, subgroup,
                              max_cosets)
    try:
        engine.run()
    except _TableFull:
        return []
    return [GroupWord(w) for w in engine.relator_words()]
