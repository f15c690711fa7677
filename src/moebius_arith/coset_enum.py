"""Todd-Coxeter coset enumeration over a finite presentation.

The enumerator keeps the coset table as one flat array('i') of 32-bit coset
ids, two columns per generator (even column = generator, odd = its inverse,
so `col ^ 1` flips direction).  At four generators a row costs 32 bytes, so
a 10^7-coset budget stays near desk-scale memory.  Coincidences are merged
eagerly through a union-find with path compression; dead rows are compacted
away once they exceed a quarter of the table.

One loop serves both strategies.  It seeds the subgroup words at coset 0,
walks the live cosets in order, recovers a full table with one lookahead
pass and resumes, compacts, and ends with a closing pass that restarts the
walk if it re-opens the table.  Unlabelled HLT also makes that recovery
at growth points, before the table is full: first at
`_LOOKAHEAD_MIN_ROWS` rows, then each time the rows reach
`_LOOKAHEAD_GROWTH` times those the last one left (HLT with lookahead, as
in Havas, "Coset enumeration strategies", ISSAC 1991).  Such a lookahead
finds a collapse while the table is small; 7/4 defines 276,938 cosets
with it and 478,722 without.  Felsch and labelled runs wait for a full
table (see `_recover`).  A strategy is the step taken at each coset:
HLT (default) scans every relator there with fill, then defines the open
entries; Felsch defines each open entry and propagates its deductions
against the relators' cyclic conjugates before the next one.  The step
also fixes where the recovery lookahead starts: under HLT at the walk
position, since HLT has closed every relator cycle at the live cosets below
it; under Felsch, like every other lookahead, at coset 0.  A completed
table then goes through an exhaustive verification pass with five checks:
every column a permutation, every inverse column inverting its generator
column, every coset reachable from coset 0, every relator closing at every
coset, and every subgroup generator closing at coset 0.  Failure to
finish within the coset budget is reported as an Overflow outcome, which
is an explicitly inconclusive result, never evidence of infinite index.

`_Engine` below is the executable specification.  Both strategies run in
its C port (`_fast`, source `_tc.c`) whenever that compiles and loads,
which gives the same table bytes and counters; otherwise `_Engine` runs.
The verification pass follows the engine: the kernel's tables are checked
in C by `_fast.verify`, `_Engine`'s by `_verify_table` here.  Each checker
shares no code with the enumerator it checks, both make the five checks
in the same order and raise the same messages (`_VERIFY_MESSAGES`), and
the outcome's `engine` names the pair that ran.  `_verify_table` is the
plain reference the kernel's checker is tested against: it makes each
check coset by coset, tracing every relator from every coset one letter at
a time.

`_Engine` also has a labelled mode, the modified Todd-Coxeter of Holt, Eick
& O'Brien (Handbook of Computational Group Theory, ch. 5): every table
entry carries a word in symbols for the subgroup words.  The labels are
lazy word DAGs, written only at definitions, deductions, coincidences and
compactions, so they never steer the walk and the table is the unlabelled
one.  Labelled mode is pure Python; the kernel ports the unlabelled engine.

`find_relator` recovers a nonempty relator in the subgroup generators by
short-word search, falling back to a labelled run whose relator traces,
read off the closed table, are words in the subgroup generators, unless the
search's equal evaluations already rule out every relator within the bound.
The search's ball of short words is integer arithmetic over one fixed
denominator, each word its parent sheared by a step A(m)^e = A(e*m) or
B(m)^e = B(e*m) read off the translation length m, with every word's
determinant checked.  When the kernel loads and the entries fit in int64,
one call builds the ball and records its equal evaluations (`_fast.ball`);
`_SyllableBall` and its `equal_evaluations` here are its reference and
its fallback, as `_Engine` is for the enumerator.  The conjugation
collisions, the second phase, run only in Python
(`_conjugation_collisions`), on either kind of ball: 20-230 ms per call
for b <= 13 when the equal evaluations give none.  Both phases give
collision records, (sym, k, u, v) for the relator sym^k u sym^-k v^-1,
and `_collision_relator_search` spells the candidates from them.  The
candidates are verified in Python, lightest first, by exact evaluation,
each rotated to start with A only when it is evaluated.
"""

from __future__ import annotations

import gc
import math
import numbers
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import _fast
from .exact import (GroupWord, UniModularMatrix, _extend_reduced,
                    check_count, evaluate_word, word)
from .presentation import Presentation

UNDEF = -1

DEFAULT_MAX_COSETS = 10_000_000
# definitions, or live cosets scanned in a lookahead, between two polls of
# a run, the same in both engines (the kernel's POLL_EVERY); definitions
# between two `progress` reports
_POLL_EVERY = 4096
PROGRESS_EVERY = 16 * _POLL_EVERY
# `find_relator`'s limit on a relator's total of absolute exponents
DEFAULT_WITNESS_BOUND = 300

# dead-row fraction that triggers compaction
_COMPACT_FRACTION = 0.25
_COMPACT_MIN_ROWS = 4096
# unlabelled HLT stops for a growth lookahead when its rows first reach
# _LOOKAHEAD_MIN_ROWS, and then each time they reach _LOOKAHEAD_GROWTH times
# the rows that the last one left
_LOOKAHEAD_MIN_ROWS = 8 * _COMPACT_MIN_ROWS
_LOOKAHEAD_GROWTH = 4
# Felsch's deduction stack is dropped for a full lookahead once it holds
# more than this many entries, or twice the live cosets if that is more
_STACK_FLOOR = 4096

# syllables per word in the relator search's collision ball, and the
# number of words at which the ball stops growing
_SYLLABLE_DEPTH = 3
_BALL_CAP = 400_000
# candidate pairs the conjugation-collision search examines per generator
_PAIR_CAP = 6_000_000
# largest index at which the labelled run is tried
_AUGMENTED_MAX_INDEX = 50_000


@dataclass(frozen=True)
class EnumerationLimits:
    """Budgets of one enumeration.  Both engines hold coset ids as int32,
    so `max_cosets` is an int (not a bool) in 1..2^31-1; `time_limit_s` is
    None for no limit or a positive real number of seconds, not a bool."""

    max_cosets: int = DEFAULT_MAX_COSETS
    strategy: str = "hlt"            # "hlt" | "felsch"
    time_limit_s: Optional[float] = None

    def __post_init__(self):
        check_count("max_cosets", self.max_cosets, most=_fast.MAX_COSETS)
        if self.time_limit_s is not None and (
                isinstance(self.time_limit_s, bool)
                or not isinstance(self.time_limit_s, numbers.Real)):
            raise ValueError("time_limit_s must be None or a number")
        if self.time_limit_s is not None and not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be None or > 0")
        if self.strategy not in ("hlt", "felsch"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def deadline(self) -> float:
        """The `time.monotonic()` reading at which a run starting now
        stops; math.inf without a time limit."""
        if self.time_limit_s is None:
            return math.inf
        return time.monotonic() + self.time_limit_s


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
        self.col_of = {g: 2 * i for i, g in enumerate(self.generators)}

    def trace(self, start: int, w: GroupWord) -> int:
        cur = start
        width = self.width
        tab = self._tab
        for letter in word_to_letters(w, self.col_of):
            cur = tab[cur * width + letter]
        return cur


@dataclass(frozen=True)
class EnumerationOutcome:
    """Result of an enumeration: Completed(index, table) or Overflow."""

    completed: bool
    index: Optional[int] = None
    table: Optional[CosetTable] = None
    peak_cosets: int = 0             # allocation high-water mark (rows)
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


def _cyclic_reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """Trim cancelling letters off both ends.  The letters of a GroupWord
    are already freely reduced: its syllables never repeat a symbol."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == (letters[j - 1] ^ 1):
        i += 1
        j -= 1
    return tuple(letters[i:j])


class _TableFull(Exception):
    """Raised by `_define` at the row limit; it ends the run only from
    `_recover`, for a table full at `max_cosets`."""


class _TimeLimit(Exception):
    pass


def _poll(limits: EnumerationLimits,
          progress: Optional[Callable[[int, int], None]] = None
          ) -> Callable[[int, int], bool]:
    """The check both engines make every `_POLL_EVERY` definitions and
    every `_POLL_EVERY` live cosets a lookahead scans, for a run starting
    now: `poll(defined, live)` calls `progress` once for each multiple of
    `PROGRESS_EVERY` definitions and returns True once the time limit of
    `limits` has passed.  A lookahead defines nothing, so its polls repeat
    the count of the last definition, and `progress` skips a count it has
    reported."""
    deadline = limits.deadline()
    reported = 0

    def poll(defined: int, live: int) -> bool:
        nonlocal reported
        if (progress is not None and defined % PROGRESS_EVERY == 0
                and defined > reported):
            reported = defined
            progress(defined, live)
        return time.monotonic() > deadline
    return poll


# -- labels: lazy words in the subgroup symbols --------------------------------
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


def _wmaterialize(node, memo: dict) -> tuple:
    """Reduced syllable tuple for a lazy word node (iterative, memoized).

    Memo values keep a reference to their node: entries are keyed by id()
    and a collected node would let its id be reused by a fresh one.
    """
    if node is None:
        return ()
    stack = [node]
    while stack:
        cur = stack[-1]
        if id(cur) in memo:
            stack.pop()
        elif cur[0] == "syl":
            memo[id(cur)] = (cur, (cur[1:],))
        else:
            # "inv" and "cat" nodes never hold None
            missing = [n for n in cur[1:] if id(n) not in memo]
            if missing:
                stack.extend(missing)
            elif cur[0] == "inv":
                red = memo[id(cur[1])][1]
                memo[id(cur)] = (cur, tuple((s, -e) for s, e in reversed(red)))
            else:
                merged = list(memo[id(cur[1])][1])
                _extend_reduced(merged, memo[id(cur[2])][1])
                memo[id(cur)] = (cur, tuple(merged))
    return memo[id(node)][1]


class _Engine:
    """One enumeration owns its engine exclusively; nothing here is shared.

    Given `symbols`, one per subgroup word, the engine runs labelled.  With
    tau(k) the representative of coset k, an entry alpha^x = beta carries
    a word u in the symbols with tau(alpha) x = u tau(beta), and a coset a
    word v with tau(k) = v tau(parent) for its union-find parent; None is
    the empty word.  A subgroup word scans at coset 0 against its own
    symbol.  Labels are written only at definitions, deductions,
    coincidences, path compressions and compactions, never in the walking
    loops, and nothing reads them there, so the table is the unlabelled one.
    """

    def __init__(self, width: int, relators: Sequence[tuple[int, ...]],
                 subgroup: Sequence[tuple[int, ...]], limits: EnumerationLimits,
                 poll: Optional[Callable[[int, int], bool]] = None,
                 symbols: Optional[Sequence[str]] = None):
        self.w = width
        self.relators = list(relators)
        self.subgroup = list(subgroup)
        self.max_cosets = limits.max_cosets
        self.poll = poll if poll is not None else _poll(limits)
        self.tab = array("i", [UNDEF] * width)
        self.p = array("i", [0])
        self.live = 1
        self.defined_total = 1
        # the allocation high-water mark: rows are only added in _define
        # and live <= rows, so it is counted at compaction and at the end
        self.peak = 1
        self._blank_row = array("i", [UNDEF] * width)
        # the strategy is only the per-coset step; Felsch also keeps a
        # deduction stack, drained against relator rotations
        felsch = limits.strategy == "felsch"
        self._step = self._felsch_step if felsch else self._hlt_step
        self.deductions: Optional[list] = [] if felsch else None
        self.buckets = _rotation_buckets(self.relators, width) if felsch else None
        labelled = symbols is not None
        # `_define` stops at row_limit rows: at max_cosets, or for unlabelled
        # HLT earlier, at the rows of the next growth lookahead (see
        # `_recover`)
        self.row_limit = (self.max_cosets if felsch or labelled
                          else min(self.max_cosets, _LOOKAHEAD_MIN_ROWS))
        # labelled mode: entry labels parallel to tab, coset labels
        # parallel to p
        self.labels: Optional[list] = [None] * width if labelled else None
        self.coset_labels: Optional[list] = [None] if labelled else None
        self.subgroup_labels = ([("syl", sym, 1) for sym in symbols]
                                if labelled else [None] * len(self.subgroup))

    # -- primitive operations ---------------------------------------------

    def _rep(self, k: int) -> int:
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            if self.coset_labels is not None:
                self._compress_labelled(k, r)
                break
            p[k], k = r, p[k]
        return r

    def _compress_labelled(self, k: int, r: int) -> None:
        """Path compression from k to its root r, composing the coset
        labels from the root down."""
        p = self.p
        lab = self.coset_labels
        chain = []
        while p[k] != r:
            chain.append(k)
            k = p[k]
        for node in reversed(chain):
            lab[node] = _wmul(lab[node], lab[p[node]])
            p[node] = r

    def _merge(self, a: int, b: int, queue: list, wrd=None) -> None:
        # labelled: wrd is the word with tau(a) = wrd tau(b)
        ra = self._rep(a)
        rb = self._rep(b)
        if ra != rb:
            lab = self.coset_labels
            if rb < ra:
                if lab is not None:
                    lab[ra] = _wmul(_wmul(_winv(lab[a]), wrd), lab[b])
                ra, rb = rb, ra
            elif lab is not None:
                lab[rb] = _wmul(_wmul(_winv(lab[b]), _winv(wrd)), lab[a])
            self.p[rb] = ra
            self.live -= 1
            queue.append(rb)

    def _coincide(self, a: int, b: int, wrd=None) -> None:
        tab = self.tab
        w = self.w
        labels = self.labels
        queue: list[int] = []
        self._merge(a, b, queue, wrd)
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
                if labels is not None:
                    # the edge moves to tau(mu) x = e tau(nu), e = g^-1 l d
                    # with g, l, d the labels of gamma, of the edge, of delta
                    lab = self.coset_labels
                    e = _wmul(_wmul(_winv(lab[gamma]), labels[row + x]),
                              lab[delta])
                tmu = tab[mu * w + x]
                if tmu != UNDEF:
                    if labels is not None:
                        wrd = _wmul(_winv(e), labels[mu * w + x])
                    self._merge(nu, tmu, queue, wrd)
                else:
                    tnu = tab[nu * w + (x ^ 1)]
                    if tnu != UNDEF:
                        if labels is not None:
                            wrd = _wmul(e, labels[nu * w + (x ^ 1)])
                        self._merge(mu, tnu, queue, wrd)
                    else:
                        tab[mu * w + x] = nu
                        tab[nu * w + (x ^ 1)] = mu
                        if labels is not None:
                            labels[mu * w + x] = e
                            labels[nu * w + (x ^ 1)] = _winv(e)
                        if self.deductions is not None:
                            self.deductions.append((mu, x))

    def _define(self, alpha: int, x: int) -> None:
        ncosets = len(self.p)
        if ncosets >= self.row_limit:
            raise _TableFull
        beta = ncosets
        self.tab.extend(self._blank_row)
        self.p.append(beta)
        self.tab[alpha * self.w + x] = beta
        self.tab[beta * self.w + (x ^ 1)] = alpha
        if self.labels is not None:
            self.labels.extend([None] * self.w)
            self.labels[alpha * self.w + x] = None
            self.coset_labels.append(None)
        self.live += 1
        self.defined_total += 1
        if self.deductions is not None:
            self.deductions.append((alpha, x))
        if (self.defined_total % _POLL_EVERY == 0
                and self.poll(self.defined_total, self.live)):
            raise _TimeLimit

    def _scan(self, alpha: int, letters: tuple[int, ...], fill: bool,
              label=None) -> None:
        # `label` is the subgroup symbol a subgroup word scans against
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
                if f == b:
                    return
                break
            while j >= i:
                nxt = tab[b * w + (letters[j] ^ 1)]
                if nxt == UNDEF:
                    break
                b = nxt
                j -= 1
            if j < i:
                break
            if j == i:
                x = letters[i]
                tab[f * w + x] = b
                tab[b * w + (x ^ 1)] = f
                if self.labels is not None:
                    wrd = self._scan_label(alpha, letters, i, j, label)
                    self.labels[f * w + x] = wrd
                    self.labels[b * w + (x ^ 1)] = _winv(wrd)
                if self.deductions is not None:
                    self.deductions.append((f, x))
                return
            if not fill:
                return
            self._define(f, letters[i])
        # the walks end at different cosets
        self._coincide(f, b, None if self.labels is None
                       else self._scan_label(alpha, letters, i, j, label))

    def _scan_label(self, alpha: int, letters: tuple[int, ...], i: int,
                    j: int, label):
        """f_p^-1 b_p for a scan from alpha that ended with letters[:i]
        walked forward (f_p the labels passed) and letters[j+1:] walked
        backward (b_p, starting from `label`).  The scan's walk only read
        the table, so this walk passes the same entries."""
        tab = self.tab
        labels = self.labels
        w = self.w
        f = alpha
        f_p = None
        for x in letters[:i]:
            f_p = _wmul(f_p, labels[f * w + x])
            f = tab[f * w + x]
        b = alpha
        b_p = label
        for x in reversed(letters[j + 1:]):
            b_p = _wmul(b_p, labels[b * w + (x ^ 1)])
            b = tab[b * w + (x ^ 1)]
        return _wmul(_winv(f_p), b_p)

    # -- table maintenance ---------------------------------------------------

    def _lookahead(self, start: int) -> None:
        """Scan every relator at every live coset from `start` on without
        new definitions, polling every `_POLL_EVERY` cosets scanned.  HLT's
        table-full recovery starts at the walk position, where the cosets
        below are closed (see `_recover`); every other lookahead starts at
        0."""
        p = self.p
        scanned = 0
        for gamma in range(start, len(p)):
            if p[gamma] != gamma:
                continue
            for rel in self.relators:
                self._scan(gamma, rel, False)
                if p[gamma] != gamma:
                    break
            scanned += 1
            if (scanned % _POLL_EVERY == 0
                    and self.poll(self.defined_total, self.live)):
                raise _TimeLimit

    def _compact(self, mark: int) -> int:
        """Renumber live cosets densely, preserving order.  Returns the new
        position of `mark` (count of live cosets below it)."""
        p = self.p
        w = self.w
        old_n = len(p)
        if old_n > self.peak:
            self.peak = old_n
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
        if self.labels is not None:
            # every live coset is now a root, so its coset label is empty
            old_labels = self.labels
            self.labels = [old_labels[old * w + x] for old in range(old_n)
                           if p[old] == old for x in range(w)]
            self.coset_labels = [None] * nid
        self.p = array("i", range(nid))
        self.live = nid
        if self.deductions:
            # queued deductions name the old ids, so they go; dropping
            # them is sound, the closing pass scans every relator anyway
            del self.deductions[:]
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
        for sub, label in zip(self.subgroup, self.subgroup_labels):
            self._scan(0, sub, False, label)
        self._lookahead(0)
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

    # -- the enumeration loop ----------------------------------------------------

    def run(self) -> None:
        """Seed the subgroup words at coset 0, then apply the strategy's
        per-coset step to every live coset in order.  A full table is
        recovered by lookahead and the walk resumes where it stopped; when
        the closing pass re-opens the table the walk restarts from the top."""
        alpha = 0
        seeded = False
        while True:
            try:
                if not seeded:
                    for sub, label in zip(self.subgroup, self.subgroup_labels):
                        self._scan(0, sub, True, label)
                    self._drain_deductions()
                    seeded = True
                while alpha < len(self.p):
                    if self.p[alpha] != alpha:
                        alpha += 1
                        continue
                    self._step(alpha)
                    alpha = self._maybe_compact(alpha + 1)
            except _TableFull:
                alpha = self._recover(alpha)
                continue
            if self._closing_pass():
                return
            # a closing merge re-opened the table; re-run from the top
            alpha = self._compact(0)
            seeded = False

    def _hlt_step(self, alpha: int) -> None:
        """HLT: scan every relator at alpha with fill, then define the
        entries of alpha that are still open."""
        p = self.p
        for rel in self.relators:
            self._scan(alpha, rel, True)
            if p[alpha] != alpha:
                return
        row = alpha * self.w
        tab = self.tab
        for x in range(self.w):
            if tab[row + x] == UNDEF:
                self._define(alpha, x)

    def _felsch_step(self, alpha: int) -> None:
        """Felsch: define each open entry of alpha and drain its deductions
        before the next one."""
        p = self.p
        row = alpha * self.w
        for x in range(self.w):
            if p[alpha] != alpha:
                return
            if self.tab[row + x] == UNDEF:
                self._define(alpha, x)
                self._drain_deductions()

    def _recover(self, alpha: int) -> int:
        """Lookahead plus compaction once the rows reach the row limit,
        which also empties the deduction stack.  At `max_cosets` the table
        is full: overflow if the space recovered is too small to make
        progress.  Below it, this is unlabelled HLT's growth lookahead, and
        the next one comes when the rows reach `_LOOKAHEAD_GROWTH` times
        those left now, and never before the rows of this one.  It finds
        coincidences while the table is small, which a walk that only
        fills meets after defining far more rows.  Felsch and labelled runs
        stop only at `max_cosets`: Felsch's deductions already close the
        relator cycles through each new entry, and in a labelled run the
        growth lookahead changes the labels, and so the witnesses, and
        slows reading the relators off them.

        Under HLT the lookahead starts at the walk position `alpha`, and
        skipping the cosets below it changes nothing.  The walk leaves a
        coset c < alpha only after `_hlt_step(c)` has scanned every relator
        at c with fill, so while c is live every relator cycle from c is
        closed; alpha itself may have been cut off mid-step by the fill, so
        the scan starts at alpha, not after it.  A closed cycle stays
        closed: definitions only fill undefined entries, coincidence
        processing moves each defined edge g -x-> d onto rep(g) -x-> rep(d),
        and compaction keeps order and returns the new alpha.  A scan of a
        closed cycle without fill walks forward back to its start and
        writes nothing, so the skipped scans would neither change an entry
        nor find a coincidence.  Felsch starts at 0: it never scans with
        fill, and compaction drops its queued deductions, which this
        lookahead has to find again."""
        full = len(self.p) >= self.max_cosets
        self._lookahead(0 if self.deductions is not None else alpha)
        new_alpha = self._compact(alpha)
        if full:
            if len(self.p) >= self.max_cosets * 0.98:
                raise _TableFull
        else:
            self.row_limit = min(self.max_cosets,
                                 max(self.row_limit,
                                     _LOOKAHEAD_GROWTH * len(self.p)))
        return new_alpha

    def _drain_deductions(self) -> None:
        # the buckets hold the rotations of every relator and of its
        # inverse, so the scans from a cover every relator cycle through
        # the edge (a, x); the scan is bidirectional, so scanning the same
        # cycles again from a^x, reversed, would deduce nothing new.  HLT
        # keeps no stack, so this is a no-op there
        stack = self.deductions
        p = self.p
        while stack:
            if len(stack) > max(_STACK_FLOOR, 2 * self.live):
                # stack blow-up: a full lookahead subsumes the queued work
                del stack[:]
                self._lookahead(0)
                continue
            a, x = stack.pop()
            if p[a] == a:
                for wrd in self.buckets[x]:
                    self._scan(a, wrd, False)
                    if p[a] != a:
                        break


def _rotation_buckets(relators, width: int) -> list[list[tuple[int, ...]]]:
    """The distinct cyclic rotations of every relator and of its inverse,
    bucketed by leading letter."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(width)]
    seen = set()
    for rel in relators:
        for r in (rel, tuple(l ^ 1 for l in reversed(rel))):
            for k in range(len(r)):
                rot = r[k:] + r[:k]
                if rot not in seen:
                    seen.add(rot)
                    buckets[rot[0]].append(rot)
    return buckets


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[GroupWord],
                 limits: EnumerationLimits = EnumerationLimits(),
                 progress: Optional[Callable[[int, int], None]] = None
                 ) -> EnumerationOutcome:
    """Enumerate cosets of the subgroup generated by `subgroup_gens` words
    in the finitely presented group.

    Returns a Completed outcome carrying the index and the verified table,
    or an Overflow outcome when the coset or time budget is exhausted.
    Overflow is inconclusive: it never demonstrates infinite index.

    Both strategies run in the C kernel (`_fast`) whenever it can be
    built and loaded, else in the pure engine; both produce the same table
    and counters, and `engine` on the outcome says which one ran.  Every
    completed table goes through the same five exhaustive checks, in the
    kernel's checker (`_fast.verify`) after a kernel run and in
    `_verify_table` after a pure one; a failed check raises RuntimeError.

    Both engines stop every 4096 definitions, and every 4096 live cosets
    a lookahead scans, for one poll, built here, which keeps the time
    limit and calls `progress(defined, live)` every `PROGRESS_EVERY`
    definitions; an exception `progress` raises aborts the run and
    propagates.  Ctrl-C raises KeyboardInterrupt in the pure engine at
    once, and in the kernel at its next poll, where SIGINT is let through
    (see `_fast`).
    """
    width, relators, subgroup = _enumeration_letters(pres, subgroup_gens)
    poll = _poll(limits, progress)
    run = _fast.run(width, relators, subgroup, limits, poll)
    engine = "c"
    if run is None:
        engine = "pure"
        run = _run_pure(_Engine(width, relators, subgroup, limits, poll))
    flat, n, peak, defined, reason = run
    if reason is not None:
        return EnumerationOutcome(completed=False, peak_cosets=peak,
                                  defined_total=defined, reason=reason,
                                  engine=engine)
    table = CosetTable(pres.generators, flat, n)
    if engine == "c":
        _fast.verify(table, relators, subgroup)
    else:
        _verify_table(table, relators, subgroup)
    return EnumerationOutcome(completed=True, index=n, table=table,
                              peak_cosets=peak, defined_total=defined,
                              engine=engine)


def _enumeration_letters(pres: Presentation,
                         subgroup_gens: Sequence[GroupWord]):
    """(width, relators, subgroup) as column letters; the relators are
    cyclically reduced, and empty ones, which close everywhere, dropped."""
    col_of = {g: 2 * i for i, g in enumerate(pres.generators)}
    relators = [_cyclic_reduce_letters(word_to_letters(r, col_of))
                for r in pres.relators]
    relators = [rel for rel in relators if rel]
    subgroup = [tuple(word_to_letters(g, col_of)) for g in subgroup_gens]
    return 2 * len(pres.generators), relators, subgroup


def _run_pure(engine: _Engine):
    """Run `engine` and compact its table; (table, rows, peak, defined,
    reason) like `_fast.run`."""
    try:
        engine.run()
    except (_TableFull, _TimeLimit) as exc:
        reason = "max_cosets" if isinstance(exc, _TableFull) else "time_limit"
        return (None, len(engine.p), max(engine.peak, len(engine.p)),
                engine.defined_total, reason)
    engine._compact(0)
    return engine.tab, engine.live, engine.peak, engine.defined_total, None


# the message of each of the table check's five checks, in their order;
# `_verify_table` and `_fast.verify` both raise these
_VERIFY_MESSAGES = (
    "generator column is not a permutation",
    "inverse column does not invert its generator column",
    "some coset is not reachable from coset 0",
    "relator does not close at every coset",
    "subgroup generator does not fix coset 0",
)


def _verify_table(table: CosetTable, relators: Sequence[tuple[int, ...]],
                  subgroup: Sequence[tuple[int, ...]]) -> None:
    """Exhaustive invariant check on a completed table, coset by coset: the
    five checks of `_VERIFY_MESSAGES`, in order, raising RuntimeError with
    the message of the first that fails.  Column c is the map
    i -> tab[i*w + c]."""
    n, w, tab = table.n, table.width, table._tab
    cols = [tab[c:n * w:w].tolist() for c in range(w)]
    ident = list(range(n))
    if any(sorted(col) != ident for col in cols):
        raise RuntimeError(_VERIFY_MESSAGES[0])
    if any(cols[c ^ 1][cols[c][i]] != i for c in range(w) for i in ident):
        raise RuntimeError(_VERIFY_MESSAGES[1])
    # generator columns suffice: the columns are permutations and each odd
    # column inverts its even one, so the generators' orbit is the group's
    seen = {0}
    queue = [0]
    for i in queue:
        for col in cols[::2]:
            if col[i] not in seen:
                seen.add(col[i])
                queue.append(col[i])
    if len(queue) != n:
        raise RuntimeError(_VERIFY_MESSAGES[2])
    for rel in relators:
        rel_cols = [cols[letter] for letter in rel]
        for i in ident:
            cur = i
            for col in rel_cols:
                cur = col[cur]
            if cur != i:
                raise RuntimeError(_VERIFY_MESSAGES[3])
    for sub in subgroup:
        cur = 0
        for letter in sub:
            cur = cols[letter][cur]
        if cur != 0:
            raise RuntimeError(_VERIFY_MESSAGES[4])


def word_stabilizes_one(table: CosetTable, w: GroupWord) -> bool:
    """True iff tracing w from coset 0 returns to coset 0; for a complete
    table this is membership of the word's image in the subgroup."""
    return table.trace(0, w) == 0


# -- relator recovery ---------------------------------------------------------

def find_relator(pres: Presentation, word_a: GroupWord, word_b: GroupWord,
                 table: CosetTable, bound: int = DEFAULT_WITNESS_BOUND, *,
                 time_limit_s: Optional[float] = None
                 ) -> Optional[GroupWord]:
    """A nonempty relator of the subgroup generated by word_a, word_b, as a
    freely reduced word over the symbols A and B, or None when the search
    below finds none within `bound`.  None is not a proof that no relator
    of that size exists.

    `bound` limits the total of absolute exponents.  The search enumerates
    short-syllable words by increasing size and looks for two kinds of
    collisions with exact matrix arithmetic: equal evaluations (u = v gives
    the relator u v^-1) and conjugation collisions (translation powers fix
    a corner entry and the trace, so u, v agreeing there and in the moved
    entry modulo a step satisfy g^k u g^-k = v, with k in closed form;
    pairs spelled so that this holds in the free group are skipped).  The
    conjugation collisions recover the long witnesses whose exponents
    scale with the index.  A labelled run, whose relator traces are words
    in A and B, is the fallback, tried only up to index
    _AUGMENTED_MAX_INDEX.  The candidates are verified by evaluation
    lightest first (first found among equal weights), and the first that
    evaluates to the identity is returned.

    The fallback is skipped when the collisions give no candidate, the ball
    reports itself complete (`_BALL_CAP` not reached) and bound <= 2 *
    _SYLLABLE_DEPTH, for then no relator within `bound` exists.  Neither
    A^k nor A^i B^j is the identity (m != 0), so a cyclically reduced
    relator of weight <= 6 alternates A and B in 4 or 6 syllables, each
    with |e| <= 6 <= erange.  Split into two nonempty halves of <= 3
    syllables, r = u v^-1, it gives two distinct ball elements u and v with
    equal evaluations, which the equal-evaluation phase, uncapped, turns
    into a candidate.

    When the kernel loads and the entries fit in int64, one call builds the
    ball and records its equal evaluations (`_fast.ball`); else its
    reference `_SyllableBall` gives the same records in the same order.
    The conjugation collisions are found in Python on either ball, which
    costs 20-230 ms per call for b <= 13 when the equal evaluations give
    none.
    `time_limit_s`, unless None, is the fallback's budget in seconds; a
    fallback that runs out of it, or has none, gives no candidates, like
    one that overflows.

    Raises ValueError when `bound` is not an int >= 1 (a bool is not), or
    unless word_a and word_b evaluate to exactly A(m) = [[1,m],[0,1]] and
    B(m) = [[1,0],[m,1]] for one rational m, as `express_generators` spells
    them: the search reads every step off m.
    """
    check_count("bound", bound)
    mat_a = evaluate_word(word_a, pres.assignment)
    mat_b = evaluate_word(word_b, pres.assignment)
    m = mat_a.e12  # the translation length a/b
    if (mat_a != UniModularMatrix(1, m, 0, 1)
            or mat_b != UniModularMatrix(1, 0, m, 1)):
        raise ValueError("word_a and word_b must evaluate to [[1,m],[0,1]] "
                         "and [[1,0],[m,1]] for one m")
    erange = max(12, m.denominator + 2)
    ball = _fast.ball(m, _SYLLABLE_DEPTH, erange, _BALL_CAP)
    if ball is None:
        ball = _SyllableBall(m, _SYLLABLE_DEPTH, erange)
    candidates = _collision_relator_search(ball, m, bound)
    # then an empty equal-evaluation phase proves no relator within bound
    exhaustive = bound <= 2 * _SYLLABLE_DEPTH and ball.complete
    if (not candidates and not exhaustive and table.n <= _AUGMENTED_MAX_INDEX
            and (time_limit_s is None or time_limit_s > 0)):
        # intermediate blowup scales with the presentation, not the index
        candidates = _labelled_relator_search(
            pres, [word_a, word_b], max_cosets=max(200_000, 64 * table.n),
            time_limit_s=time_limit_s)
    reduced = []
    for cand in candidates:
        cand = cand.cyclically_reduced()
        weight = cand.weight
        if 0 < weight <= bound:
            reduced.append((weight, cand))
    # the sort is stable: equal weights keep their order of discovery
    reduced.sort(key=itemgetter(0))
    asg = {"A": mat_a, "B": mat_b}
    # rotating costs a word per candidate, so only the evaluated ones pay
    for _, cand in reduced:
        cand = cand.rotated_to("A")
        if evaluate_word(cand, asg).is_identity():
            return cand
    return None


class _SyllableBall:
    """All alternating words in A = A(m), B = B(m) with at most `depth`
    syllables and exponents in [-erange, erange], in breadth-first order,
    stored as parallel lists: evaluation, weight, and the parent element
    (-1 for the empty word) with the last syllable.  A word's spelling is
    read off its parent links (`syllables_of`) only for the few elements a
    collision reads.

    Evaluations are integer 4-tuples over one fixed denominator `den`: with
    L = den(m), every step A(m)^e = A(e*m), B(m)^e = B(e*m) has entries with
    denominators dividing L, so an element at layer k has entries with
    denominators dividing L^k and `den = L^depth` makes every
    `nums[i] = den * M_i` integral.  The integer step L*A(e*m) is [[L, x],
    [0, L]] and L*B(e*m) is [[L, 0], [x, L]], with x = e * num(m), and a
    child is a shear of its parent N: under A, (n11, n12 + n11*x//L, n21,
    n22 + n21*x//L), under B the transpose.  That is (N * (L*S)) // L entry
    for entry, since (a + n*L) // L == n + a // L, and every child is
    checked against det N = den^2.  Equal tuples are equal matrices.

    Growth stops once the ball holds more than `_BALL_CAP` words, after
    the children of one parent; `complete` then reads False, and True
    when every such word is in the ball.
    """

    def __init__(self, m: Fraction, depth: int, erange: int):
        l = m.denominator
        exps = [e for e in range(-erange, erange + 1) if e]
        # per symbol: the syllables, their sizes and the off-diagonal
        # entry x of the integer step L*S
        steps = {sym: ([(sym, e) for e in exps], [abs(e) for e in exps],
                       [e * m.numerator for e in exps])
                 for sym in ("A", "B")}
        den = l ** depth
        dd = den * den
        self.den = den
        self.complete = True
        self.nums: list[tuple[int, int, int, int]] = []
        self.weights: list[int] = []
        self.parents: list[int] = []
        self.syllables: list[tuple[str, int]] = []
        nums, weights = self.nums, self.weights
        parents, syllables = self.parents, self.syllables
        layer = range(-1, 0)
        for _ in range(depth):
            start = len(nums)
            for parent in layer:
                if parent < 0:
                    n11, n12, n21, n22 = den, 0, 0, den
                    weight, last = 0, ""
                else:
                    n11, n12, n21, n22 = nums[parent]
                    weight = weights[parent]
                    last = syllables[parent][0]
                for sym in ("A", "B"):
                    if sym == last:
                        continue
                    syls, sizes, xs = steps[sym]
                    if sym == "A":
                        children = [(n11, n12 + n11 * x // l,
                                     n21, n22 + n21 * x // l) for x in xs]
                    else:
                        children = [(n11 + n12 * x // l, n12,
                                     n21 + n22 * x // l, n22) for x in xs]
                    for c11, c12, c21, c22 in children:
                        if c11 * c22 - c12 * c21 != dd:
                            raise ValueError(
                                "syllable ball product has determinant != 1")
                    nums.extend(children)
                    weights.extend([weight + size for size in sizes])
                    parents.extend([parent] * len(syls))
                    syllables.extend(syls)
                if len(nums) > _BALL_CAP:
                    self.complete = False
                    return
            layer = range(start, len(nums))

    def syllables_of(self, i: int) -> list[tuple[str, int]]:
        out = []
        while i >= 0:
            out.append(self.syllables[i])
            i = self.parents[i]
        out.reverse()
        return out

    def equal_evaluations(self) -> list[tuple[str, int, int, int]]:
        """Collision records ("A", 0, i, first), one for each element i
        that equals an earlier one, the first of them: the relator i
        first^-1.  The denominator is fixed, so equal tuples are equal
        matrices, and distinct elements are distinct reduced words.  The
        kernel's `tc_ball` records the same as it builds the ball."""
        out = []
        seen: dict[tuple, int] = {}
        for i, key in enumerate(self.nums):
            first = seen.setdefault(key, i)
            if first != i:
                out.append(("A", 0, i, first))
        return out


def _conjugation_collisions(ball: _SyllableBall | _fast.Ball, m: Fraction,
                            bound: int, pair_cap: int
                            ) -> list[tuple[str, int, int, int]]:
    """Collision records (sym, k, u, v), each standing for the relator
    sym^k u sym^-k v^-1 between elements u and v of `ball`: the conjugation
    collisions of A, and when there is none of those, of B, within `bound`
    and up to the bucket where the pairs examined pass `pair_cap`.  Either
    kind of ball serves: this reads only its `nums`, `weights` and
    `syllables_of`."""
    nums, weights = ball.nums, ball.weights
    mnum, mden = m.numerator, m.denominator
    out: list[tuple[str, int, int, int]] = []
    # bucket by the entry a translation power fixes together with the
    # trace, then solve for the conjugating exponent.  Indices into the
    # tuples: (fixed corner, row entry it moves)
    for sym, corner, row_entry in (("A", 2, 0), ("B", 1, 3)):
        buckets: dict[tuple, list[int]] = {}
        for i, num in enumerate(nums):
            r = num[corner]
            if r == 0:
                continue
            buckets.setdefault((r, num[0] + num[3]), []).append(i)
        pairs = 0
        for (r, _), items in buckets.items():
            n = len(items)
            if n < 2:
                continue
            pairs += n * (n - 1) // 2
            if pairs > pair_cap:
                break
            # for M = [[p, q], [r, s]], conjugation by A(c) adds c*r to
            # p and takes it from s; by B(c) it adds c*q to s and takes
            # it from p.  The fixed corner (r below, for either symbol)
            # is not 0, so it, the trace and det = 1 give the other
            # entries: u, v in one bucket satisfy v = sym^k u sym^-k
            # exactly when their moved entries agree mod r*m, and k is
            # the difference of the entries' quotients by r*m.  Both
            # sides scaled by den*mden: entry*mden split by r*mnum
            step = r * mnum
            split = {i: divmod(nums[i][row_entry] * mden, step)
                     for i in items}
            classes: dict = {}
            for i in items:
                classes.setdefault(split[i][1], []).append(i)
            # by `_split_at`, v is spelled sym^k u sym^-k, which gives
            # the empty relator, exactly when the cores agree, lead_v -
            # lead_u = k = q_v - q_u and lead + trail agree: when the
            # keys below agree.  A class whose members all share one key
            # gives none
            keys: dict[int, tuple] = {}
            for same in classes.values():
                if len(same) < 2:
                    continue
                class_keys = {}
                for i in same:
                    lead, core, trail = _split_at(sym, ball.syllables_of(i))
                    class_keys[i] = (core, lead + trail, split[i][0] - lead)
                if len(set(class_keys.values())) > 1:
                    keys.update(class_keys)
            for u in items:
                key_u = keys.get(u)
                if key_u is None:
                    continue
                q_u, rem_u = split[u]
                for v in classes[rem_u]:
                    # k = 0 also covers v = u
                    k = split[v][0] - q_u
                    if (k and 2 * abs(k) + weights[u] + weights[v] <= bound
                            and keys[v] != key_u):
                        out.append((sym, k, u, v))
            if out:
                return out
    return out


def _split_at(sym: str, syllables: Sequence) -> tuple[int, tuple, int]:
    """(lead, core, trail) with w = sym^lead core sym^trail for the reduced
    word w with these syllables; core is empty or begins and ends with the
    other symbol.  For k != 0 and u != v, sym^k u sym^-k reduces to v exactly
    when the cores agree, lead_v = lead_u + k and trail_v = trail_u - k."""
    lo, hi = 0, len(syllables)
    lead = trail = 0
    if hi and syllables[0][0] == sym:
        lead, lo = syllables[0][1], 1
    if hi > lo and syllables[-1][0] == sym:
        trail, hi = syllables[-1][1], hi - 1
    return lead, tuple(syllables[lo:hi]), trail


def _collision_relator_search(ball: _SyllableBall | _fast.Ball, m: Fraction,
                               bound: int) -> list[GroupWord]:
    """The candidate relators of `ball`'s collisions, in their order: the
    word sym^k u sym^-k v^-1, freely reduced, for each record (sym, k, u,
    v) of its equal evaluations, which the kernel's `_fast.Ball` and
    `_SyllableBall` both give, or when there is none, of its conjugation
    collisions, which Python finds on either."""
    records = (ball.equal_evaluations()
               or _conjugation_collisions(ball, m, bound, _PAIR_CAP))
    return [word([(sym, k), *ball.syllables_of(u), (sym, -k),
                  *((s, -e) for s, e in reversed(ball.syllables_of(v)))])
            for sym, k, u, v in records]


def _labelled_relator_search(pres: Presentation,
                             sub_words: Sequence[GroupWord],
                             max_cosets: int,
                             time_limit_s: Optional[float] = None
                             ) -> list[GroupWord]:
    """Relators in A and B, the symbols of the two `sub_words`, from a
    labelled HLT run; none when the run overflows, or when it or reading
    its relators runs out of time."""
    width, relators, subgroup = _enumeration_letters(pres, sub_words)
    limits = EnumerationLimits(max_cosets=max_cosets,
                               time_limit_s=time_limit_s)
    deadline = limits.deadline()
    engine = _Engine(width, relators, subgroup, limits, symbols=("A", "B"))
    if _run_pure(engine)[4] is not None:
        return []
    return _relator_words(engine, deadline)


def _relator_words(engine: _Engine, deadline: float = math.inf
                   ) -> list[GroupWord]:
    """The nonempty labels of every relator traced at every coset, then of
    every subgroup word traced at coset 0 against its own symbol: words in
    the symbols equal to 1.  The table is closed and compacted, so every
    entry is defined and every trace closes.  None once `time.monotonic()`
    passes `deadline`, checked before each trace (one took at most 0.11 s
    of 7/5's 11.4 s).

    Cyclic garbage collection is paused meanwhile: the memo of
    materialised labels only grows and holds no cycle, yet every full
    collection would walk all of it.  The caller's setting is restored
    however the call ends."""
    tab, labels, w = engine.tab, engine.labels, engine.w
    traces = [(rel, alpha, None) for rel in engine.relators
              for alpha in range(engine.live)]
    traces += [(sub, 0, _winv(label)) for sub, label
               in zip(engine.subgroup, engine.subgroup_labels)]
    out = []
    memo: dict = {}
    collecting = gc.isenabled()
    gc.disable()
    try:
        for letters, cur, tail in traces:
            if time.monotonic() > deadline:
                return []
            acc: list = []
            for x in letters:
                _extend_reduced(acc, _wmaterialize(labels[cur * w + x], memo))
                cur = tab[cur * w + x]
            _extend_reduced(acc, _wmaterialize(tail, memo))
            if acc:
                out.append(GroupWord(tuple(acc)))
    finally:
        if collecting:
            gc.enable()
    return out
