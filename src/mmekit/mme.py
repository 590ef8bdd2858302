"""Mixed maximally entangled (MME) states: the compatibility predicate on
ME TGX tuples, rank bounds, maximal-rank search, and state construction.

A set of ME TGX tuples can serve as the eigen-tuples of an MME state
exactly when, for every mode m, the projections of all their levels onto
the big side B_m of the extreme bipartition contain no repeats.  Since
repeats are a pairwise matter, the maximal rank over MME states with TGX
eigenstates is the maximum clique of the pairwise-compatibility graph
over the ME tuples, found by one branch and bound that also returns the
lex-least maximum clique (past n = 64, `search="auto"` runs seeded
greedy orders instead and reports a lower bound with status "greedy").
A pruned pass over the enumeration first takes the lex-greedy clique,
which ends the search when it fills the per-L cap.  Below the cap the
branch and bound starts only at the tuples holding level 1: per-mode
label permutations are local unitaries that keep ME tuples ME, map mode
lines to mode lines and move any level to level 1, so some maximum
clique holds such a tuple, and an adjacency row is built only when the
search first reads it.  The full read below the cap uses the same
argument (`tgx._all_level_sets`): the DFS walks only the tuples holding
level 1, and per-mode cyclic label shifts carry them onto every other
level.  On 2 vCPUs, `rank 2x2x2x3x3 --search exhaustive` so builds 1,321
of 54,288 rows and takes about 0.2 s and 53 MB, against 6.2 s and
417 MB over the whole graph.  The rows never hold more than
ADJACENCY_BITS bits (1 GiB): the full read stops once the rooted search
could need more, and a search that would pass the ceiling reports its
best clique so far as "inconclusive".  The maximal rank over all MME
states is a separate, open quantity that this rank only bounds from
below: 2x2x3x3 holds certified MME states of rank 4 against a TGX rank
of 2.
Compatibility has one test: `modes._level_table`, the layout that the
rank cap and every purity read too, gives each level one int bitmask
with a bit per (mode, B_m projection), and a projected level repeats iff
two masks share a bit.  The predicate folds level masks; the search
gives each level the bitset of the tuples holding a level that shares a
bit with it, and a tuple's adjacency row is the complement of the OR
of its L level bitsets.  An MmeState is the SpectralState of its
dressed TGX eigenstates, so the certifier reads it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import chain
from operator import or_

import numpy as np

from .entcore import _check_L, lstar
from .modes import ModeStructure, _check_int, _level_table
from .tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    _apply_per_axis,
    _all_level_sets,
    _certify,
    _me_flags,
    _me_level_sets,
    _superpositions,
    _tuple_levels,
)
from .verify import SpectralState

# Seeded random greedy orders tried past n = 64 by `search="auto"`, after
# the natural and the degree order.
GREEDY_RESTARTS = 2000
# Tuple sets whose certification `construct` and the rank witnesses keep:
# a job list that rebuilds a few published sets under many spectra and
# frames hits it.
CERTIFIED_SETS = 64
# Row bits (tuples x rows built) the clique search may hold: 1 GiB of
# rows.  The full read stops once (roots x tuples read) passes it, and a
# search that would build one more row reports its best clique so far as
# "inconclusive".  2x2x2x3x3 builds 9 MB; 2^6 at L = 8 would need 4.3 GB.
ADJACENCY_BITS = 8 << 30


def _first_conflict(s: ModeStructure, level_sets):
    """Lowest (mode, projected level) repeated in a mode line, or None;
    repeats within one tuple count.  Folds the levels' table masks, so a
    bit set twice is a repeat.  Levels must already be validated."""
    _, masks, W, _ = _level_table(s)
    seen = repeats = 0
    for lvl in chain.from_iterable(level_sets):
        repeats |= seen & masks[lvl]
        seen |= masks[lvl]
    if not repeats:
        return None
    m, p = divmod((repeats & -repeats).bit_length() - 1, W)
    return m + 1, p


def _read_tuple_set(s: ModeStructure, tuples, one_size: bool = True):
    """`tgx._tuple_levels` of each tuple; refuses an empty set and, with
    `one_size`, a size other than the first tuple's."""
    try:
        level_sets = [_tuple_levels(s, t) for t in tuples]
    except TypeError:  # tuples, or one of them, cannot be iterated
        raise ValueError(f"tuples={tuples!r} is not a list of level lists") from None
    if not level_sets:
        raise ValueError("need at least one tuple")
    first = level_sets[0]
    if one_size:
        for levels in level_sets:
            if len(levels) != len(first):
                raise ValueError(
                    f"mixed tuple sizes: {levels} has L={len(levels)} but {first} "
                    f"has L={len(first)}; eigen-tuples must share L"
                )
    return level_sets


@lru_cache(maxsize=CERTIFIED_SETS)
def _certified_set(s: ModeStructure, level_sets: tuple) -> tuple[MeTgxTuple, ...]:
    """The MeTgxTuples of validated level sets of one size, certified in
    one `_certify` block, once no projected level repeats.  Kept per
    (structure, level sets) in a CERTIFIED_SETS-entry LRU cache, so a
    rank witness or a set built again under another spectrum or frame
    is not certified again; a refusal is not cached, so it raises on
    every call."""
    ts = tuple(_certify(s, level_sets))
    conflict = _first_conflict(s, level_sets)
    if conflict is not None:
        m, p = conflict
        raise ValueError(
            f"tuples are not compatible: mode-{m} line repeats projected level {p}"
        )
    return ts


def compatible(tuples) -> bool:
    """Whether a set of ME TGX tuples can coexist as MME eigen-tuples.

    True iff for every mode m no projected level repeats along the mode
    line, repeats within a single tuple included.  The MeTgxTuples are
    read as by `construct`: one structure, one L, at least one tuple.
    """
    tuples = list(tuples)
    if not all(isinstance(t, MeTgxTuple) for t in tuples):
        raise ValueError("compatible() expects certified MeTgxTuple inputs")
    s = tuples[0].structure if tuples else None
    return _first_conflict(s, _read_tuple_set(s, tuples)) is None


def _min_nB(s: ModeStructure) -> int:
    """min_m n_B_m: no mode line holds more distinct projections."""
    return min(pos.shape[1] for pos in _level_table(s)[3])


def loose_bound(s: ModeStructure) -> int:
    """Loose upper limit on the maximal rank over MME states with TGX
    eigenstates: floor(min_m n_B_m / min L*).  For bipartite systems this
    is floor(n_B / n_S)."""
    return _min_nB(s) // lstar(s).min


@dataclass(frozen=True)
class MmeRankReport:
    """Outcome of a maximal-MME-rank search.

    `status` is "complete" for a proven maximum, "greedy" for the
    lower bound that `search="auto"` reports past n = 64, and
    "inconclusive" when the node budget or the ADJACENCY_BITS row
    ceiling stopped the search first.  `tuple_count` counts the tuples
    read at `L_used`, and `nodes` the budget spent over all L: tuples
    read plus clique-search nodes, each tuple once.
    """

    structure: ModeStructure
    L_used: int
    r_tilde: int
    R_MME: int
    witness: tuple[MeTgxTuple, ...]
    status: str  # "complete" | "greedy" | "inconclusive"
    nodes: int = 0
    tuple_count: int = 0

    @property
    def exhaustive(self) -> bool:
        """Whether R_MME is proven maximal, not only a lower bound."""
        return self.status == "complete"


class _Budget:
    """Shared node counter; raises when the limit is hit."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise _BudgetExhausted


class _BudgetExhausted(Exception):
    """Raised by `_Budget.spend`; `_lex_clique` and `_max_clique` set
    `incumbent` to their best clique before they re-raise."""


def _greedy_clique(adj, order) -> list[int]:
    clique, mask = [], -1
    for v in order:
        if mask >> v & 1:
            clique.append(v)
            mask &= adj[v]
    return sorted(clique)


def _greedy_restarts(adj, start, rng, cap) -> list[int]:
    """First longest clique of `start` (the lex-greedy clique of the pass), the
    degree order and GREEDY_RESTARTS random orders; stops at the first
    of `cap` vertices, which no clique can beat."""
    K = len(adj)
    degs = [a.bit_count() for a in adj]
    orders = chain([sorted(range(K), key=lambda v: (-degs[v], v))],
                   (rng.permutation(K).tolist() for _ in range(GREEDY_RESTARTS)))
    best = start
    for order in orders:
        if len(best) >= cap:
            break
        clique = _greedy_clique(adj, order)
        if len(clique) > len(best):
            best = clique
    return best


def _colour_tops(adj, cand: int) -> int:
    """Sequential greedy colouring of the bitset `cand`, each class swept
    from its highest vertex down: a class is an independent set, so a
    clique holds at most one vertex per class.  Returns the bitset of
    the classes' top vertices."""
    tops = 0
    while cand:
        q = cand
        tops |= 1 << (q.bit_length() - 1)
        while q:
            v = q.bit_length() - 1
            bit = 1 << v
            q &= ~(adj[v] | bit)
            cand ^= bit
    return tops


def _max_clique(adj, roots, lower, upper, budget) -> list[int]:
    """Lexicographically least maximum clique, by branch and bound over
    vertices in ascending order (after Östergård 2002) with a greedy-
    colouring bound (Tomita & Seki 2003) on int bitsets, branching at
    the top only on the first `roots` vertices.

    Each root is tried with the later vertices it meets, so only the
    roots' rows and their neighbours' are read; `roots` equal to the
    vertex count is the unrooted search.  Rooting changes no result when
    a maximum clique holds a root: the roots come first, so the lex-least
    clique of every size up to omega starts at one.  The rank search
    roots at the tuples holding level 1, which per-mode label
    permutations (local unitaries that keep ME tuples ME and map mode
    lines to mode lines) reach from any level: orbital branching
    (Ostrowski, Linderoth, Rossi & Smriglio 2011) at the root.

    Each node colours its candidates (`_colour_tops`); a clique through
    vertex v and later candidates holds at most one vertex per class
    whose top vertex is >= v, so v and every vertex after it are cut
    once len(cur) plus that class count cannot beat the best clique.
    The best clique is replaced only by a strictly larger one, so the
    first clique of the final size is the lex-least.  The search starts
    from the `lower` incumbent, which must be the lex-least clique of
    its own size, and caps the bound at `upper`, so it stops once a
    clique of `upper` vertices is found.  The result is the lex-least
    clique of size min(upper, omega), or `lower` if that is larger.
    One budget unit is spent per search node; an exhausted budget, or
    a row `adj` refuses to build (`_Adjacency`), re-raises with the best
    clique as `incumbent`.
    """
    best = list(lower)
    cur: list[int] = []

    def branch(v: int, cand: int):
        nonlocal best
        budget.spend()
        cur.append(v)
        if len(cur) > len(best):
            best = list(cur)
        expand(cand & adj[v])
        cur.pop()

    def expand(cand: int):
        tops = _colour_tops(adj, cand)
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            if min(len(cur) + (tops >> v).bit_count(), upper) <= len(best):
                return
            cand ^= bit
            branch(v, cand)

    try:
        for v in range(roots):
            if upper <= len(best):
                break
            branch(v, -1 << v + 1)
    except _BudgetExhausted as exc:
        exc.incumbent = best
        raise
    return best


def max_mme_rank(
    s: ModeStructure,
    search: str = "auto",
    L: int | None = None,
    all_lstar: bool = False,
    budget_nodes: int | None = None,
    seed: int = 0,
) -> MmeRankReport:
    """Maximal rank over MME states with TGX eigenstates (R_MME).

    This is a lower bound on the maximal rank over all MME states, a
    separate, open quantity (see the module docstring).

    Searches the ME TGX tuples at L = min L* (or the given L in L*; with
    `all_lstar`, not with L, the search repeats per L* value and the
    best report wins, stopping before the first L whose cap the best
    rank already reaches: caps fall as L grows, and a later L wins only
    with a larger rank) for the largest compatible set.  A pass that reads
    only the lex-greedy set ends the search at the per-L cap (see
    `_search_single_L`); below it one branch and bound (`_max_clique`)
    proves the maximum and returns the lex-least witness, R_MME(2^7) = 22
    in under a thousand nodes.  An L without ME tuples has R_MME 0, a
    complete report with no witness.

    `search` is "exhaustive" or "auto".  "auto" runs the clique search
    up to n = 64 and greedy orders beyond: GREEDY_RESTARTS seeded orders
    (`seed` acts only there), reported as a lower bound with status
    "greedy", which can miss a quick exact proof (3x3x3x3x3: 21, where
    "exhaustive" proves 27); past n = 64 prefer "exhaustive".  `seed`, an
    integer at least 0, is read even where it does not act.
    `budget_nodes`, an integer at least 1, caps the search nodes over all L
    (`MmeRankReport.nodes`); once it runs out the L loop stops and the
    best set found so far is reported with status "inconclusive", as it
    is when the graph rows would pass ADJACENCY_BITS (1 GiB).
    """
    seed = _check_int("seed", seed, least=0)
    if search not in ("auto", "exhaustive"):
        raise ValueError(f"unknown search mode {search!r}")
    if budget_nodes is not None:
        _check_int("budget_nodes", budget_nodes, least=1)
    if all_lstar and L is not None:
        raise ValueError(f"give L or all_lstar, not both (L={L})")
    ls = lstar(s)
    greedy = search == "auto" and s.n > 64
    L_values = ls.values if all_lstar else [ls.min if L is None else _check_L(s, L)]

    budget = _Budget(budget_nodes)
    reports = []
    for Lv in L_values:
        if reports and max(r.R_MME for r in reports) >= _min_nB(s) // Lv:
            break  # caps fall as L grows: no later L can beat the best
        reports.append(_search_single_L(s, Lv, greedy, budget, seed))
        if reports[-1].status == "inconclusive":
            break
    best = max(reports, key=lambda r: (r.R_MME, -r.L_used))
    if reports[-1].status == "inconclusive":
        best = replace(best, status="inconclusive")
    return best


def _conflicts(s: ModeStructure, level_sets) -> list[int]:
    """conflicts[x]: bitset over `level_sets` (bit i for set i) of the sets
    holding a level on one of level x's mode lines, x's own included;
    each column of a `_level_table` gather is one mode line.  Slot 0 is
    unused, as in the table."""
    K = len(level_sets)
    holds = np.zeros((s.n, K), dtype=bool)
    holds[np.asarray(level_sets, dtype=np.intp).T - 1, np.arange(K)] = True
    near = np.zeros_like(holds)
    for pos in _level_table(s)[3]:
        near[pos] |= holds[pos].any(axis=0)
    return [0] + [int.from_bytes(row.tobytes(), "little")
                  for row in np.packbits(near, axis=1, bitorder="little")]


class _Adjacency(dict):
    """Bitset graph over `level_sets`, built a row at a time: bit j of
    self[i] is set iff sets i and j share no mode line.  Row i is built
    the first time it is read, with one OR per level of set i over the
    levels' `_conflicts`, so a rooted search holds only the rows it
    reads.  Reading a new row raises `_BudgetExhausted` once the rows
    would hold more than ADJACENCY_BITS bits."""

    def __init__(self, s: ModeStructure, level_sets):
        self.level_sets = level_sets
        self.conflicts = _conflicts(s, level_sets)
        self.full = (1 << len(level_sets)) - 1

    def __missing__(self, i: int) -> int:
        if (len(self) + 1) * len(self.level_sets) > ADJACENCY_BITS:
            raise _BudgetExhausted
        row = self[i] = self.full ^ reduce(or_, map(self.conflicts.__getitem__,
                                                    self.level_sets[i]))
        return row


def _lex_clique(s: ModeStructure, L: int, cap: int, budget) -> list[tuple[int, ...]]:
    """The enumeration's lex-greedy clique, up to `cap` tuples: each yield
    is taken, and the levels on its mode lines (masks sharing a bit with
    it) are sent back to `tgx._me_level_sets` to drop.  One budget unit
    per tuple; an exhausted budget re-raises with `incumbent` set."""
    masks = _level_table(s)[1]
    clique, search = [], _me_level_sets(s, L)
    try:
        levels = next(search)
        while True:
            budget.spend()
            clique.append(levels)
            if len(clique) >= cap:
                return clique
            mask = reduce(or_, (masks[lvl] for lvl in levels))
            levels = search.send(sum(1 << x for x in range(1, s.n + 1) if masks[x] & mask))
    except StopIteration:
        return clique
    except _BudgetExhausted as exc:
        exc.incumbent = clique
        raise


def _search_single_L(s, L, greedy, budget, seed) -> MmeRankReport:
    """One rank search at a fixed tuple size.

    The pruned pass `_lex_clique` takes the lex-greedy clique and stops
    once it fills the per-L cap min_m(n_B_m) // L: a cap-sized clique is
    maximum, and the lex-greedy one is then also the lex-least.  A pass
    without tuples proves R_MME = 0 at this L.  Only below the cap is the
    full enumeration read, with the budget reset to its value before the
    pass.  Seeded greedy orders read every row when `greedy`; else the
    one clique search, rooted at the tuples holding level 1 (a prefix of
    the lex stream, see `_max_clique`), reads only the rows it needs and
    returns the lex-least maximum clique; both start from the pass's
    clique.  The read stops once roots x tuples read (every tuple a root
    when `greedy`) passes ADJACENCY_BITS.  A budget or row ceiling that
    runs out reports the best clique found so far, at least the pass's,
    as "inconclusive", so a larger one never reports a smaller clique.
    """
    cap, r_tilde = _min_nB(s) // L, loose_bound(s)
    start = budget.used

    def report(level_sets, status, tuple_count):
        ts = _certified_set(s, tuple(level_sets))
        return MmeRankReport(s, L, r_tilde, len(ts), ts, status, budget.used, tuple_count)

    try:
        clique = _lex_clique(s, L, cap, budget)
    except _BudgetExhausted as exc:
        return report(exc.incumbent, "inconclusive", len(exc.incumbent))
    if len(clique) >= cap or not clique:
        return report(clique, "complete", len(clique))

    budget.used = start
    level_sets, roots = [], 0
    try:
        for levels in _all_level_sets(s, L):
            budget.spend()
            level_sets.append(levels)
            roots += greedy or levels[0] == 1
            if roots * len(level_sets) > ADJACENCY_BITS:
                raise _BudgetExhausted
    except _BudgetExhausted:
        return report(clique, "inconclusive", len(level_sets))
    adj = _Adjacency(s, level_sets)
    lex_clique = [level_sets.index(levels) for levels in clique]
    status = "greedy" if greedy else "complete"
    try:
        best = (_greedy_restarts([adj[i] for i in range(len(level_sets))], lex_clique,
                                 np.random.default_rng(seed), cap) if greedy
                else _max_clique(adj, roots, lex_clique, cap, budget))
    except _BudgetExhausted as exc:
        best, status = exc.incumbent, "inconclusive"
    return report([level_sets[i] for i in best], status, len(level_sets))


@dataclass(frozen=True, eq=False)
class MmeState(SpectralState):
    """An MME state: its basis rows are the TGX states of compatible ME
    `tuples`, optionally dressed by local unitaries; rank 1 is the
    trivial pure-ME edge case."""

    tuples: tuple[MeTgxTuple, ...]

    @property
    def is_trivial(self) -> bool:
        return self.rank == 1


def construct(s: ModeStructure, tuples, spectrum, lu: LocalUnitarySet | None = None):
    """Build an MME state from compatible ME TGX tuples and a spectrum.

    Returns (MmeState, DensityMatrix).  Tuples are raw levels or
    MeTgxTuples of `s`; refusals name the first offending tuple, in this
    order: bad levels (duplicate or out of range) or a foreign
    MeTgxTuple, a size other than the first tuple's, then a tuple that
    is not ME (all tuples are certified in one `_certify` block), and
    incompatible tuples, named by the lowest repeated projected level of
    the lowest failing mode line.  The levels are read and checked on
    every call; the certification of a set that passed is kept per
    process (`_certified_set`, the last CERTIFIED_SETS sets), while a
    refused set is tested and refused again on every call.  The
    spectrum must be positive numbers, not bools or strings, summing to
    1 with one weight per tuple.  The state's basis is built on every
    call as one (R, n) stack of equal superpositions and dressed by `lu`
    with one product per mode over the whole stack.  rho is mixed when
    first read (`SpectralState.matrix()`), so a caller that only samples
    the state never builds the n x n matrix.
    """
    level_sets = tuple(_read_tuple_set(s, tuples))
    ts = _certified_set(s, level_sets)
    amps = _superpositions(s.n, level_sets)
    if lu is not None:
        lu._check_structure(s)
        amps = _apply_per_axis(lu.unitaries, amps, s.dims)
    state = MmeState(s, spectrum, amps, ts)
    return state, state.matrix()


@dataclass(frozen=True)
class ExampleSetReport:
    """Per-check booleans for a published eigen-tuple set."""

    structure: ModeStructure
    level_sets: tuple[tuple[int, ...], ...]
    me: tuple[bool, ...]
    set_compatible: bool
    pairwise: tuple[tuple[int, int, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(self.me) and self.set_compatible and all(
            ok for _, _, ok in self.pairwise
        )


def validate_example_set(s: ModeStructure, tuples) -> ExampleSetReport:
    """Certify each tuple (one `_me_flags` call per tuple size) and the
    set and all pairs (projection lines); failures are reported, not
    raised.  Tuples are read as by `construct` but may differ in size:
    an empty set, bad levels or a foreign MeTgxTuple raise ValueError."""
    level_sets = _read_tuple_set(s, tuples, one_size=False)
    flags = {}
    for size in {len(levels) for levels in level_sets}:
        group = [levels for levels in level_sets if len(levels) == size]
        flags.update(zip(group, _me_flags(s, group)))
    me = tuple(flags[levels] for levels in level_sets)
    set_ok = _first_conflict(s, level_sets) is None
    pairs = []
    for i, a in enumerate(level_sets):
        for j in range(i + 1, len(level_sets)):
            pairs.append((i, j, _first_conflict(s, [a, level_sets[j]]) is None))
    return ExampleSetReport(s, tuple(level_sets), me, set_ok, tuple(pairs))
