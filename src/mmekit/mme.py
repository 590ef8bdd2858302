"""Mixed maximally entangled (MME) states: the compatibility predicate on
ME TGX tuples, rank bounds, maximal-rank search, and state construction.

A set of ME TGX tuples can serve as the eigen-tuples of an MME state
exactly when, for every mode m, the projections of all their levels onto
the big side B_m of the extreme bipartition contain no repeats.  Since
repeats are a pairwise matter, the maximal MME rank is the maximum
clique of the pairwise-compatibility graph over the ME tuples, found by
one branch and bound that also returns the lex-least maximum clique
(past n = 64, `search="auto"` runs seeded greedy orders instead and
reports a lower bound with status "greedy").
Compatibility has one test: `modes._level_table`, the layout that the
rank cap and every purity read too, gives each level one int bitmask
with a bit per (mode, B_m projection), and a projected level repeats iff
two masks share a bit.  The predicate folds level masks, and the search
ORs each tuple's masks into one.  An MmeState is the SpectralState of
its dressed TGX eigenstates, so the certifier reads it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from .entcore import _check_L, lstar
from .linalg import PureStateVector
from .modes import ModeStructure, _check_int, _check_seed, _level_table
from .tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    _apply_per_axis,
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
    level_sets = [_tuple_levels(s, t) for t in tuples]
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
    """Loose upper limit on the maximal MME rank:
    floor(min_m n_B_m / min L*).  For bipartite systems this is
    floor(n_B / n_S)."""
    return _min_nB(s) // lstar(s).min


@dataclass(frozen=True)
class MmeRankReport:
    """Outcome of a maximal-MME-rank search.

    `status` is "complete" for a proven maximum, "greedy" for the
    lower bound that `search="auto"` reports past n = 64, and
    "inconclusive" when a node budget ran out first.
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

    def to_json_dict(self) -> dict:
        return {
            "dims": str(self.structure),
            "n": self.structure.n,
            "L_used": self.L_used,
            "r_tilde": self.r_tilde,
            "R_MME": self.R_MME,
            "witness": [list(t.levels) for t in self.witness],
            "exhaustive": self.exhaustive,
            "status": self.status,
            "nodes": self.nodes,
            "tuple_count": self.tuple_count,
        }


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
    """Raised by `_Budget.spend`; `_max_clique` sets `incumbent` to its
    best clique before it re-raises."""


def _greedy_clique(adj, order) -> list[int]:
    clique: list[int] = []
    mask = None
    for v in order:
        if mask is None:
            clique = [v]
            mask = adj[v]
        elif mask >> v & 1:
            clique.append(v)
            mask &= adj[v]
    return sorted(clique) if clique else []


def _greedy_restarts(adj, start, rng, cap) -> list[int]:
    """First longest clique of `start` (the lex stream's clique), the
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


def _max_clique(adj, K, lower, upper, budget) -> list[int]:
    """Lexicographically least maximum clique, by branch and bound over
    vertices in ascending order (after Östergård 2002) with a greedy-
    colouring bound (Tomita & Seki 2003) on int bitsets.

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
    One budget unit is spent per search node; an exhausted budget
    re-raises with the best clique as `incumbent`.
    """
    best = list(lower)
    cur: list[int] = []

    def expand(cand: int):
        nonlocal best
        tops = _colour_tops(adj, cand)
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            if min(len(cur) + (tops >> v).bit_count(), upper) <= len(best):
                return
            cand ^= bit
            budget.spend()
            cur.append(v)
            if len(cur) > len(best):
                best = list(cur)
            expand(cand & adj[v])
            cur.pop()

    try:
        expand((1 << K) - 1)
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
    """Maximal MME rank of a structure.

    Enumerates ME TGX tuples at L = min L* (or the given L in L*; with
    `all_lstar`, not with L, the search repeats per L* value and the
    best report wins) and finds the largest compatible set, exiting
    early when the per-L cap is attained.  One clique search (`_max_clique`) proves the
    maximum and returns the lex-least witness: it tries vertices in
    ascending order, colours each node's candidates greedily and cuts
    once the clique so far plus the colours left cannot beat the best
    clique; this proves R_MME(2^7) = 22 in a few thousand nodes.  An L
    without ME tuples has R_MME 0, a complete report with no witness.

    `search` is "exhaustive" or "auto".  "auto" runs the clique search
    up to n = 64 and greedy orders beyond: GREEDY_RESTARTS seeded orders
    (`seed` acts only there), reported as a lower bound with status
    "greedy".  `budget_nodes`, at least 1, caps the search nodes over
    all L; once it runs out the L loop stops and the best set found so
    far is reported with status "inconclusive".
    """
    seed = _check_seed(seed)
    if search not in ("auto", "exhaustive"):
        raise ValueError(f"unknown search mode {search!r}")
    if budget_nodes is not None and _check_int("budget_nodes", budget_nodes) < 1:
        raise ValueError(f"budget_nodes must be at least 1, got {budget_nodes}")
    if all_lstar and L is not None:
        raise ValueError(f"give L or all_lstar, not both (L={L})")
    ls = lstar(s)
    greedy = search == "auto" and s.n > 64
    L_values = ls.values if all_lstar else [ls.min if L is None else _check_L(s, L)]

    budget = _Budget(budget_nodes)
    reports = []
    for Lv in L_values:
        reports.append(_search_single_L(s, Lv, greedy, budget, seed))
        if reports[-1].status == "inconclusive":
            break
    best = max(reports, key=lambda r: (r.R_MME, -r.L_used))
    if reports[-1].status == "inconclusive":
        best = replace(best, status="inconclusive")
    return best


def _adjacency(masks: list[int]) -> list[int]:
    """Bitset graph with bit j of adj[i] set iff masks i and j share no
    bit; one holder set per bit makes it O(K * L * N) big-int ORs."""
    holders: dict[int, int] = {}
    for i, mask in enumerate(masks):
        for b in _set_bits(mask):
            holders[b] = holders.get(b, 0) | 1 << i
    full = (1 << len(masks)) - 1
    return [full & ~reduce(or_, map(holders.get, _set_bits(mask))) for mask in masks]


def _set_bits(mask: int):
    while mask:
        yield mask & -mask
        mask &= mask - 1


def _search_single_L(s, L, greedy, budget, seed) -> MmeRankReport:
    """One rank search at a fixed tuple size.

    Streams the enumeration through a lexicographic greedy clique and
    stops as soon as the per-L cap min_m(n_B_m) // L is filled: a
    cap-sized clique is maximum, and the lex-greedy one is then also
    the lex-least.  A stream without tuples proves R_MME = 0 at this L.
    Only when the stream ends below the cap is the full adjacency built,
    for seeded greedy orders when `greedy`, else for the one clique
    search, which returns the lex-least maximum clique.  Both start
    from the lex-stream clique: the natural-order greedy clique, as the
    stream takes each tuple whose mask misses all masks taken.  A
    budget that runs out reports the clique so far as "inconclusive",
    R_MME 0 if it ran out before the first tuple.
    """
    cap, r_tilde = _min_nB(s) // L, loose_bound(s)
    level_masks = _level_table(s)[1]
    level_sets = []
    masks = []
    lex_clique: list[int] = []
    lex_mask = 0

    def report(indices, status):
        witness = tuple(_certify(s, [level_sets[i] for i in indices]))
        return MmeRankReport(s, L, r_tilde, len(indices), witness, status,
                             budget.used, len(level_sets))

    try:
        for levels in _me_level_sets(s, L):
            budget.spend()
            mask = reduce(or_, (level_masks[lvl] for lvl in levels))
            level_sets.append(levels)
            masks.append(mask)
            if not mask & lex_mask:
                lex_clique.append(len(level_sets) - 1)
                lex_mask |= mask
                if len(lex_clique) >= cap:
                    break
    except _BudgetExhausted:
        return report(lex_clique, "inconclusive")
    if len(lex_clique) >= cap or not level_sets:
        return report(lex_clique, "complete")

    adj = _adjacency(masks)
    if greedy:
        best = _greedy_restarts(adj, lex_clique, np.random.default_rng(seed), cap)
        return report(best, "greedy")

    try:
        return report(_max_clique(adj, len(adj), lex_clique, cap, budget), "complete")
    except _BudgetExhausted as exc:
        return report(exc.incumbent, "inconclusive")


@dataclass(frozen=True)
class MmeState(SpectralState):
    """An MME state: its eigenstates are the TGX states of compatible ME
    tuples, optionally dressed by local unitaries; rank 1 is the trivial
    pure-ME edge case."""

    tuples: tuple[MeTgxTuple, ...]
    lu: LocalUnitarySet | None = None

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
    the lowest failing mode line.  The spectrum must be positive and sum
    to 1 with one weight per tuple.  The eigenstates are built as one
    (R, n) stack of equal superpositions and dressed by `lu` with one
    tensordot per mode over the whole stack.
    """
    level_sets = _read_tuple_set(s, tuples)
    ts = tuple(_certify(s, level_sets))
    conflict = _first_conflict(s, level_sets)
    if conflict is not None:
        m, p = conflict
        raise ValueError(
            f"tuples are not compatible: mode-{m} line repeats projected level {p}"
        )
    amps = _superpositions(s.n, level_sets)
    if lu is not None:
        lu._check_structure(s)
        amps = _apply_per_axis(lu.unitaries, amps, s.dims)
    states = tuple(PureStateVector(s, row) for row in amps)
    state = MmeState(s, tuple(float(w) for w in spectrum), states, ts, lu)
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

    def to_json_dict(self) -> dict:
        return {
            "dims": str(self.structure),
            "tuples": [list(t) for t in self.level_sets],
            "me": list(self.me),
            "compatible": self.set_compatible,
            "pairwise": [
                {"i": i, "j": j, "compatible": ok} for i, j, ok in self.pairwise
            ],
            "all_pass": self.all_pass,
        }


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
