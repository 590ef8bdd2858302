"""Mixed maximally entangled (MME) states: the compatibility predicate on
ME TGX tuples, rank bounds, maximal-rank search, and state construction.

A set of ME TGX tuples can serve as the eigen-tuples of an MME state
exactly when, for every mode m, the projections of all their levels onto
the big side B_m of the extreme bipartition contain no repeats.  Since
repeats are a pairwise matter, the maximal MME rank is the maximum
clique of the pairwise-compatibility graph over the ME tuples.  Both
read the projections from the level table of `modes`; the search packs
each tuple's (mode, projection) pairs into one int bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .entcore import lstar
from .linalg import DensityMatrix, PureStateVector, _check_weights, mix
from .modes import ModeStructure, _level_table, bipartition
from .tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    _me_level_sets,
    apply_lu,
    as_me_tuple,
    build_tgx_state,
    is_me_tuple,
)


def _first_conflict(s: ModeStructure, level_sets):
    """First (mode, projected level) repeated in a mode line, or None;
    repeats within one tuple count.  Levels must already be validated."""
    _, proj = _level_table(s)
    for m in range(s.N):
        seen = set()
        for p in (proj[lvl][m] for levels in level_sets for lvl in levels):
            if p in seen:
                return m + 1, p
            seen.add(p)
    return None


def compatible(tuples) -> bool:
    """Whether a set of ME TGX tuples can coexist as MME eigen-tuples.

    True iff for every mode m no projected level repeats along the mode
    line, repeats within a single tuple included.  All tuples must share
    one structure and one L.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one tuple")
    s = tuples[0].structure
    L = tuples[0].L
    for t in tuples:
        if not isinstance(t, MeTgxTuple):
            raise ValueError("compatible() expects certified MeTgxTuple inputs")
        if t.structure.dims != s.dims:
            raise ValueError("tuples come from different structures")
        if t.L != L:
            raise ValueError(f"mixed tuple sizes: {t.L} and {L}")
    return _first_conflict(s, [t.levels for t in tuples]) is None


def loose_bound(s: ModeStructure) -> int:
    """Loose upper limit on the maximal MME rank:
    floor(min_m n_B_m / min L*).  For bipartite systems this is
    floor(n_B / n_S)."""
    min_nB = min(bipartition(s, m).n_B for m in range(1, s.N + 1))
    return min_nB // lstar(s).min


@dataclass(frozen=True)
class MmeRankReport:
    """Outcome of a maximal-MME-rank search.

    `exhaustive` is False when the result is only a lower bound (greedy
    search, or an exhausted node budget; see `status`).
    """

    structure: ModeStructure
    L_used: int
    r_tilde: int
    R_MME: int
    witness: tuple[MeTgxTuple, ...]
    exhaustive: bool
    status: str  # "complete" | "greedy" | "inconclusive"
    nodes: int = 0
    tuple_count: int = 0

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
    pass


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


def _greedy_restarts(adj, K, rng, restarts) -> list[int]:
    """Best clique over deterministic and randomized greedy orders."""
    best: list[int] = []
    orders = [list(range(K))]
    degs = [bin(a).count("1") for a in adj]
    orders.append(sorted(range(K), key=lambda v: (-degs[v], v)))
    for _ in range(restarts):
        orders.append([int(v) for v in rng.permutation(K)])
    for order in orders:
        c = _greedy_clique(adj, order)
        if len(c) > len(best):
            best = c
    return best


def _colour_classes(adj, cand: int) -> list[tuple[int, int]]:
    """Sequential greedy colouring of the bitset `cand`, vertices taken
    in natural order: each colour class is an independent set, so a
    clique holds at most one vertex per class.  Returns (vertex, colour)
    pairs with colours ascending."""
    out: list[tuple[int, int]] = []
    colour = 0
    while cand:
        colour += 1
        q = cand
        while q:
            bit = q & -q
            v = bit.bit_length() - 1
            q &= ~(adj[v] | bit)
            cand &= ~bit
            out.append((v, colour))
    return out


def _max_clique_size(adj, K, lower, upper, budget) -> tuple[int, list[int]]:
    """Branch and bound for the maximum clique with a greedy-colouring
    bound (MCQ, Tomita & Seki 2003, on int bitsets as in BBMC).

    At every node the candidate set is coloured greedily; a vertex of
    colour c can extend the current clique by at most c vertices, so
    the search branches over vertices in reverse colour order and prunes
    as soon as len(cur) + c cannot beat the incumbent.  Starts from the
    `lower` incumbent, stops immediately if `upper` is attained (the
    bound proves optimality), and spends one budget unit per search
    node.
    """
    best_size = 0
    best: list[int] = []
    cur: list[int] = []

    def expand(cand: int):
        nonlocal best_size, best
        for v, colour in reversed(_colour_classes(adj, cand)):
            if len(cur) + colour <= best_size:
                return
            cand &= ~(1 << v)
            budget.spend()
            cur.append(v)
            sub = cand & adj[v]
            if len(cur) > best_size:
                best_size = len(cur)
                best = list(cur)
                if best_size >= upper:
                    cur.pop()
                    raise _UpperReached
            if sub:
                expand(sub)
            cur.pop()

    full = (1 << K) - 1
    if lower:
        best_size = len(lower)
        best = list(lower)
    try:
        if best_size < upper:
            expand(full)
    except _UpperReached:
        pass
    return best_size, best


class _UpperReached(Exception):
    pass


def _lex_min_clique(adj, K, size, budget):
    """Lexicographically first clique of a given size, by ascending DFS."""
    cur: list[int] = []

    def dfs(cand: int):
        if len(cur) == size:
            return list(cur)
        if len(cur) + bin(cand).count("1") < size:
            return None
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            budget.spend()
            cur.append(v)
            found = dfs(c & adj[v])
            cur.pop()
            if found is not None:
                return found
        return None

    return dfs((1 << K) - 1)


def max_mme_rank(
    s: ModeStructure,
    search: str = "auto",
    L: int | None = None,
    all_lstar: bool = False,
    budget_nodes: int | None = None,
    seed: int = 0,
    restarts: int = 2000,
) -> MmeRankReport:
    """Maximal MME rank of a structure.

    Enumerates ME TGX tuples at L = min L* (or the given L; with
    `all_lstar` the search repeats per L* value and the best report
    wins) and finds the largest compatible set by branch and bound,
    exiting early when the per-L cap is attained.  The branch and bound
    colours each node's candidate set greedily and prunes a branch once
    the clique so far plus the colour count cannot beat the best clique
    found; this proves R_MME(2^7) = 22 in a few thousand nodes.

    `search="auto"` runs exhaustively up to n = 64 and greedily beyond,
    where the exhaustive search outgrows a desk budget; greedy results
    are lower bounds flagged `exhaustive=False`.  An exhausted node
    budget yields status "inconclusive" carrying the best set found.
    """
    if search not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown search mode {search!r}")
    ls = lstar(s)
    if search == "auto":
        search = "exhaustive" if s.n <= 64 else "greedy"
    if all_lstar:
        L_values = list(ls.values)
    elif L is not None:
        L = int(L)
        if L not in ls.values:
            raise ValueError(f"L={L} is not in L*{ls.values} of {s}")
        L_values = [L]
    else:
        L_values = [ls.min]

    budget = _Budget(budget_nodes)
    reports = []
    for Lv in L_values:
        reports.append(_search_single_L(s, Lv, search, budget, seed, restarts))
    return max(reports, key=lambda r: (r.R_MME, -r.L_used))


def _level_bits(s: ModeStructure) -> list[int]:
    """bits[lvl] sets bit p * N + m - 1 for the level's projection p onto
    each B_m; a tuple's mask is the OR over its levels."""
    return [0] + [sum(1 << (p * s.N + m) for m, p in enumerate(ps))
                  for ps in _level_table(s)[1][1:]]


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


def _search_single_L(s, L, search, budget, seed, restarts) -> MmeRankReport:
    """One rank search at a fixed tuple size.

    Streams the enumeration through a lexicographic greedy clique and
    stops as soon as the per-L cap min_m(n_B_m) // L is filled: a
    cap-sized clique is maximum, and the lex-greedy one is then also
    the lex-least.  Only when the stream ends below the cap is the
    full adjacency built for branch and bound.
    """
    cap = min(bipartition(s, m).n_B for m in range(1, s.N + 1)) // L
    r_tilde = loose_bound(s)
    exhausted = False

    bits = _level_bits(s)
    level_sets = []
    masks = []
    lex_clique: list[int] = []
    lex_mask = 0
    try:
        for levels in _me_level_sets(s, L):
            budget.spend()
            mask = reduce(or_, (bits[lvl] for lvl in levels))
            level_sets.append(levels)
            masks.append(mask)
            if not mask & lex_mask:
                lex_clique.append(len(level_sets) - 1)
                lex_mask |= mask
                if len(lex_clique) >= cap:
                    break
    except _BudgetExhausted:
        exhausted = True

    if not level_sets:
        raise RuntimeError(f"no ME TGX tuples found for {s} at L={L}")

    def report(indices, exhaustive, status):
        witness = tuple(MeTgxTuple(s, level_sets[i]) for i in indices)
        return MmeRankReport(s, L, r_tilde, len(indices), witness, exhaustive,
                             status, budget.used, len(level_sets))

    if len(lex_clique) >= cap and not exhausted:
        return report(lex_clique, True, "complete")
    if exhausted:
        return report(lex_clique or [0], False, "inconclusive")

    K = len(level_sets)
    adj = _adjacency(masks)
    rng = np.random.default_rng(seed)
    best = _greedy_restarts(adj, K, rng, restarts if search == "greedy" else 8)
    if len(lex_clique) > len(best):
        best = lex_clique

    if search == "greedy":
        return report(best, False, "greedy")

    try:
        size, found = _max_clique_size(adj, K, best, cap, budget)
        lex = _lex_min_clique(adj, K, size, budget)
        if lex is not None:
            found = lex
    except _BudgetExhausted:
        return report(best, False, "inconclusive")
    return report(found, True, "complete")


@dataclass(frozen=True)
class MmeState:
    """Spectrum plus compatible ME TGX eigen-tuples, optionally dressed by
    local unitaries; rank 1 is the trivial pure-ME edge case."""

    structure: ModeStructure
    tuples: tuple[MeTgxTuple, ...]
    spectrum: tuple[float, ...]
    lu: LocalUnitarySet | None = None

    @property
    def rank(self) -> int:
        return len(self.tuples)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 1

    @cached_property
    def eigenstates(self) -> tuple[PureStateVector, ...]:
        """The (dressed) eigenstates, built on first use and then kept."""
        states = (build_tgx_state(t) for t in self.tuples)
        if self.lu is not None:
            states = (apply_lu(st, self.lu) for st in states)
        return tuple(states)

    def matrix(self) -> DensityMatrix:
        return mix(self.eigenstates, self.spectrum)


def construct(s: ModeStructure, tuples, spectrum, lu: LocalUnitarySet | None = None):
    """Build an MME state from compatible ME TGX tuples and a spectrum.

    Returns (MmeState, DensityMatrix).  Incompatible tuples are refused
    with the failing mode line; the spectrum must be positive and sum
    to 1 with one weight per tuple.
    """
    ts = tuple(as_me_tuple(s, t) for t in tuples)
    if not ts:
        raise ValueError("need at least one tuple")
    Lset = {t.L for t in ts}
    if len(Lset) != 1:
        raise ValueError(f"mixed tuple sizes {sorted(Lset)}; eigen-tuples must share L")
    conflict = _first_conflict(s, [t.levels for t in ts])
    if conflict is not None:
        m, p = conflict
        raise ValueError(
            f"tuples are not compatible: mode-{m} line repeats projected level {p}"
        )
    spectrum = tuple(float(w) for w in spectrum)
    _check_weights(spectrum, len(ts))
    state = MmeState(s, ts, spectrum, lu)
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
    """Certify each tuple (is_me_tuple) and the set and all pairs
    (projection lines); failures are reported, not raised."""
    level_sets = []
    for t in tuples:
        levels = t.levels if isinstance(t, MeTgxTuple) else tuple(
            sorted(int(x) for x in t)
        )
        level_sets.append(levels)
    me = tuple(is_me_tuple(s, levels) for levels in level_sets)
    set_ok = _first_conflict(s, level_sets) is None
    pairs = []
    for i, a in enumerate(level_sets):
        for j in range(i + 1, len(level_sets)):
            pairs.append((i, j, _first_conflict(s, [a, level_sets[j]]) is None))
    return ExampleSetReport(s, tuple(level_sets), me, set_ok, tuple(pairs))
