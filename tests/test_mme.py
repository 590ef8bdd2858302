from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmekit.cli import _structures_upto
from mmekit.entcore import lstar
from mmekit.linalg import partial_trace_matrix
from mmekit.mme import (
    GREEDY_RESTARTS,
    _adjacency,
    _Budget,
    _BudgetExhausted,
    _first_conflict,
    _greedy_clique,
    _greedy_restarts,
    _max_clique,
    compatible,
    construct,
    loose_bound,
    max_mme_rank,
    validate_example_set,
)
from mmekit.modes import (
    ModeStructure,
    _level_table,
    bipartition,
    parse_dims,
    project_level,
)
from mmekit.tgx import (
    MeTgxTuple,
    apply_lu,
    as_me_tuple,
    build_tgx_state,
    enumerate_me_tuples,
    is_me_tuple,
)
from mmekit.verify import SpectralState, as_spectral, random_lu_set

from reference_values import (
    EXAMPLE_SETS,
    EXAMPLE_SETS_LARGER,
    QUBIT_SETS,
    WITNESS_4X4X4X4,
)


def _tuples(dims: tuple[int, ...], sets) -> list[MeTgxTuple]:
    s = ModeStructure(dims)
    return [MeTgxTuple(s, levels) for levels in sets]


def test_compatible_on_published_sets() -> None:
    for dims in [(2, 4), (2, 5), (2, 6), (2, 2, 2, 2)]:
        tuples = _tuples(dims, EXAMPLE_SETS[dims])
        assert compatible(tuples), dims


def test_compatible_validation() -> None:
    s = ModeStructure((2, 4))
    t = MeTgxTuple(s, (1, 8))
    with pytest.raises(ValueError):
        compatible([t, (2, 7)])  # raw tuples are refused
    with pytest.raises(ValueError):
        compatible([])
    other = MeTgxTuple(ModeStructure((4, 2)), (1, 8))
    with pytest.raises(ValueError):
        compatible([t, other])
    s4 = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError):
        compatible([MeTgxTuple(s4, (1, 16)), MeTgxTuple(s4, (1, 4, 13, 16))])


def test_incompatible_pair_shares_a_projected_level() -> None:
    s = ModeStructure((2, 2, 2, 2))
    a = MeTgxTuple(s, (1, 16))
    b = MeTgxTuple(s, (2, 15))
    assert not compatible([a, b])
    with pytest.raises(ValueError, match="mode-4 line repeats projected level 1"):
        construct(s, [a, b], (0.5, 0.5))


def test_mask_adjacency_matches_compatible() -> None:
    # 2^6 at min L* has R_MME > 1, so both edge kinds occur
    s = ModeStructure((2,) * 6)
    ts = enumerate_me_tuples(s, lstar(s).min)
    assert len(ts) == 32
    masks = _level_table(s)[1]
    adj = _adjacency([reduce(or_, (masks[lvl] for lvl in t.levels)) for t in ts])
    verdicts = []
    for i, j in itertools.combinations(range(len(ts)), 2):
        ok = compatible([ts[i], ts[j]])
        assert bool(adj[i] >> j & 1) == bool(adj[j] >> i & 1) == ok, (i, j)
        verdicts.append(ok)
    assert (verdicts.count(True), verdicts.count(False)) == (400, 96)
    assert not any(adj[i] >> i & 1 for i in range(len(ts)))


def _scan_conflict(s: ModeStructure, level_sets):
    """Set-scan oracle for `_first_conflict`: the first mode whose line
    repeats a projected level, with its lowest repeated level."""
    for m in range(1, s.N + 1):
        B = bipartition(s, m).B_modes
        seen, repeated = set(), set()
        for lvl in itertools.chain.from_iterable(level_sets):
            p = project_level(s, lvl, B)
            (repeated if p in seen else seen).add(p)
        if repeated:
            return m, min(repeated)
    return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_first_conflict_matches_set_scan(data) -> None:
    # raw level sets, ME or not, may repeat a projection inside one set
    s = data.draw(st.sampled_from(list(_structures_upto(36))), label="structure")
    levels = st.lists(st.integers(1, s.n), min_size=1, max_size=6, unique=True)
    level_sets = data.draw(st.lists(levels.map(sorted).map(tuple), min_size=1,
                                    max_size=5), label="level_sets")
    assert _first_conflict(s, level_sets) == _scan_conflict(s, level_sets)


def test_loose_bound_pins() -> None:
    cases = {
        (2, 4): 2,
        (2, 6): 3,
        (2, 2, 2): 2,
        (2, 2, 2, 2): 4,
        (2, 2, 2, 2, 2): 8,
        (2, 2, 2, 2, 2, 2): 16,
        (2, 2, 2, 2, 2, 2, 2): 32,
        (3, 6): 2,
        (3, 3, 3): 3,
        (2, 3, 5): 1,
        (3, 3, 4): 1,
    }
    for dims, bound in cases.items():
        assert loose_bound(ModeStructure(dims)) == bound, dims


def test_max_rank_small_pins() -> None:
    cases = {
        (2, 4): 2,
        (2, 2, 2): 1,
        (2, 6): 3,
        (3, 6): 2,
        (2, 2, 2, 2): 4,
        (3, 3, 3): 3,
    }
    for dims, rank in cases.items():
        report = max_mme_rank(ModeStructure(dims))
        assert report.R_MME == rank, dims
        assert report.status == "complete"
        assert report.exhaustive
        assert report.R_MME <= report.r_tilde
        assert len(report.witness) == rank
        assert compatible(report.witness)


def test_qubit_witnesses_match_published_sets() -> None:
    for N in (4, 5, 6):
        s = ModeStructure((2,) * N)
        report = max_mme_rank(s)
        got = tuple(t.levels for t in report.witness)
        assert got == QUBIT_SETS[N], N
        assert report.status == "complete"


BELOW_CAP_WITNESSES = [
    ("2^5", 2, 5, [(1, 32), (4, 29), (6, 27), (10, 23), (15, 18)]),
    ("2^5", 4, 4, [(1, 4, 30, 31), (6, 7, 25, 28), (10, 11, 21, 24), (13, 16, 18, 19)]),
    ("2^5", 6, 1, [(1, 4, 6, 27, 29, 32)]),
    ("2^7", None, 22, [(1, 128), (4, 125), (6, 123), (7, 122), (10, 119), (11, 118),
                       (13, 116), (18, 111), (19, 110), (21, 108), (25, 104), (32, 97),
                       (34, 95), (35, 94), (37, 92), (41, 88), (48, 81), (49, 80),
                       (56, 73), (60, 69), (62, 67), (63, 66)]),
    ("3x3x3x3", None, 9, [(1, 41, 81), (5, 45, 73), (9, 37, 77), (11, 51, 61),
                          (15, 52, 56), (16, 47, 60), (21, 31, 71), (22, 35, 66),
                          (26, 30, 67)]),
]


@pytest.mark.parametrize("dims,L,rank,witness", BELOW_CAP_WITNESSES)
def test_exhaustive_witness_pins(dims, L, rank, witness) -> None:
    # the lex-least maximum compatible set, below the per-L cap except 3^4
    report = max_mme_rank(parse_dims(dims), search="exhaustive", L=L)
    assert (report.R_MME, report.status) == (rank, "complete")
    assert [t.levels for t in report.witness] == witness


@pytest.mark.parametrize("search", ["auto", "exhaustive", "greedy"])
def test_L_without_me_tuples_has_rank_zero(search) -> None:
    # L* of 2^5 includes 14, where no ME TGX tuple exists
    s = ModeStructure((2,) * 5)
    assert 14 in lstar(s).values
    report = max_mme_rank(s, search=search, L=14)
    assert (report.R_MME, report.witness, report.status) == (0, (), "complete")
    assert report.tuple_count == 0
    assert max_mme_rank(s, search=search, all_lstar=True).L_used == 2


def test_all_lstar_picks_best_L() -> None:
    s = ModeStructure((3, 3, 3))
    report = max_mme_rank(s, all_lstar=True)
    assert report.L_used == 3
    assert report.R_MME == 3


def test_rank_L_validation() -> None:
    s = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError):
        max_mme_rank(s, L=3)  # not in L*
    with pytest.raises(ValueError):
        max_mme_rank(s, search="quantum")


def test_report_json_shape() -> None:
    d = max_mme_rank(ModeStructure((2, 4))).to_json_dict()
    assert set(d) == {
        "dims",
        "n",
        "L_used",
        "r_tilde",
        "R_MME",
        "witness",
        "exhaustive",
        "status",
        "nodes",
        "tuple_count",
    }
    assert d["dims"] == "2x4"
    assert d["n"] == 8
    assert d["witness"] == [[1, 6], [3, 8]]  # lex-least maximum clique


def test_tiny_budget_reports_inconclusive() -> None:
    s = ModeStructure((2, 2, 2, 2, 2))
    report = max_mme_rank(s, search="exhaustive", budget_nodes=3)
    assert report.status == "inconclusive"
    assert not report.exhaustive
    assert report.R_MME >= 1


def test_budget_spent_in_clique_search_reports_its_incumbent() -> None:
    # 2^7 streams its 64 tuples into a lex-greedy clique of 16; the last
    # 36 nodes go to the branch and bound, whose incumbent has grown to
    # 19 by then (it reaches the maximum, 22, at its 72nd node)
    report = max_mme_rank(ModeStructure((2,) * 7), search="exhaustive", budget_nodes=100)
    assert report.status == "inconclusive"
    assert not report.exhaustive
    assert report.R_MME == len(report.witness) == 19
    assert compatible(report.witness)
    stream = max_mme_rank(ModeStructure((2,) * 7), search="exhaustive", budget_nodes=64)
    assert (stream.R_MME, stream.nodes) == (16, 65)


def test_budget_spent_before_a_later_L_reports_inconclusive() -> None:
    # L* = (6, 12): a budget that L = 6 uses up leaves L = 12 unsearched,
    # so the proven rank at L = 6 is only a lower bound over L*
    s = ModeStructure((2, 2, 3, 3))
    nodes = max_mme_rank(s, L=6).nodes
    report = max_mme_rank(s, all_lstar=True, budget_nodes=nodes)
    assert (report.status, report.exhaustive) == ("inconclusive", False)
    assert (report.L_used, report.R_MME) == (6, 2)
    assert max_mme_rank(s, all_lstar=True, budget_nodes=10**6).status == "complete"
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget_nodes"):
            max_mme_rank(s, budget_nodes=budget)


def _random_graph(rng, K: int, density: float) -> list[int]:
    adj = [0] * K
    for i, j in itertools.combinations(range(K), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _brute_force_clique_number(adj: list[int]) -> int:
    # is_clique[mask] over all 2^K vertex subsets, lowest vertex peeled off
    K = len(adj)
    is_clique = [True] * (1 << K)
    best = 0
    for mask in range(1, 1 << K):
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length() - 1
        is_clique[mask] = is_clique[rest] and rest & ~adj[v] == 0
        if is_clique[mask]:
            best = max(best, bin(mask).count("1"))
    return best


def _is_clique(adj: list[int], clique: list[int]) -> bool:
    return len(set(clique)) == len(clique) and all(
        adj[a] >> b & 1 for a, b in itertools.combinations(clique, 2)
    )


CLIQUE_GRAPHS = [
    (K, density, seed)
    for seed, (K, density) in enumerate(
        itertools.product((1, 6, 11, 16), (0.2, 0.5, 0.7, 0.9))
    )
]


@pytest.mark.parametrize("K,density,seed", CLIQUE_GRAPHS[-4:])
def test_greedy_restarts_stop_at_cap_keeps_first_longest(K, density, seed) -> None:
    adj = _random_graph(np.random.default_rng(seed), K, density)
    rng = np.random.default_rng(seed)
    degs = [a.bit_count() for a in adj]
    orders = [range(K), sorted(range(K), key=lambda v: (-degs[v], v))]
    orders += [rng.permutation(K).tolist() for _ in range(GREEDY_RESTARTS)]
    want = max((_greedy_clique(adj, order) for order in orders), key=len)
    for cap in (_brute_force_clique_number(adj), K + 1):
        assert _greedy_restarts(adj, K, np.random.default_rng(seed), cap) == want


def _lex_least_clique(adj: list[int], size: int) -> list[int] | None:
    return next((list(c) for c in itertools.combinations(range(len(adj)), size)
                 if _is_clique(adj, list(c))), None)


@pytest.mark.parametrize("K,density,seed", CLIQUE_GRAPHS)
def test_max_clique_matches_brute_force(K, density, seed) -> None:
    adj = _random_graph(np.random.default_rng(seed), K, density)
    omega = _brute_force_clique_number(adj)
    want = _lex_least_clique(adj, omega)

    # no incumbent, then a greedy one; an upper bound the search cannot reach
    budget = _Budget(None)
    assert _max_clique(adj, K, [], K + 1, budget) == want
    lower = _greedy_clique(adj, range(K))
    assert _max_clique(adj, K, lower, K + 1, _Budget(None)) == want

    # an incumbent already at the upper bound spends no nodes
    spent = _Budget(None)
    assert _max_clique(adj, K, lower, len(lower), spent) == lower
    assert spent.used == 0

    # a budget one node short raises with a clique as its incumbent
    with pytest.raises(_BudgetExhausted) as exc:
        _max_clique(adj, K, [], K + 1, _Budget(budget.used - 1))
    assert _is_clique(adj, exc.value.incumbent)


@pytest.mark.parametrize("K,density,seed", CLIQUE_GRAPHS)
def test_lex_min_clique_matches_brute_force(K, density, seed) -> None:
    # an upper bound stops the search at the lex-least clique of that size;
    # above omega no clique of that size exists and omega's is returned
    adj = _random_graph(np.random.default_rng(seed), K, density)
    omega = _brute_force_clique_number(adj)
    assert _lex_least_clique(adj, omega + 1) is None
    for size in range(1, omega + 2):
        got = _max_clique(adj, K, [], size, _Budget(None))
        assert got == _lex_least_clique(adj, min(size, omega)), size


def test_max_clique_budget_exhaustion() -> None:
    adj = _random_graph(np.random.default_rng(3), 16, 0.5)
    with pytest.raises(_BudgetExhausted):
        _max_clique(adj, 16, [], 17, _Budget(2))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_max_clique_property(data) -> None:
    K = data.draw(st.integers(0, 12), label="K")
    density = data.draw(st.floats(0, 1), label="density")
    adj = _random_graph(np.random.default_rng(data.draw(st.integers(0, 2**32))), K, density)
    lower = data.draw(st.sampled_from([[], _greedy_clique(adj, range(K))]), label="lower")
    upper = data.draw(st.integers(1, K + 1), label="upper")
    limit = data.draw(st.integers(1, 40), label="budget")

    # `lower` is the lex-least clique of its size, so the result is the
    # lex-least clique of the larger of that size and min(upper, omega)
    size = max(len(lower), min(upper, _brute_force_clique_number(adj)))
    want = _lex_least_clique(adj, size)
    assert _max_clique(adj, K, lower, upper, _Budget(None)) == want
    try:
        assert _max_clique(adj, K, lower, upper, _Budget(limit)) == want
    except _BudgetExhausted as exc:
        assert _is_clique(adj, exc.incumbent)
        assert len(exc.incumbent) >= len(lower)


def _extra_tuples(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    if dims == (2, 4):
        return [(1, 7), (2, 8), (3, 6)]
    if dims == (2, 5):
        return [(1, 7), (3, 9)]
    if dims == (2, 6):
        return [(1, 8), (2, 9)]
    return [(2, 15), (1, 4, 13, 16)]


def _equal_vector(s: ModeStructure, levels: tuple[int, ...]) -> np.ndarray:
    v = np.zeros(s.n, dtype=complex)
    for lv in levels:
        v[lv - 1] = 1 / np.sqrt(len(levels))
    return v


def test_compatibility_equals_vanishing_cross_reductions() -> None:
    # disjoint mode lines <=> every extreme reduction of the cross term is zero
    for dims in [(2, 4), (2, 5), (2, 6), (2, 2, 2, 2)]:
        s = ModeStructure(dims)
        tuples = _tuples(dims, EXAMPLE_SETS[dims])
        seen = {x.levels for x in tuples}
        pool = tuples + [
            as_me_tuple(s, lv) for lv in _extra_tuples(dims) if tuple(lv) not in seen
        ]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if a.L != b.L:
                    continue
                va = _equal_vector(s, a.levels)
                vb = _equal_vector(s, b.levels)
                cross = np.outer(va, vb.conj())
                clean = True
                for m in range(1, s.N + 1):
                    part = bipartition(s, m)
                    keep = tuple(
                        k for k in range(1, s.N + 1) if k not in part.B_modes
                    )
                    red = partial_trace_matrix(cross, s, keep)
                    if np.abs(red).max() > 1e-12:
                        clean = False
                        break
                assert compatible([a, b]) == clean, (dims, a.levels, b.levels)


def test_bipartite_closed_form_samples() -> None:
    for dims, rank in {(2, 7): 3, (3, 7): 2, (4, 9): 2, (4, 12): 3}.items():
        report = max_mme_rank(ModeStructure(dims))
        assert report.R_MME == rank
        assert report.R_MME == max(dims) // min(dims)


def test_construct_two_by_five() -> None:
    s = parse_dims("2x5")
    state, rho = construct(s, [(1, 10), (2, 8)], (0.7, 0.3))
    assert state.rank == 2
    assert not state.is_trivial
    assert np.trace(rho.entries) == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(rho.entries)
    assert evals[-1] == pytest.approx(0.7, abs=1e-12)
    assert evals[-2] == pytest.approx(0.3, abs=1e-12)
    # cross entry of the 0.7 branch: 0.7 * (1/sqrt2)^2 between levels 1 and 10
    assert rho.entries[0, 9] == pytest.approx(0.35, abs=1e-12)
    assert rho.entries.shape == (10, 10)
    assert len(state.eigenstates) == 2


def test_construct_spectrum_validation() -> None:
    s = parse_dims("2x5")
    tuples = [(1, 10), (2, 8)]
    with pytest.raises(ValueError):
        construct(s, tuples, (0.7, 0.2))
    with pytest.raises(ValueError):
        construct(s, tuples, (1.2, -0.2))
    with pytest.raises(ValueError):
        construct(s, tuples, (0.7, 0.2, 0.1))
    with pytest.raises(ValueError):
        construct(s, [], (1.0,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            construct(s, tuples, (bad, 0.5))


def test_construct_mixed_L_is_refused() -> None:
    s = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError, match="mixed tuple sizes"):
        construct(s, [(1, 16), (1, 4, 13, 16)], (0.5, 0.5))


# (tuples on 2^4, message naming the first offending tuple); each list
# holds a second offender after the first
CONSTRUCT_REFUSALS = [
    ([(1, 16), (1, 2), (2, 3)], r"\(1, 2\) is not an ME TGX tuple of 2x2x2x2"),
    ([(3,), (5,)], r"\(3,\) is not an ME TGX tuple of 2x2x2x2"),
    ([(1, 16), (4, 4), (6, 6)], r"duplicates: \(4, 4\)"),
    ([(1, 16), (4, 17), (0, 13)], r"level 17 of \(4, 17\) out of range 1\.\.16"),
    ([(1, 16), (1, 4, 13, 16), (6,)],
     r"mixed tuple sizes: \(1, 4, 13, 16\) has L=4 but \(1, 16\) has L=2"),
]


@pytest.mark.parametrize("tuples,match", CONSTRUCT_REFUSALS)
def test_construct_refuses_bad_tuples(tuples, match) -> None:
    s = ModeStructure((2, 2, 2, 2))
    weights = (1 / len(tuples),) * len(tuples)
    with pytest.raises(ValueError, match=match):
        construct(s, tuples, weights)


def test_construct_refuses_tuple_of_another_structure() -> None:
    s = ModeStructure((2, 2, 2, 2))
    foreign = MeTgxTuple(ModeStructure((2, 8)), (1, 16))
    with pytest.raises(ValueError, match=r"tuple \{1,16\} belongs to 2x8, not 2x2x2x2"):
        construct(s, [(1, 16), foreign, (4, 13)], (0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="belongs to 2x8"):
        as_me_tuple(s, foreign)


DRESSING_SETS = [
    ((2, 3, 2), ((1, 4, 8, 11),)),
    ((2, 2, 2, 2), EXAMPLE_SETS[(2, 2, 2, 2)]),
    ((3, 3, 3), EXAMPLE_SETS[(3, 3, 3)]),
    ((2, 2, 3, 3), EXAMPLE_SETS_LARGER[(2, 2, 3, 3)]),
    ((2,) * 6, QUBIT_SETS[6]),
    ((4, 4, 4, 4), WITNESS_4X4X4X4),
]


@pytest.mark.parametrize("dims,tuples", DRESSING_SETS)
def test_construct_stacked_dressing_matches_per_state(dims, tuples) -> None:
    s = ModeStructure(dims)
    lu = random_lu_set(s, 29)
    full = lu.full_matrix(s)
    state, _ = construct(s, tuples, (1 / len(tuples),) * len(tuples), lu)
    plain, _ = construct(s, tuples, (1 / len(tuples),) * len(tuples))
    for t, v, bare in zip(state.tuples, state.eigenstates, plain.eigenstates):
        assert np.array_equal(bare.amplitudes, build_tgx_state(t).amplitudes)
        assert np.abs(v.amplitudes - apply_lu(bare, lu).amplitudes).max() <= 1e-14
        assert np.abs(v.amplitudes - full @ bare.amplitudes).max() <= 1e-14


def test_construct_lu_dressing_keeps_spectrum() -> None:
    s = parse_dims("2x5")
    tuples = [(1, 10), (2, 8)]
    _, plain = construct(s, tuples, (0.7, 0.3))
    _, dressed = construct(s, tuples, (0.7, 0.3), lu=random_lu_set(s, 11))
    ev_a = np.linalg.eigvalsh(plain.entries)
    ev_b = np.linalg.eigvalsh(dressed.entries)
    assert np.allclose(ev_a, ev_b, atol=1e-12)
    assert not np.allclose(plain.entries, dressed.entries, atol=1e-6)


def test_mme_state_is_its_own_spectral_state() -> None:
    s = parse_dims("2^4")
    lu = random_lu_set(s, 3)
    state, rho = construct(s, [(1, 16), (4, 13)], (0.7, 0.3), lu)
    assert isinstance(state, SpectralState)
    spec, note = as_spectral(state)
    assert spec is state and note == ""
    assert state.lu is lu and state.rank == 2
    assert np.array_equal(state.matrix().entries, rho.entries)


def test_construct_trivial_single_tuple() -> None:
    s = ModeStructure((2, 4))
    state, rho = construct(s, [(1, 8)], (1.0,))
    assert state.rank == 1
    assert state.is_trivial
    assert np.trace(rho.entries @ rho.entries) == pytest.approx(1.0, abs=1e-12)


def test_validate_example_set_pass_shape() -> None:
    report = validate_example_set(ModeStructure((2, 5)), EXAMPLE_SETS[(2, 5)])
    assert report.all_pass
    assert report.me == (True, True)
    assert report.set_compatible
    assert report.pairwise == ((0, 1, True),)

    s4 = ModeStructure((2, 2, 2, 2))
    full = validate_example_set(s4, EXAMPLE_SETS[(2, 2, 2, 2)])
    assert full.all_pass
    assert full.me == (True,) * 4
    assert len(full.pairwise) == 6


def test_validate_example_set_failure_shapes() -> None:
    s = ModeStructure((2, 2, 2, 2))
    bad_pair = validate_example_set(s, [(1, 16), (2, 15)])
    assert bad_pair.me == (True, True)
    assert not bad_pair.set_compatible
    assert bad_pair.pairwise == ((0, 1, False),)
    assert not bad_pair.all_pass

    not_me = validate_example_set(s, [(1, 16), (2, 3)])
    assert not_me.me == (True, False)
    assert not not_me.all_pass
    d = not_me.to_json_dict()
    assert d["me"] == [True, False]
    assert d["all_pass"] is False


VALIDATION_SETS = [
    *EXAMPLE_SETS.items(),
    *EXAMPLE_SETS_LARGER.items(),
    *(((2,) * N, levels) for N, levels in QUBIT_SETS.items()),
    ((2, 2, 2, 2), ((1, 16), (2, 3), (4, 13), (1, 2))),  # not all ME
    ((2, 2, 2, 2), ((1, 16), (5,), (1, 4, 13, 16), (2, 3), (7,), (6, 11))),
]


@pytest.mark.parametrize("dims,tuples", VALIDATION_SETS)
def test_validate_example_set_me_matches_per_tuple(dims, tuples) -> None:
    s = ModeStructure(dims)
    report = validate_example_set(s, tuples)
    assert report.me == tuple(is_me_tuple(s, t) for t in tuples)


def test_validate_example_set_refuses_bad_levels() -> None:
    s = ModeStructure((2, 2, 2, 2))
    for bad in ([(1, 16), (4, 4)], [(1, 16), (0, 13)], [(1, 17)]):
        with pytest.raises(ValueError):
            validate_example_set(s, bad)
    assert validate_example_set(s, [(5,), (1, 16)]).me == (False, True)


def test_searched_L_respects_lstar_choice() -> None:
    s = ModeStructure((2, 2, 3, 3))
    assert lstar(s).values == (6, 12)
    report = max_mme_rank(s, L=6)
    assert report.L_used == 6
    assert report.R_MME == 2
