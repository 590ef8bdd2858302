from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

import numpy as np
import pytest

from mmekit.entcore import lstar
from mmekit.linalg import partial_trace_matrix
from mmekit.mme import (
    _adjacency,
    _Budget,
    _BudgetExhausted,
    _greedy_clique,
    _level_bits,
    _max_clique_size,
    compatible,
    construct,
    loose_bound,
    max_mme_rank,
    validate_example_set,
)
from mmekit.modes import ModeStructure, bipartition, parse_dims
from mmekit.tgx import MeTgxTuple, as_me_tuple, enumerate_me_tuples
from mmekit.verify import random_lu_set

from reference_values import EXAMPLE_SETS, QUBIT_SETS


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
    bits = _level_bits(s)
    adj = _adjacency([reduce(or_, (bits[lvl] for lvl in t.levels)) for t in ts])
    verdicts = []
    for i, j in itertools.combinations(range(len(ts)), 2):
        ok = compatible([ts[i], ts[j]])
        assert bool(adj[i] >> j & 1) == bool(adj[j] >> i & 1) == ok, (i, j)
        verdicts.append(ok)
    assert (verdicts.count(True), verdicts.count(False)) == (400, 96)
    assert not any(adj[i] >> i & 1 for i in range(len(ts)))


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


@pytest.mark.parametrize("K,density,seed", CLIQUE_GRAPHS)
def test_max_clique_matches_brute_force(K, density, seed) -> None:
    adj = _random_graph(np.random.default_rng(seed), K, density)
    omega = _brute_force_clique_number(adj)

    # no incumbent, an upper bound the search cannot reach
    size, clique = _max_clique_size(adj, K, [], K + 1, _Budget(None))
    assert size == len(clique) == omega and _is_clique(adj, clique)

    # a greedy incumbent
    lower = _greedy_clique(adj, range(K))
    size, clique = _max_clique_size(adj, K, lower, K + 1, _Budget(None))
    assert size == len(clique) == omega and _is_clique(adj, clique)

    # an upper bound at or below omega stops the search once it is attained
    for upper in {max(omega - 1, 1), omega}:
        size, clique = _max_clique_size(adj, K, [], upper, _Budget(None))
        assert upper <= size == len(clique) <= omega and _is_clique(adj, clique)

    # an incumbent already at the upper bound spends no nodes
    budget = _Budget(None)
    assert _max_clique_size(adj, K, lower, len(lower), budget) == (len(lower), lower)
    assert budget.used == 0


def test_max_clique_budget_exhaustion() -> None:
    adj = _random_graph(np.random.default_rng(3), 16, 0.5)
    with pytest.raises(_BudgetExhausted):
        _max_clique_size(adj, 16, [], 17, _Budget(2))


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


def test_construct_lu_dressing_keeps_spectrum() -> None:
    s = parse_dims("2x5")
    tuples = [(1, 10), (2, 8)]
    _, plain = construct(s, tuples, (0.7, 0.3))
    _, dressed = construct(s, tuples, (0.7, 0.3), lu=random_lu_set(s, 11))
    ev_a = np.linalg.eigvalsh(plain.entries)
    ev_b = np.linalg.eigvalsh(dressed.entries)
    assert np.allclose(ev_a, ev_b, atol=1e-12)
    assert not np.allclose(plain.entries, dressed.entries, atol=1e-6)


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


def test_searched_L_respects_lstar_choice() -> None:
    s = ModeStructure((2, 2, 3, 3))
    assert lstar(s).values == (6, 12)
    report = max_mme_rank(s, L=6)
    assert report.L_used == 6
    assert report.R_MME == 2
