from __future__ import annotations

import contextlib
import itertools
import json
import re
from fractions import Fraction
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmekit.cli import _structures_upto
from mmekit.entcore import lstar
from mmekit import cli, linalg, mme, modes, tgx
from mmekit.mme import (
    CERTIFIED_SETS,
    GREEDY_RESTARTS,
    _Adjacency,
    _Budget,
    _BudgetExhausted,
    _certified_set,
    _first_conflict,
    _greedy_clique,
    _greedy_restarts,
    _lex_clique,
    _max_clique,
    _min_nB,
    compatible,
    construct,
    loose_bound,
    max_mme_rank,
    validate_example_set,
)
from mmekit.modes import (
    ModeStructure,
    _level_table,
    parse_dims,
    project_level,
)
from mmekit.tgx import (
    MeTgxTuple,
    _all_level_sets,
    _me_level_sets,
    apply_lu,
    build_tgx_state,
    enumerate_me_tuples,
    is_me_tuple,
)
from mmekit.verify import SpectralState, as_spectral, min_avg_ent, random_lu_set

from reference_values import (
    EXAMPLE_SETS,
    EXAMPLE_SETS_LARGER,
    QUBIT_SETS,
    WITNESS_4X4X4X4,
)
from test_linalg import _einsum_partial_trace
from test_modes import _sides


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
    with pytest.raises(ValueError, match="MeTgxTuple"):
        compatible([(1, 16), (4, 13)])  # ... also first, before .structure is read
    with pytest.raises(ValueError, match="need at least one tuple"):
        compatible([])
    other = MeTgxTuple(ModeStructure((4, 2)), (1, 8))
    with pytest.raises(ValueError, match="belongs to 4x2, not 2x4"):
        compatible([t, other])
    s4 = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError, match="eigen-tuples must share L"):
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
    sets = [t.levels for t in ts]
    adj = _rows(s, sets)
    verdicts = []
    for i, j in itertools.combinations(range(len(ts)), 2):
        ok = compatible([ts[i], ts[j]])
        assert bool(adj[i] >> j & 1) == bool(adj[j] >> i & 1) == ok, (i, j)
        verdicts.append(ok)
    assert (verdicts.count(True), verdicts.count(False)) == (400, 96)
    assert not any(adj[i] >> i & 1 for i in range(len(ts)))


@pytest.mark.parametrize("dims,L", [("2^5", 2), ("2^5", 4), ("2^7", 2)])
def test_lex_stream_clique_is_the_natural_order_greedy_clique(dims, L) -> None:
    # the greedy orders start from the stream's clique instead of
    # rebuilding it from the full graph in natural order
    s = parse_dims(dims)
    ts = enumerate_me_tuples(s, L)
    sets = [t.levels for t in ts]
    adj = _rows(s, sets)
    natural = [ts[i].levels for i in _greedy_clique(adj, range(len(ts)))]
    # one node per tuple: the budget runs out right after the stream
    report = max_mme_rank(s, search="exhaustive", L=L, budget_nodes=len(ts))
    assert (report.status, report.tuple_count) == ("inconclusive", len(ts))
    assert [t.levels for t in report.witness] == natural


def _fold_clique(s: ModeStructure, L: int, cap: int) -> list[tuple[int, ...]]:
    # the natural-order greedy clique of the full enumeration, up to
    # `cap` tuples: a tuple is taken when its mask misses every mask taken
    masks = _level_table(s)[1]
    taken, seen = [], 0
    for levels in _me_level_sets(s, L):
        if len(taken) >= cap:
            break
        mask = reduce(or_, (masks[lvl] for lvl in levels))
        if not mask & seen:
            taken.append(levels)
            seen |= mask
    return taken


@pytest.mark.parametrize("dims", [str(s) for s in _structures_upto(64)] + ["4x4x4x4"])
def test_pruned_pass_takes_the_natural_order_greedy_clique(dims) -> None:
    # capped as the rank search runs it: the pass sends each taken
    # tuple's mode lines back to the enumeration instead of reading on
    s = parse_dims(dims)
    L = lstar(s).min
    cap = _min_nB(s) // L
    assert _lex_clique(s, L, cap, _Budget(None)) == _fold_clique(s, L, cap)


@pytest.mark.parametrize("dims", ["4x4x4x4", "2x2x2x2x3", "2x3x3x3", "2x2x3x3", "2^7"])
def test_uncapped_pass_is_the_greedy_clique_of_the_whole_graph(dims) -> None:
    s = parse_dims(dims)
    L = lstar(s).min
    sets = list(_me_level_sets(s, L))
    adj = _rows(s, sets)
    natural = [sets[i] for i in _greedy_clique(adj, range(len(sets)))]
    assert _lex_clique(s, L, len(sets) + 1, _Budget(None)) == natural


def _rows(s: ModeStructure, level_sets) -> list[int]:
    # the whole graph, read row by row from the row map
    adj = _Adjacency(s, level_sets)
    return [adj[i] for i in range(len(level_sets))]


def _mask_rows(s: ModeStructure, level_sets) -> list[int]:
    # per-bit oracle for `_Adjacency`: each set's mask ORs its levels'
    # table masks, and one holder set per bit gives the sets sharing it
    level_masks = _level_table(s)[1]
    masks = [reduce(or_, (level_masks[lvl] for lvl in levels)) for levels in level_sets]
    holders: dict[int, int] = {}
    for i, mask in enumerate(masks):
        for b in range(mask.bit_length()):
            if mask >> b & 1:
                holders[b] = holders.get(b, 0) | 1 << i
    full = (1 << len(masks)) - 1
    return [full & ~reduce(or_, (h for b, h in holders.items() if mask >> b & 1))
            for mask in masks]


ORACLE_CASES = [("2^5", L) for L in (2, 4, 6, 8, 10, 12, 14, 16)] + [
    ("2^6", 4), ("2^7", 2), ("2x2x3x3", 6), ("2x2x3x3", 12), ("3x3x3", 6), ("2x3x3x3", 6),
    ("3x3x3x3", 3)]


@pytest.mark.parametrize("dims,L", ORACLE_CASES)
def test_adjacency_rows_match_the_mask_oracle(dims, L) -> None:
    s = parse_dims(dims)
    sets = list(_me_level_sets(s, L))
    assert _rows(s, sets) == _mask_rows(s, sets)


@pytest.mark.parametrize("dims,L", ORACLE_CASES)
def test_rooted_search_builds_only_roots_and_their_neighbours(dims, L) -> None:
    # the rows an eager rooted build would make: the roots' and those of
    # their later neighbours; each row built equals the full graph's
    s = parse_dims(dims)
    sets = list(_me_level_sets(s, L))
    want = _mask_rows(s, sets)
    for roots in {0, len(sets) // 3, sum(levels[0] == 1 for levels in sets)}:
        reach = reduce(or_, want[:roots], (1 << roots) - 1)
        adj = _Adjacency(s, sets)
        with contextlib.suppress(_BudgetExhausted):
            _max_clique(adj, roots, [], _min_nB(s) // L, _Budget(5000))
        assert all(reach >> i & 1 and row == want[i] for i, row in adj.items())


def _spy_rows(monkeypatch) -> list[_Adjacency]:
    # the row maps `_max_clique` is given, as the search leaves them
    seen = []

    def spy(adj, *args):
        seen.append(adj)
        return _max_clique(adj, *args)

    monkeypatch.setattr(mme, "_max_clique", spy)
    return seen


def test_rank_search_builds_192_of_1024_rows_on_2_5(monkeypatch) -> None:
    # the search roots at the 192 tuples holding level 1, which meet no
    # later tuple outside them: one branch-and-bound node per root
    built = _spy_rows(monkeypatch)
    report = max_mme_rank(parse_dims("2^5"), search="exhaustive", L=6)
    assert [(len(adj.level_sets), len(adj)) for adj in built] == [(1024, 192)]
    assert (report.R_MME, report.status, report.nodes) == (1, "complete", 1024 + 192)


def test_rows_built_never_pass_the_ceiling(monkeypatch) -> None:
    # a row map refuses the first row that would take it past
    # ADJACENCY_BITS, and keeps the rows it built
    s = parse_dims("2^7")
    sets = list(_me_level_sets(s, 2))
    K, want = len(sets), _mask_rows(s, sets)
    for bits in (0, K - 1, K, 10 * K + 3, K * K):
        monkeypatch.setattr(mme, "ADJACENCY_BITS", bits)
        adj = _Adjacency(s, sets)
        with contextlib.suppress(_BudgetExhausted):
            for i in reversed(range(K)):
                adj[i]
        assert len(adj) == min(bits // K, K)
        assert all(row == want[i] for i, row in adj.items())
    # in the rank search, the rows of the one root and its 56 neighbours
    # pass a ceiling of 30 rows
    built = _spy_rows(monkeypatch)
    monkeypatch.setattr(mme, "ADJACENCY_BITS", 30 * K)
    assert max_mme_rank(s, search="exhaustive", L=2).status == "inconclusive"
    assert [len(adj) for adj in built] == [30]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_rooted_search_matches_the_full_graph(data) -> None:
    # label permutations move every level to level 1, so rooting the
    # search at the tuples holding it finds the full graph's clique at
    # every size up to omega, the per-L cap included
    s = data.draw(st.sampled_from(list(_structures_upto(36))), label="s")
    L = data.draw(st.sampled_from(lstar(s).values), label="L")
    sets = list(_me_level_sets(s, L))
    K, roots, cap = len(sets), sum(levels[0] == 1 for levels in sets), _min_nB(s) // L
    upper = data.draw(st.integers(1, cap), label="upper")
    lower = data.draw(st.sampled_from(
        [[], [sets.index(levels) for levels in _lex_clique(s, L, upper, _Budget(None))]]),
        label="lower")
    want = _max_clique(_rows(s, sets), K, lower, upper, _Budget(None))
    got = _max_clique(_Adjacency(s, sets), roots, lower, upper, _Budget(None))
    assert got == want


def test_rooted_search_proves_2_7_in_under_1000_nodes() -> None:
    report = max_mme_rank(parse_dims("2^7"), search="exhaustive")
    assert (report.R_MME, report.status, report.tuple_count) == (22, "complete", 64)
    assert [t.levels for t in report.witness] == BELOW_CAP_WITNESSES[3][3]
    assert report.nodes - report.tuple_count < 1000


@pytest.mark.parametrize("dims,rank", [("4x4x4x4", 16), ("2x2x2x2x3", 2), ("2x3x3x3", 3),
                                       ("2x2x3x3", 2), ("2^6", 16)])
def test_cap_filled_search_reads_only_its_witness(dims, rank) -> None:
    # the pass reads one tuple per clique member and stops at the cap
    report = max_mme_rank(parse_dims(dims))
    assert report.status == "complete"
    assert report.nodes == report.tuple_count == report.R_MME == rank


def test_budget_spent_in_the_pruned_pass_reports_its_clique() -> None:
    s = parse_dims("4x4x4x4")
    full = max_mme_rank(s)
    report = max_mme_rank(s, budget_nodes=5)
    assert (report.status, report.nodes, report.tuple_count) == ("inconclusive", 6, 5)
    assert report.witness == full.witness[:5]


def _scan_conflict(s: ModeStructure, level_sets):
    """Set-scan oracle for `_first_conflict`: the first mode whose line
    repeats a projected level, with its lowest repeated level."""
    for m in range(1, s.N + 1):
        B = _sides(s, m)[1]
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


@pytest.mark.parametrize("search", ["auto", "exhaustive"])
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
    with pytest.raises(ValueError, match=r"L=3 is not in L\*\(2, 4, 6, 8\) of 2x2x2x2"):
        max_mme_rank(s, L=3)
    with pytest.raises(ValueError, match="not both"):
        max_mme_rank(ModeStructure((2, 2, 3, 3)), L=12, all_lstar=True)
    # a non-integer L is refused, not truncated to the L = 6 below it
    with pytest.raises(ValueError, match="L=6.9 is not an integer"):
        max_mme_rank(ModeStructure((2, 2, 3, 3)), L=6.9)
    assert max_mme_rank(ModeStructure((2, 2, 3, 3)), L=np.int64(6)).L_used == 6
    # so are a non-integer node budget and greedy seed
    with pytest.raises(ValueError, match=r"budget_nodes=3\.5 is not an integer"):
        max_mme_rank(ModeStructure((2,) * 5), budget_nodes=3.5)
    assert max_mme_rank(ModeStructure((2,) * 5), budget_nodes=np.int64(3)).nodes == 4
    with pytest.raises(ValueError, match=r"seed=1\.5 is not an integer"):
        max_mme_rank(ModeStructure((3, 3, 3, 3)), seed=1.5)
    greedy = max_mme_rank(ModeStructure((3, 3, 3, 3)), seed=np.int64(1))
    assert greedy.witness == max_mme_rank(ModeStructure((3, 3, 3, 3)), seed=1).witness
    with pytest.raises(ValueError):
        max_mme_rank(s, search="quantum")
    # greedy orders run only where `auto` goes past n = 64
    with pytest.raises(ValueError, match="unknown search mode 'greedy'"):
        max_mme_rank(s, search="greedy")


def test_report_json_shape(capsys) -> None:
    # the CLI owns the printed form of an MmeRankReport
    assert cli.main(["rank", "2x4"]) == 0
    d = json.loads(capsys.readouterr().out)
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


@pytest.mark.parametrize("dims,search", [("2^5", "exhaustive"), ("2^7", "exhaustive"),
                                         ("3x3x3x3", "auto")])
def test_a_larger_budget_never_reports_a_smaller_rank(dims, search) -> None:
    # below the cap the pass's clique is kept while the full stream and
    # the clique search spend the budget again from the pass's start
    s = parse_dims(dims)
    budgets = [*range(1, 41), 64, 65, 100, 150, 216, 217]
    ranks = [max_mme_rank(s, search=search, budget_nodes=b).R_MME for b in budgets]
    assert ranks == sorted(ranks)


def test_budget_spent_before_a_later_L_reports_inconclusive() -> None:
    # L* = (6, 12): a budget that runs out inside L = 6 leaves L = 12
    # unsearched, so the rank found at L = 6 is only a lower bound over L*
    s = ModeStructure((2, 2, 3, 3))
    nodes = max_mme_rank(s, L=6).nodes
    report = max_mme_rank(s, all_lstar=True, budget_nodes=nodes - 1)
    assert (report.status, report.exhaustive) == ("inconclusive", False)
    assert (report.L_used, report.R_MME) == (6, 1)
    assert max_mme_rank(s, all_lstar=True, budget_nodes=10**6).status == "complete"
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget_nodes"):
            max_mme_rank(s, budget_nodes=budget)


def test_all_lstar_stops_once_no_later_cap_can_beat_the_best() -> None:
    # 2x2x3x3: L = 6 proves its cap of 2, and the cap at L = 12 is 1, so
    # L = 12 is never searched and the budget L = 6 takes is enough
    s = ModeStructure((2, 2, 3, 3))
    nodes = max_mme_rank(s, L=6).nodes
    report = max_mme_rank(s, all_lstar=True, budget_nodes=nodes)
    assert (report.status, report.L_used, report.R_MME, report.nodes) == (
        "complete", 6, 2, nodes)
    # 2^6: L = 2 fills its cap of 16 in 16 nodes, and every later cap is
    # 8 or less (L = 8 alone holds 527,720 tuples)
    report = max_mme_rank(ModeStructure((2,) * 6), search="exhaustive", all_lstar=True)
    assert (report.status, report.L_used, report.R_MME, report.nodes) == (
        "complete", 2, 16, 16)


@pytest.mark.parametrize("s", [s for s in _structures_upto(64) if len(lstar(s).values) > 1
                               and s.dims != (2,) * 6], ids=str)
def test_all_lstar_stop_keeps_the_best_report(s) -> None:
    # the best of the per-L searches, the earlier L on a tie (2^6 has
    # per-L searches past 20 s, and the stop is pinned above)
    best = max((max_mme_rank(s, search="exhaustive", L=L) for L in lstar(s).values),
               key=lambda r: (r.R_MME, -r.L_used))
    report = max_mme_rank(s, search="exhaustive", all_lstar=True)
    assert (report.L_used, report.R_MME, report.witness, report.status) == (
        best.L_used, best.R_MME, best.witness, "complete")


@pytest.mark.parametrize("dims,L,rows,lex", [("2^5", 6, 192, 1), ("2^7", 2, 57, 16)])
def test_adjacency_past_the_ceiling_reports_the_lex_clique(monkeypatch, dims, L, rows,
                                                           lex) -> None:
    # 2^5 at L = 6 builds the rows of its 192 roots only, so one bit less
    # stops the read at its last tuple; 2^7 at L = 2 builds its one
    # root's row and stops at the last of its 56 neighbours' rows
    s = parse_dims(dims)
    full = max_mme_rank(s, search="exhaustive", L=L)
    K = full.tuple_count
    monkeypatch.setattr(mme, "ADJACENCY_BITS", rows * K)
    assert max_mme_rank(s, search="exhaustive", L=L) == full
    monkeypatch.setattr(mme, "ADJACENCY_BITS", rows * K - 1)
    report = max_mme_rank(s, search="exhaustive", L=L)
    assert (report.status, report.R_MME, report.tuple_count) == ("inconclusive", lex, K)
    clique = mme._lex_clique(s, L, mme._min_nB(s) // L, mme._Budget(None))
    assert [t.levels for t in report.witness] == clique


@pytest.mark.parametrize("dims,L", [("2^7", 2), ("2^5", 6)])
def test_row_ceiling_reports_the_best_clique_so_far(monkeypatch, capsys, dims, L) -> None:
    # a ceiling takes the node budget's path: exit 3 with at least the
    # pass's clique, never a smaller witness at a larger ceiling
    s = parse_dims(dims)
    full = max_mme_rank(s, search="exhaustive", L=L)
    K, lex = full.tuple_count, len(_lex_clique(s, L, _min_nB(s) // L, _Budget(None)))
    last = 0
    for bits in sorted({0, 1, K, K + 1, 57 * K - 1, 192 * K - 1, 192 * K}):
        monkeypatch.setattr(mme, "ADJACENCY_BITS", bits)
        report = max_mme_rank(s, search="exhaustive", L=L)
        code = cli.main(["rank", dims, "--L", str(L), "--search", "exhaustive"])
        capsys.readouterr()
        assert report == full or (report.status, code) == ("inconclusive", 3), bits
        assert compatible(report.witness) and report.R_MME >= max(lex, last)
        last = report.R_MME
    assert report == full


@pytest.mark.parametrize("dims,L,bits", [("2^5", 6, 96_000), ("2^5", 6, 100), ("2^7", 2, 40),
                                         ("2^5", 4, 1000)])
def test_read_stops_once_roots_times_tuples_pass_the_ceiling(monkeypatch, dims, L,
                                                             bits) -> None:
    s = parse_dims(dims)
    roots = read = 0
    for levels in _all_level_sets(s, L):
        read += 1
        roots += levels[0] == 1
        if roots * read > bits:
            break
    monkeypatch.setattr(mme, "ADJACENCY_BITS", bits)
    report = max_mme_rank(s, search="exhaustive", L=L)
    assert (report.status, report.tuple_count, report.nodes) == ("inconclusive", read, read)
    clique = _lex_clique(s, L, _min_nB(s) // L, _Budget(None))
    assert [t.levels for t in report.witness] == clique


def test_greedy_path_under_a_tiny_ceiling_exits_3(monkeypatch, capsys) -> None:
    # the greedy orders read every row: the read stops at (tuples read)^2
    # past the ceiling, so the rows they read always fit
    s = parse_dims("3x3x3x3")
    K = max_mme_rank(s).tuple_count
    for bits in (0, 1, 99, K * K - 1, K * K):
        monkeypatch.setattr(mme, "ADJACENCY_BITS", bits)
        code = cli.main(["rank", "3x3x3x3"])
        status = json.loads(capsys.readouterr().out)["status"]
        assert (code, status) == ((0, "greedy") if bits == K * K else (3, "inconclusive")), bits


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
    start = _greedy_clique(adj, range(K))  # the lex stream's clique
    for cap in (_brute_force_clique_number(adj), K + 1):
        assert _greedy_restarts(adj, start, np.random.default_rng(seed), cap) == want


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
            MeTgxTuple(s, lv) for lv in _extra_tuples(dims) if tuple(lv) not in seen
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
                    red = _einsum_partial_trace(cross, dims, _sides(s, m)[0])
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
    ([(1.5, 16.2), (4, 13)], r"level=1\.5 is not an integer"),
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
        validate_example_set(s, [foreign])


def test_construct_certifies_a_tuple_set_once(monkeypatch) -> None:
    s = ModeStructure((2, 2, 2, 2))
    levels = EXAMPLE_SETS[(2, 2, 2, 2)]
    given_as_tuples = [MeTgxTuple(s, t) for t in levels]
    assert _certified_set.cache_info().maxsize == CERTIFIED_SETS
    _certified_set.cache_clear()
    certified = []
    me_flags = tgx._me_flags
    monkeypatch.setattr(tgx, "_me_flags",
                        lambda s, sets: certified.append(sets) or me_flags(s, sets))
    first, _ = construct(s, levels, (0.25,) * 4)
    assert certified == [tuple(map(tuple, levels))]
    again = [
        construct(s, given_as_tuples, (0.4, 0.3, 0.2, 0.1), random_lu_set(s, 3)),
        construct(s, [t[::-1] for t in levels], (0.1, 0.2, 0.3, 0.4), random_lu_set(s, 4)),
    ]
    assert len(certified) == 1
    for state, rho in again:
        assert state.tuples == first.tuples
        assert min_avg_ent(state, strategy="random", samples=4).argmin is None
    assert _certified_set.cache_info().currsize == 1


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 3, 3)])
def test_rank_witness_is_certified_once_with_construct(spy, dims) -> None:
    # the search reports its witness through construct's cache, so the
    # witness passed construct's checks and building it certifies nothing
    s = ModeStructure(dims)
    _certified_set.cache_clear()
    certified = spy(tgx._certify)
    report = max_mme_rank(s, search="exhaustive")
    R = report.R_MME
    assert len(certified) == 1 and R == len(report.witness) > 0
    state, _ = construct(s, [t.levels for t in report.witness], (1 / R,) * R)
    assert len(certified) == 1 and state.tuples is report.witness


def test_construct_reads_each_weight_once_and_wraps_no_row(spy, monkeypatch) -> None:
    # the SpectralState reads the spectrum and rho is built from its checked
    # basis: 2^6 at R 16 reads 16 weights per build and wraps no basis row
    # as a PureStateVector
    s = ModeStructure((2,) * 6)
    weights = np.arange(1.0, 17) / 136
    lus = random_lu_set(s, 7)
    wrapped, init = [], linalg.PureStateVector.__init__
    monkeypatch.setattr(linalg.PureStateVector, "__init__",
                        lambda self, *args: wrapped.append(args) or init(self, *args))
    checks, reals = spy(linalg._check_weights), spy(modes._check_real)
    for lu in (None, lus):
        construct(s, QUBIT_SETS[6], weights, lu)
    assert [count for _, count in checks] == [16, 16]
    assert [w for _, w in reals] == list(weights) * 2
    assert wrapped == []


@pytest.mark.parametrize("tuples,match", [
    ([(1, 16), (1, 2)], r"\(1, 2\) is not an ME TGX tuple of 2x2x2x2"),
    ([(1, 16), (2, 15)], "tuples are not compatible: mode-4 line repeats projected level 1"),
    ([(1, 16), (1, 4, 13, 16)], "mixed tuple sizes"),
])
def test_construct_refuses_a_set_on_every_call(tuples, match) -> None:
    s = ModeStructure((2, 2, 2, 2))
    cached = _certified_set.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            construct(s, tuples, (0.5, 0.5))
    assert _certified_set.cache_info().currsize == cached


def test_construct_shares_no_buffer_between_states() -> None:
    s = ModeStructure((2, 2, 2, 2))
    levels = EXAMPLE_SETS[(2, 2, 2, 2)]
    state, rho = construct(s, levels, (0.25,) * 4)
    keep = rho.entries.copy()
    with pytest.raises(ValueError, match="read-only"):
        state.eigenstates[0].amplitudes[:] = state.eigenstates[1].amplitudes
    rho.entries[:] = 0.0
    again, rho_again = construct(s, levels, (0.25,) * 4)
    assert not np.shares_memory(again.basis, state.basis)
    assert np.array_equal(rho_again.entries, keep)
    assert np.array_equal(again.basis, [build_tgx_state(t).amplitudes for t in again.tuples])


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", b"0.5", None, [0.5], 10**400])
def test_construct_refuses_weights_that_are_not_numbers(bad) -> None:
    s = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError, match=rf"spectrum weight={re.escape(repr(bad))} is not a number"):
        construct(s, [(1, 16), (4, 13)], (bad, 0.5))


@pytest.mark.parametrize("tuples,spectrum,field", [
    (5, (0.5, 0.5), "tuples=5 is not a list of level lists"),
    ([(1, 16), 5], (0.5, 0.5), r"tuples=\[\(1, 16\), 5\] is not a list of level lists"),
    ([(1, 16), (4, 13)], 5, "spectrum=5 is not a list of weights"),
])
def test_construct_refuses_tuples_or_spectrum_that_are_not_lists(tuples, spectrum, field) -> None:
    # each once raised Python's "'int' object is not iterable"
    with pytest.raises(ValueError, match=f"^{field}$"):
        construct(ModeStructure((2, 2, 2, 2)), tuples, spectrum)


def test_construct_reads_numeric_weights() -> None:
    s = ModeStructure((2, 2, 2, 2))
    state, _ = construct(s, [(1, 16), (4, 13)], (np.float64(0.75), Fraction(1, 4)))
    assert state.spectrum == (0.75, 0.25)
    assert all(type(w) is float for w in state.spectrum)


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
    full = reduce(np.kron, lu.unitaries)
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
    assert state.rank == 2
    dressed = [apply_lu(build_tgx_state(t), lu).amplitudes for t in state.tuples]
    assert np.abs(state.basis - dressed).max() <= 1e-14
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
    with pytest.raises(ValueError, match="need at least one tuple"):
        validate_example_set(s, [])


def test_searched_L_respects_lstar_choice() -> None:
    s = ModeStructure((2, 2, 3, 3))
    assert lstar(s).values == (6, 12)
    report = max_mme_rank(s, L=6)
    assert report.L_used == 6
    assert report.R_MME == 2
