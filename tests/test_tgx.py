from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmekit.cli import _structures_upto
from mmekit.entcore import ent_pure, lstar
from mmekit.linalg import (
    DensityMatrix,
    PureStateVector,
)
from mmekit import tgx
from mmekit.modes import ModeStructure, _level_table, parse_dims
from mmekit.tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    _me_level_sets,
    apply_lu,
    build_tgx_state,
    enumerate_me_tuples,
    is_me_tuple,
)
from mmekit.verify import random_lu_set

from reference_values import EXAMPLE_SETS, ME_TUPLE_COUNTS
from test_linalg import _basis_state


def _brute_force_tuples(s: ModeStructure, L: int) -> list[tuple[int, ...]]:
    return [
        combo
        for combo in itertools.combinations(range(1, s.n + 1), L)
        if is_me_tuple(s, combo)
    ]


def test_is_me_tuple_two_by_four_cases() -> None:
    s = ModeStructure((2, 4))
    assert is_me_tuple(s, (1, 8))
    assert is_me_tuple(s, (2, 7))
    assert is_me_tuple(s, (1, 7))
    assert not is_me_tuple(s, (1, 2))  # same mode-1 label
    assert not is_me_tuple(s, (1, 4))
    assert not is_me_tuple(s, (1, 5))  # same mode-2 label
    assert not is_me_tuple(s, (3,))  # single level never certifies


def test_is_me_tuple_validation() -> None:
    s = ModeStructure((2, 4))
    with pytest.raises(ValueError):
        is_me_tuple(s, (1, 1))
    with pytest.raises(ValueError):
        is_me_tuple(s, (0, 8))
    with pytest.raises(ValueError):
        is_me_tuple(s, (1, 9))
    s = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError, match=r"level=1\.5 is not an integer"):
        is_me_tuple(s, (1.5, 16.2))
    assert is_me_tuple(s, (np.int64(1), np.int64(16)))


def test_enumeration_matches_brute_force() -> None:
    for dims, L in [
        ((2, 2), 2),
        ((2, 3), 2),
        ((2, 4), 2),
        ((3, 3), 3),
        ((2, 2, 2), 2),
        ((2, 2, 2), 4),
        ((2, 2, 3), 4),
    ]:
        s = ModeStructure(dims)
        got = [t.levels for t in enumerate_me_tuples(s, L)]
        assert got == _brute_force_tuples(s, L), (dims, L)


def test_level_set_survivors_are_me_exactly_on_lstar() -> None:
    # enumeration certifies survivors without filtering them, so check
    # beyond the n <= 16 brute force: ME at min L*, never ME off L*
    off_lstar = 0
    for s in _structures_upto(36):
        values = lstar(s).values
        for levels in itertools.islice(_me_level_sets(s, min(values)), 16):
            assert is_me_tuple(s, levels), (s.dims, levels)
        for L in range(2, s.n_over_max + 1):
            if L not in values:
                for levels in itertools.islice(_me_level_sets(s, L), 16):
                    assert not is_me_tuple(s, levels), (s.dims, L, levels)
                    off_lstar += 1
    assert off_lstar > 0


def _scalar_level_sets(s: ModeStructure, L: int):
    """Reference enumeration: the scalar depth-first search the bitset
    search replaced, with per-candidate admissibility and room checks."""
    dims = s.dims
    N, n = s.N, s.n
    lo = [L // d for d in dims]
    extra = [L % d for d in dims]
    vecs = _level_table(s)[0]
    counts = [[0] * (d + 1) for d in dims]
    at_hi = [0] * N
    chosen: list[int] = []

    def room(m: int) -> int:
        free = sum(max(0, lo[m] - c) for c in counts[m][1:])
        return free + (extra[m] - at_hi[m])

    def admissible(lvl: int) -> bool:
        v = vecs[lvl]
        for m in range(N):
            c = counts[m][v[m]] + 1
            if c > lo[m] + (1 if extra[m] else 0):
                return False
            if c == lo[m] + 1 and at_hi[m] + 1 > extra[m]:
                return False
        for other in chosen:
            if sum(1 for m in range(N) if v[m] != vecs[other][m]) == 1:
                return False
        return True

    def place(lvl: int, sign: int) -> None:
        for m, a in enumerate(vecs[lvl]):
            if sign > 0:
                counts[m][a] += 1
                if counts[m][a] == lo[m] + 1:
                    at_hi[m] += 1
            else:
                if counts[m][a] == lo[m] + 1:
                    at_hi[m] -= 1
                counts[m][a] -= 1

    def dfs(start: int):
        need = L - len(chosen)
        if need == 0:
            yield tuple(chosen)
            return
        for lvl in range(start, n - need + 2):
            if not admissible(lvl):
                continue
            place(lvl, +1)
            chosen.append(lvl)
            if all(room(m) >= L - len(chosen) for m in range(N)):
                yield from dfs(lvl + 1)
            chosen.pop()
            place(lvl, -1)

    yield from dfs(1)


# Every structure with n <= 36 at every L in 2..n/n_max, on and off L*,
# where the scalar reference stays cheap (C(n, L) <= 2e5 candidate
# sets), plus three large structures at min L*.
ORACLE_CASES = [
    (str(s), L)
    for s in _structures_upto(36)
    for L in range(2, s.n_over_max + 1)
    if math.comb(s.n, L) <= 200_000
] + [("2^7", 2), ("3x3x3x3", 3), ("4x4x4x4", 4)]


@pytest.mark.parametrize("dims,L", ORACLE_CASES)
def test_level_sets_match_scalar_reference(dims, L) -> None:
    s = parse_dims(dims)
    assert list(_me_level_sets(s, L)) == list(_scalar_level_sets(s, L))


# Past the oracle's reach: the count and sha256 of the repr of the full
# yield, order included, recorded from the search before the floor bound.
LEVEL_SET_DIGESTS = [
    ("2x2x2x2x3", 6, 8496, "b4ab9d57ccc17bf8f52fa3c717df6b28be0e30ac3fb5a5e5a8a71acb910fafc8"),
    ("2x3x3x3", 6, 10224, "dee2f4889f5789ce91d0e2d9254992e221889e01f74eb51d927959da750f268a"),
]


@pytest.mark.parametrize("dims,L,count,digest", LEVEL_SET_DIGESTS)
def test_level_sets_pinned_past_the_oracle(dims, L, count, digest) -> None:
    sets = list(_me_level_sets(parse_dims(dims), L))
    assert len(sets) == count
    assert hashlib.sha256(repr(sets).encode()).hexdigest() == digest


# (dims, L) in L* with n <= 64 whose full DFS takes 0.5 s or more on 2
# vCPUs (2^6 at L = 10..20 runs past 20 s); every other pair is checked
SLOW_DFS = {("2x2x2x2x3", 12), ("2x3x3x3", 12), ("2x2x2x7", 8), ("2x5x6", 10),
            ("3x4x5", 12), ("2x2x3x5", 10), ("3x3x7", 9), ("4x4x4", 8), ("4x4x4", 12),
            ("2x2x2x8", 8), ("2x2x4x4", 8), ("2x2x4x4", 12), ("2x2x4x4", 16),
            ("2x2x2x2x4", 8), ("2x2x2x2x4", 12), ("2x2x2x2x4", 16)}
SLOW_DFS |= {("2x2x2x2x2x2", L) for L in range(8, 27, 2)}
SHIFT_CASES = [(str(s), L) for s in _structures_upto(64) for L in lstar(s).values
               if (str(s), L) not in SLOW_DFS]


@pytest.mark.parametrize("dims,L", SHIFT_CASES)
def test_shifted_stream_is_the_dfs_stream(dims, L) -> None:
    # the level-1 subtree shifted onto every later level, in the DFS's order
    s = parse_dims(dims)
    assert list(tgx._all_level_sets(s, L)) == list(_me_level_sets(s, L))


@st.composite
def _structure_and_L(draw):
    # any order of the dims of a structure with n <= 36, at an L in L*
    # or at any L up to n / n_max + 1, on L* or off it
    s = ModeStructure(draw(st.permutations(draw(st.sampled_from(SEND_STRUCTURES)).dims)))
    return s, draw(st.sampled_from(lstar(s).values) | st.integers(1, s.n_over_max + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_structure_and_L())
def test_shifted_stream_matches_the_dfs_on_random_structures(case) -> None:
    s, L = case
    dfs = list(_me_level_sets(s, L))
    assert list(tgx._all_level_sets(s, L)) == dfs
    assert list(_me_level_sets(s, L, level1_only=True)) == [x for x in dfs if x[0] == 1]


def _check_sends(s: ModeStructure, L: int, pick) -> int:
    """Drive `_me_level_sets`, sending pick(levels) after each yield
    (0 sends nothing): each yield must be the first tuple of the full
    enumeration after the one before that avoids every level dropped so
    far.  Returns the number of yields."""
    full = list(_me_level_sets(s, L))
    search = _me_level_sets(s, L)
    got, i, dropped, yields = next(search, None), -1, 0, 0
    while True:
        i = next((j for j in range(i + 1, len(full))
                  if not any(dropped >> x & 1 for x in full[j])), len(full))
        assert got == (full[i] if i < len(full) else None)
        if got is None:
            return yields
        yields += 1
        drop = pick(got)
        dropped |= drop
        try:
            got = search.send(drop)
        except StopIteration:
            got = None


SEND_CASES = [("2x2x3x3", 6), ("2^5", 2), ("2^5", 6), ("3x3x3", 3)]


@pytest.mark.parametrize("dims,L", SEND_CASES)
def test_sends_of_mode_lines_filter_the_rest_of_the_search(dims, L) -> None:
    # the rank search's use: each yield sends its own mode lines
    s = parse_dims(dims)
    _, masks, _, _ = _level_table(s)

    def lines(levels):
        mask = functools.reduce(operator.or_, (masks[x] for x in levels))
        return sum(1 << x for x in range(1, s.n + 1) if masks[x] & mask)

    assert _check_sends(s, L, lines) >= 1


@pytest.mark.parametrize("dims,L", SEND_CASES)
def test_sends_of_random_levels_filter_the_rest_of_the_search(dims, L) -> None:
    # drops that keep, hit or mix the current tuple's levels, or none
    s = parse_dims(dims)
    rng = np.random.default_rng(len(dims) + L)

    def pick(levels):
        if rng.random() < 0.5:
            return 0
        pool = list(levels) + rng.integers(1, s.n + 1, size=3).tolist()
        return sum(1 << int(x) for x in rng.choice(pool, size=rng.integers(1, 4)))

    assert _check_sends(s, L, pick) >= 1


SEND_STRUCTURES = list(_structures_upto(36))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(s=st.sampled_from(SEND_STRUCTURES), seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_sends_match_the_filtered_enumeration(s, seed, rate) -> None:
    L = lstar(s).min
    rng = np.random.default_rng(seed)

    def pick(levels):
        if rng.random() >= rate:
            return 0
        return sum(1 << int(x) for x in rng.integers(0, s.n + 2, size=rng.integers(1, 5)))

    _check_sends(s, L, pick)


def test_first_level_set_found_without_stalling(deadline) -> None:
    # without the floor bound the search opened millions of dead frames
    # here before its first yield
    deadline(5)
    s = parse_dims("2x3x5x5")
    first = next(_me_level_sets(s, 30))
    assert first == (1, 7, 13, 19, 25, 27, 31, 39, 45, 48, 53, 59, 65, 66, 72,
                     77, 81, 89, 95, 98, 101, 107, 113, 119, 125, 129, 135, 137, 143, 146)
    assert is_me_tuple(s, first)


LARGE_STRUCTURES = [s for s in _structures_upto(120) if s.N >= 3 and s.n >= 37]


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s=st.sampled_from(LARGE_STRUCTURES))
def test_first_level_sets_of_larger_structures(deadline, s) -> None:
    deadline(10)
    L = lstar(s).min
    sets = list(itertools.islice(_me_level_sets(s, L), 20))
    assert len(sets) == 20
    assert all(a < b for a, b in zip(sets, sets[1:]))
    assert tgx._me_flags(s, sets) == [True] * 20
    labels = _level_table(s)[0]
    for levels in sets:
        for m, d in enumerate(s.dims):
            counts = [0] * d
            for lvl in levels:
                counts[labels[lvl][m] - 1] += 1
            assert set(counts) <= {L // d, L // d + 1}, (s.dims, levels, m)


def test_enumeration_is_certified_tuples() -> None:
    s = ModeStructure((2, 2, 3, 3))
    got = enumerate_me_tuples(s, 6)
    want = [MeTgxTuple(s, levels) for levels in _me_level_sets(s, 6)]
    assert got == want and len(got) == 1440


# (dims, L) with n <= 64 whose `_all_level_sets` stream takes 0.5 s or
# more on 2 vCPUs (2^6 at L = 12: 3.7M sets in 32 s)
SLOW_STREAMS = {("2x2x3x5", 10), ("3x3x7", 9), ("2x2x4x4", 12)} | {
    ("2x2x2x2x4", L) for L in (8, 12, 16)} | {("2x2x2x2x2x2", L) for L in range(8, 25, 2)}


@pytest.mark.parametrize("s", _structures_upto(64), ids=str)
def test_label_shifted_sets_are_me(s) -> None:
    # `enumerate_me_tuples` certifies only the level-1 sets; every later
    # set is a label shift of one of them and must pass the numeric test too
    for L in lstar(s).values:
        if (str(s), L) not in SLOW_STREAMS:
            sets = list(tgx._all_level_sets(s, L))
            shifted = sets[sum(levels[0] == 1 for levels in sets):]
            assert all(tgx._me_flags(s, shifted)), (str(s), L)


def test_enumeration_certifies_only_the_level_1_sets(spy) -> None:
    s = ModeStructure((2, 2, 3, 3))
    certified = spy(tgx._certify)
    got = enumerate_me_tuples(s, 6)
    assert [levels[0] for levels in certified[0][1]] == [1] * 240
    assert [t.levels for t in got] == list(_me_level_sets(s, 6))


def test_enumeration_certifies_in_blocks(monkeypatch) -> None:
    s = ModeStructure((2, 2, 3, 3))
    whole = enumerate_me_tuples(s, 6)
    monkeypatch.setattr(tgx, "BLOCK_AMPLITUDES", 5 * s.n + 1)  # 5 rows per block
    assert enumerate_me_tuples(s, 6) == whole
    level_sets = [t.levels for t in whole[:7]] + [(1, 2, 3, 4, 5, 6)]
    assert tgx._me_flags(s, level_sets) == [True] * 7 + [False]


def test_enumeration_refuses_a_survivor_that_is_not_me(monkeypatch) -> None:
    s = ModeStructure((2, 2, 3, 3))
    good = next(_me_level_sets(s, 6))
    monkeypatch.setattr(tgx, "_all_level_sets", lambda s, L: iter([good, (1, 2, 3, 4, 5, 6)]))
    with pytest.raises(ValueError, match="not an ME TGX tuple"):
        enumerate_me_tuples(s, 6)


def test_enumeration_counts_pinned() -> None:
    for (dims, L), count in ME_TUPLE_COUNTS.items():
        s = ModeStructure(dims)
        assert len(enumerate_me_tuples(s, L)) == count, (dims, L)


def test_enumeration_sorted_and_distinct() -> None:
    tuples = [t.levels for t in enumerate_me_tuples(ModeStructure((2, 5)), 2)]
    assert tuples == sorted(set(tuples))
    assert all(levels == tuple(sorted(levels)) for levels in tuples)


def test_enumeration_refuses_L_off_lstar() -> None:
    s = ModeStructure((2, 2, 2, 2))
    with pytest.raises(ValueError, match=r"L=3 is not in L\*\(2, 4, 6, 8\) of 2x2x2x2"):
        enumerate_me_tuples(s, 3)
    s = ModeStructure((2, 2, 3, 3))
    with pytest.raises(ValueError, match="L=6.9 is not an integer"):
        enumerate_me_tuples(s, 6.9)
    assert len(enumerate_me_tuples(s, np.int64(6))) == 1440


def test_enumeration_range_errors() -> None:
    s = ModeStructure((2, 4))
    with pytest.raises(ValueError):
        enumerate_me_tuples(s, 1)
    with pytest.raises(ValueError):
        enumerate_me_tuples(s, 3)  # n/n_max = 2


def test_tuple_certification_and_coercion() -> None:
    s = ModeStructure((2, 4))
    t = MeTgxTuple(s, (8, 1))
    assert t.levels == (1, 8)  # stored sorted
    assert t.L == 2
    assert str(t) == "{1,8}"
    with pytest.raises(ValueError):
        MeTgxTuple(s, (1, 5))


def test_build_tgx_state_default_equal_superposition() -> None:
    s = ModeStructure((2, 4))
    v = build_tgx_state(MeTgxTuple(s, (1, 8)))
    assert v.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert v.amplitudes[7] == pytest.approx(1 / math.sqrt(2))
    assert v.amplitudes[1] == 0.0
    assert ent_pure(v) == pytest.approx(1.0, abs=1e-12)
    # bitwise: each tuple level holds the float 1/sqrt(L), every other level 0
    for dims, tuples in EXAMPLE_SETS.items():
        s = ModeStructure(dims)
        for levels in tuples:
            want = np.zeros(s.n, dtype=complex)
            want[[lvl - 1 for lvl in levels]] = np.full(len(levels), 1.0 / np.sqrt(len(levels)))
            got = build_tgx_state(MeTgxTuple(s, levels)).amplitudes
            assert got.tobytes() == want.tobytes(), (dims, levels)


def _on_levels(t: MeTgxTuple, x) -> PureStateVector:
    """The state with amplitudes x on the levels of t, 0 elsewhere."""
    amps = np.zeros(t.structure.n, dtype=complex)
    amps[[lvl - 1 for lvl in t.levels]] = x
    return PureStateVector(t.structure, amps)


def test_tgx_amplitude_sweep_anchor() -> None:
    # cos/sin weights on a two-level tuple reproduce sin^2(2 theta)
    t = MeTgxTuple(ModeStructure((2, 4)), (1, 8))
    for k in range(11):
        theta = (math.pi / 2) * k / 10
        v = _on_levels(t, [math.cos(theta), math.sin(theta)])
        assert ent_pure(v) == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)


def test_tgx_phases_do_not_move_reductions() -> None:
    rng = np.random.default_rng(3)
    t = MeTgxTuple(ModeStructure((3, 3)), (1, 5, 9))
    for _ in range(5):
        v = _on_levels(t, np.exp(1j * rng.uniform(0, 2 * math.pi, size=3)) / math.sqrt(3))
        assert ent_pure(v) == pytest.approx(1.0, abs=1e-12)


def test_local_unitary_set_validation() -> None:
    with pytest.raises(ValueError):
        LocalUnitarySet([np.ones((2, 2))])
    with pytest.raises(ValueError, match="columns not orthonormal within 1e-10"):
        LocalUnitarySet([np.diag([1 + 4e-6, 1])])  # the check `decompose` runs
    with pytest.raises(ValueError):
        LocalUnitarySet([np.ones((2, 3))])
    lus = LocalUnitarySet([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="2 unitaries for 3 modes"):
        apply_lu(_basis_state(ModeStructure((2, 3, 2)), 1), lus)
    with pytest.raises(ValueError, match="size 2 does not match mode dimension 3"):
        apply_lu(_basis_state(ModeStructure((3, 2)), 1), lus)


@pytest.mark.parametrize("dims", [(2,) * 6, (2, 2, 3, 3)])
def test_local_unitary_set_checks_every_matrix(dims) -> None:
    # one stacked check per size still sees each matrix of that size
    unitaries = random_lu_set(ModeStructure(dims), 5).unitaries
    LocalUnitarySet(unitaries)
    for m, u in enumerate(unitaries):
        bad = list(unitaries)
        bad[m] = u * (1 + 4e-6)
        with pytest.raises(ValueError, match="local unitary: columns not orthonormal"):
            LocalUnitarySet(bad)


def test_apply_lu_preserves_ent() -> None:
    rng = np.random.default_rng(17)
    for seed, dims in enumerate([(2, 2), (2, 3), (2, 2, 2)]):
        s = ModeStructure(dims)
        lus = random_lu_set(s, seed)
        for _ in range(10):
            raw = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
            v = PureStateVector(s, raw / np.linalg.norm(raw))
            assert ent_pure(apply_lu(v, lus)) == pytest.approx(
                ent_pure(v), abs=1e-12
            )


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2), (3, 3, 3)])
def test_apply_lu_matches_full_matrix(dims) -> None:
    s = ModeStructure(dims)
    rng = np.random.default_rng(len(dims))
    lus = random_lu_set(s, 11)
    full = functools.reduce(np.kron, lus.unitaries)
    raw = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
    v = PureStateVector(s, raw / np.linalg.norm(raw))
    moved = apply_lu(v, lus)
    assert np.abs(moved.amplitudes - full @ v.amplitudes).max() < 1e-12
    bad = LocalUnitarySet(lus.unitaries[:-1])
    with pytest.raises(ValueError, match="unitaries for"):
        apply_lu(v, bad)


def test_apply_lu_density_matrix_and_type_error() -> None:
    # pure states only: a mixed state is dressed through its eigenbasis
    s = ModeStructure((2, 2))
    lus = random_lu_set(s, 5)
    rho = DensityMatrix(s, np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(TypeError, match="cannot apply local unitaries to DensityMatrix"):
        apply_lu(rho, lus)
    with pytest.raises(TypeError):
        apply_lu(np.eye(4), lus)
