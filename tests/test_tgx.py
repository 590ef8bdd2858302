from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mmekit.cli import _structures_upto
from mmekit.entcore import ent_pure, hyperspherical, lstar
from mmekit.linalg import (
    DensityMatrix,
    PureStateVector,
    basis_state,
    mix,
    outer,
    purity,
)
from mmekit.modes import ModeStructure
from mmekit.tgx import (
    LocalUnitarySet,
    MeTgxTuple,
    _me_level_sets,
    apply_lu,
    as_me_tuple,
    build_tgx_state,
    enumerate_me_tuples,
    is_me_tuple,
)
from mmekit.verify import haar_unitary, random_lu_set

from reference_values import ME_TUPLE_COUNTS


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


def test_enumeration_counts_pinned() -> None:
    for (dims, L), count in ME_TUPLE_COUNTS.items():
        s = ModeStructure(dims)
        assert len(enumerate_me_tuples(s, L)) == count, (dims, L)


def test_enumeration_sorted_and_distinct() -> None:
    tuples = [t.levels for t in enumerate_me_tuples(ModeStructure((2, 5)), 2)]
    assert tuples == sorted(set(tuples))
    assert all(levels == tuple(sorted(levels)) for levels in tuples)


def test_enumeration_off_lstar_warns_and_is_empty() -> None:
    s = ModeStructure((2, 2, 2, 2))
    with pytest.warns(UserWarning, match="not in L"):
        out = enumerate_me_tuples(s, 3)
    assert out == []


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
    assert as_me_tuple(s, t) is t
    assert as_me_tuple(s, [2, 7]).levels == (2, 7)
    with pytest.raises(ValueError):
        as_me_tuple(ModeStructure((4, 2)), t)  # structure mismatch


def test_build_tgx_state_default_equal_superposition() -> None:
    s = ModeStructure((2, 4))
    v = build_tgx_state(MeTgxTuple(s, (1, 8)))
    assert v.amplitude(1) == pytest.approx(1 / math.sqrt(2))
    assert v.amplitude(8) == pytest.approx(1 / math.sqrt(2))
    assert v.amplitude(2) == 0.0
    assert ent_pure(v) == pytest.approx(1.0, abs=1e-12)


def test_build_tgx_state_amplitude_sweep_anchor() -> None:
    # cos/sin weights on a two-level tuple reproduce sin^2(2 theta)
    t = MeTgxTuple(ModeStructure((2, 4)), (1, 8))
    for k in range(11):
        theta = (math.pi / 2) * k / 10
        v = build_tgx_state(t, amplitudes=hyperspherical([theta]))
        assert ent_pure(v) == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)


def test_build_tgx_state_phases_do_not_move_reductions() -> None:
    rng = np.random.default_rng(3)
    t = MeTgxTuple(ModeStructure((3, 3)), (1, 5, 9))
    for _ in range(5):
        v = build_tgx_state(t, phases=rng.uniform(0, 2 * math.pi, size=3))
        assert ent_pure(v) == pytest.approx(1.0, abs=1e-12)


def test_build_tgx_state_validation() -> None:
    t = MeTgxTuple(ModeStructure((2, 4)), (1, 8))
    with pytest.raises(ValueError):
        build_tgx_state(t, amplitudes=[1.0])
    with pytest.raises(ValueError):
        build_tgx_state(t, amplitudes=[1.0, 1.0])
    with pytest.raises(ValueError):
        build_tgx_state(t, phases=[0.1])


def test_local_unitary_set_validation() -> None:
    with pytest.raises(ValueError):
        LocalUnitarySet([np.ones((2, 2))])
    with pytest.raises(ValueError):
        LocalUnitarySet([np.ones((2, 3))])
    lus = LocalUnitarySet([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        lus.full_matrix(ModeStructure((2, 3, 2)))
    with pytest.raises(ValueError):
        lus.full_matrix(ModeStructure((3, 2)))


def test_full_matrix_kron_order() -> None:
    u1 = haar_unitary(2, np.random.default_rng(0))
    u2 = haar_unitary(3, np.random.default_rng(1))
    full = LocalUnitarySet([u1, u2]).full_matrix(ModeStructure((2, 3)))
    assert np.allclose(full, np.kron(u1, u2), atol=1e-14)


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
    full = lus.full_matrix(s)
    raw = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
    v = PureStateVector(s, raw / np.linalg.norm(raw))
    moved = apply_lu(v, lus)
    assert np.abs(moved.amplitudes - full @ v.amplitudes).max() < 1e-12
    rho = mix([v, build_tgx_state(enumerate_me_tuples(s, lstar(s).min)[0])], (0.3, 0.7))
    moved_rho = apply_lu(rho, lus)
    want = full @ rho.entries @ full.conj().T
    assert np.abs(moved_rho.entries - want).max() < 1e-12
    bad = LocalUnitarySet(lus.unitaries[:-1])
    with pytest.raises(ValueError, match="unitaries for"):
        apply_lu(v, bad)


def test_apply_lu_density_matrix_and_type_error() -> None:
    s = ModeStructure((2, 2))
    lus = random_lu_set(s, 5)
    rho = outer(basis_state(s, 1))
    moved = apply_lu(rho, lus)
    assert isinstance(moved, DensityMatrix)
    assert abs(np.trace(moved.entries) - 1.0) < 1e-12
    assert purity(moved) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TypeError):
        apply_lu(np.eye(4), lus)
