from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from mmekit.cli import _structures_upto
from mmekit.modes import (
    Bipartition,
    ModeStructure,
    _level_table,
    _trace_groups,
    bipartition,
    parse_dims,
    project_level,
    scalar_to_vector,
    vector_to_scalar,
)


def test_structure_accessors() -> None:
    s = ModeStructure((2, 3, 4))
    assert s.N == 3
    assert s.n == 24
    assert s.n_max == 4
    assert s.n_over_max == 6
    assert str(s) == "2x3x4"
    assert s.dims == (2, 3, 4)


def test_structure_rejects_degenerate_dims() -> None:
    with pytest.raises(ValueError):
        ModeStructure(())
    with pytest.raises(ValueError):
        ModeStructure((2, 1))
    with pytest.raises(ValueError):
        ModeStructure((0, 3))


def test_non_integers_are_refused_not_truncated() -> None:
    with pytest.raises(ValueError, match=r"mode dimension=2\.9 is not an integer"):
        ModeStructure((2.9, 4))
    s = ModeStructure((np.int64(2), 3))
    assert s.dims == (2, 3) and all(type(d) is int for d in s.dims)
    with pytest.raises(ValueError, match=r"level=2\.0 is not an integer"):
        scalar_to_vector(s, 2.0)
    with pytest.raises(ValueError, match=r"label=1\.5 is not an integer"):
        vector_to_scalar(s, (1.5, 1))
    with pytest.raises(ValueError, match=r"mode=1\.0 is not an integer"):
        s.substructure((1.0,))
    with pytest.raises(ValueError, match=r"level=True is not an integer"):
        scalar_to_vector(s, True)  # a bool is not read as 1
    with pytest.raises(ValueError, match=r"mode dimension=False is not an integer"):
        ModeStructure((2, False))
    assert scalar_to_vector(s, np.int64(6)) == (2, 3)
    assert vector_to_scalar(s, (np.int64(2), 3)) == 6
    assert s.substructure((np.int64(2),)).dims == (3,)


def test_parse_dims_forms() -> None:
    assert parse_dims("2x3x4").dims == (2, 3, 4)
    assert parse_dims(" 2X5 ").dims == (2, 5)
    assert parse_dims("2^5").dims == (2, 2, 2, 2, 2)
    assert parse_dims("7").dims == (7,)
    assert parse_dims("2^8").n == parse_dims("16x16").n == 256


@pytest.mark.parametrize(
    "text", ["", "2x", "ax3", "3^2", "2^0", "2xx3", "2,3", "2^9", "2^40", "16x17"]
)
def test_parse_dims_rejects_junk(text: str) -> None:
    with pytest.raises(ValueError):
        parse_dims(text)


def test_scalar_vector_known_pairs() -> None:
    assert vector_to_scalar(ModeStructure((2, 3)), (2, 3)) == 6
    assert vector_to_scalar(ModeStructure((2, 5)), (2, 5)) == 10
    assert vector_to_scalar(ModeStructure((2, 4)), (1, 1)) == 1
    q4 = ModeStructure((2, 2, 2, 2))
    assert scalar_to_vector(q4, 4) == (1, 1, 2, 2)
    assert scalar_to_vector(q4, 13) == (2, 2, 1, 1)
    assert scalar_to_vector(q4, 1) == (1, 1, 1, 1)
    assert scalar_to_vector(q4, 16) == (2, 2, 2, 2)


def test_scalar_vector_round_trip_exhaustive_small() -> None:
    for dims in [(2, 3), (3, 2), (2, 2, 2), (4, 5), (2, 3, 4)]:
        s = ModeStructure(dims)
        seen = set()
        for level in range(1, s.n + 1):
            labels = scalar_to_vector(s, level)
            assert all(1 <= v <= d for v, d in zip(labels, dims))
            assert vector_to_scalar(s, labels) == level
            seen.add(labels)
        assert len(seen) == s.n  # bijection onto the label product set


def test_scalar_vector_round_trip_randomized() -> None:
    rnd = random.Random(20240814)
    for _ in range(200):
        dims = tuple(rnd.randint(2, 6) for _ in range(rnd.randint(1, 4)))
        s = ModeStructure(dims)
        level = rnd.randint(1, s.n)
        assert vector_to_scalar(s, scalar_to_vector(s, level)) == level


def test_level_and_label_range_errors() -> None:
    s = ModeStructure((2, 3))
    for bad in (0, 7, -1):
        with pytest.raises(ValueError):
            scalar_to_vector(s, bad)
    with pytest.raises(ValueError):
        vector_to_scalar(s, (1,))
    with pytest.raises(ValueError):
        vector_to_scalar(s, (1, 4))
    with pytest.raises(ValueError):
        vector_to_scalar(s, (3, 1))


def test_substructure_and_mode_list_validation() -> None:
    s = ModeStructure((2, 3, 4))
    assert s.substructure((1, 3)).dims == (2, 4)
    with pytest.raises(ValueError):
        s.substructure(())
    with pytest.raises(ValueError):
        s.substructure((3, 1))  # must be strictly ascending
    with pytest.raises(ValueError):
        s.substructure((1, 1))
    with pytest.raises(ValueError):
        s.substructure((4,))


def test_bipartition_small_and_big_sides() -> None:
    b = bipartition(ModeStructure((2, 5)), 1)
    assert isinstance(b, Bipartition)
    assert (b.n_S, b.n_B) == (2, 5)
    assert b.B_modes == (2,)
    assert b.S_modes == (1,)

    # focal mode bigger than the rest: it becomes the B side itself
    b = bipartition(ModeStructure((2, 5)), 2)
    assert (b.n_S, b.n_B) == (2, 5)
    assert b.B_modes == (2,)
    assert b.S_modes == (1,)

    b = bipartition(ModeStructure((2, 2, 2, 2)), 1)
    assert (b.n_S, b.n_B) == (2, 8)
    assert b.B_modes == (2, 3, 4)
    assert b.S_modes == (1,)


def test_bipartition_tie_keeps_focal_mode_small() -> None:
    s = ModeStructure((2, 2))
    assert bipartition(s, 1).B_modes == (2,)
    assert bipartition(s, 1).S_modes == (1,)
    assert bipartition(s, 2).B_modes == (1,)
    assert bipartition(s, 2).S_modes == (2,)
    s = ModeStructure((2, 2, 4))
    assert bipartition(s, 3).B_modes == (1, 2)
    assert bipartition(s, 3).S_modes == (3,)


def test_bipartition_product_invariant_randomized() -> None:
    rnd = random.Random(7)
    for _ in range(100):
        dims = tuple(rnd.randint(2, 7) for _ in range(rnd.randint(1, 4)))
        s = ModeStructure(dims)
        for m in range(1, s.N + 1):
            b = bipartition(s, m)
            assert b.n_S * b.n_B == s.n
            assert sorted(b.S_modes + b.B_modes) == list(range(1, s.N + 1))
            assert b.n_S <= b.n_B
            assert b.n_S == min(s.dims[m - 1], s.n // s.dims[m - 1])
    with pytest.raises(ValueError):
        bipartition(ModeStructure((2, 3)), 3)


def test_project_level_pinned() -> None:
    q4 = ModeStructure((2, 2, 2, 2))
    assert project_level(q4, 13, (2, 3, 4)) == 5
    assert project_level(q4, 4, (2, 3, 4)) == 4
    assert project_level(ModeStructure((2, 5)), 10, (2,)) == 5


def test_project_level_all_modes_is_identity() -> None:
    s = ModeStructure((2, 3, 2))
    all_modes = tuple(range(1, s.N + 1))
    for level in range(1, s.n + 1):
        assert project_level(s, level, all_modes) == level


def test_project_level_matches_label_restriction() -> None:
    s = ModeStructure((3, 2, 4))
    for level, modes in itertools.product(
        range(1, s.n + 1), [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    ):
        labels = scalar_to_vector(s, level)
        sub = s.substructure(modes)
        expected = vector_to_scalar(sub, tuple(labels[m - 1] for m in modes))
        assert project_level(s, level, modes) == expected


def test_level_table_matches_scalar_path() -> None:
    for s in _structures_upto(36):
        labels, masks, W, gathers = _level_table(s)
        assert len(labels) == len(masks) == s.n + 1
        bips = [bipartition(s, m) for m in range(1, s.N + 1)]
        assert W == max(b.n_B for b in bips) + 1
        for m, (b, pos) in enumerate(zip(bips, gathers)):
            assert pos.shape == (b.n_S, b.n_B), (s.dims, m)
            assert np.array_equal(pos, _trace_groups(s.dims, b.S_modes)), (s.dims, m)
        for lvl in range(1, s.n + 1):
            assert labels[lvl] == scalar_to_vector(s, lvl), (s.dims, lvl)
            want = sum(1 << (m * W + project_level(s, lvl, b.B_modes))
                       for m, b in enumerate(bips))
            assert masks[lvl] == want, (s.dims, lvl)
            # each mask bit is the level's column in its mode's gather
            cols = [int(np.nonzero(pos == lvl - 1)[1][0]) for pos in gathers]
            assert masks[lvl] == sum(1 << (m * W + p + 1) for m, p in enumerate(cols))
