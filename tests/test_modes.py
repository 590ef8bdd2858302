from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from mmekit.cli import _structures_upto
from mmekit.modes import (
    ModeStructure,
    _level_table,
    _trace_groups,
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
        project_level(s, 1, (1.0,))
    with pytest.raises(ValueError, match=r"level=True is not an integer"):
        scalar_to_vector(s, True)  # a bool is not read as 1
    with pytest.raises(ValueError, match=r"mode dimension=False is not an integer"):
        ModeStructure((2, False))
    assert scalar_to_vector(s, np.int64(6)) == (2, 3)
    assert vector_to_scalar(s, (np.int64(2), 3)) == 6
    assert project_level(s, 6, (np.int64(2),)) == 3


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
    assert project_level(s, 24, (1, 3)) == 8  # labels (2, 4) in 2x4
    with pytest.raises(ValueError):
        project_level(s, 1, ())
    with pytest.raises(ValueError):
        project_level(s, 1, (3, 1))  # must be strictly ascending
    with pytest.raises(ValueError):
        project_level(s, 1, (1, 1))
    with pytest.raises(ValueError):
        project_level(s, 1, (4,))


def _sides(s: ModeStructure, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Test oracle for mode m's extreme bipartition: (S_m, B_m), with m on
    the small side unless n_m > n/n_m."""
    rest = tuple(k for k in range(1, s.N + 1) if k != m)
    n_m = s.dims[m - 1]
    return ((m,), rest) if n_m <= s.n // n_m else (rest, (m,))


def test_bipartition_small_and_big_sides() -> None:
    # a gather's rows run over the small side S_m, its columns over B_m
    g1, g2 = _level_table(ModeStructure((2, 5)))[3]
    assert np.array_equal(g1, np.arange(10).reshape(2, 5))
    # focal mode bigger than the rest: it becomes the B side itself
    assert np.array_equal(g2, np.arange(10).reshape(2, 5))

    g1, g2 = _level_table(ModeStructure((2, 2, 2, 2)))[3][:2]
    assert np.array_equal(g1, np.arange(16).reshape(2, 8))
    assert np.array_equal(g2, [[0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]])


def test_bipartition_tie_keeps_focal_mode_small() -> None:
    g1, g2 = _level_table(ModeStructure((2, 2)))[3]
    assert np.array_equal(g1, [[0, 1], [2, 3]])
    assert np.array_equal(g2, [[0, 2], [1, 3]])
    g3 = _level_table(ModeStructure((2, 2, 4)))[3][2]
    assert np.array_equal(g3, np.arange(16).reshape(4, 4).T)


def test_bipartition_product_invariant_randomized() -> None:
    rnd = random.Random(7)
    for _ in range(100):
        dims = tuple(rnd.randint(2, 7) for _ in range(rnd.randint(1, 4)))
        s = ModeStructure(dims)
        for m, pos in enumerate(_level_table(s)[3], start=1):
            n_S, n_B = pos.shape
            assert n_S * n_B == s.n
            assert n_S <= n_B
            assert n_S == min(s.dims[m - 1], s.n // s.dims[m - 1])
            assert sorted(pos.ravel().tolist()) == list(range(s.n))
            assert np.array_equal(pos, _trace_groups(s.dims, _sides(s, m)[0]))


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
        sub = ModeStructure(tuple(s.dims[m - 1] for m in modes))
        expected = vector_to_scalar(sub, tuple(labels[m - 1] for m in modes))
        assert project_level(s, level, modes) == expected


def test_level_table_matches_scalar_path() -> None:
    for s in _structures_upto(36):
        labels, masks, W, gathers = _level_table(s)
        assert len(labels) == len(masks) == s.n + 1
        sides = [_sides(s, m) for m in range(1, s.N + 1)]
        n_B = [math.prod(s.dims[k - 1] for k in B) for _, B in sides]
        assert W == max(n_B) + 1
        for m, ((S, _), pos) in enumerate(zip(sides, gathers)):
            assert pos.shape == (s.n // n_B[m], n_B[m]), (s.dims, m)
            assert np.array_equal(pos, _trace_groups(s.dims, S)), (s.dims, m)
        for lvl in range(1, s.n + 1):
            assert labels[lvl] == scalar_to_vector(s, lvl), (s.dims, lvl)
            want = sum(1 << (m * W + project_level(s, lvl, B))
                       for m, (_, B) in enumerate(sides))
            assert masks[lvl] == want, (s.dims, lvl)
            # each mask bit is the level's column in its mode's gather
            cols = [int(np.nonzero(pos == lvl - 1)[1][0]) for pos in gathers]
            assert masks[lvl] == sum(1 << (m * W + p + 1) for m, p in enumerate(cols))
