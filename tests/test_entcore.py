from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from mmekit.entcore import (
    UnsupportedSystemError,
    ent_pure,
    lstar,
    mpsrp_purity,
)
from mmekit import cli
from mmekit.cli import _structures_upto
from mmekit.linalg import PureStateVector
from mmekit.modes import MAX_N, ModeStructure

from reference_values import LSTAR_ORACLE, MPSRP_ORACLE
from test_linalg import _basis_state


def test_mpsrp_pinned_values() -> None:
    for (n_m, L), want in MPSRP_ORACLE.items():
        assert mpsrp_purity(n_m, L) == float(want), (n_m, L)


def test_mpsrp_floor_reached_exactly_at_divisibility() -> None:
    for n_m in range(2, 6):
        for L in range(1, 13):
            p = mpsrp_purity(n_m, L)
            assert p >= 1 / n_m - 1e-15
            if L % n_m == 0:
                assert p == pytest.approx(1 / n_m, abs=1e-15)
            elif L >= n_m:
                assert p > 1 / n_m


def test_mpsrp_validation() -> None:
    with pytest.raises(ValueError):
        mpsrp_purity(1, 2)
    with pytest.raises(ValueError):
        mpsrp_purity(2, 0)
    with pytest.raises(ValueError, match=r"L=2\.5 is not an integer"):
        mpsrp_purity(2, 2.5)
    with pytest.raises(ValueError, match=r"n_m=2\.0 is not an integer"):
        mpsrp_purity(2.0, 2)
    assert mpsrp_purity(np.int64(2), np.int64(3)) == mpsrp_purity(2, 3)


def test_lstar_matches_brute_force_oracle() -> None:
    for dims, (values, min_mean) in LSTAR_ORACLE.items():
        got = lstar(ModeStructure(dims))
        assert got.values == values, dims
        assert got.min == values[0]
        assert got.min_mean == float(min_mean), dims


def test_lstar_per_L_table() -> None:
    got = lstar(ModeStructure((3, 6)))
    # direct evaluation of the mean normalized purity at L = 2 and 3
    m2 = (Fraction(3 * Fraction(1, 2) - 1, 2) + Fraction(6 * Fraction(1, 2) - 1, 5)) / 2
    m3 = (Fraction(3 * Fraction(1, 3) - 1, 2) + Fraction(6 * Fraction(1, 3) - 1, 5)) / 2
    assert set(got.per_L_mean) == {2, 3}
    assert got.per_L_mean[2] == float(m2)
    assert got.per_L_mean[3] == float(m3)
    assert m3 == Fraction(1, 10)


@lru_cache(maxsize=None)
def _fraction_floor(n_m: int, L: int) -> Fraction:
    q, r = divmod(L, n_m)
    return r * Fraction(q + 1, L) ** 2 + (n_m - r) * Fraction(q, L) ** 2


def test_integer_floors_match_the_fraction_oracle_bit_for_bit() -> None:
    # int / int true division rounds as float(Fraction) does
    for n_m in range(2, 17):
        for L in range(1, MAX_N + 1):
            assert mpsrp_purity(n_m, L).hex() == float(_fraction_floor(n_m, L)).hex()
    for s in _structures_upto(MAX_N):
        got = lstar(s)
        table = {L: sum(Fraction(d * _fraction_floor(d, L) - 1, d - 1) for d in s.dims) / s.N
                 for L in range(2, s.n_over_max + 1)}
        best = min(table.values())
        assert got.values == tuple(L for L, v in table.items() if v == best), s
        assert got.min_mean.hex() == float(best).hex(), s
        assert {L: v.hex() for L, v in got.per_L_mean.items()} == {
            L: float(v).hex() for L, v in table.items()}, s


def test_lstar_json_shape(capsys) -> None:
    # the CLI owns the printed form of an LStarSet
    assert cli.main(["lstar", "2x2x2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["dims"] == "2x2x2"
    assert d["Lstar"] == [2, 4]
    assert d["M_star"] == 0.0
    assert set(d["table"]) == {"2", "3", "4"}


def test_lstar_unsupported_structures() -> None:
    for dims in [(2,), (5,), (17,)]:
        with pytest.raises(UnsupportedSystemError):
            lstar(ModeStructure(dims))
    # subclass of ValueError so argument handling can catch one type
    assert issubclass(UnsupportedSystemError, ValueError)


def test_ent_pure_two_qubit_anchor() -> None:
    s = ModeStructure((2, 2))
    for k in range(21):
        theta = (math.pi / 2) * k / 20
        v = PureStateVector(
            s, [math.cos(theta), 0.0, 0.0, math.sin(theta)]
        )
        assert ent_pure(v) == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)


def test_ent_pure_product_states_are_zero() -> None:
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        s = ModeStructure(dims)
        assert ent_pure(_basis_state(s, 1)) == 0.0
        assert ent_pure(_basis_state(s, s.n)) == 0.0


def test_ent_pure_ghz_is_one() -> None:
    for N in (2, 3, 4):
        s = ModeStructure((2,) * N)
        amps = np.zeros(s.n)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        assert ent_pure(PureStateVector(s, amps)) == pytest.approx(1.0, abs=1e-12)


def test_ent_pure_w_state_pinned() -> None:
    s = ModeStructure((2, 2, 2))
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / math.sqrt(3)  # levels 2, 3, 5
    assert ent_pure(PureStateVector(s, amps)) == pytest.approx(8 / 9, abs=1e-12)


def test_ent_pure_embedded_bell_in_2x3() -> None:
    s = ModeStructure((2, 3))
    for levels in [(1, 5), (1, 6), (2, 4)]:
        amps = np.zeros(6)
        amps[[levels[0] - 1, levels[1] - 1]] = 1 / math.sqrt(2)
        assert ent_pure(PureStateVector(s, amps)) == pytest.approx(1.0, abs=1e-12)


def test_ent_pure_stays_in_unit_interval() -> None:
    rng = np.random.default_rng(31)
    s = ModeStructure((2, 3))
    for _ in range(50):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        e = ent_pure(PureStateVector(s, v / np.linalg.norm(v)))
        assert 0.0 <= e <= 1.0


def test_ent_pure_unsupported_structure() -> None:
    with pytest.raises(UnsupportedSystemError):
        ent_pure(_basis_state(ModeStructure((4,)), 2))
