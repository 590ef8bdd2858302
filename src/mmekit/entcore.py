"""Entanglement mathematics: MPSRP purities, the L* minimization, and the
normalized full-N-partite entanglement measure for pure states.

The minimum physical simultaneous reduction purity (MPSRP) of a mode of
dimension n_m in a pure parent state with L equal-weight levels is

    P_MP(n_m, L) = mod(L,n_m) ((1+floor(L/n_m))/L)^2
                 + (n_m - mod(L,n_m)) (floor(L/n_m)/L)^2.

L* collects the values of L in 2..n/n_max minimizing the mean normalized
purity M(L) = (1/N) sum_m (n_m P_MP(n_m,L) - 1)/(n_m - 1); the minimum
M* anchors the normalization of the ent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import PureStateVector, mode_purities
from .modes import ModeStructure, _check_int


class UnsupportedSystemError(ValueError):
    """Raised for structures that cannot host entanglement (n/n_max < 2)."""


@dataclass(frozen=True)
class LStarSet:
    """Result of the L* minimization.

    Attributes
    ----------
    values : tuple of int
        All L attaining the minimum, ascending.
    min_mean : float
        The minimized objective M*.
    per_L_mean : dict
        Objective value for every L in 2..n/n_max.
    """

    values: tuple[int, ...]
    min_mean: float
    per_L_mean: dict

    @property
    def min(self) -> int:
        return self.values[0]


def _mpsrp_numerator(n_m: int, L: int) -> int:
    """L**2 * P_MP(n_m, L), an integer: the floor's exact numerator."""
    q, r = divmod(L, n_m)
    return r * (q + 1) ** 2 + (n_m - r) * q * q


def mpsrp_purity(n_m: int, L: int) -> float:
    """Minimum physical simultaneous reduction purity of an n_m-level mode
    in an L-level equal-weight pure state.

    An integer over L**2, so the float is correctly rounded.
    """
    n_m, L = _check_int("n_m", n_m, least=2), _check_int("L", L, least=1)
    return _mpsrp_numerator(n_m, L) / (L * L)


@lru_cache(maxsize=None)
def lstar(s: ModeStructure) -> LStarSet:
    """All L in 2..n/n_max minimizing the mean normalized reduction purity.

    Argmin ties are exact: every M(L) is an integer over one common
    denominator N * C * lcm(L)**2, C = lcm(n_m - 1), and each float is
    that quotient, correctly rounded.  Bipartite systems always give
    values = {n_S}.  Cached per structure.
    """
    if s.n_over_max < 2:
        raise UnsupportedSystemError(
            f"{s} has n/n_max = {s.n_over_max}; no entanglement is possible"
        )
    Ls = range(2, s.n_over_max + 1)
    C, lam = math.lcm(*(d - 1 for d in s.dims)), math.lcm(*Ls)
    den = s.N * C * lam * lam
    # (n_m P_MP - 1)/(n_m - 1) = (n_m * numerator - L**2) / ((n_m - 1) L**2)
    table = {L: sum((d * _mpsrp_numerator(d, L) - L * L) * (C // (d - 1)) for d in s.dims)
             * (lam // L) ** 2 for L in Ls}
    best = min(table.values())
    values = tuple(L for L, v in table.items() if v == best)
    return LStarSet(values, best / den, {L: v / den for L, v in table.items()})


def _check_L(s: ModeStructure, L) -> int:
    """L as an int, refused unless an integer in L*: the only ME TGX tuple sizes."""
    L = _check_int("L", L)
    values = lstar(s).values
    if L not in values:
        raise ValueError(f"L={L} is not in L*{values} of {s}")
    return L


def _ent_of_purities(s: ModeStructure, purities) -> np.ndarray:
    """The ent of each row of an (M, N) array of mode purities P(rho_m).

    Computes the mean normalized reduction purity
    E = (1/N) sum_m (n_m P(rho_m) - 1)/(n_m - 1) and returns
    (1 - E)/(1 - M*) clamped to [0, 1]: exactly 0 on product states and
    exactly 1 on maximally full-N-partite entangled states.
    """
    ls = lstar(s)  # raises UnsupportedSystemError for degenerate structures
    d = np.array(s.dims, dtype=float)
    mean = ((d * purities - 1.0) / (d - 1.0)).sum(axis=1) / s.N
    return np.minimum(1.0, np.maximum(0.0, (1.0 - mean) / (1.0 - ls.min_mean)))


def ent_rows(s: ModeStructure, amps) -> np.ndarray:
    """The ent of each row of an (M, n) array of normalized amplitudes
    (see `_ent_of_purities`)."""
    return _ent_of_purities(s, mode_purities(s, amps))


def ent_pure(v: PureStateVector) -> float:
    """The ent of a pure state, normalized to [0, 1] (see `ent_rows`)."""
    return float(ent_rows(v.structure, v.amplitudes)[0])
