"""ME TGX tuples: certification, enumeration, and dressed state building.

An ME TGX tuple is a set of L scalar levels whose equal phaseless
superposition is maximally full-N-partite entangled.  Enumeration is a
pruned depth-first search over the structure's level table: at L in L*
its survivors are exactly the ME tuples, and each one is certified once,
numerically through the ent itself, when its MeTgxTuple is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .entcore import ent_pure, lstar
from .linalg import DensityMatrix, PureStateVector
from .modes import ModeStructure, _level_table

# A state is accepted as ME when its ent is within this of 1.  Equal
# superpositions have exact-rational reduction purities, so this absorbs
# only floating-point roundoff.
ME_TOL = 1e-10


def _check_levels(s: ModeStructure, levels) -> tuple[int, ...]:
    levels = tuple(int(x) for x in levels)
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels contain duplicates: {levels}")
    for lvl in levels:
        if not 1 <= lvl <= s.n:
            raise ValueError(f"level {lvl} out of range 1..{s.n} for {s}")
    return tuple(sorted(levels))


def _equal_superposition(s: ModeStructure, levels) -> PureStateVector:
    amps = np.zeros(s.n, dtype=complex)
    amps[[lvl - 1 for lvl in levels]] = 1.0 / np.sqrt(len(levels))
    return PureStateVector(s, amps)


def is_me_tuple(s: ModeStructure, levels) -> bool:
    """Whether the equal phaseless superposition of `levels` is maximally
    entangled (ent equal to 1 within 1e-10)."""
    levels = _check_levels(s, levels)
    if len(levels) < 2:
        return False
    return ent_pure(_equal_superposition(s, levels)) >= 1.0 - ME_TOL


@dataclass(frozen=True)
class MeTgxTuple:
    """A certified ME TGX tuple: L ascending scalar levels whose equal
    superposition has ent 1.  Construction re-certifies, so instances
    are valid by existence."""

    structure: ModeStructure
    levels: tuple[int, ...]

    def __init__(self, structure: ModeStructure, levels):
        levels = _check_levels(structure, levels)
        if not is_me_tuple(structure, levels):
            raise ValueError(f"{levels} is not an ME TGX tuple of {structure}")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "levels", levels)

    @property
    def L(self) -> int:
        return len(self.levels)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.levels) + "}"


def as_me_tuple(s: ModeStructure, levels) -> MeTgxTuple:
    """Coerce raw levels (or pass through an MeTgxTuple) with certification."""
    if isinstance(levels, MeTgxTuple):
        if levels.structure.dims != s.dims:
            raise ValueError("tuple belongs to a different structure")
        return levels
    return MeTgxTuple(s, levels)


def _me_level_sets(s: ModeStructure, L: int):
    """Yield all candidate level sets in lexicographic order.

    Depth-first search over ascending levels with two prunes, both
    necessary conditions for maximal entanglement of the equal
    superposition:

    * balanced multiplicities: each mode-m label may be used at most
      floor(L/n_m)+1 times and at most mod(L, n_m) labels can reach that
      higher count (the structure of the two MPSRP terms);
    * no two chosen levels may differ in exactly one mode, since such a
      pair leaves a nonzero off-diagonal in that mode's reduction and
      strictly raises its purity above the MPSRP.

    Survivors at depth L are balanced with all-diagonal reductions, so
    the two conditions are also sufficient at L in L*.
    """
    dims = s.dims
    N, n = s.N, s.n
    lo = [L // d for d in dims]
    extra = [L % d for d in dims]  # how many labels may sit at lo+1
    vecs = _level_table(s)[0]
    counts = [[0] * (d + 1) for d in dims]
    at_hi = [0] * N
    chosen: list[int] = []

    def room(m: int) -> int:
        # largest number of further levels mode m can absorb
        lom = lo[m]
        free = sum(max(0, lom - c) for c in counts[m][1:])
        return free + (extra[m] - at_hi[m])

    def admissible(lvl: int) -> bool:
        v = vecs[lvl]
        for m in range(N):
            c = counts[m][v[m]] + 1
            cap = lo[m] + (1 if extra[m] else 0)
            if c > cap:
                return False
            if c == lo[m] + 1 and at_hi[m] + 1 > extra[m]:
                return False
        for other in chosen:
            w = vecs[other]
            diff = sum(1 for m in range(N) if v[m] != w[m])
            if diff == 1:
                return False
        return True

    def place(lvl: int, sign: int) -> None:
        v = vecs[lvl]
        for m in range(N):
            if sign > 0:
                counts[m][v[m]] += 1
                if counts[m][v[m]] == lo[m] + 1:
                    at_hi[m] += 1
            else:
                if counts[m][v[m]] == lo[m] + 1:
                    at_hi[m] -= 1
                counts[m][v[m]] -= 1

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


def enumerate_me_tuples(s: ModeStructure, L: int) -> list[MeTgxTuple]:
    """All ME TGX tuples of size L, lexicographically sorted.

    L must lie in 2..n/n_max.  Values outside L* are permitted for
    exploration but warned about; no tuple is ME there, so the result is
    empty.  Each tuple is certified once, by MeTgxTuple.
    """
    L = int(L)
    if not 2 <= L <= s.n_over_max:
        raise ValueError(f"L={L} outside 2..{s.n_over_max} for {s}")
    if L not in lstar(s).values:
        warnings.warn(
            f"L={L} is not in L*{lstar(s).values} of {s}; no ME TGX tuples exist there",
            stacklevel=2,
        )
        return []
    return [MeTgxTuple(s, levels) for levels in _me_level_sets(s, L)]


def build_tgx_state(t: MeTgxTuple, amplitudes=None, phases=None) -> PureStateVector:
    """TGX state supported on a tuple's levels.

    Defaults to the equal phaseless superposition.  `amplitudes` (length
    L, unit norm, e.g. from hyperspherical coordinates) and `phases`
    (length L, radians) dress the state.
    """
    L = t.L
    if amplitudes is None:
        x = np.full(L, 1.0 / np.sqrt(L))
    else:
        x = np.asarray(list(amplitudes), dtype=complex)
        if x.shape != (L,):
            raise ValueError(f"expected {L} amplitudes, got {x.shape}")
    if phases is not None:
        ph = np.asarray(list(phases), dtype=float)
        if ph.shape != (L,):
            raise ValueError(f"expected {L} phases, got {ph.shape}")
        x = x * np.exp(1j * ph)
    norm2 = float(np.vdot(x, x).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"amplitudes not normalized: sum of squares = {norm2!r}")
    amps = np.zeros(t.structure.n, dtype=complex)
    amps[[lvl - 1 for lvl in t.levels]] = x
    return PureStateVector(t.structure, amps)


class LocalUnitarySet:
    """One unitary per mode, applied as their tensor product."""

    def __init__(self, unitaries):
        mats = [np.asarray(u, dtype=complex) for u in unitaries]
        for u in mats:
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"local unitary must be square, got shape {u.shape}")
            eye = np.eye(u.shape[0])
            if not np.allclose(u.conj().T @ u, eye, atol=1e-10, rtol=0.0):
                raise ValueError("matrix is not unitary within 1e-10")
        self.unitaries = tuple(mats)

    def _check_structure(self, s: ModeStructure) -> None:
        if len(self.unitaries) != s.N:
            raise ValueError(
                f"{len(self.unitaries)} unitaries for {s.N} modes"
            )
        for u, d in zip(self.unitaries, s.dims):
            if u.shape[0] != d:
                raise ValueError(
                    f"unitary of size {u.shape[0]} does not match mode dimension {d}"
                )

    def full_matrix(self, s: ModeStructure) -> np.ndarray:
        self._check_structure(s)
        full = np.eye(1, dtype=complex)
        for u in self.unitaries:
            full = np.kron(full, u)
        return full


def _apply_per_axis(mats, t: np.ndarray) -> np.ndarray:
    """Contract mats[k] into axis k of t, one tensordot per axis."""
    for k, u in enumerate(mats):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, k)), 0, k)
    return t


def apply_lu(state, lus: LocalUnitarySet):
    """Apply a tensor product of per-mode unitaries to a pure state or a
    density matrix; returns the same kind.  Norm and trace (and the ent)
    are preserved.  Works mode by mode on the (n_1, ..., n_N) tensor, so
    the n x n product `full_matrix` is never formed."""
    if not isinstance(state, (PureStateVector, DensityMatrix)):
        raise TypeError(f"cannot apply local unitaries to {type(state).__name__}")
    s = state.structure
    lus._check_structure(s)
    us = lus.unitaries
    if isinstance(state, PureStateVector):
        out = _apply_per_axis(us, state.amplitudes.reshape(s.dims))
        return PureStateVector(s, out.reshape(s.n))
    # rho -> F rho F^dagger: U_m on row axis m, conj(U_m) on column axis m
    mats = us + tuple(u.conj() for u in us)
    out = _apply_per_axis(mats, state.entries.reshape(s.dims + s.dims))
    return DensityMatrix(s, out.reshape(s.n, s.n), validate=False)
