"""ME TGX tuples: certification, enumeration, and dressed state building.

An ME TGX tuple is a set of L scalar levels whose equal phaseless
superposition is maximally full-N-partite entangled.  Enumeration is a
pruned depth-first search over the structure's level table: at L in L*
its survivors are exactly the ME tuples.  Each tuple is certified once,
numerically through the ent itself, in `_me_flags` blocks of equal
superpositions: `_certify` for enumerate_me_tuples, rank witnesses and
the eigen-tuples of `mme.construct`; a lone MeTgxTuple built from raw
levels is the one-row case.  Local unitaries dress stacks of states
with one tensordot per mode (`_apply_per_axis`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import and_

import numpy as np

from .entcore import ent_rows, lstar
from .linalg import BLOCK_AMPLITUDES, DensityMatrix, PureStateVector
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
            raise ValueError(f"level {lvl} of {levels} out of range 1..{s.n} for {s}")
    return tuple(sorted(levels))


def is_me_tuple(s: ModeStructure, levels) -> bool:
    """Whether the equal phaseless superposition of `levels` is maximally
    entangled (ent equal to 1 within 1e-10)."""
    return _me_flags(s, [_check_levels(s, levels)])[0]


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


def _tuple_levels(s: ModeStructure, t) -> tuple[int, ...]:
    """Ascending levels of raw levels (validated) or of an MeTgxTuple,
    which must belong to `s`."""
    if isinstance(t, MeTgxTuple):
        if t.structure.dims != s.dims:
            raise ValueError(f"tuple {t} belongs to {t.structure}, not {s}")
        return t.levels
    return _check_levels(s, t)


def as_me_tuple(s: ModeStructure, levels) -> MeTgxTuple:
    """Coerce raw levels (or pass through an MeTgxTuple) with certification."""
    if isinstance(levels, MeTgxTuple):
        _tuple_levels(s, levels)
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

    The search runs on int bitsets over levels (bit lvl for level lvl).
    Each node carries its candidates: the later levels still admissible
    under both conditions.  Placing a level drops its one-flip
    neighbours and every label that became full: a label at lo+1 and,
    once mod(L, n_m) labels of mode m sit at lo+1, every label at lo,
    where lo = floor(L/n_m).  A node with fewer candidates than levels
    still needed is abandoned.  No per-mode room bound is needed: each
    admissible placement lowers a mode's remaining room by exactly one,
    so it always equals the levels still needed.  The rank search's
    streamed lex-greedy cap relies on the yield order.
    """
    dims = s.dims
    N, n = s.N, s.n
    lo = [L // d for d in dims]
    extra = [L % d for d in dims]  # how many labels may sit at lo+1
    vecs = _level_table(s)[0]
    # label_bits[m][a]: the levels whose mode-m label is a
    label_bits = [[0] * (d + 1) for d in dims]
    for lvl in range(1, n + 1):
        for m, a in enumerate(vecs[lvl]):
            label_bits[m][a] |= 1 << lvl
    # flips[lvl]: the levels that differ from lvl in exactly one mode
    flips = [0]
    for lvl in range(1, n + 1):
        rows = [label_bits[m][a] for m, a in enumerate(vecs[lvl])]
        line = 0
        for m in range(N):
            line |= reduce(and_, rows[:m] + rows[m + 1:], -1)
        flips.append(line & ~(1 << lvl))
    counts = [[0] * (d + 1) for d in dims]
    at_hi = [0] * N
    chosen: list[int] = []

    def dfs(cand: int, need: int):
        left = cand.bit_count()
        while left >= need:
            bit = cand & -cand
            cand ^= bit
            left -= 1
            lvl = bit.bit_length() - 1
            if need == 1:
                yield (*chosen, lvl)
                continue
            sub = cand & ~flips[lvl]
            for m, a in enumerate(vecs[lvl]):
                cm = counts[m]
                cm[a] += 1
                if cm[a] > lo[m]:
                    at_hi[m] += 1
                    sub &= ~label_bits[m][a]
                    if at_hi[m] == extra[m]:
                        for b in range(1, len(cm)):
                            if cm[b] == lo[m]:
                                sub &= ~label_bits[m][b]
                elif cm[a] == lo[m] and at_hi[m] == extra[m]:
                    sub &= ~label_bits[m][a]
            chosen.append(lvl)
            yield from dfs(sub, need - 1)
            chosen.pop()
            for m, a in enumerate(vecs[lvl]):
                if counts[m][a] > lo[m]:
                    at_hi[m] -= 1
                counts[m][a] -= 1

    yield from dfs((1 << (n + 1)) - 2, L)


def _superpositions(n: int, level_sets) -> np.ndarray:
    """Equal phaseless superpositions of level sets of one size, one
    per row of an (M, n) complex array."""
    idx = np.asarray(level_sets, dtype=np.intp) - 1
    amps = np.zeros((len(idx), n), dtype=complex)
    amps[np.arange(len(idx))[:, None], idx] = 1.0 / np.sqrt(idx.shape[1])
    return amps


def _me_flags(s: ModeStructure, level_sets) -> list[bool]:
    """Whether the equal phaseless superposition of each level set (all
    of one size) is maximally entangled: ent within ME_TOL of 1.  Sets
    of fewer than 2 levels are not.  Rows go through `ent_rows` in
    blocks of at most BLOCK_AMPLITUDES amplitudes."""
    if not level_sets or len(level_sets[0]) < 2:
        return [False] * len(level_sets)
    rows = max(1, BLOCK_AMPLITUDES // s.n)
    flags: list[bool] = []
    for i in range(0, len(level_sets), rows):
        amps = _superpositions(s.n, level_sets[i:i + rows])
        flags.extend((ent_rows(s, amps) >= 1.0 - ME_TOL).tolist())
    return flags


def _certify(s: ModeStructure, level_sets) -> list[MeTgxTuple]:
    """MeTgxTuples of ascending in-range level sets of one size,
    certified in `_me_flags` blocks; the first set that is not ME
    raises ValueError."""
    tuples = []
    for levels, ok in zip(level_sets, _me_flags(s, level_sets)):
        if not ok:
            raise ValueError(f"{levels} is not an ME TGX tuple of {s}")
        t = object.__new__(MeTgxTuple)  # certified here, so skip __init__
        object.__setattr__(t, "structure", s)
        object.__setattr__(t, "levels", levels)
        tuples.append(t)
    return tuples


def enumerate_me_tuples(s: ModeStructure, L: int) -> list[MeTgxTuple]:
    """All ME TGX tuples of size L, lexicographically sorted.

    L must lie in 2..n/n_max.  Values outside L* are permitted for
    exploration but warned about; no tuple is ME there, so the result is
    empty.  The search survivors are certified once each, numerically
    and in blocks (`_me_flags`); a survivor that is not ME raises
    ValueError.
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
    return _certify(s, list(_me_level_sets(s, L)))


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


def _apply_per_axis(mats, rows: np.ndarray, dims) -> np.ndarray:
    """Contract mats[k] into axis k of each row of an (M, prod(dims))
    stack viewed as (M, *dims): one tensordot per axis for the whole
    stack.  Returns the (M, prod(dims)) result."""
    t = rows.reshape((len(rows),) + tuple(dims))
    for k, u in enumerate(mats, start=1):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, k)), 0, k)
    return t.reshape(len(rows), -1)


def apply_lu(state, lus: LocalUnitarySet):
    """Apply a tensor product of per-mode unitaries to a pure state or a
    density matrix; returns the same kind.  Norm and trace (and the ent)
    are preserved.  Works mode by mode on the (n_1, ..., n_N) tensor, so
    the n x n product `full_matrix` is never formed; the state is the
    one-row case of the stacked contraction `_apply_per_axis`, which
    `mme.construct` runs on all its eigenstates at once."""
    if not isinstance(state, (PureStateVector, DensityMatrix)):
        raise TypeError(f"cannot apply local unitaries to {type(state).__name__}")
    s = state.structure
    lus._check_structure(s)
    us = lus.unitaries
    if isinstance(state, PureStateVector):
        return PureStateVector(s, _apply_per_axis(us, state.amplitudes[None], s.dims))
    # rho -> F rho F^dagger: U_m on row axis m, conj(U_m) on column axis m
    mats = us + tuple(u.conj() for u in us)
    out = _apply_per_axis(mats, state.entries.reshape(1, -1), s.dims + s.dims)
    return DensityMatrix(s, out.reshape(s.n, s.n), validate=False)
