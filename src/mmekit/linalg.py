"""Dense complex linear algebra over structured Hilbert spaces.

Everything is a plain numpy array under the hood; the wrapper types pin
the mode structure to the data and enforce the physical invariants
(normalization, Hermiticity, unit trace, positive semidefiniteness).
All target systems have n <= 256 (`modes.MAX_N`), so dense storage is
used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modes import ModeStructure, strides

# 1e-12 for algebraic identities on exactly representable inputs,
# 1e-10 of slack for eigenvalues of constructed density matrices.
ATOL = 1e-12
PSD_SLACK = 1e-10


class PureStateVector:
    """A normalized state vector over a mode structure.

    Parameters
    ----------
    structure : ModeStructure
    amplitudes : array_like of complex, length structure.n
        Must have unit norm within 1e-12.
    """

    def __init__(self, structure: ModeStructure, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (structure.n,):
            raise ValueError(
                f"expected {structure.n} amplitudes for {structure}, got {amps.shape}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= 1e-12:  # also refuses nan and inf
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
        self.structure = structure
        self.amplitudes = amps

    def amplitude(self, level: int) -> complex:
        return complex(self.amplitudes[level - 1])

    def overlap(self, other: "PureStateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(structure: ModeStructure, level: int) -> PureStateVector:
    """The computational basis state |level> (1-based)."""
    if not 1 <= level <= structure.n:
        raise ValueError(f"level {level} out of range 1..{structure.n}")
    amps = np.zeros(structure.n, dtype=complex)
    amps[level - 1] = 1.0
    return PureStateVector(structure, amps)


class DensityMatrix:
    """A density matrix over a mode structure.

    Validates Hermiticity and unit trace within 1e-12 and positive
    semidefiniteness with 1e-10 slack.  Pass ``validate=False`` only for
    matrices known valid by construction.
    """

    def __init__(self, structure: ModeStructure, entries, validate: bool = True):
        mat = np.asarray(entries, dtype=complex)
        n = structure.n
        if mat.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix for {structure}, got {mat.shape}")
        if validate:
            if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
                raise ValueError("density matrix is not Hermitian")
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > ATOL:
                raise ValueError(f"density matrix trace is {tr!r}, expected 1")
            evals = np.linalg.eigvalsh(mat)
            if evals.min() < -PSD_SLACK:
                raise ValueError(
                    f"density matrix has negative eigenvalue {evals.min():.3e}"
                )
        self.structure = structure
        self.entries = mat

    def to_json_dict(self) -> dict:
        """Row-major {dims, re, im} form used by the CLI."""
        return {
            "dims": str(self.structure),
            "re": [[float(x) for x in row] for row in self.entries.real],
            "im": [[float(x) for x in row] for row in self.entries.imag],
        }


def outer(v: PureStateVector) -> DensityMatrix:
    """Rank-1 projector |v><v|."""
    mat = np.outer(v.amplitudes, v.amplitudes.conj())
    return DensityMatrix(v.structure, mat, validate=False)


@lru_cache(maxsize=None)
def _trace_groups(dims: tuple[int, ...], keep: tuple[int, ...]):
    """Index bookkeeping for a partial trace.

    Returns (kept substructure dims product, array `pos` of shape
    (n_keep, n_drop) with pos[a, b] = the 0-based scalar index whose kept
    labels decode to a and dropped labels to b).
    """
    s = ModeStructure(dims)
    st = strides(s)
    keep_strides = [st[m - 1] for m in keep]
    keep_dims = [dims[m - 1] for m in keep]
    drop = [m for m in range(1, s.N + 1) if m not in keep]
    drop_strides = [st[m - 1] for m in drop]
    drop_dims = [dims[m - 1] for m in drop]

    def offsets(sub_dims, sub_strides):
        out = np.zeros(1, dtype=np.intp)
        for d, stride in zip(sub_dims, sub_strides):
            out = (out[:, None] + stride * np.arange(d, dtype=np.intp)[None, :]).reshape(-1)
        return out

    ka = offsets(keep_dims, keep_strides)
    kb = offsets(drop_dims, drop_strides)
    pos = ka[:, None] + kb[None, :]
    return int(np.prod(keep_dims, dtype=np.intp)) if keep_dims else 1, pos


def partial_trace_matrix(mat: np.ndarray, structure: ModeStructure, keep) -> np.ndarray:
    """Partial trace of an arbitrary n x n matrix down to the kept modes.

    Works on raw arrays so cross terms |phi_k><phi_l| (trace 0, not
    Hermitian) can be traced as well; index arithmetic only, no tensor
    reshape of the matrix itself.
    """
    keep = tuple(int(m) for m in keep)
    structure.substructure(keep)  # validates the mode list
    _, pos = _trace_groups(structure.dims, keep)
    # out[a, b] = sum over the diagonal of the dropped indices
    return mat[pos[:, None, :], pos[None, :, :]].sum(axis=-1)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all modes not in `keep`; preserves trace and Hermiticity."""
    keep = tuple(int(m) for m in keep)
    sub = rho.structure.substructure(keep)
    out = partial_trace_matrix(rho.entries, rho.structure, keep)
    return DensityMatrix(sub, out, validate=False)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), in [1/n, 1] for valid density matrices."""
    return float(np.vdot(rho.entries, rho.entries).real)


def _check_weights(weights, count: int) -> None:
    """Raise unless there are count >= 1 weights, all finite and positive
    (NaN passes every `<=` test) and summing to 1 within ATOL."""
    if count < 1 or len(weights) != count:
        raise ValueError(f"{len(weights)} weights for {count} states; need one each")
    if not all(np.isfinite(w) and w > 0 for w in weights):
        raise ValueError(f"weights must be finite and positive, got {list(weights)}")
    total = sum(weights)
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"weights sum to {total!r}, expected 1")


def mix(states, weights) -> DensityMatrix:
    """Convex mixture sum_k w_k |psi_k><psi_k|.

    Weights must be positive and sum to 1 within 1e-12; all states must
    share one structure.  If the states are orthonormal the spectrum of
    the result equals the weights.
    """
    states = list(states)
    weights = [float(w) for w in weights]
    _check_weights(weights, len(states))
    structure = states[0].structure
    for st in states[1:]:
        if st.structure.dims != structure.dims:
            raise ValueError("all states in a mixture must share one structure")
    mat = np.zeros((structure.n, structure.n), dtype=complex)
    for st, w in zip(states, weights):
        mat += w * np.outer(st.amplitudes, st.amplitudes.conj())
    return DensityMatrix(structure, mat, validate=False)


@lru_cache(maxsize=None)
def _mode_gather(dims: tuple[int, ...], m: int):
    """Index matrix G with G[a, b] = 0-based level having mode-m label a+1
    and remaining labels unraveled as b; used for single-mode reductions
    of pure states."""
    _, pos = _trace_groups(dims, (m,))
    return pos


def mode_reduction_of_pure(v: PureStateVector, m: int) -> np.ndarray:
    """Mode-m reduced density matrix of a pure state (n_m x n_m array)."""
    if not 1 <= m <= v.structure.N:
        raise ValueError(f"mode {m} out of range 1..{v.structure.N}")
    A = v.amplitudes[_mode_gather(v.structure.dims, m)]
    return A @ A.conj().T


def mode_purities(structure: ModeStructure, amps) -> np.ndarray:
    """Mode-reduction purities tr(rho_m^2) of M pure states at once.

    `amps` holds one state per row, shape (M, n); returns (M, N) with
    column m-1 for mode m.  Each mode costs one gather of all rows into
    (M, n_m, n/n_m) blocks A, one stacked product rho_m = A A^dagger and
    one stacked sum of |rho_m[a, b]|^2, which is tr(rho_m^2).
    """
    amps = np.asarray(amps).reshape(-1, structure.n)
    out = np.empty((amps.shape[0], structure.N))
    for m in range(structure.N):
        A = np.take(amps, _mode_gather(structure.dims, m + 1), axis=1)
        red = (A @ A.conj().swapaxes(1, 2)).reshape(len(amps), 1, -1)
        out[:, m] = (red.conj() @ red.swapaxes(1, 2))[:, 0, 0].real
    return out
