"""Dense complex linear algebra over structured Hilbert spaces.

Everything is a plain numpy array under the hood; the wrapper types pin
the mode structure to the data and enforce the physical invariants
(normalization, Hermiticity, unit trace, positive semidefiniteness) as
they are built, so an instance is valid by existence.
All target systems have n <= 256 (`modes.MAX_N`), so dense storage is
used throughout.  rho is built from the checked eigenbasis (`mix`) when
first read, and every weight is read once, by `_check_weights`, as a
SpectralState is built.
"""

from __future__ import annotations

import numpy as np

from .modes import ModeStructure, _check_modes, _check_real, _level_table, _trace_groups

# 1e-12 for algebraic identities on exactly representable inputs,
# 1e-10 of slack for eigenvalues of constructed density matrices and for
# the entries of A^dagger A in the isometry test.
ATOL = 1e-12
PSD_SLACK = 1e-10
ISOMETRY_TOL = 1e-10
# Complex entries (16 bytes each) per call of the batched kernels, however
# many states are fed: member amplitudes in `tgx._me_flags` blocks, member
# reductions (D times the full tensor width of `verify._cross_reductions`
# a unitary, of which the product reads the Hermitian half) in the stacks
# of `verify.min_avg_ent` and in its passes, which join consecutive stacks
# of any D, and coefficient pairs in `verify._stack_averages` row blocks.
# Amplitude blocks stay within it (n <= MAX_N).  A stack holds one unitary
# at least, so a unitary whose D times the width passes it is a stack and a
# pass of its own.  A row block holds k to 2k - 1 members of R^2 pairs,
# k = max(1, BLOCK_AMPLITUDES // R^2): just under twice it, or one
# member's R^2 pairs when R^2 passes it.
BLOCK_AMPLITUDES = 2**14


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


class DensityMatrix:
    """A density matrix over a mode structure, valid by existence.

    Every instance is checked as it is built: Hermiticity and unit trace
    within 1e-12, positive semidefiniteness with 1e-10 slack.  The one
    instance built without this check is the rho of a SpectralState
    (`verify._MixedOnRead`), whose eigenbasis and weights were checked.
    """

    def __init__(self, structure: ModeStructure, entries):
        mat = np.asarray(entries, dtype=complex)
        n = structure.n
        if mat.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix for {structure}, got {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < -PSD_SLACK:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        self.structure = structure
        self.entries = mat


def _check_isometry(what: str, A) -> None:
    """Raise unless the columns of A, or of each matrix in a stack A, are
    orthonormal: A^dagger A = I within ISOMETRY_TOL entry by entry.  A
    square A passes iff it is unitary."""
    gram = A.conj().swapaxes(-1, -2) @ A
    dev = float(np.abs(gram - np.eye(A.shape[-1])).max())
    if not dev <= ISOMETRY_TOL:  # also refuses nan
        raise ValueError(f"{what}: columns not orthonormal within {ISOMETRY_TOL:g}, "
                         f"|A^dagger A - I| reaches {dev:.1e}")


def _check_weights(weights, count: int) -> tuple[float, ...]:
    """The weights as floats, each read by `modes._check_real`; raise unless
    there are count >= 1, all finite and positive (NaN passes every `<=`
    test) and summing to 1 within ATOL."""
    try:
        weights = tuple(_check_real("spectrum weight", w) for w in weights)
    except TypeError:  # `_check_real` raises no TypeError: weights is not iterable
        raise ValueError(f"spectrum={weights!r} is not a list of weights") from None
    if count < 1 or len(weights) != count:
        raise ValueError(f"{len(weights)} weights for {count} states; need one each")
    if not all(np.isfinite(w) and w > 0 for w in weights):
        raise ValueError(f"weights must be finite and positive, got {list(weights)}")
    total = sum(weights)
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    return weights


def mix(state) -> np.ndarray:
    """The n x n array rho = sum_k lambda_k |Phi_k><Phi_k| of a
    `verify.SpectralState`, read off its (R, n) `basis` and `spectrum`,
    both checked where the state was built.  The DensityMatrix of
    `SpectralState.matrix()` keeps it as its `entries` when rho is first
    read, so a state that is only sampled is never mixed.  Computed
    as one BLAS product B B^dagger with B = basis^T diag(sqrt(lambda)),
    C-contiguous; the diagonal's imaginary part is then set to exactly 0.
    The two triangles may differ in the last bit.
    """
    B = np.ascontiguousarray(state.basis.T) * np.sqrt(state.spectrum)
    # Adding 0.0 maps any -0.0 to 0.0, so `construct` prints what the
    # einsum did; an in-place conjugate of conj(B) B^T would print -0.0 in
    # the imaginary parts of a real state.  It costs nothing measurable: on
    # an x86 host with OpenBLAS 0.3.31, `construct` through `cli.main` on
    # 2^6 took 2.37 ms with a bare `B @ B.conj().T`, 2.36 ms with the
    # `+ 0.0` below and 2.55 ms with an einsum (7.61, 7.63 and 7.82 ms
    # LU-dressed; interleaved medians of 160).  At n = 256, R = 16 the mix
    # itself takes 0.32 ms against the einsum's 1.68 ms.
    rho = B @ B.conj().T
    np.add(rho, 0.0, out=rho)
    np.fill_diagonal(rho.imag, 0.0)
    return rho


def mode_reduction_of_pure(v: PureStateVector, m: int) -> np.ndarray:
    """Mode-m reduced density matrix of a pure state (n_m x n_m array)."""
    A = v.amplitudes[_trace_groups(v.structure.dims, _check_modes(v.structure, (m,)))]
    return A @ A.conj().T


def mode_purities(structure: ModeStructure, amps) -> np.ndarray:
    """Mode-reduction purities tr(rho_m^2) of M pure states at once.

    `amps` holds one state per row, shape (M, n); returns (M, N) with
    column m-1 for mode m.  A pure state has one purity on both sides of
    a bipartition (Schmidt), so each mode costs one gather of all rows by
    its `modes._level_table` gather into small-side (M, n_S, n_B) blocks
    A, one stacked product rho_S = A A^dagger and one stacked sum of
    |rho_S[a, b]|^2.
    """
    amps = np.asarray(amps).reshape(-1, structure.n)
    out = np.empty((amps.shape[0], structure.N))
    for m, pos in enumerate(_level_table(structure)[3]):
        A = np.take(amps, pos, axis=1)
        red = (A @ A.conj().swapaxes(1, 2)).reshape(len(amps), 1, -1)
        out[:, m] = (red.conj() @ red.swapaxes(1, 2))[:, 0, 0].real
    return out
