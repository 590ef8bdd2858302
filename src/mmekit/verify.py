"""Decomposition sampling and entanglement certification.

A rank-R mixed state rho = sum_k lambda_k |Phi_k><Phi_k| has the pure
decompositions {p_j, |w_j>} generated by isometries: for any D >= R and
any D x D unitary U,

    p_j = sum_k |U_jk|^2 lambda_k,
    |w_j> = (1/sqrt(p_j)) sum_k U_jk sqrt(lambda_k) |Phi_k>.

Certifying an MME candidate means showing the decomposition-averaged
entanglement <E> stays at 1 over many such unitaries; a single unitary
pulling <E> below 1 refutes the candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entcore import ent_rows, lstar, mpsrp_purity
from .linalg import (
    BLOCK_AMPLITUDES,
    DensityMatrix,
    PureStateVector,
    _check_weights,
    basis_state,
    mix,
    mode_purities,
)
from .modes import ModeStructure
from .tgx import LocalUnitarySet

P_FLOOR = 1e-14  # decomposition weights below this are dropped as zero


@dataclass(frozen=True)
class SpectralState:
    """Eigen-decomposition {lambda_k, |Phi_k>} feeding the sampler.

    The basis matters when eigenvalues repeat: numerical re-
    diagonalization may then rotate within an eigenspace, so states
    built from known eigenstates should pass them in directly.
    """

    structure: ModeStructure
    spectrum: tuple[float, ...]
    eigenstates: tuple[PureStateVector, ...]

    def __post_init__(self):
        _check_weights(self.spectrum, len(self.eigenstates))
        for v in self.eigenstates:
            if v.structure.dims != self.structure.dims:
                raise ValueError("eigenstate structure mismatch")
        g = np.column_stack([v.amplitudes for v in self.eigenstates])
        if not np.allclose(g.conj().T @ g, np.eye(g.shape[1]), atol=1e-10):
            raise ValueError("eigenstates are not orthonormal")

    @property
    def rank(self) -> int:
        return len(self.spectrum)

    def matrix(self) -> DensityMatrix:
        return mix(list(self.eigenstates), self.spectrum)


def spectral(rho: DensityMatrix, tol: float = 1e-12) -> SpectralState:
    """Eigen-decomposition of a density matrix, eigenvalues descending,
    zeros (below tol) dropped."""
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(vals)[::-1]
    spectrum = []
    states = []
    for k in order:
        if vals[k] <= tol:
            continue
        spectrum.append(float(vals[k]))
        amp = vecs[:, k]
        amp = amp / np.linalg.norm(amp)
        states.append(PureStateVector(rho.structure, amp))
    total = sum(spectrum)
    spectrum = [w / total for w in spectrum]
    return SpectralState(rho.structure, tuple(spectrum), tuple(states))


@dataclass(frozen=True)
class DecompositionSample:
    """One decomposition {p_j, |w_j>} with its generating unitary;
    members with p_j = 0 keep their slot with state None and are
    excluded from averages."""

    structure: ModeStructure
    unitary: np.ndarray
    probabilities: tuple[float, ...]
    members: tuple[PureStateVector | None, ...]

    @property
    def D(self) -> int:
        return len(self.probabilities)

    def average_ent(self) -> float:
        kept = [(p, w.amplitudes) for p, w in zip(self.probabilities, self.members)
                if w is not None]
        probs, amps = zip(*kept)
        return float(np.dot(probs, ent_rows(self.structure, np.array(amps))))


def _decompose(state: SpectralState, Us: np.ndarray):
    """Apply a stack of G unitaries, each D x D with D >= rank, to the
    eigen-ensemble: probabilities (G, D) and members (G, D, n).

    Only the first `rank` columns act; p_j uses the formula weights
    while each member is normalized by its true norm, so tiny unitarity
    slack cannot leak into the members.  Weights below P_FLOOR become 0
    with an all-zero member.
    """
    if Us.ndim != 3 or Us.shape[1] != Us.shape[2]:
        raise ValueError(f"unitary must be square, got shape {Us.shape[1:]}")
    D, R = Us.shape[1], state.rank
    if D < R:
        raise ValueError(f"D={D} is smaller than the rank {R}")
    if not np.allclose(Us.conj().swapaxes(1, 2) @ Us, np.eye(D), atol=1e-10):
        raise ValueError("matrix is not unitary within 1e-10")
    lam = np.asarray(state.spectrum)
    basis = np.array([v.amplitudes for v in state.eigenstates])  # (R, n)
    probs = np.abs(Us[:, :, :R]) ** 2 @ lam
    raw = (Us[:, :, :R] * np.sqrt(lam)) @ basis
    kept = probs >= P_FLOOR
    norms = np.where(kept, np.linalg.norm(raw, axis=2), np.inf)
    return np.where(kept, probs, 0.0), raw / norms[:, :, None]


def decompose(state: SpectralState, unitary: np.ndarray) -> DecompositionSample:
    """Apply one D x D unitary to the eigen-ensemble, D >= rank; members
    with p_j < P_FLOOR keep their slot as None."""
    U = np.asarray(unitary, dtype=complex)
    probs, members = _decompose(state, U[None])
    s = state.structure
    return DecompositionSample(
        s, U, tuple(float(p) for p in probs[0]),
        tuple(PureStateVector(s, w) if p else None for p, w in zip(probs[0], members[0])),
    )


def u2(theta: float, chi: float) -> np.ndarray:
    """One-parameter-pair 2x2 unitary [[a, b], [-conj(b), conj(a)]] with
    a = cos(theta), b = sin(theta) e^{i chi}."""
    a = math.cos(theta)
    b = math.sin(theta) * complex(math.cos(chi), math.sin(chi))
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)


def _u2_stack(theta_steps: int, chi_steps: int):
    """Half-open grid over theta in [0, pi/2) and chi in [0, 2 pi): the
    angles and one theta-major stack, entry i*C + k = u2(theta[i], chi[k]).
    theta = k pi/2 / T puts pi/4 on the grid whenever T is even."""
    if theta_steps < 1 or chi_steps < 1:
        raise ValueError("grid needs at least one step per axis")
    theta = np.pi / 2 * np.arange(theta_steps) / theta_steps
    chi = 2 * np.pi * np.arange(chi_steps) / chi_steps
    a = np.repeat(np.cos(theta), chi_steps)
    b = np.outer(np.sin(theta), np.cos(chi) + 1j * np.sin(chi)).ravel()
    return theta, chi, np.stack([a, b, -b.conj(), a], axis=1).reshape(-1, 2, 2)


def _haar_stack(D: int, rngs) -> np.ndarray:
    """(G, D, D) Haar unitaries, one per generator: each draws its
    complex Gaussian, then one stacked QR and one phase fix serve the
    whole stack (Mezzadri 2007).  Stacked QR runs LAPACK per matrix, so
    each entry is bitwise equal to its own `haar_unitary` call."""
    z = np.array([rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
                  for rng in rngs])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed D x D unitary: QR of a complex Gaussian with the
    R-diagonal phases factored out; the one-matrix case of the stacks
    `min_avg_ent` draws."""
    if D < 1:
        raise ValueError("D must be positive")
    return _haar_stack(D, [rng])[0]


def random_lu_set(s: ModeStructure, seed: int):
    """Independent Haar local unitaries, one per mode; the per-mode rng
    streams are keyed by (seed, mode) so results do not depend on call
    order.  Modes of one dimension share one `_haar_stack` draw."""
    us = {}
    for d in set(s.dims):
        modes = [m for m, dm in enumerate(s.dims, start=1) if dm == d]
        us.update(zip(modes, _haar_stack(d, [np.random.default_rng([seed, m])
                                             for m in modes])))
    return LocalUnitarySet(tuple(us[m] for m in range(1, s.N + 1)))


def as_spectral(state) -> tuple[SpectralState, str]:
    """Coerce to SpectralState plus a provenance note.

    A SpectralState, an MmeState included, is returned as it is, with its
    eigenbasis; a raw DensityMatrix is eigen-decomposed, which leaves the
    basis arbitrary inside any degenerate eigenspace (noted when it
    happens).
    """
    if isinstance(state, SpectralState):
        return state, ""
    if isinstance(state, DensityMatrix):
        spec = spectral(state)
        note = ""
        if len(set(round(w, 12) for w in spec.spectrum)) < spec.rank:
            note = ("degenerate spectral basis: certificate applies to the "
                    "eigenbasis chosen by the solver")
        return spec, note
    raise TypeError(f"cannot take a spectral view of {type(state).__name__}")


@dataclass(frozen=True)
class EntEstimate:
    """min/argmin of the decomposition-averaged entanglement over the
    sampled unitaries, with every sampled average in sampling order."""

    structure: ModeStructure
    strategy: str
    samples: int
    min_avg: float
    argmin: dict = field(default_factory=dict)
    averages: tuple[float, ...] = ()
    notes: str = ""


def min_avg_ent(
    state,
    strategy: str = "grid",
    grid: tuple[int, int] = (20, 20),
    Dmin: int | None = None,
    Dmax: int | None = None,
    samples: int = 100,
    seed: int = 0,
) -> EntEstimate:
    """Minimize the decomposition-averaged entanglement over unitaries.

    `state` may be a SpectralState (an MmeState is one) or a
    DensityMatrix (eigen-decomposed on the fly).

    strategy "grid": rank must be 2; sweeps the u2 half-open grid.
    strategy "random": Haar unitaries, `samples` per D from Dmin..Dmax
    (defaults: rank .. rank**2), streams keyed by (seed, D, i).

    The unitaries are evaluated in stacks of equal D holding at most
    BLOCK_AMPLITUDES member amplitudes.  A Haar stack is drawn when it
    is due, with one stacked QR; its unitaries are bitwise those of
    per-unitary `haar_unitary` calls on the same streams.
    An MME candidate passes when min_avg stays at 1 within tolerance;
    any lower value names the violating unitary in `argmin`.
    """
    state, notes = as_spectral(state)
    s = state.structure

    def block(D: int) -> int:
        return max(1, BLOCK_AMPLITUDES // (D * s.n))

    if strategy == "grid":
        if state.rank != 2:
            raise ValueError(f"grid strategy needs rank 2, got rank {state.rank}")
        theta, chi, Us = _u2_stack(*grid)
        stacks = (Us[a:a + block(2)] for a in range(0, len(Us), block(2)))
    elif strategy == "random":
        lo = state.rank if Dmin is None else int(Dmin)
        hi = state.rank**2 if Dmax is None else int(Dmax)
        if lo < state.rank:
            raise ValueError(f"Dmin={lo} below rank {state.rank}")
        if hi < lo:
            raise ValueError(f"Dmax={hi} below Dmin={lo}")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        stacks = (
            _haar_stack(D, [np.random.default_rng([seed, D, i])
                            for i in range(a, min(a + block(D), samples))])
            for D in range(lo, hi + 1)
            for a in range(0, samples, block(D))
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    avgs = []
    for Us in stacks:
        probs, members = _decompose(state, Us)
        ents = ent_rows(s, members.reshape(-1, s.n)).reshape(probs.shape)
        avgs += (probs * ents).sum(axis=1).tolist()
    k = int(np.argmin(avgs))
    if strategy == "grid":
        argmin = {"theta": float(theta[k // len(chi)]), "chi": float(chi[k % len(chi)])}
    else:
        argmin = {"D": lo + k // samples, "index": k % samples, "seed": seed}
    return EntEstimate(s, strategy, len(avgs), avgs[k], argmin, tuple(avgs), notes)


@dataclass(frozen=True)
class PurityReport:
    """Observed vs expected mode purities across one decomposition."""

    structure: ModeStructure
    L: int
    expected: tuple[float, ...]
    max_deviation: float
    clean: bool


def reduction_purity_report(
    sample: DecompositionSample, L: int | None = None, tol: float = 1e-9
) -> PurityReport:
    """Check every member's mode reductions against the minimal
    single-mode purity floor at L (default: min L* of the structure).

    For genuine MME decompositions every reduction sits exactly on the
    floor, so max_deviation ~ 0 and clean is True.
    """
    s = sample.structure
    if L is None:
        L = lstar(s).min
    expected = tuple(mpsrp_purity(d, L) for d in s.dims)
    kept = [w.amplitudes for w in sample.members if w is not None]
    worst = float(np.abs(mode_purities(s, np.array(kept)) - expected).max())
    return PurityReport(s, L, expected, worst, worst <= tol)


COMPARISON_STRUCTURE = ModeStructure((2, 2, 2, 2))

COMPARISON_KINDS = ("mme", "e_spacewise", "e_selfspace", "separable")


def _two_level_state(a: int, b: int, sign: int) -> PureStateVector:
    s = COMPARISON_STRUCTURE
    amp = np.zeros(s.n, dtype=complex)
    amp[a - 1] = 1 / math.sqrt(2)
    amp[b - 1] = sign / math.sqrt(2)
    return PureStateVector(s, amp)


def comparison_family_spectral(kind: str, spectrum) -> SpectralState:
    """Rank-2 four-qubit reference mixtures sharing a spectrum, for
    side-by-side certification sweeps, with their defining eigenbasis
    attached, which keeps sampling well defined when the spectrum is
    degenerate.

    kind "mme": equal superpositions on levels {1,16} and {4,13}, a
    compatible pair, so the mixture stays maximally entangled;
    kind "e_spacewise": levels {1,16} and {2,15}, level-disjoint but
    too close (neighboring tuples), so entanglement dips below 1;
    kind "e_selfspace": (|1>+|16>)/sqrt2 and (|1>-|16>)/sqrt2, both ME
    but sharing one subspace, so some mixes lose all entanglement;
    kind "separable": the classical mixture of |1><1| and |16><16|.
    """
    s = COMPARISON_STRUCTURE
    spectrum = tuple(float(w) for w in spectrum)
    if len(spectrum) != 2:
        raise ValueError("families are rank 2: give two weights")
    pairs = {
        "mme": (_two_level_state(1, 16, 1), _two_level_state(4, 13, 1)),
        "e_spacewise": (_two_level_state(1, 16, 1), _two_level_state(2, 15, 1)),
        "e_selfspace": (_two_level_state(1, 16, 1), _two_level_state(1, 16, -1)),
        "separable": (basis_state(s, 1), basis_state(s, 16)),
    }
    if kind not in pairs:
        raise ValueError(f"unknown family {kind!r}; pick one of {sorted(pairs)}")
    return SpectralState(s, spectrum, pairs[kind])
