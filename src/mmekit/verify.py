"""Decomposition sampling and entanglement certification.

A rank-R mixed state rho = sum_k lambda_k |Phi_k><Phi_k| has the pure
decompositions {p_j, |w_j>} generated by isometries: for any D >= R and
any D x D unitary U,

    p_j = sum_k |U_jk|^2 lambda_k,
    |w_j> = (1/sqrt(p_j)) sum_k U_jk sqrt(lambda_k) |Phi_k>.

Certifying an MME candidate means showing the decomposition-averaged
entanglement <E> stays at 1 over many such unitaries; a single unitary
pulling <E> below 1 refutes the candidate.

Each member's reductions follow from the eigenstates' cross reductions
X_m^{kl} = tr_{B_m} |Phi_k><Phi_l| onto the small side S_m of mode m's
extreme bipartition (Hughston, Jozsa and Wootters 1993): with
c_k = U_jk sqrt(lambda_k),

    p_j rho_{S_m}(w_j) = sum_{k,l} c_k conj(c_l) X_m^{kl}.

A pure member has one purity on both sides of a bipartition (Schmidt),
and on S_m the cross blocks of a compatible set vanish (`mme.compatible`).
S_m is read off the gathers of `modes._level_table`, the structure's one
cached layout, as every purity of `linalg.mode_purities` is.

`min_avg_ent` computes X once per state (`_cross_reductions`) and reads
every member's reductions off it, one product per stack of unitaries;
no member amplitude is built.  `decompose` builds the members and is the
reference the sampler is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entcore import _ent_of_purities, ent_rows, lstar, mpsrp_purity
from .linalg import (
    ATOL,
    BLOCK_AMPLITUDES,
    DensityMatrix,
    PureStateVector,
    _check_isometry,
    _check_weights,
    basis_state,
    mix,
    mode_purities,
)
from .modes import ModeStructure, _check_int, _check_seed, _level_table
from .tgx import ME_TOL, LocalUnitarySet

P_FLOOR = 1e-14  # decomposition weights below this are dropped as zero
PURITY_TOL = 1e-9  # a member reduction this close to its floor is clean


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
        _check_isometry("eigenstates",
                        np.column_stack([v.amplitudes for v in self.eigenstates]))

    @property
    def rank(self) -> int:
        return len(self.spectrum)

    def matrix(self) -> DensityMatrix:
        return mix(list(self.eigenstates), self.spectrum)


def spectral(rho: DensityMatrix) -> SpectralState:
    """Eigen-decomposition of a density matrix, eigenvalues descending,
    zeros (at most ATOL) dropped."""
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(vals)[::-1]
    spectrum = []
    states = []
    for k in order:
        if vals[k] <= ATOL:
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


def _coefficients(state: SpectralState, Us: np.ndarray):
    """Check a stack of G unitaries, each D x D with D >= rank, and apply
    it to the eigen-ensemble: probabilities (G, D) and coefficients
    c = U[:, :, :rank] sqrt(lambda), (G, D, rank), of the unnormalized
    members sum_k c_k |Phi_k>.

    Only the first `rank` columns act; p_j uses the formula weights, and
    weights below P_FLOOR become 0.
    """
    if Us.ndim != 3 or Us.shape[1] != Us.shape[2]:
        raise ValueError(f"unitary must be square, got shape {Us.shape[1:]}")
    D, R = Us.shape[1], state.rank
    if D < R:
        raise ValueError(f"D={D} is smaller than the rank {R}")
    _check_isometry("unitary", Us)
    lam = np.asarray(state.spectrum)
    probs = np.abs(Us[:, :, :R]) ** 2 @ lam
    return np.where(probs >= P_FLOOR, probs, 0.0), Us[:, :, :R] * np.sqrt(lam)


def decompose(state: SpectralState, unitary: np.ndarray) -> DecompositionSample:
    """Apply one D x D unitary to the eigen-ensemble, D >= rank; members
    with p_j < P_FLOOR keep their slot as None.  Each member is normalized
    by its true norm, so tiny unitarity slack cannot leak into it."""
    U = np.asarray(unitary, dtype=complex)
    probs, coeffs = _coefficients(state, U[None])
    raw = coeffs @ np.array([v.amplitudes for v in state.eigenstates])
    norms = np.where(probs > 0, np.linalg.norm(raw, axis=2), np.inf)
    s = state.structure
    return DecompositionSample(
        s, U, tuple(float(p) for p in probs[0]),
        tuple(PureStateVector(s, w / norm) if p else None
              for p, w, norm in zip(probs[0], raw[0], norms[0])),
    )


def _cross_reductions(state: SpectralState):
    """The reductions of every eigenstate pair onto the small side S_m of
    each mode's extreme bipartition: X, (R*R, sum_m n_S^2), whose row
    k*R + l holds X_m^{kl} = tr_{B_m} |Phi_k><Phi_l| for m = 1..N side by
    side, each n_S x n_S block row-major (per mode, one product of the
    (R n_S, n_B) eigenstate gather by `modes._level_table`, as in
    `mode_purities`, with its adjoint); and the 0/1 matrices, (sum_m
    n_S^2, max(N, 4)), that sum each block's diagonal and all its entries
    into its mode's column."""
    s, R = state.structure, state.rank
    basis = np.array([v.amplitudes for v in state.eigenstates])
    blocks, diagonals = [], []
    for pos in _level_table(s)[3]:
        n_S = len(pos)
        A = basis[:, pos].reshape(R * n_S, -1)
        X = (A @ A.conj().T).reshape(R, n_S, R, n_S).swapaxes(1, 2)
        blocks.append(X.reshape(R * R, -1))
        diagonals.append(np.eye(n_S).ravel())
    entries = np.repeat(np.eye(s.N, max(s.N, 4)), list(map(len, diagonals)), axis=0)
    diagonal = entries * np.concatenate(diagonals)[:, None]
    return np.concatenate(blocks, axis=1), (diagonal, entries)


def _member_purities(s: ModeStructure, c: np.ndarray, X: np.ndarray, sums,
                     kept: np.ndarray) -> np.ndarray:
    """Mode purities (M, N) of the M members with coefficients c (M, R),
    read off the cross reductions X and the summing matrices `sums` of
    `_cross_reductions`.

    The unnormalized reductions are the coefficient pairs c_k conj(c_l)
    times X, formed in row blocks of k to 2k - 1 members, k =
    BLOCK_AMPLITUDES // R^2 (all M members if M < 2k), which bounds the
    working set as the member stacks are.  Each mode's block is
    normalized by its own trace, the member's squared norm; rows not
    `kept` divide by 1, so no 0/0 appears.

    A member's purities do not depend on M or on its row, so how the
    members fall into stacks moves no bit.  On OpenBLAS 0.3.31 (x86-64,
    AVX-512) that held for complex products of at least 2 rows and real
    ones of at least 4 columns: hence no 1-row block (numpy sends it to
    gemv, which rounds differently) unless k = 1, and the summing
    matrices' zero columns, without which 2x8 averages moved.
    """
    M, R = c.shape
    blocks = max(1, M // max(1, BLOCK_AMPLITUDES // (R * R)))
    red = np.empty((M, X.shape[1]), dtype=complex)
    for i in range(blocks):
        a, z = i * M // blocks, (i + 1) * M // blocks
        np.matmul((c[a:z, :, None] * c[a:z, None, :].conj()).reshape(z - a, R * R), X,
                  out=red[a:z])
    diagonal, entries = sums
    tr = np.where(kept[:, None], (red.real @ diagonal)[:, :s.N], 1.0)
    return ((red.real ** 2 + red.imag ** 2) @ entries)[:, :s.N] / tr ** 2


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
    theta_steps = _check_int("theta_steps", theta_steps)
    chi_steps = _check_int("chi_steps", chi_steps)
    if theta_steps < 1 or chi_steps < 1:
        raise ValueError("grid needs at least one step per axis")
    theta = np.pi / 2 * np.arange(theta_steps) / theta_steps
    chi = 2 * np.pi * np.arange(chi_steps) / chi_steps
    a = np.repeat(np.cos(theta), chi_steps)
    b = np.outer(np.sin(theta), np.cos(chi) + 1j * np.sin(chi)).ravel()
    return theta, chi, np.stack([a, b, -b.conj(), a], axis=1).reshape(-1, 2, 2)


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """(G, D, D) Haar unitaries from (G, 2, D, D) standard normals, the
    real and imaginary parts of G complex Gaussians: one stacked QR and
    one phase fix serve the whole stack (Mezzadri 2007).  Stacked QR runs
    LAPACK per matrix, so each entry is bitwise the unitary of its own
    Gaussian alone."""
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed D x D unitary: QR of a complex Gaussian, 2 D^2
    draws of `rng`, real parts first, with the R-diagonal phases factored
    out; the one-matrix case of the stacks `min_avg_ent` draws."""
    if _check_int("D", D) < 1:
        raise ValueError("D must be positive")
    return _haar_stack(rng.standard_normal((1, 2, D, D)))[0]


def random_lu_set(s: ModeStructure, seed: int):
    """Independent Haar local unitaries, one per mode; the per-mode rng
    streams are keyed by (seed, mode) so results do not depend on call
    order.  Modes of one dimension share one `_haar_stack`."""
    seed, us = _check_seed(seed), {}
    for d in set(s.dims):
        modes = [m for m, dm in enumerate(s.dims, start=1) if dm == d]
        z = [np.random.default_rng([seed, m]).standard_normal((2, d, d)) for m in modes]
        us.update(zip(modes, _haar_stack(np.array(z))))
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
    sampled unitaries, with every sampled average in sampling order;
    `argmin` is None when the certificate passes."""

    structure: ModeStructure
    strategy: str
    samples: int
    min_avg: float
    argmin: dict | None = None
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
    (defaults: rank .. rank + 2), drawn from one stream per D,
    `np.random.default_rng([seed, D])`: unitary i of D is the (i+1)-th
    `haar_unitary(D, rng)` call on it, so `argmin` {"D", "index", "seed"}
    rebuilds its unitary alone, and the averages at one D depend neither
    on Dmin and Dmax nor, for its first k, on `samples`.  Grid steps,
    Dmin, Dmax, samples and seed must be integers, seed at least 0.

    The state's cross reductions X (`_cross_reductions`) are computed
    once.  The unitaries are evaluated in stacks of equal D holding at
    most BLOCK_AMPLITUDES member reduction entries, D times the width of
    X a unitary (one unitary at least); how they fall into stacks moves
    no bit of any average.  A Haar stack is drawn when it is due, with
    one Gaussian draw that continues its D's stream and one stacked QR
    (`_haar_stack`); its unitaries are bitwise those of successive
    `haar_unitary` calls on that stream.  Every stack is checked for
    unitarity.  Each stack's member reductions are its coefficient pairs
    c_k conj(c_l) times X (`_member_purities`); no member amplitude is
    built.  That costs R^2 times the width of X, sum_m n_S^2, per member
    against about R n to build the member: cheaper at low rank, several
    times dearer near full rank (ROADMAP, "Measured").  Every average
    agrees with `decompose(...).average_ent()` to roundoff.
    An MME candidate passes when min_avg is at least 1 - ME_TOL (the ME
    tolerance), and `argmin` is then None: roundoff names no violator.
    A lower min_avg names its first violating unitary in `argmin`.
    """
    seed = _check_seed(seed)
    state, notes = as_spectral(state)
    s = state.structure
    X, sums = _cross_reductions(state)

    def block(D: int) -> int:
        return max(1, BLOCK_AMPLITUDES // (D * X.shape[1]))

    if strategy == "grid":
        if state.rank != 2:
            raise ValueError(f"grid strategy needs rank 2, got rank {state.rank}")
        theta, chi, Us = _u2_stack(*grid)
        stacks = (Us[a:a + block(2)] for a in range(0, len(Us), block(2)))
    elif strategy == "random":
        lo = state.rank if Dmin is None else _check_int("Dmin", Dmin)
        hi = state.rank + 2 if Dmax is None else _check_int("Dmax", Dmax)
        samples = _check_int("samples", samples)
        if lo < state.rank:
            raise ValueError(f"Dmin={lo} below rank {state.rank}")
        if hi < lo:
            raise ValueError(f"Dmax={hi} below Dmin={lo}")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        stacks = (
            _haar_stack(rng.standard_normal((min(block(D), samples - a), 2, D, D)))
            for D in range(lo, hi + 1)
            for rng in [np.random.default_rng([seed, D])]
            for a in range(0, samples, block(D))
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    avgs = []
    for stack in stacks:
        probs, c = _coefficients(state, stack)
        ents = _ent_of_purities(s, _member_purities(
            s, c.reshape(-1, state.rank), X, sums, probs.reshape(-1) > 0))
        avgs += (probs * ents.reshape(probs.shape)).sum(axis=1).tolist()
    k = int(np.argmin(avgs))
    if avgs[k] >= 1.0 - ME_TOL:
        argmin = None
    elif strategy == "grid":
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
    sample: DecompositionSample, L: int | None = None
) -> PurityReport:
    """Check every member's mode reductions against the minimal
    single-mode purity floor at L (default: min L* of the structure).

    For genuine MME decompositions every reduction sits exactly on the
    floor, so max_deviation ~ 0 and clean is True (within PURITY_TOL).
    """
    s = sample.structure
    if L is None:
        L = lstar(s).min
    expected = tuple(mpsrp_purity(d, L) for d in s.dims)
    kept = [w.amplitudes for w in sample.members if w is not None]
    worst = float(np.abs(mode_purities(s, np.array(kept)) - expected).max())
    return PurityReport(s, L, expected, worst, worst <= PURITY_TOL)


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
