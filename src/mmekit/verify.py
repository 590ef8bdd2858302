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
every member's reductions off the Hermitian half (a <= b) of its blocks,
one product per pass of unitaries of one or more D, R^2 sum_m n_S(n_S +
1)/2 entries a member; no member amplitude is built.  `decompose` builds
the members and is the reference the sampler is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .entcore import _ent_of_purities, ent_rows, lstar, mpsrp_purity
from .linalg import (
    ATOL,
    BLOCK_AMPLITUDES,
    DensityMatrix,
    PureStateVector,
    _check_isometry,
    _check_weights,
    mix,
    mode_purities,
)
from .modes import MAX_N, ModeStructure, _check_int, _level_table
from .tgx import ME_TOL, LocalUnitarySet, _superpositions

P_FLOOR = 1e-14  # decomposition weights below this are dropped as zero
PURITY_TOL = 1e-9  # a member reduction this close to its floor is clean
GRID_STEPS = 20  # theta and chi steps of the one u2 grid: 400 unitaries


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Eigen-decomposition {lambda_k, |Phi_k>} feeding the sampler.

    The basis matters when eigenvalues repeat: numerical re-
    diagonalization may then rotate within an eigenspace, so states
    built from known eigenstates should pass them in directly.

    `basis` holds the eigenstates' amplitudes, row k for |Phi_k>: any
    (R, n) array-like, copied once into a read-only complex array and
    checked orthonormal; `eigenstates` wraps its rows when asked.
    `spectrum` is kept as the floats `linalg._check_weights` reads.  The
    sampler reads only the ensemble, never rho: `matrix()` returns the
    DensityMatrix of this ensemble, whose rho is mixed when first read
    (`linalg.mix`); `as_spectral` takes the other way, rho to ensemble.
    """

    structure: ModeStructure
    spectrum: tuple[float, ...]
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.structure.n
        try:
            basis = np.array(self.basis, dtype=complex)
        except ValueError:  # rows of different lengths, or entries that are not numbers
            raise ValueError(f"basis of {self.structure} must be (R, {n}), "
                             "got ragged or non-numeric rows") from None
        if basis.ndim != 2 or basis.shape[1] != n:
            raise ValueError(f"basis of {self.structure} must be (R, {n}), got {basis.shape}")
        object.__setattr__(self, "spectrum", _check_weights(self.spectrum, len(basis)))
        _check_isometry("eigenstates", basis.T)
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return len(self.spectrum)

    @property
    def eigenstates(self) -> tuple[PureStateVector, ...]:
        return tuple(PureStateVector(self.structure, row) for row in self.basis)

    def matrix(self) -> DensityMatrix:
        """rho as a DensityMatrix whose `entries` are mixed (`mix`) when
        first read and then kept; the ensemble was checked here, so the
        DensityMatrix checks are not run again."""
        return _MixedOnRead(self)


class _MixedOnRead(DensityMatrix):
    """The DensityMatrix of a SpectralState; rho is mixed when first read.
    The one DensityMatrix not built by `DensityMatrix.__init__`."""

    def __init__(self, state: SpectralState):
        self.structure, self._state = state.structure, state

    @cached_property
    def entries(self) -> np.ndarray:
        return mix(self._state)


@dataclass(frozen=True, eq=False)
class DecompositionSample:
    """One decomposition {p_j, |w_j>}: `amplitudes` holds member j in
    row j, a zero row when p_j = 0; `members` wraps the rows, None for
    p_j = 0, and averages exclude those members."""

    structure: ModeStructure
    probabilities: tuple[float, ...]
    amplitudes: np.ndarray = field(repr=False)

    @property
    def D(self) -> int:
        return len(self.probabilities)

    @property
    def members(self) -> tuple[PureStateVector | None, ...]:
        return tuple(PureStateVector(self.structure, w) if p else None
                     for p, w in zip(self.probabilities, self.amplitudes))

    def average_ent(self) -> float:
        probs = np.array(self.probabilities)
        kept = probs > 0
        return float(np.dot(probs[kept], ent_rows(self.structure, self.amplitudes[kept])))


def _coefficients(state: SpectralState, Us: np.ndarray):
    """Apply a stack of G unitaries, each D x D with D >= rank and checked
    where it entered, to the eigen-ensemble: probabilities (G, D) and
    coefficients c = U[:, :, :rank] sqrt(lambda), (G, D, rank), of the
    unnormalized members sum_k c_k |Phi_k>.

    Only the first `rank` columns act; p_j uses the formula weights, and
    weights below P_FLOOR become 0.
    """
    if Us.ndim != 3 or Us.shape[1] != Us.shape[2]:
        raise ValueError(f"unitary must be square, got shape {Us.shape[1:]}")
    D, R = Us.shape[1], state.rank
    if D < R:
        raise ValueError(f"D={D} is smaller than the rank {R}")
    lam = np.asarray(state.spectrum)
    probs = np.abs(Us[:, :, :R]) ** 2 @ lam
    return np.where(probs >= P_FLOOR, probs, 0.0), Us[:, :, :R] * np.sqrt(lam)


def decompose(state: SpectralState, unitary: np.ndarray) -> DecompositionSample:
    """Apply one D x D unitary to the eigen-ensemble, D >= rank; member
    j is amplitude row j, a zero row if p_j < P_FLOOR.  Each member is
    normalized by its true norm, so unitarity slack cannot leak into it."""
    U = np.asarray(unitary, dtype=complex)
    probs, coeffs = _coefficients(state, U[None])
    _check_isometry("unitary", U)
    raw = coeffs[0] @ state.basis
    norms = np.where(probs[0] > 0, np.linalg.norm(raw, axis=1), np.inf)
    return DecompositionSample(state.structure, tuple(float(p) for p in probs[0]),
                               raw / norms[:, None])


def _cross_reductions(state: SpectralState):
    """The reductions of every eigenstate pair onto the small side S_m of
    each mode's extreme bipartition: X, (R*R, sum_m n_S^2), whose row
    k*R + l holds X_m^{kl} = tr_{B_m} |Phi_k><Phi_l| for m = 1..N side by
    side, each n_S x n_S block row-major (per mode, one product of the
    (R n_S, n_B) eigenstate gather by `modes._level_table`, as in
    `mode_purities`, with its adjoint)."""
    s, R = state.structure, state.rank
    blocks = []
    for pos in _level_table(s)[3]:
        n_S = len(pos)
        A = state.basis[:, pos].reshape(R * n_S, -1)
        X = (A @ A.conj().T).reshape(R, n_S, R, n_S).swapaxes(1, 2)
        blocks.append(X.reshape(R * R, -1))
    return np.concatenate(blocks, axis=1)


@lru_cache(maxsize=None)
def _summing_matrices(s: ModeStructure):
    """The columns of a `_cross_reductions` row with a <= b in each n_S x
    n_S block, its Hermitian half, and the matrices (diagonal, entries),
    (columns, max(N, 4)), that sum each half block into its mode's column:
    the trace weighs the diagonal 1, the purity the diagonal 1 and each
    upper entry 2, for its mirror; built once per structure, read-only."""
    n_S = [len(pos) for pos in _level_table(s)[3]]
    half = [np.triu_indices(n) for n in n_S]
    start = np.cumsum([0] + [n * n for n in n_S])
    cols = np.concatenate([o + a * n + b for o, n, (a, b) in zip(start, n_S, half)])
    on_diagonal = np.concatenate([a == b for a, b in half])[:, None]
    entries = np.repeat(np.eye(s.N, max(s.N, 4)), [len(a) for a, _ in half], axis=0)
    diagonal, entries = entries * on_diagonal, entries * (2.0 - on_diagonal)
    cols.flags.writeable = diagonal.flags.writeable = entries.flags.writeable = False
    return cols, diagonal, entries


def _stack_averages(state: SpectralState, X: np.ndarray, stacks) -> np.ndarray:
    """Decomposition-averaged entanglement of each unitary of one pass, a
    list of stacks that may hold several D, in order, read off the
    Hermitian half X[:, cols] of the cross reductions (`_cross_reductions`,
    `_summing_matrices`); no member amplitude is built.

    The coefficient rows of the pass's M members are concatenated, and
    their unnormalized reductions are the pairs c_k conj(c_l) times X,
    formed in row blocks of k to 2k - 1 members, k = max(1,
    BLOCK_AMPLITUDES // R^2) (all M members if M < 2k): a block holds
    under 2 BLOCK_AMPLITUDES pairs, or one member's R^2 when R^2 passes
    BLOCK_AMPLITUDES.  Each mode's block is normalized by its own trace,
    the member's squared norm; members of weight 0 divide by 1, so no 0/0
    appears.  That costs R^2 sum_m n_S(n_S + 1)/2 per member against about
    R n to build the member: cheaper at low rank, several times dearer
    near full rank (ROADMAP, "Measured").  The member ents are split back
    per stack and weighed per unitary.  Each average agrees with
    `decompose(...).average_ent()` to roundoff.

    A member's purities do not depend on M or on its row, so how the
    unitaries fall into stacks and passes moves no bit.  On OpenBLAS
    0.3.31 (x86-64, AVX-512) that held for complex products of at least 2
    rows and real ones of at least 4 columns: hence no 1-row block (numpy
    sends it to gemv, which rounds differently) unless k = 1, and the
    summing matrices' zero columns, without which 2x8 averages moved.
    """
    s, R = state.structure, state.rank
    drawn = [_coefficients(state, Us) for Us in stacks]
    c = np.concatenate([c.reshape(-1, R) for _, c in drawn])
    M, probs = len(c), np.concatenate([p.reshape(-1) for p, _ in drawn])
    blocks = max(1, M // max(1, BLOCK_AMPLITUDES // (R * R)))
    red = np.empty((M, X.shape[1]), dtype=complex)
    for i in range(blocks):
        a, z = i * M // blocks, (i + 1) * M // blocks
        np.matmul((c[a:z, :, None] * c[a:z, None, :].conj()).reshape(z - a, R * R), X,
                  out=red[a:z])
    _, diagonal, entries = _summing_matrices(s)
    tr = np.where(probs[:, None] > 0, (red.real @ diagonal)[:, :s.N], 1.0)
    ents = _ent_of_purities(s, ((red.real ** 2 + red.imag ** 2) @ entries)[:, :s.N] / tr ** 2)
    weighed, avgs = probs * ents, []
    for p, _ in drawn:
        avgs.append(weighed[:p.size].reshape(p.shape).sum(axis=1))
        weighed = weighed[p.size:]
    return np.concatenate(avgs)


def u2(theta: float, chi: float) -> np.ndarray:
    """One-parameter-pair 2x2 unitary [[a, b], [-conj(b), conj(a)]] with
    a = cos(theta), b = sin(theta) e^{i chi}."""
    a = math.cos(theta)
    b = math.sin(theta) * complex(math.cos(chi), math.sin(chi))
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)


@lru_cache(maxsize=None)
def _u2_grid():
    """The one half-open grid over theta in [0, pi/2) and chi in [0, 2 pi):
    the angles and one theta-major stack, entry i*C + k = u2(theta[i],
    chi[k]), built and checked for unitarity once per process, read-only.
    theta = k pi/40 puts pi/4 on the grid."""
    theta = np.pi / 2 * np.arange(GRID_STEPS) / GRID_STEPS
    chi = 2 * np.pi * np.arange(GRID_STEPS) / GRID_STEPS
    a = np.repeat(np.cos(theta), GRID_STEPS)
    b = np.outer(np.sin(theta), np.cos(chi) + 1j * np.sin(chi)).ravel()
    Us = np.stack([a, b, -b.conj(), a], axis=1).reshape(-1, 2, 2)
    _check_isometry("unitary", Us)
    theta.flags.writeable = chi.flags.writeable = Us.flags.writeable = False
    return theta, chi, Us


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
    D = _check_int("D", D, least=1)
    return _haar_stack(rng.standard_normal((1, 2, D, D)))[0]


def random_lu_set(s: ModeStructure, seed: int):
    """Independent Haar local unitaries, one per mode; the per-mode rng
    streams are keyed by (seed, mode) so results do not depend on call
    order.  Modes of one dimension share one `_haar_stack`."""
    seed, us = _check_int("lu_seed", seed, least=0), {}
    for d in set(s.dims):
        modes = [m for m, dm in enumerate(s.dims, start=1) if dm == d]
        z = [np.random.default_rng([seed, m]).standard_normal((2, d, d)) for m in modes]
        us.update(zip(modes, _haar_stack(np.array(z))))
    return LocalUnitarySet(tuple(us[m] for m in range(1, s.N + 1)))


def as_spectral(state) -> tuple[SpectralState, str]:
    """Coerce to SpectralState plus a provenance note; the one way from
    rho to its ensemble.

    A SpectralState, an MmeState included, is returned as it is, with its
    eigenbasis.  A DensityMatrix is eigen-decomposed: eigenvalues
    descending, zeros (at most ATOL) dropped, the rest renormalized.  That
    leaves the basis arbitrary inside any degenerate eigenspace, which the
    note says when it happens.
    """
    if isinstance(state, SpectralState):
        return state, ""
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"cannot take a spectral view of {type(state).__name__}")
    vals, vecs = np.linalg.eigh(state.entries)
    order = [k for k in np.argsort(vals)[::-1] if not vals[k] <= ATOL]
    total = sum(float(vals[k]) for k in order)
    spec = SpectralState(state.structure, tuple(float(vals[k]) / total for k in order),
                         [vecs[:, k] / np.linalg.norm(vecs[:, k]) for k in order])
    note = ""
    if len(set(round(w, 12) for w in spec.spectrum)) < spec.rank:
        note = ("degenerate spectral basis: certificate applies to the "
                "eigenbasis chosen by the solver")
    return spec, note


@dataclass(frozen=True)
class EntEstimate:
    """min/argmin of the decomposition-averaged entanglement over the
    `samples` unitaries evaluated; `argmin` is None when it passes."""

    structure: ModeStructure
    strategy: str
    samples: int
    min_avg: float
    argmin: dict | None = None
    notes: str = ""


def min_avg_ent(
    state,
    strategy: str = "grid",
    Dmin: int | None = None,
    Dmax: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> EntEstimate:
    """Minimize the decomposition-averaged entanglement over unitaries.

    `state` may be a SpectralState (an MmeState is one) or a
    DensityMatrix (eigen-decomposed on the fly).

    strategy "grid": rank 2 only, and none of Dmin, Dmax, samples, seed;
    sweeps the one u2 grid of `_u2_grid`, GRID_STEPS^2 = 400 unitaries.
    strategy "random": Haar unitaries, `samples` (default 100) per D from
    Dmin..Dmax (defaults: rank .. rank + 2), drawn from one stream per D,
    `np.random.default_rng([seed, D])`, seed 0 by default: unitary i of D
    is the (i+1)-th `haar_unitary(D, rng)` call on it, so `argmin` {"D",
    "index", "seed"} rebuilds its unitary alone, and the averages at one D
    depend neither on Dmin and Dmax nor, for its first k, on `samples`.
    Dmin, Dmax, samples and seed are integers read by `modes._check_int`
    with their bounds: samples at least 1, seed at least 0 and a given Dmin
    or Dmax at most MAX_N + 2, the largest default (rank + 2 at n = MAX_N),
    and a given Dmin at least the rank.  Dmax below Dmin is refused with
    one text that names a default among them as one.  Sizes that could never finish
    are refused before anything is drawn: the Dmax bound, and more than
    MAX_N^4 units of work, samples times the sum over D of max(MAX_N^2,
    D (R^2 c + D^2)), a unitary's pass product over the c columns of the
    Hermitian half and its QR: a cheap state keeps MAX_N^2 unitaries.

    X (`_cross_reductions`) and the Hermitian half of its blocks are taken
    once.  The unitaries come in stacks of equal D holding at most
    BLOCK_AMPLITUDES member reduction entries, D times the full width of X
    a unitary (one unitary at least), and consecutive stacks of any D share
    one `_stack_averages` pass while their entries stay within it; how the
    unitaries fall into stacks and passes moves no bit of any average.  A
    Haar stack is drawn as its pass is filled: one Gaussian draw that
    continues its D's stream and one stacked QR (`_haar_stack`), bitwise
    the unitaries of successive `haar_unitary` calls on that stream, each
    checked for unitarity as drawn; the grid is checked once per process,
    when `_u2_grid` builds it.  Of each pass only the running minimum, its
    first index and the count are kept: memory does not grow with the
    unitaries.
    An MME candidate passes when min_avg is at least 1 - ME_TOL (the ME
    tolerance), and `argmin` is then None: roundoff names no violator.
    A lower min_avg names its first violating unitary in `argmin`.
    """
    if strategy not in ("grid", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    for k, v in {"samples": samples, "Dmin": Dmin, "Dmax": Dmax, "seed": seed}.items():
        if strategy == "grid" and v is not None:
            raise ValueError(f"{k} does not apply to strategy 'grid'")
    seed = 0 if seed is None else _check_int("seed", seed, least=0)
    state, notes = as_spectral(state)
    X = _cross_reductions(state)
    R, width, X = state.rank, X.shape[1], X[:, _summing_matrices(state.structure)[0]]

    def block(D: int) -> int:
        return max(1, BLOCK_AMPLITUDES // (D * width))

    if strategy == "grid":
        if R != 2:
            raise ValueError(f"grid strategy needs rank 2, got rank {R}")
        theta, chi, Us = _u2_grid()
        stacks = (Us[a:a + block(2)] for a in range(0, len(Us), block(2)))
    else:
        hi = R + 2 if Dmax is None else _check_int("Dmax", Dmax, most=MAX_N + 2)
        lo = R if Dmin is None else _check_int("Dmin", Dmin, least=R, most=MAX_N + 2)
        samples = 100 if samples is None else _check_int("samples", samples, least=1)
        if hi < lo:  # at most one of them is a default, and the text says which
            raise ValueError(f"Dmax={hi}{' (the default, rank + 2)' if Dmax is None else ''} "
                             f"below Dmin={lo}{' (the default, the rank)' if Dmin is None else ''}"
                             f"; give Dmax >= {lo}")
        work = samples * sum(max(MAX_N ** 2, D * (R * R * X.shape[1] + D * D))
                             for D in range(lo, hi + 1))
        if work > MAX_N ** 4:
            raise ValueError(f"samples={samples} at D={lo}..{hi} is {work} units of work, "
                             f"above the limit of {MAX_N ** 4}")

        def haar_stacks():
            for D in range(lo, hi + 1):
                rng, k = np.random.default_rng([seed, D]), block(D)
                for a in range(0, samples, k):
                    Us = _haar_stack(rng.standard_normal((min(k, samples - a), 2, D, D)))
                    _check_isometry("unitary", Us)
                    yield Us
        stacks = haar_stacks()

    def passes():
        held = []
        for Us in stacks:
            if held and width * sum(len(V) * len(V[0]) for V in (*held, Us)) > BLOCK_AMPLITUDES:
                yield held
                held = []
            held.append(Us)
        yield held

    best, k, count = math.inf, 0, 0
    for held in passes():
        avgs = _stack_averages(state, X, held)
        j = int(np.argmin(avgs))
        if best == best and not best <= avgs[j]:  # a NaN is kept, as np.argmin keeps it
            best, k = float(avgs[j]), count + j
        count += len(avgs)
    if best >= 1.0 - ME_TOL:
        argmin = None
    elif strategy == "grid":
        argmin = {"theta": float(theta[k // len(chi)]), "chi": float(chi[k % len(chi)])}
    else:
        argmin = {"D": lo + k // samples, "index": k % samples, "seed": seed}
    return EntEstimate(state.structure, strategy, count, best, argmin, notes)


@dataclass(frozen=True)
class PurityReport:
    """Observed vs expected mode purities across one decomposition."""

    structure: ModeStructure
    L: int
    expected: tuple[float, ...]
    max_deviation: float
    clean: bool


def reduction_purity_report(sample: DecompositionSample) -> PurityReport:
    """Check every member's mode reductions against the minimal
    single-mode purity floor at L, the structure's min L*.

    For genuine MME decompositions every reduction sits exactly on the
    floor, so max_deviation ~ 0 and clean is True (within PURITY_TOL).
    """
    s = sample.structure
    L = lstar(s).min
    expected = tuple(mpsrp_purity(d, L) for d in s.dims)
    kept = sample.amplitudes[np.array(sample.probabilities) > 0]
    worst = float(np.abs(mode_purities(s, kept) - expected).max())
    return PurityReport(s, L, expected, worst, worst <= PURITY_TOL)


COMPARISON_STRUCTURE = ModeStructure((2, 2, 2, 2))

# The two eigenstates' level sets per family, each row an equal superposition.
COMPARISON_LEVELS = {
    "mme": ((1, 16), (4, 13)),
    "e_spacewise": ((1, 16), (2, 15)),
    "e_selfspace": ((1, 16), (1, 16)),
    "separable": ((1,), (16,)),
}

COMPARISON_KINDS = tuple(COMPARISON_LEVELS)


def comparison_family_spectral(kind: str, spectrum) -> SpectralState:
    """Rank-2 four-qubit reference mixtures sharing a spectrum, for
    side-by-side certification sweeps, with their defining eigenbasis
    attached, which keeps sampling well defined when the spectrum is
    degenerate.  The eigenstates are the TGX superpositions of
    COMPARISON_LEVELS (`tgx._superpositions`), built for `kind` alone.

    kind "mme": equal superpositions on levels {1,16} and {4,13}, a
    compatible pair, so the mixture stays maximally entangled;
    kind "e_spacewise": levels {1,16} and {2,15}, level-disjoint but
    too close (neighboring tuples), so entanglement dips below 1;
    kind "e_selfspace": (|1>+|16>)/sqrt2 and (|1>-|16>)/sqrt2, both ME
    but sharing one subspace, so some mixes lose all entanglement;
    kind "separable": the classical mixture of |1><1| and |16><16|.
    """
    if kind not in COMPARISON_LEVELS:
        raise ValueError(f"unknown family {kind!r}; pick one of {sorted(COMPARISON_LEVELS)}")
    s = COMPARISON_STRUCTURE
    amps = _superpositions(s.n, COMPARISON_LEVELS[kind])
    if kind == "e_selfspace":
        amps[1, 15] *= -1
    return SpectralState(s, spectrum, amps)
