from __future__ import annotations

import contextlib
import io
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmekit.cli import _structures_upto, main
from mmekit.entcore import ent_pure
from mmekit.linalg import (
    DensityMatrix,
    PureStateVector,
    mode_purities,
    mode_reduction_of_pure,
)
from mmekit.mme import construct, max_mme_rank
from mmekit import modes, verify
from mmekit.modes import ModeStructure, parse_dims
from mmekit.tgx import ME_TOL
from mmekit.verify import (
    COMPARISON_KINDS,
    SpectralState,
    as_spectral,
    comparison_family_spectral,
    decompose,
    haar_unitary,
    min_avg_ent,
    random_lu_set,
    reduction_purity_report,
    u2,
)

from reference_values import (
    CERTIFICATE_STATES,
    EXAMPLE_SETS,
    EXAMPLE_SETS_LARGER,
    QUBIT_SETS,
    SPACEWISE_GRID_MIN_BALANCED,
    WITNESS_4X4X4X4,
)
from test_linalg import _basis_state, _einsum_partial_trace


def _certificate(dims: tuple[int, ...]) -> SpectralState:
    state, _ = construct(ModeStructure(dims), CERTIFICATE_STATES[dims], (0.7, 0.3))
    spec, note = as_spectral(state)
    assert note == ""
    return spec


def _rows(*states: PureStateVector) -> np.ndarray:
    """The (R, n) basis whose rows are the given states' amplitudes."""
    return np.array([v.amplitudes for v in states])


def _with_averages(state, **kwargs):
    """`min_avg_ent(state, **kwargs)` and every average it evaluated, in
    sampling order: the arrays `_stack_averages` returned, concatenated."""
    arrays = []
    stack_averages = verify._stack_averages

    def spy(*args):
        arrays.append(stack_averages(*args))
        return arrays[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_stack_averages", spy)
        est = min_avg_ent(state, **kwargs)
    return est, np.concatenate(arrays).tolist()


def test_spectral_state_validation() -> None:
    s = ModeStructure((2, 2))
    e1, e4 = _basis_state(s, 1), _basis_state(s, 4)
    SpectralState(s, (0.7, 0.3), _rows(e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.3, 0.0), _rows(e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (1.3, -0.3), _rows(e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.2), _rows(e1, e4))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SpectralState(s, (bad, 0.3), _rows(e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.3), _rows(e1, e1))
    other = ModeStructure((2, 3))
    with pytest.raises(ValueError, match=r"must be \(R, 4\)"):
        SpectralState(s, (0.7, 0.3), _rows(_basis_state(other, 1), _basis_state(other, 2)))


_S22 = ModeStructure((2, 2))


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 5), (1, 2, 4)])
def test_spectral_state_refuses_a_basis_of_the_wrong_shape(shape) -> None:
    # a 1-D basis, n - 1 or n + 1 columns, or a stack of bases
    with pytest.raises(ValueError, match=r"2x2 must be \(R, 4\), got " + re.escape(str(shape))):
        SpectralState(_S22, (1.0,), np.zeros(shape))


@pytest.mark.parametrize("rows", [[np.eye(4)[0], np.eye(6)[1]], [[1, 0, 0, 0], ["x", 1, 0, 0]]])
def test_spectral_state_refuses_ragged_or_non_numeric_rows(rows) -> None:
    # rows of lengths 4 and 6 make no (R, n) array
    with pytest.raises(ValueError, match=r"2x2 must be \(R, 4\), got ragged or non-numeric rows"):
        SpectralState(_S22, (0.5, 0.5), rows)


@pytest.mark.parametrize("build,bad", [
    (lambda: SpectralState(_S22, (True,), _rows(_basis_state(_S22, 1))), "True"),
    (lambda: SpectralState(_S22, (0.5, True), np.eye(4)[:2]), "True"),
    (lambda: comparison_family_spectral("mme", ("0.5", "0.5")), "'0.5'"),
])
def test_weights_that_are_not_numbers_are_refused(build, bad) -> None:
    # a bool was read as 1.0 and a string parsed
    with pytest.raises(ValueError, match=f"weight={bad} is not a number"):
        build()


def test_spectral_state_keeps_its_weights_as_floats() -> None:
    e1, e4 = _basis_state(_S22, 1), _basis_state(_S22, 4)
    state = SpectralState(_S22, [np.float64(0.75), Fraction(1, 4)], _rows(e1, e4))
    assert state.spectrum == (0.75, 0.25)
    assert all(type(w) is float for w in state.spectrum)


def test_spectral_state_keeps_one_read_only_basis() -> None:
    s = ModeStructure((2, 2, 2, 2))
    state, _ = construct(s, [(1, 16), (4, 13)], (0.7, 0.3), random_lu_set(s, 2))
    stacked = np.array([v.amplitudes for v in state.eigenstates])
    assert state.basis.shape == (2, 16) and not state.basis.flags.writeable
    assert np.array_equal(state.basis, stacked)
    plain = SpectralState(s, state.spectrum, state.basis)
    assert np.array_equal(plain.basis, SpectralState(s, state.spectrum, state.basis).basis)
    with pytest.raises(ValueError, match="read-only"):
        state.basis[0, 0] = 0.0


def test_spectral_states_keep_no_buffer_of_the_caller() -> None:
    # the basis is copied once where it enters, so the caller's array,
    # spectrum or density matrix can change without moving a stored bit
    basis = haar_unitary(4, np.random.default_rng(3))[:2]
    spectrum = np.array([0.6, 0.4])
    state = SpectralState(_S22, spectrum, basis)
    family = comparison_family_spectral("mme", spectrum)
    rho = state.matrix()
    spec = as_spectral(rho)[0]
    kept = [(x.basis.copy(), x.spectrum) for x in (state, family, spec)]
    basis[:] = 0.0
    spectrum[:] = 0.5
    rho.entries[:] = 0.0
    for x, (b, w) in zip((state, family, spec), kept):
        assert np.array_equal(x.basis, b) and x.spectrum == w
        assert not x.basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x.basis[0, 0] = 1.0


def test_spectral_round_trip_descending() -> None:
    s = ModeStructure((2, 2))
    e2, e3 = _basis_state(s, 2), _basis_state(s, 3)
    rho = SpectralState(s, (0.3, 0.7), _rows(e2, e3)).matrix()
    spec = as_spectral(rho)[0]
    assert spec.spectrum == pytest.approx((0.7, 0.3))
    assert spec.rank == 2
    assert np.allclose(spec.matrix().entries, rho.entries, atol=1e-12)
    assert abs(spec.eigenstates[0].amplitudes[2]) == pytest.approx(1.0)


def test_spectral_drops_zero_eigenvalues() -> None:
    s = ModeStructure((2, 2))
    spec = as_spectral(DensityMatrix(s, np.diag([1.0, 0.0, 0.0, 0.0])))[0]
    assert spec.rank == 1
    assert spec.spectrum == pytest.approx((1.0,))


def test_decompose_identity_recovers_eigenstates() -> None:
    spec = _certificate((2, 5))
    sample = decompose(spec, np.eye(2))
    assert sample.D == 2
    assert sample.probabilities == pytest.approx((0.7, 0.3))
    for member, eigen in zip(sample.members, spec.eigenstates):
        assert abs(np.vdot(member.amplitudes, eigen.amplitudes)) == pytest.approx(1.0)


def test_decompose_probability_formula() -> None:
    spec = _certificate((2, 5))
    U = haar_unitary(3, np.random.default_rng(42))
    sample = decompose(spec, U)
    lam = np.array(spec.spectrum)
    for j in range(3):
        manual = float(np.sum(np.abs(U[j, :2]) ** 2 * lam))
        assert sample.probabilities[j] == pytest.approx(manual, abs=1e-15)
    assert sum(sample.probabilities) == pytest.approx(1.0)


def test_decompose_reconstructs_state() -> None:
    rng = np.random.default_rng(7)
    s = ModeStructure((2, 3))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = DensityMatrix(s, (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    spec = as_spectral(rho)[0]
    for i in range(50):
        D = spec.rank + int(rng.integers(0, 3))
        U = haar_unitary(D, rng)
        sample = decompose(spec, U)
        rebuilt = sum(
            p * np.outer(w.amplitudes, w.amplitudes.conj())
            for p, w in zip(sample.probabilities, sample.members)
            if w is not None
        )
        assert np.abs(rebuilt - rho.entries).max() < 1e-10, i


def test_decompose_zero_probability_member_is_none() -> None:
    s = ModeStructure((2, 2))
    spec = SpectralState(s, (1.0,), _rows(_basis_state(s, 1)))
    sample = decompose(spec, np.eye(2))
    assert sample.probabilities == (1.0, 0.0)
    assert sample.members[1] is None
    assert sample.average_ent() == pytest.approx(0.0)
    # one amplitude row per member, zero exactly where p_j = 0
    assert sample.amplitudes.shape == (2, 4)
    assert not sample.amplitudes[1].any() and sample.amplitudes[0, 0] == 1.0
    for x in (_certificate((2, 5)), comparison_family_spectral("mme", (0.7, 0.3))):
        U = np.eye(x.rank + 2, dtype=complex)
        U[:2, :2] = u2(0.3, 1.1)
        sample = decompose(x, U)
        dropped = [w is None for w in sample.members]
        assert dropped == [p == 0 for p in sample.probabilities] == [False] * 2 + [True] * 2
        assert dropped == [not row.any() for row in sample.amplitudes]


def test_decompose_validation() -> None:
    spec = _certificate((2, 5))
    with pytest.raises(ValueError):
        decompose(spec, np.ones((2, 3)))
    with pytest.raises(ValueError):
        decompose(spec, np.eye(1))
    with pytest.raises(ValueError):
        decompose(spec, np.ones((2, 2)))
    # entry by entry within 1e-10, no relative slack: these probabilities
    # would sum to 1.0000056
    with pytest.raises(ValueError, match="unitary: columns not orthonormal within 1e-10"):
        decompose(spec, np.diag([1 + 4e-6, 1]))


def test_u2_values() -> None:
    assert np.allclose(u2(0.0, 0.0), np.eye(2), atol=1e-15)
    m = u2(math.pi / 4, 0.0)
    r = 1 / math.sqrt(2)
    assert np.allclose(m, [[r, r], [-r, r]], atol=1e-15)
    for theta, chi in [(0.3, 1.1), (1.2, 4.0)]:
        m = u2(theta, chi)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


def test_u2_grid_shape_and_coverage() -> None:
    thetas, chis, stack = verify._u2_grid(20, 20)
    assert stack.shape == (400, 2, 2)
    for i in range(20):
        for k in range(20):
            theta, chi = math.pi / 2 * i / 20, 2 * math.pi * k / 20
            assert (thetas[i], chis[k]) == (theta, chi)
            # theta-major, each entry exactly the scalar u2 of its angles
            assert np.array_equal(stack[i * 20 + k], u2(theta, chi))
    assert math.pi / 4 in thetas  # even theta_steps lands exactly on pi/4
    assert 0.0 in thetas and 0.0 in chis
    assert max(thetas) < math.pi / 2
    assert max(chis) < 2 * math.pi
    # one cached grid, keyed on the checked ints, shared read-only
    assert verify._u2_grid(np.int64(20), 20)[2] is stack
    for array in (thetas, chis, stack):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    spec = comparison_family_spectral("mme", (0.7, 0.3))
    with pytest.raises(ValueError, match="theta_steps=20.0 is not an integer"):
        min_avg_ent(spec, strategy="grid", grid=(20.0, 20))
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="grid", grid=(0, 20))
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="grid", grid=(20, 0))


def test_haar_unitary_deterministic_and_unitary() -> None:
    a = haar_unitary(4, np.random.default_rng(9))
    b = haar_unitary(4, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.abs(a.conj().T @ a - np.eye(4)).max() < 1e-12
    assert haar_unitary(1, np.random.default_rng(0)).shape == (1, 1)
    with pytest.raises(ValueError):
        haar_unitary(0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="D=2.0 is not an integer"):
        haar_unitary(2.0, np.random.default_rng(0))
    assert haar_unitary(np.int64(2), np.random.default_rng(0)).shape == (2, 2)


def test_haar_unitary_first_moment() -> None:
    # E|U_00|^2 = 1/D for the Haar measure
    rng = np.random.default_rng(123)
    acc = 0.0
    for _ in range(4000):
        acc += abs(haar_unitary(3, rng)[0, 0]) ** 2
    assert acc / 4000 == pytest.approx(1 / 3, abs=0.02)


def test_random_lu_set_deterministic() -> None:
    s = ModeStructure((2, 3, 4))
    a = random_lu_set(s, 5)
    b = random_lu_set(s, 5)
    for ua, ub in zip(a.unitaries, b.unitaries):
        assert np.array_equal(ua, ub)
    assert [u.shape[0] for u in a.unitaries] == [2, 3, 4]
    with pytest.raises(ValueError, match=r"seed=2\.5 is not an integer"):
        random_lu_set(s, 2.5)
    for ua, ub in zip(a.unitaries, random_lu_set(s, np.int64(5)).unitaries):
        assert np.array_equal(ua, ub)


def test_as_spectral_paths() -> None:
    spec = _certificate((2, 5))
    again, note = as_spectral(spec)
    assert again is spec
    assert note == ""

    rho = spec.matrix()
    from_rho, note = as_spectral(rho)
    assert note == ""
    assert from_rho.spectrum == pytest.approx((0.7, 0.3))

    s = ModeStructure((2, 2))
    e1, e4 = _basis_state(s, 1), _basis_state(s, 4)
    degenerate = SpectralState(s, (0.5, 0.5), _rows(e1, e4)).matrix()
    _, note = as_spectral(degenerate)
    assert "degenerate" in note

    with pytest.raises(TypeError):
        as_spectral(np.eye(4))


def test_grid_certificate_holds_for_published_states() -> None:
    for dims in CERTIFICATE_STATES:
        est, averages = _with_averages(_certificate(dims), strategy="grid")
        assert est.samples == 400
        assert est.min_avg >= 1 - 1e-9
        assert est.argmin is None  # a passing certificate names no violator
        assert len(averages) == 400
        assert min(averages) == est.min_avg


def _assert_matches_per_unitary_loop(run, spec, points, argmin_unitary) -> None:
    """Batched min_avg_ent, as `_with_averages` runs it, against one
    decompose(...).average_ent() per unitary: every average, the sample
    count and, on a failing state, the argmin point; a passing state
    names none."""
    est, averages = run
    loop = [decompose(spec, U).average_ent() for U in points]
    assert est.samples == len(loop) == len(averages)
    assert np.abs(np.array(averages) - loop).max() <= 1e-12
    assert (est.argmin is None) == (est.min_avg >= 1 - ME_TOL)
    if est.argmin is not None:
        worst = decompose(spec, argmin_unitary(est.argmin)).average_ent()
        assert abs(worst - est.min_avg) <= 1e-12


def test_batched_grid_matches_per_unitary_loop() -> None:
    for kind in COMPARISON_KINDS:
        for lam1 in (0.5, 0.7):
            spec = comparison_family_spectral(kind, (lam1, 1 - lam1))
            run = _with_averages(spec, strategy="grid", grid=(20, 20))
            points = [u2(math.pi / 2 * i / 20, 2 * math.pi * k / 20)
                      for i in range(20) for k in range(20)]
            _assert_matches_per_unitary_loop(
                run, spec, points, lambda a: u2(a["theta"], a["chi"])
            )


def _haar_per_unitary(z):
    """The per-matrix Haar draw: one QR of the complex Gaussian
    z[0] + i z[1], then the phases of R's diagonal factored out."""
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _haar_stream(seed, D, k):
    """The first k unitaries of D's stream: successive `haar_unitary`
    calls on `default_rng([seed, D])`, the recipe that rebuilds an argmin."""
    rng = np.random.default_rng([seed, D])
    return [haar_unitary(D, rng) for _ in range(k)]


@pytest.mark.parametrize("seed", [0, 7])
def test_haar_stack_is_bitwise_per_unitary(seed) -> None:
    for D in range(1, 19):
        stack = verify._haar_stack(
            np.random.default_rng([seed, D]).standard_normal((5, 2, D, D)))
        assert stack.shape == (5, D, D)
        # the oracle draws each matrix's real, then imaginary part, in turn
        rng = np.random.default_rng([seed, D])
        for U, V in zip(stack, _haar_stream(seed, D, 5), strict=True):
            assert np.array_equal(U, V)
            pair = [rng.standard_normal((D, D)) for _ in range(2)]
            assert np.array_equal(U, _haar_per_unitary(pair))


def test_random_lu_set_is_bitwise_per_mode() -> None:
    s = ModeStructure((2, 3, 2, 3, 4))
    lus = random_lu_set(s, 41)
    for m, (d, U) in enumerate(zip(s.dims, lus.unitaries), start=1):
        assert np.array_equal(U, haar_unitary(d, np.random.default_rng([41, m])))


@pytest.mark.parametrize("block", [verify.BLOCK_AMPLITUDES, 150, 40])
def test_batched_random_matches_per_unitary_loop(monkeypatch, block) -> None:
    # 150 amplitudes split D = 4 into stacks of two and leave D = 5, 6
    # one unitary per stack; 40 also splits the rank-4 coefficient pairs
    # of each stack into row blocks of two or three members
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", block)
    s = ModeStructure((2, 2, 2, 2))
    state, _ = construct(s, EXAMPLE_SETS[s.dims], (0.4, 0.3, 0.2, 0.1),
                         random_lu_set(s, 3))
    spec, _ = as_spectral(state)
    # the MME state passes; the look-alike fails, so its argmin is checked
    failing = comparison_family_spectral("e_spacewise", (0.6, 0.4))

    points = [U for D in (4, 5, 6) for U in _haar_stream(5, D, 10)]
    runs = [_with_averages(x, strategy="random", Dmin=4, Dmax=6, samples=10, seed=5)
            for x in (spec, failing)]
    for run, x in zip(runs, (spec, failing)):
        _assert_matches_per_unitary_loop(
            run, x, points, lambda a: _haar_stream(a["seed"], a["D"], a["index"] + 1)[-1]
        )
    assert runs[1][0].argmin is not None
    # the same evaluation fed one per-matrix QR at a time is bitwise equal
    monkeypatch.setattr(verify, "_haar_stack",
                        lambda z: np.array([_haar_per_unitary(x) for x in z]))
    for (est, averages), x in zip(runs, (spec, failing)):
        oracle, oracle_averages = _with_averages(x, strategy="random", Dmin=4, Dmax=6,
                                                 samples=10, seed=5)
        assert oracle_averages == averages
        assert oracle.argmin == est.argmin and oracle.samples == est.samples

    # D = R + 2 unitaries padded with an identity block: the last two
    # members get weight exactly 0, and no 0/0 reaches the averages
    def padded(z):
        D = z.shape[-1]
        Us = np.array([np.eye(D, dtype=complex) for _ in z])
        Us[:, :D - 2, :D - 2] = [_haar_per_unitary(x[:, :D - 2, :D - 2]) for x in z]
        return Us

    monkeypatch.setattr(verify, "_haar_stack", padded)
    for x in (spec, failing):
        D = x.rank + 2
        points = padded(np.random.default_rng([5, D]).standard_normal((3, 2, D, D)))
        assert decompose(x, points[0]).members[-2:] == (None, None)
        run = _with_averages(x, strategy="random", Dmin=D, Dmax=D, samples=3, seed=5)
        assert not np.isnan(run[1]).any()
        _assert_matches_per_unitary_loop(run, x, points, lambda a: points[a["index"]])


def test_random_argmin_rebuilds_from_its_label(monkeypatch) -> None:
    # the public recipe: index + 1 `haar_unitary` calls on default_rng([seed, D])
    failing = comparison_family_spectral("e_spacewise", (0.6, 0.4))
    stacks = []
    coefficients = verify._coefficients

    def spy(state, Us):
        stacks.append(Us)
        return coefficients(state, Us)

    monkeypatch.setattr(verify, "_coefficients", spy)
    est, averages = _with_averages(failing, strategy="random", seed=3)
    assert set(est.argmin) == {"D", "index", "seed"} and est.argmin["seed"] == 3
    U = _haar_stream(3, est.argmin["D"], est.argmin["index"] + 1)[-1]
    drawn = [V for stack in stacks for V in stack]
    assert np.array_equal(U, drawn[averages.index(est.min_avg)])
    # the sampler reads purities off the cross reductions, so to roundoff
    assert decompose(failing, U).average_ent() == pytest.approx(est.min_avg, abs=1e-12)


def test_random_averages_at_one_D_depend_on_no_other_option() -> None:
    failing = comparison_family_spectral("e_spacewise", (0.6, 0.4))

    def at_3(Dmin, Dmax, samples):
        _, averages = _with_averages(failing, strategy="random", Dmin=Dmin, Dmax=Dmax,
                                     samples=samples, seed=9)
        return averages[(3 - Dmin) * samples:(4 - Dmin) * samples]

    full = at_3(2, 5, 40)
    assert len(full) == 40
    assert at_3(3, 3, 40) == full and at_3(2, 3, 40) == full
    for k in (1, 7, 39):
        assert at_3(3, 4, k) == full[:k]


def test_random_strategy_seeds_one_stream_per_D(monkeypatch) -> None:
    seeds = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    min_avg_ent(comparison_family_spectral("mme", (0.6, 0.4)), strategy="random",
                Dmax=6, samples=30, seed=4)
    assert seeds == [[4, D] for D in range(2, 7)]


def _isometry_spy(monkeypatch) -> list:
    checked = []
    check = verify._check_isometry

    def spy(what, A):
        checked.append((what, A))
        check(what, A)

    monkeypatch.setattr(verify, "_check_isometry", spy)
    return checked


def test_grid_is_checked_once_per_steps(monkeypatch) -> None:
    verify._u2_grid.cache_clear()
    checked = _isometry_spy(monkeypatch)
    for kind in ("mme", "e_spacewise", "separable"):
        min_avg_ent(comparison_family_spectral(kind, (0.7, 0.3)), strategy="grid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--points", "2"]) == 0
        assert main(["sweep", "--points", "2", "--grid", "4,5"]) == 0
    # the other checks are of each family's eigenstates
    assert [A.shape for what, A in checked if what == "unitary"] == [(400, 2, 2), (20, 2, 2)]


def test_random_certificate_checks_every_haar_stack(monkeypatch) -> None:
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", 150)
    failing = comparison_family_spectral("e_spacewise", (0.6, 0.4))
    checked = _isometry_spy(monkeypatch)
    stacks = []
    coefficients = verify._coefficients

    def spy(state, Us):
        stacks.append(Us)
        return coefficients(state, Us)

    monkeypatch.setattr(verify, "_coefficients", spy)
    min_avg_ent(failing, strategy="random", Dmax=4, samples=10, seed=5)
    assert len(stacks) == 3 + 4 + 5  # 4, 3 and 2 unitaries a stack at D = 2, 3, 4
    assert all(what == "unitary" and A is Us
               for (what, A), Us in zip(checked, stacks, strict=True))

    haar_stack = verify._haar_stack
    monkeypatch.setattr(verify, "_haar_stack", lambda z: 1.001 * haar_stack(z))
    with pytest.raises(ValueError, match="unitary: columns not orthonormal"):
        min_avg_ent(failing, strategy="random", seed=5)


def test_negative_seeds_are_refused_by_name() -> None:
    # numpy's own refusal names no option, and an exhaustive rank search
    # or a grid certificate never reaches its seed
    s = ModeStructure((2, 2, 2, 2, 3))
    for call, message in ((lambda: max_mme_rank(s, seed=-5), "seed=-5 is below 0"),
                          (lambda: random_lu_set(s, -1), "lu_seed=-1 is below 0"),
                          (lambda: min_avg_ent(_certificate((2, 5)), strategy="random",
                                               seed=-1), "seed=-1 is below 0"),
                          (lambda: min_avg_ent(_certificate((2, 5)), seed=-1),
                           "seed=-1 is below 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def _stack_sizes(monkeypatch) -> list[int]:
    """Record the number of unitaries in every stack `min_avg_ent` feeds
    to `_coefficients`."""
    sizes = []
    coefficients = verify._coefficients

    def spy(state, Us):
        sizes.append(len(Us))
        return coefficients(state, Us)

    monkeypatch.setattr(verify, "_coefficients", spy)
    return sizes


@pytest.mark.parametrize("dims,tuples", [
    ((2,) * 5, ((1, 32), (4, 29))),
    ((3, 7), ((1, 9, 17), (4, 12, 20))),
])
def test_grid_in_several_stacks_matches_one_stack(monkeypatch, dims, tuples) -> None:
    # the default grid once crashed for every n > 20, where its 400
    # unitaries took more than one stack: the stack loop rebound the name
    # the lazy slicing read
    state, _ = construct(ModeStructure(dims), tuples, (0.7, 0.3))
    sizes = _stack_sizes(monkeypatch)
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", 2**40)
    _, one = _with_averages(state, strategy="grid")
    assert sizes == [400]
    for block in (2**14, 2**11):  # the default; 17-51 unitaries per stack
        monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", block)
        sizes.clear()
        est, averages = _with_averages(state, strategy="grid")
        assert sum(sizes) == 400 and (block == 2**14 or len(sizes) > 2)
        assert averages == one and est.samples == 400
        assert est.min_avg >= 1 - ME_TOL and est.argmin is None


@pytest.mark.parametrize("dims,tuples", [
    ((4, 4, 4, 4), WITNESS_4X4X4X4),
    ((3, 3, 3, 3), None),  # the witness `max_mme_rank` finds
    ((2, 8), EXAMPLE_SETS[(2, 8)]),
])
def test_stack_splits_change_no_bit(monkeypatch, dims, tuples) -> None:
    # the tensor width is not n on any of the three (64, 36 and 8); on 2x8,
    # with two modes, unpadded 0/1 summing products moved the last bits
    # when the stacks changed
    s = ModeStructure(dims)
    tuples = tuples or max_mme_rank(s).witness
    R = len(tuples)
    lam = np.arange(1.0, R + 1) / (R * (R + 1) / 2)
    mme_state, _ = construct(s, tuples, lam, random_lu_set(s, 3))
    states = [as_spectral(mme_state)[0], _random_spectral(np.random.default_rng(4), s, R)]
    S = verify._cross_reductions(states[0]).shape[1]  # member reduction entries
    sizes = _stack_sizes(monkeypatch)
    # one stack per D (the reference), two of three unitaries, six of one;
    # every row block of coefficient pairs keeps at least two members
    for block, want in ((2**40, [6, 6]), (3 * (R + 1) * S, [3] * 4), ((R + 1) * S, [1] * 12)):
        monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", block)
        runs = []
        for x in states:
            sizes.clear()
            runs.append(_with_averages(x, strategy="random", Dmin=R, Dmax=R + 1,
                                       samples=6, seed=2))
            assert sizes == want
        if block == 2**40:
            ref = runs
            assert ref[0][0].argmin is None and ref[1][0].argmin is not None
        for (est, averages), (oracle, oracle_averages) in zip(runs, ref):
            assert averages == oracle_averages
            assert est.samples == oracle.samples == 12
            assert est.argmin == oracle.argmin


def _random_spectral(rng, s: ModeStructure, R: int) -> SpectralState:
    """R random orthonormal eigenstates (the first columns of a Haar
    unitary) with a random positive spectrum."""
    basis = haar_unitary(s.n, rng)[:, :R]
    w = rng.random(R) + 0.05
    return SpectralState(s, tuple(w / w.sum()), basis.T)


@pytest.mark.parametrize("dims", [(2, 2), (2, 6), (2, 3, 2), (2, 2, 5), (2, 2, 3, 3)])
def test_cross_reductions_are_the_pair_partial_traces(dims) -> None:
    # each block reduces onto the small side S_m of mode m's extreme
    # bipartition: m itself unless n_m > n/n_m (2x6 and 2x2x5), else the rest
    s = ModeStructure(dims)
    R = 3
    spec = _random_spectral(np.random.default_rng(s.n), s, R)
    X = verify._cross_reductions(spec)
    sides = [(m,) if d <= s.n // d else tuple(k for k in range(1, s.N + 1) if k != m)
             for m, d in enumerate(dims, start=1)]
    n_S = [math.prod(dims[k - 1] for k in S) for S in sides]
    assert X.shape == (R * R, sum(d * d for d in n_S))
    a = 0
    for m, (S, d) in enumerate(zip(sides, n_S), start=1):
        for k, phi in enumerate(spec.eigenstates):
            for l, psi in enumerate(spec.eigenstates):
                block = X[k * R + l, a:a + d * d].reshape(d, d)
                cross = np.outer(phi.amplitudes, psi.amplitudes.conj())
                want = _einsum_partial_trace(cross, dims, S)
                assert np.abs(block - want).max() < 1e-14, (m, k, l)
            # a pure state has one purity on both sides of a bipartition
            rho_S, rho_m = X[k * R + k, a:a + d * d], mode_reduction_of_pure(phi, m)
            assert abs(np.vdot(rho_S, rho_S) - np.vdot(rho_m, rho_m)) < 1e-14
        a += d * d


def _cross_max(spec: SpectralState) -> float:
    """Largest entry of any cross block X_m^{kl}, k != l."""
    X = verify._cross_reductions(spec)
    R = spec.rank
    return float(np.abs(np.delete(X, np.arange(R) * (R + 1), axis=0)).max())


PUBLISHED_SETS = sorted({  # a set repeated across the tables is tested once
    (dims, tuples)
    for dims, tuples in [*EXAMPLE_SETS.items(), *EXAMPLE_SETS_LARGER.items(),
                         *(((2,) * N, t) for N, t in QUBIT_SETS.items())]
    if len(tuples) >= 2
})


@pytest.mark.parametrize("dims,tuples", PUBLISHED_SETS,
                         ids=["x".join(map(str, dims)) for dims, _ in PUBLISHED_SETS])
def test_cross_blocks_of_published_sets_vanish(dims, tuples) -> None:
    # compatibility keeps the big-side projections disjoint, so the cross
    # blocks vanish on the small side, bare and LU-dressed; on mode m
    # itself, the big side of 2x5 or 2x2x8, they reach 0.5
    s = ModeStructure(dims)
    spectrum = np.full(len(tuples), 1 / len(tuples))
    for lu in (None, random_lu_set(s, 7)):
        state, _ = construct(s, tuples, spectrum, lu)
        assert _cross_max(state) <= 1e-14


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 6), (2, 2, 5)])
def test_certificates_after_the_first_work_out_no_side(dims, monkeypatch) -> None:
    # the first certificate caches the structure's layout; later
    # certificates and purities read it and build no gather:
    # `_trace_groups` is rebound to a refusal in every module that holds it
    s = ModeStructure(dims)
    spec = _random_spectral(np.random.default_rng(3), s, 2)
    _, first = _with_averages(spec, grid=(4, 4))
    original = modes._trace_groups

    def refuse(*args):
        raise AssertionError(f"_trace_groups{args} called")

    for name, mod in list(sys.modules.items()):
        if name == "mmekit" or name.startswith("mmekit."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, refuse)
    with pytest.raises(AssertionError):
        modes._trace_groups(s.dims, (1,))
    assert _with_averages(spec, grid=(4, 4))[1] == first
    assert min_avg_ent(spec, strategy="random", samples=3).samples == 9
    assert mode_purities(s, [v.amplitudes for v in spec.eigenstates]).shape == (2, s.N)


@pytest.mark.parametrize("kind", ["e_spacewise", "e_selfspace"])
def test_cross_blocks_of_non_mme_families_reach_one_half(kind) -> None:
    assert _cross_max(comparison_family_spectral(kind, (0.7, 0.3))) >= 0.5 - 1e-15


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_sampled_averages_match_decompose_at_every_rank(data) -> None:
    # ranks from 1 to full, with the tensor both smaller (R n_m^2 <= n)
    # and larger than the eigenbasis
    s = data.draw(st.sampled_from(list(_structures_upto(36))), label="structure")
    edge = min(s.n // (d * d) for d in s.dims)
    R = data.draw(st.sampled_from(sorted({1, max(edge, 1), edge + 1, s.n}))
                  | st.integers(1, s.n), label="rank")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    spec = _random_spectral(np.random.default_rng(seed), s, R)
    run = _with_averages(spec, strategy="random", samples=2, seed=seed)
    points = [U for D in range(R, R + 3) for U in _haar_stream(seed, D, 2)]
    _assert_matches_per_unitary_loop(
        run, spec, points, lambda a: points[(a["D"] - R) * 2 + a["index"]]
    )


def test_grid_strategy_needs_rank_two() -> None:
    s = parse_dims("2x6")
    state, _ = construct(s, [(1, 12), (2, 9), (4, 11)], (0.5, 0.3, 0.2))
    with pytest.raises(ValueError):
        min_avg_ent(state, strategy="grid")


def test_random_strategy_defaults_and_validation() -> None:
    spec = _certificate((2, 5))
    est = min_avg_ent(spec, strategy="random", samples=5)
    assert est.samples == 15  # D in 2..4, five draws each
    assert est.min_avg >= 1 - 1e-9
    assert est.argmin is None
    rank3, _ = construct(ModeStructure((3, 3, 3)), EXAMPLE_SETS[(3, 3, 3)],
                         (0.5, 0.3, 0.2))
    est = min_avg_ent(rank3, strategy="random", samples=2)
    assert est.samples == 6  # D in rank..rank + 2 = 3..5, not 3..9
    assert est.min_avg >= 1 - 1e-9
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="random", Dmin=1)
    # one refusal of Dmax below Dmin, which says which value is a default
    for bounds, message in (({"Dmin": 3, "Dmax": 2}, "Dmax=2 below Dmin=3; give Dmax >= 3"),
                            ({"Dmin": 5}, "Dmax=4 (the default, rank + 2) below Dmin=5; "
                                          "give Dmax >= 5"),
                            ({"Dmax": 1}, "Dmax=1 below Dmin=2 (the default, the rank); "
                                          "give Dmax >= 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            min_avg_ent(spec, strategy="random", **bounds)
    # a Dmin that no Dmax could reach is refused by its own bound
    with pytest.raises(ValueError, match="^Dmin=300 is above 258$"):
        min_avg_ent(spec, strategy="random", Dmin=300)
    with pytest.raises(ValueError, match="samples"):
        min_avg_ent(spec, strategy="random", samples=0)
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="annealed")


@pytest.mark.parametrize("kwargs,name", [
    ({"strategy": "random", "Dmin": 2.7}, "Dmin=2.7"),
    ({"strategy": "random", "Dmin": 2, "Dmax": 3.9}, "Dmax=3.9"),
    ({"strategy": "random", "samples": 2.5}, "samples=2.5"),
    ({"strategy": "random", "samples": 2, "seed": 1.0}, "seed=1.0"),
    ({"strategy": "grid", "grid": (20.5, 20)}, "theta_steps=20.5"),
    ({"strategy": "grid", "grid": (20, 20.0)}, "chi_steps=20.0"),
    ({"strategy": "random", "samples": True}, "samples=True"),  # not 1 sample per D
    ({"strategy": "random", "samples": 2, "seed": False}, "seed=False"),  # not seed 0
])
def test_sampler_counts_are_refused_unless_integers(kwargs, name) -> None:
    spec = comparison_family_spectral("mme", (0.7, 0.3))
    with pytest.raises(ValueError, match=f"{name} is not an integer"):
        min_avg_ent(spec, **kwargs)
    ints = {k: (tuple(map(np.int64, v)) if k == "grid" else np.int64(round(v)))
            for k, v in kwargs.items() if k != "strategy"}
    est = min_avg_ent(spec, strategy=kwargs["strategy"], **ints)
    assert est.min_avg >= 1 - 1e-9


@pytest.mark.parametrize("over,message,at_limit", [
    ({"strategy": "random", "samples": 1, "Dmax": 100_000},
     "Dmax=100000 is above 258", {"Dmin": 258, "Dmax": 258}),
    ({"strategy": "random", "samples": 1, "Dmin": 259, "Dmax": 259},
     "Dmax=259 is above 258", {"Dmin": 258, "Dmax": 258}),
    ({"strategy": "grid", "grid": (999_999, 999_999)},
     "theta_steps=999999 is above 256", {"grid": (256, 1)}),
    ({"strategy": "grid", "grid": (20, 257)},
     "chi_steps=257 is above 256", {"grid": (1, 256)}),
    ({"strategy": "random", "samples": 100_000_000},
     "samples=100000000 at 3 values of D is above the limit of 65536 unitaries",
     {"samples": 32768, "Dmin": 2, "Dmax": 3}),
], ids=["Dmax_100000", "Dmax_259", "theta_steps", "chi_steps", "samples"])
def test_sampler_sizes_that_never_finish_are_refused(monkeypatch, over, message,
                                                     at_limit) -> None:
    # refused before a unitary is drawn or a grid built: D up to MAX_N + 2,
    # the largest default (rank + 2 at n = MAX_N), MAX_N steps per axis,
    # and MAX_N^2 Haar unitaries, as many as the largest grid
    spec = comparison_family_spectral("mme", (0.7, 0.3))
    for name in ("_haar_stack", "_u2_grid"):
        monkeypatch.setattr(verify, name, lambda *args: pytest.fail("drawn or built"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        min_avg_ent(spec, **over)
    monkeypatch.undo()
    assert min_avg_ent(spec, **{**over, **at_limit}).min_avg >= 1 - 1e-9


@pytest.mark.parametrize("averages", [
    [0.9, 0.5, 0.7, 0.5, 0.6, 0.5],  # a tie across stacks names the first
    [0.9, 0.8, 0.7, 0.95, 0.6, 0.99],  # the minimum in the last stack
    [0.9, 0.5, np.nan, 0.4, np.nan, 0.3],  # the first NaN, which fails
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # a pass names no violator
])
def test_streamed_minimum_is_the_argmin_of_every_average(monkeypatch, averages) -> None:
    # three stacks of two unitaries whose averages a fake hands out in order
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", 2 * 2 * 16)
    given, sizes = iter(averages), []

    def fake(state, X, Us):
        sizes.append(len(Us))
        return np.array([next(given) for _ in Us])

    monkeypatch.setattr(verify, "_stack_averages", fake)
    est = min_avg_ent(comparison_family_spectral("mme", (0.7, 0.3)), strategy="random",
                      Dmin=2, Dmax=2, samples=6)
    k = int(np.argmin(averages))
    assert sizes == [2, 2, 2] and est.samples == 6
    assert est.min_avg == averages[k] or (np.isnan(est.min_avg) and np.isnan(averages[k]))
    assert est.argmin == (None if averages[k] == 1.0 else {"D": 2, "index": k, "seed": 0})


def test_certificate_memory_does_not_grow_with_its_samples() -> None:
    # only the running minimum is kept: 100 times the unitaries move the
    # peak by the larger stacks alone, where a list of every average
    # grew it by about 2 MiB
    spec = comparison_family_spectral("e_spacewise", (0.6, 0.4))
    min_avg_ent(spec, strategy="random", samples=200)  # the layout caches
    peaks = []
    for samples in (200, 20_000):
        tracemalloc.start()
        min_avg_ent(spec, strategy="random", samples=samples)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024


def test_comparison_family_validation() -> None:
    with pytest.raises(ValueError):
        comparison_family_spectral("ghz", (0.5, 0.5)).matrix()
    with pytest.raises(ValueError):
        comparison_family_spectral("mme", (0.5, 0.3, 0.2)).matrix()
    assert set(COMPARISON_KINDS) == {
        "mme",
        "e_spacewise",
        "e_selfspace",
        "separable",
    }


@pytest.mark.parametrize("kind", COMPARISON_KINDS)
def test_comparison_family_builds_its_two_states_bitwise(monkeypatch, kind) -> None:
    # the inline oracle is the per-state construction the families had:
    # +-1/sqrt(2) on two levels, or one unit entry
    pairs = {"mme": ((1, 16, 1), (4, 13, 1)), "e_spacewise": ((1, 16, 1), (2, 15, 1)),
             "e_selfspace": ((1, 16, 1), (1, 16, -1))}
    want = np.zeros((2, 16), dtype=complex)
    for row, (a, b, sign) in enumerate(pairs.get(kind, ())):
        want[row, a - 1] = 1 / math.sqrt(2)
        want[row, b - 1] = sign / math.sqrt(2)
    if kind == "separable":
        want[0, 0] = want[1, 15] = 1.0
    built = []
    stack = verify._superpositions
    monkeypatch.setattr(verify, "_superpositions",
                        lambda *a: built.append(stack(*a)) or built[-1])
    spec = comparison_family_spectral(kind, (0.7, 0.3))
    assert [b.shape for b in built] == [(2, 16)]  # only the requested family is built
    assert spec.basis.tobytes() == want.tobytes()


def test_comparison_mme_matches_construct() -> None:
    s = ModeStructure((2, 2, 2, 2))
    _, rho = construct(s, [(1, 16), (4, 13)], (0.7, 0.3))
    fam = comparison_family_spectral("mme", (0.7, 0.3)).matrix()
    assert np.allclose(fam.entries, rho.entries, atol=1e-14)


def test_selfspace_balanced_hits_zero_on_grid() -> None:
    spec = comparison_family_spectral("e_selfspace", (0.5, 0.5))
    sample = decompose(spec, u2(math.pi / 4, 0.0))
    # the quarter turn rotates (|1>+|16>), (|1>-|16>) back to basis states
    for member in sample.members:
        amps = np.abs(member.amplitudes)
        assert amps.max() == pytest.approx(1.0, abs=1e-12)
    assert sample.average_ent() == pytest.approx(0.0, abs=1e-12)
    est = min_avg_ent(spec, strategy="grid")
    assert est.min_avg == pytest.approx(0.0, abs=1e-12)


def test_selfspace_grid_minimum_closed_form() -> None:
    for lam1 in (0.6, 0.7, 0.9):
        est = min_avg_ent(
            comparison_family_spectral("e_selfspace", (lam1, 1 - lam1)),
            strategy="grid",
        )
        assert est.min_avg == pytest.approx((2 * lam1 - 1) ** 2, abs=1e-12)


def test_spacewise_grid_minimum() -> None:
    balanced = min_avg_ent(
        comparison_family_spectral("e_spacewise", (0.5, 0.5)), strategy="grid"
    )
    assert balanced.min_avg == pytest.approx(SPACEWISE_GRID_MIN_BALANCED, abs=1e-12)
    tilted = min_avg_ent(
        comparison_family_spectral("e_spacewise", (0.7, 0.3)), strategy="grid"
    )
    assert tilted.min_avg == pytest.approx(1 - 0.7 * 0.3, abs=1e-12)


def test_separable_stays_at_zero() -> None:
    est = min_avg_ent(
        comparison_family_spectral("separable", (0.5, 0.5)), strategy="grid"
    )
    assert est.min_avg == pytest.approx(0.0, abs=1e-12)
    assert est.argmin == {"theta": 0.0, "chi": 0.0}


def test_reduction_purity_clean_on_mme_decompositions() -> None:
    spec = _certificate((2, 5))
    rng = np.random.default_rng(0)
    for D in (2, 3, 4):
        sample = decompose(spec, haar_unitary(D, rng))
        report = reduction_purity_report(sample)
        assert report.L == 2
        assert report.expected == pytest.approx((0.5, 0.5))
        assert report.clean
        assert report.max_deviation <= 1e-9


def test_reduction_purity_flags_non_mme() -> None:
    spec = comparison_family_spectral("e_spacewise", (0.5, 0.5))
    sample = decompose(spec, u2(math.pi / 4, 0.0))
    report = reduction_purity_report(sample)
    assert report.expected == pytest.approx((0.5, 0.5, 0.5, 0.5))
    assert not report.clean
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)


def test_average_ent_weights_members() -> None:
    s = ModeStructure((2, 2))
    bell = PureStateVector(
        s, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    )
    spec = SpectralState(s, (0.7, 0.3), _rows(bell, _basis_state(s, 2)))
    sample = decompose(spec, np.eye(2))
    assert ent_pure(bell) == pytest.approx(1.0)
    assert sample.average_ent() == pytest.approx(0.7, abs=1e-12)
