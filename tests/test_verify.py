from __future__ import annotations

import math

import numpy as np
import pytest

from mmekit.entcore import ent_pure
from mmekit.linalg import DensityMatrix, PureStateVector, basis_state, mix, outer
from mmekit.mme import construct
from mmekit import verify
from mmekit.modes import ModeStructure, parse_dims
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
    spectral,
    u2,
)

from reference_values import (
    CERTIFICATE_STATES,
    EXAMPLE_SETS,
    SPACEWISE_GRID_MIN_BALANCED,
)


def _certificate(dims: tuple[int, ...]) -> SpectralState:
    state, _ = construct(ModeStructure(dims), CERTIFICATE_STATES[dims], (0.7, 0.3))
    spec, note = as_spectral(state)
    assert note == ""
    return spec


def test_spectral_state_validation() -> None:
    s = ModeStructure((2, 2))
    e1, e4 = basis_state(s, 1), basis_state(s, 4)
    SpectralState(s, (0.7, 0.3), (e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.3, 0.0), (e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (1.3, -0.3), (e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.2), (e1, e4))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SpectralState(s, (bad, 0.3), (e1, e4))
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.3), (e1, e1))
    other = basis_state(ModeStructure((4,)), 2)
    with pytest.raises(ValueError):
        SpectralState(s, (0.7, 0.3), (e1, other))


def test_spectral_round_trip_descending() -> None:
    s = ModeStructure((2, 2))
    rho = mix([basis_state(s, 2), basis_state(s, 3)], (0.3, 0.7))
    spec = spectral(rho)
    assert spec.spectrum == pytest.approx((0.7, 0.3))
    assert spec.rank == 2
    assert np.allclose(spec.matrix().entries, rho.entries, atol=1e-12)
    assert abs(spec.eigenstates[0].amplitude(3)) == pytest.approx(1.0)


def test_spectral_drops_zero_eigenvalues() -> None:
    s = ModeStructure((2, 2))
    spec = spectral(outer(basis_state(s, 1)))
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
    spec = spectral(rho)
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
    spec = SpectralState(s, (1.0,), (basis_state(s, 1),))
    sample = decompose(spec, np.eye(2))
    assert sample.probabilities == (1.0, 0.0)
    assert sample.members[1] is None
    assert sample.average_ent() == pytest.approx(0.0)


def test_decompose_validation() -> None:
    spec = _certificate((2, 5))
    with pytest.raises(ValueError):
        decompose(spec, np.ones((2, 3)))
    with pytest.raises(ValueError):
        decompose(spec, np.eye(1))
    with pytest.raises(ValueError):
        decompose(spec, np.ones((2, 2)))


def test_u2_values() -> None:
    assert np.allclose(u2(0.0, 0.0), np.eye(2), atol=1e-15)
    m = u2(math.pi / 4, 0.0)
    r = 1 / math.sqrt(2)
    assert np.allclose(m, [[r, r], [-r, r]], atol=1e-15)
    for theta, chi in [(0.3, 1.1), (1.2, 4.0)]:
        m = u2(theta, chi)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


def test_u2_grid_shape_and_coverage() -> None:
    thetas, chis, stack = verify._u2_stack(20, 20)
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
    spec = comparison_family_spectral("mme", (0.7, 0.3))
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
    degenerate = mix([basis_state(s, 1), basis_state(s, 4)], (0.5, 0.5))
    _, note = as_spectral(degenerate)
    assert "degenerate" in note

    with pytest.raises(TypeError):
        as_spectral(np.eye(4))


def test_grid_certificate_holds_for_published_states() -> None:
    for dims in CERTIFICATE_STATES:
        est = min_avg_ent(_certificate(dims), strategy="grid")
        assert est.samples == 400
        assert est.min_avg >= 1 - 1e-9
        assert set(est.argmin) == {"theta", "chi"}
        assert len(est.averages) == 400
        assert min(est.averages) == est.min_avg


def _assert_matches_per_unitary_loop(est, spec, points, argmin_unitary) -> None:
    """Batched min_avg_ent against one decompose(...).average_ent() per
    unitary: every average, the sample count and the argmin point."""
    loop = [decompose(spec, U).average_ent() for U in points]
    assert est.samples == len(loop) == len(est.averages)
    assert np.abs(np.array(est.averages) - loop).max() <= 1e-12
    worst = decompose(spec, argmin_unitary(est.argmin)).average_ent()
    assert abs(worst - est.min_avg) <= 1e-12


def test_batched_grid_matches_per_unitary_loop() -> None:
    for kind in COMPARISON_KINDS:
        for lam1 in (0.5, 0.7):
            spec = comparison_family_spectral(kind, (lam1, 1 - lam1))
            est = min_avg_ent(spec, strategy="grid", grid=(20, 20))
            points = [u2(math.pi / 2 * i / 20, 2 * math.pi * k / 20)
                      for i in range(20) for k in range(20)]
            _assert_matches_per_unitary_loop(
                est, spec, points, lambda a: u2(a["theta"], a["chi"])
            )


def _haar_per_unitary(D, rng):
    """The per-matrix Haar draw: one QR of one complex Gaussian, then the
    phases of R's diagonal factored out."""
    z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("seed", [0, 7])
def test_haar_stack_is_bitwise_per_unitary(seed) -> None:
    for D in range(1, 19):
        stack = verify._haar_stack(
            D, [np.random.default_rng([seed, D, i]) for i in range(5)]
        )
        assert stack.shape == (5, D, D)
        for i, U in enumerate(stack):
            assert np.array_equal(U, haar_unitary(D, np.random.default_rng([seed, D, i])))
            oracle = _haar_per_unitary(D, np.random.default_rng([seed, D, i]))
            assert np.array_equal(U, oracle)


def test_random_lu_set_is_bitwise_per_mode() -> None:
    s = ModeStructure((2, 3, 2, 3, 4))
    lus = random_lu_set(s, 41)
    for m, (d, U) in enumerate(zip(s.dims, lus.unitaries), start=1):
        assert np.array_equal(U, haar_unitary(d, np.random.default_rng([41, m])))


@pytest.mark.parametrize("block", [verify.BLOCK_AMPLITUDES, 150])
def test_batched_random_matches_per_unitary_loop(monkeypatch, block) -> None:
    # 150 amplitudes split D = 4 into stacks of two and leave D = 5, 6
    # one unitary per stack
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", block)
    s = ModeStructure((2, 2, 2, 2))
    state, _ = construct(s, EXAMPLE_SETS[s.dims], (0.4, 0.3, 0.2, 0.1),
                         random_lu_set(s, 3))
    spec, _ = as_spectral(state)
    est = min_avg_ent(spec, strategy="random", Dmin=4, Dmax=6, samples=10, seed=5)

    def haar(D, i):
        return haar_unitary(D, np.random.default_rng([5, D, i]))

    points = [haar(D, i) for D in (4, 5, 6) for i in range(10)]
    _assert_matches_per_unitary_loop(
        est, spec, points, lambda a: haar(a["D"], a["index"])
    )
    # the same evaluation fed one per-unitary draw at a time is bitwise equal
    monkeypatch.setattr(verify, "_haar_stack", lambda D, rngs: np.array(
        [_haar_per_unitary(D, rng) for rng in rngs]))
    oracle = min_avg_ent(spec, strategy="random", Dmin=4, Dmax=6, samples=10, seed=5)
    assert oracle.averages == est.averages
    assert oracle.argmin == est.argmin and oracle.samples == est.samples


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
    assert set(est.argmin) == {"D", "index", "seed"}
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="random", Dmin=1)
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="random", Dmin=3, Dmax=2)
    with pytest.raises(ValueError, match="samples"):
        min_avg_ent(spec, strategy="random", samples=0)
    with pytest.raises(ValueError):
        min_avg_ent(spec, strategy="annealed")


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
    spec = SpectralState(s, (0.7, 0.3), (bell, basis_state(s, 2)))
    sample = decompose(spec, np.eye(2))
    assert ent_pure(bell) == pytest.approx(1.0)
    assert sample.average_ent() == pytest.approx(0.7, abs=1e-12)
