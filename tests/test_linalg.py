from __future__ import annotations

import numpy as np
import pytest

from mmekit.cli import _structures_upto
from mmekit.linalg import (
    DensityMatrix,
    PureStateVector,
    basis_state,
    mix,
    mode_purities,
    mode_reduction_of_pure,
    outer,
    partial_trace,
    partial_trace_matrix,
    purity,
)
from mmekit.modes import ModeStructure

_LETTERS = "abcdefghijklmnopqrstuvwx"


def _einsum_partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Reference partial trace: reshape to a 2N-index tensor and contract
    the dropped row/column index pairs with einsum."""
    N = len(dims)
    t = mat.reshape(*dims, *dims)
    row = [_LETTERS[m] for m in range(N)]
    col = [
        _LETTERS[N + m] if (m + 1) in keep else _LETTERS[m] for m in range(N)
    ]
    out = [_LETTERS[m] for m in range(N) if (m + 1) in keep]
    out += [_LETTERS[N + m] for m in range(N) if (m + 1) in keep]
    sub = np.einsum("".join(row + col) + "->" + "".join(out), t)
    d = int(np.prod([dims[m - 1] for m in keep]))
    return sub.reshape(d, d)


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _random_pure(rng: np.random.Generator, s: ModeStructure) -> PureStateVector:
    v = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
    return PureStateVector(s, v / np.linalg.norm(v))


def test_partial_trace_matches_einsum_reference() -> None:
    rng = np.random.default_rng(11)
    for dims in [(2, 3), (2, 2, 2), (3, 4), (2, 2, 3)]:
        s = ModeStructure(dims)
        rho = DensityMatrix(s, _random_density(rng, s.n))
        keeps = [(m,) for m in range(1, s.N + 1)]
        if s.N >= 3:
            keeps += [(1, 2), (1, 3), (2, 3)]
        for keep in keeps:
            got = partial_trace(rho, keep)
            want = _einsum_partial_trace(rho.entries, dims, keep)
            assert got.structure.dims == tuple(dims[m - 1] for m in keep)
            assert np.allclose(got.entries, want, atol=1e-13, rtol=0.0)
            assert abs(np.trace(got.entries) - 1.0) < 1e-12


def test_partial_trace_keep_all_is_identity() -> None:
    rng = np.random.default_rng(2)
    s = ModeStructure((2, 3))
    rho = DensityMatrix(s, _random_density(rng, 6))
    kept = partial_trace(rho, (1, 2))
    assert np.allclose(kept.entries, rho.entries, atol=0.0)
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 1))
    with pytest.raises(ValueError):
        partial_trace(rho, (3,))


def test_partial_trace_matrix_handles_cross_terms() -> None:
    # tr(|a><b|) = <b|a> = 0, and that must survive any partial trace
    s = ModeStructure((2, 4))
    a = basis_state(s, 1)
    b = basis_state(s, 8)
    cross = np.outer(a.amplitudes, b.amplitudes.conj())
    for keep in [(1,), (2,)]:
        red = partial_trace_matrix(cross, s, keep)
        want = _einsum_partial_trace(cross, s.dims, keep)
        assert np.allclose(red, want, atol=1e-14, rtol=0.0)
        assert abs(np.trace(red)) < 1e-14


def test_mode_reduction_of_pure_matches_partial_trace() -> None:
    rng = np.random.default_rng(5)
    for dims in [(2, 3), (2, 2, 2), (3, 2, 4)]:
        s = ModeStructure(dims)
        v = _random_pure(rng, s)
        rho = outer(v)
        for m in range(1, s.N + 1):
            red = mode_reduction_of_pure(v, m)
            want = partial_trace(rho, (m,)).entries
            assert red.shape == (dims[m - 1], dims[m - 1])
            assert np.allclose(red, want, atol=1e-13, rtol=0.0)
    with pytest.raises(ValueError):
        mode_reduction_of_pure(v, 4)


def test_mode_purities_match_partial_trace() -> None:
    rng = np.random.default_rng(11)
    for s in _structures_upto(36):
        states = [_random_pure(rng, s) for _ in range(3)]
        got = mode_purities(s, np.array([v.amplitudes for v in states]))
        assert got.shape == (3, s.N)
        for row, v in zip(got, states):
            want = [purity(partial_trace(outer(v), (m,))) for m in range(1, s.N + 1)]
            assert np.allclose(row, want, atol=1e-13, rtol=0.0), s.dims


def test_pure_state_validation() -> None:
    s = ModeStructure((2, 2))
    with pytest.raises(ValueError):
        PureStateVector(s, [1.0, 1.0, 0.0, 0.0])  # not normalized
    with pytest.raises(ValueError):
        PureStateVector(s, [1.0, 0.0])  # wrong length
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            PureStateVector(s, [bad, 0.0, 0.0, 0.0])
    v = PureStateVector(s, [0.0, 1.0, 0.0, 0.0])
    assert v.amplitude(2) == 1.0 + 0.0j
    w = basis_state(s, 3)
    assert v.overlap(w) == 0.0 + 0.0j
    assert w.overlap(w) == pytest.approx(1.0)


def test_basis_state_range() -> None:
    s = ModeStructure((2, 3))
    assert basis_state(s, 6).amplitude(6) == 1.0
    for bad in (0, 7):
        with pytest.raises(ValueError):
            basis_state(s, bad)


def test_density_matrix_validation() -> None:
    s = ModeStructure((2,))
    DensityMatrix(s, np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix(s, np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(s, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(s, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(s, np.eye(3) / 3)  # wrong shape


def test_density_matrix_json_round_trip() -> None:
    s = ModeStructure((2,))
    mat = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    d = DensityMatrix(s, mat).to_json_dict()
    assert d["dims"] == "2"
    back = np.array(d["re"]) + 1j * np.array(d["im"])
    assert np.allclose(back, mat, atol=0.0)


def test_purity_extremes() -> None:
    s = ModeStructure((2, 3))
    maximally_mixed = DensityMatrix(s, np.eye(6) / 6)
    assert purity(maximally_mixed) == pytest.approx(1 / 6, abs=1e-15)
    v = basis_state(s, 4)
    assert purity(outer(v)) == pytest.approx(1.0, abs=1e-15)


def test_outer_is_rank_one_projector() -> None:
    rng = np.random.default_rng(9)
    v = _random_pure(rng, ModeStructure((2, 2)))
    rho = outer(v)
    assert abs(np.trace(rho.entries) - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(rho.entries)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(evals[:-1] < 1e-12)


def test_mix_spectrum_of_orthonormal_states() -> None:
    s = ModeStructure((2, 2))
    rho = mix([basis_state(s, 1), basis_state(s, 4)], [0.7, 0.3])
    evals = sorted(np.linalg.eigvalsh(rho.entries), reverse=True)
    assert evals[0] == pytest.approx(0.7, abs=1e-14)
    assert evals[1] == pytest.approx(0.3, abs=1e-14)
    assert purity(rho) == pytest.approx(0.7**2 + 0.3**2, abs=1e-14)


def test_mix_validation() -> None:
    s = ModeStructure((2, 2))
    a, b = basis_state(s, 1), basis_state(s, 2)
    with pytest.raises(ValueError):
        mix([], [])
    with pytest.raises(ValueError):
        mix([a, b], [1.0])
    with pytest.raises(ValueError):
        mix([a, b], [0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        mix([a, b], [1.2, -0.2])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            mix([a, b], [bad, 0.5])
    other = basis_state(ModeStructure((4,)), 1)
    with pytest.raises(ValueError):
        mix([a, other], [0.5, 0.5])
