from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from mmekit import cli
from mmekit.cli import _structures_upto
from mmekit.linalg import (
    ATOL,
    DensityMatrix,
    PureStateVector,
    mix,
    mode_purities,
    mode_reduction_of_pure,
)
from mmekit.mme import construct, max_mme_rank
from mmekit.modes import ModeStructure, parse_dims
from mmekit.verify import SpectralState, random_lu_set

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


def _basis_state(s: ModeStructure, level: int) -> PureStateVector:
    """The computational basis state |level> (1-based)."""
    amps = np.zeros(s.n, dtype=complex)
    amps[level - 1] = 1.0
    return PureStateVector(s, amps)


def _random_pure(rng: np.random.Generator, s: ModeStructure) -> PureStateVector:
    v = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
    return PureStateVector(s, v / np.linalg.norm(v))


def test_mode_reduction_of_pure_matches_partial_trace() -> None:
    rng = np.random.default_rng(5)
    for dims in [(2, 3), (2, 2, 2), (3, 2, 4)]:
        s = ModeStructure(dims)
        v = _random_pure(rng, s)
        rho = np.outer(v.amplitudes, v.amplitudes.conj())
        for m in range(1, s.N + 1):
            red = mode_reduction_of_pure(v, m)
            want = _einsum_partial_trace(rho, dims, (m,))
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
            rho = np.outer(v.amplitudes, v.amplitudes.conj())
            reds = [_einsum_partial_trace(rho, s.dims, (m,)) for m in range(1, s.N + 1)]
            want = [np.vdot(red, red).real for red in reds]
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
    assert v.amplitudes[1] == 1.0 + 0.0j
    w = _basis_state(s, 3)
    assert np.vdot(v.amplitudes, w.amplitudes) == 0.0 + 0.0j
    assert np.vdot(w.amplitudes, w.amplitudes) == pytest.approx(1.0)


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


def test_density_matrix_json_round_trip(capsys) -> None:
    # the CLI owns the printed form of a DensityMatrix: construct's matrix
    # reads back exactly
    argv = ["construct", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3"]
    assert cli.main(argv) == 0
    d = json.loads(capsys.readouterr().out)["matrix"]
    mat = construct(ModeStructure((2, 5)), [(1, 10), (2, 8)], (0.7, 0.3))[1].entries
    assert d["dims"] == "2x5"
    back = np.array(d["re"]) + 1j * np.array(d["im"])
    assert np.allclose(back, mat, atol=0.0)


def test_mix_spectrum_of_orthonormal_states() -> None:
    s = ModeStructure((2, 2))
    rows = [_basis_state(s, 1).amplitudes, _basis_state(s, 4).amplitudes]
    rho = SpectralState(s, [0.7, 0.3], rows).matrix()
    evals = sorted(np.linalg.eigvalsh(rho.entries), reverse=True)
    assert evals[0] == pytest.approx(0.7, abs=1e-14)
    assert evals[1] == pytest.approx(0.3, abs=1e-14)
    purity = np.vdot(rho.entries, rho.entries).real
    assert purity == pytest.approx(0.7**2 + 0.3**2, abs=1e-14)


@pytest.mark.parametrize("dims,lu_seed", [((4, 4, 4, 4), 7), ((2, 2, 2, 2), None)])
def test_mix_matches_outer_product_sum(dims, lu_seed) -> None:
    s = ModeStructure(dims)
    state = max_mme_rank(s).witness
    lu = None if lu_seed is None else random_lu_set(s, lu_seed)
    weights = np.arange(1.0, len(state) + 1)
    weights /= weights.sum()
    mme_state, rho = construct(s, state, weights, lu)
    want = sum(
        w * np.outer(v.amplitudes, v.amplitudes.conj())
        for v, w in zip(mme_state.eigenstates, weights)
    )
    assert len(state) > 1
    assert np.abs(rho.entries - want).max() < 1e-14


def _einsum_mix(rows, weights) -> np.ndarray:
    """sum_k w_k |psi_k><psi_k| by einsum, psi_k the k-th amplitude row: the
    oracle for `mix`."""
    B = np.column_stack(rows) * np.sqrt(weights)
    return np.einsum("ik,jk->ij", B, B.conj())


@pytest.mark.parametrize("dims,R", [((3, 3, 3, 3), 9), ((4, 4, 4, 4), 16)])
def test_mix_matches_einsum_oracle(dims, R) -> None:
    s = ModeStructure(dims)
    rng = np.random.default_rng(R)
    for _ in range(3):
        g = rng.standard_normal((s.n, R)) + 1j * rng.standard_normal((s.n, R))
        basis = np.linalg.qr(g)[0].T
        weights = rng.random(R) + 0.05
        weights /= weights.sum()
        rho = SpectralState(s, weights, basis).matrix().entries
        assert np.abs(rho - _einsum_mix(basis, weights)).max() <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= ATOL
        # BLAS need not mirror the two triangles bit for bit
        assert np.abs(rho - rho.conj().T).max() <= ATOL
        assert not np.diagonal(rho).imag.any()


PUBLISHED_SETS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)["published_sets"]


@pytest.mark.parametrize("dims", sorted(PUBLISHED_SETS))
@pytest.mark.parametrize("lu_seed", [None, 7])
def test_mix_is_bitwise_the_oracles_on_published_sets(dims, lu_seed) -> None:
    # rho is read off the checked basis and spectrum.  Bare, it is bit for
    # bit the einsum; LU-dressed, the einsum sums in another order, and rho
    # is bit for bit the BLAS product over the column stack of the
    # eigenstates' amplitudes
    s = parse_dims(dims)
    tuples = PUBLISHED_SETS[dims]
    weights = np.arange(1.0, len(tuples) + 1)
    weights /= weights.sum()
    lu = None if lu_seed is None else random_lu_set(s, lu_seed)
    state, rho = construct(s, tuples, weights, lu)
    einsum = _einsum_mix(state.basis, state.spectrum)
    B = np.column_stack([v.amplitudes for v in state.eigenstates]) * np.sqrt(state.spectrum)
    stacked = B @ B.conj().T + 0.0
    np.fill_diagonal(stacked.imag, 0.0)
    assert np.array_equal(rho.entries, stacked)
    assert np.array_equal(state.matrix().entries, rho.entries)
    if lu is None:
        assert np.array_equal(rho.entries, einsum)
    assert np.abs(rho.entries - einsum).max() <= 1e-15


@pytest.mark.parametrize("dims", sorted(PUBLISHED_SETS))
@pytest.mark.parametrize("lu_seed", [None, 7])
def test_construct_mixes_rho_when_first_read(spy, dims, lu_seed) -> None:
    # `construct` builds no rho; the first read of `entries` mixes it, once,
    # bit for bit as `mix` does, and later reads return the same array
    s = parse_dims(dims)
    tuples = PUBLISHED_SETS[dims]
    lu = None if lu_seed is None else random_lu_set(s, lu_seed)
    calls = spy(mix)
    state, rho = construct(s, tuples, (1 / len(tuples),) * len(tuples), lu)
    assert calls == [] and isinstance(rho, DensityMatrix)
    entries = rho.entries
    assert rho.entries is entries and calls == [(state,)]
    assert np.array_equal(entries, mix(state))


def test_mix_of_real_states_prints_no_negative_zero() -> None:
    # a conjugated BLAS product has -0.0 in the imaginary parts of a real
    # state; `mix` returns +0.0 there, as the einsum does, and so
    # `construct` prints 0.0
    s = ModeStructure((2, 5))
    state, rho = construct(s, [(1, 10), (2, 8)], (0.7, 0.3))
    assert not np.signbit(rho.entries.imag).any()
    assert not np.signbit(rho.entries.real[rho.entries.real == 0]).any()
    assert np.array_equal(rho.entries, _einsum_mix(state.basis, (0.7, 0.3)))


def test_mix_validation() -> None:
    # `mix` reads no weight: the SpectralState it reads refused bad ones
    s = ModeStructure((2, 2))
    ab = [_basis_state(s, 1).amplitudes, _basis_state(s, 2).amplitudes]
    with pytest.raises(ValueError):
        SpectralState(s, [], np.zeros((0, 4)))
    with pytest.raises(ValueError):
        SpectralState(s, [1.0], ab)
    with pytest.raises(ValueError):
        SpectralState(s, [0.5, 0.4], ab)  # sums to 0.9
    with pytest.raises(ValueError):
        SpectralState(s, [1.2, -0.2], ab)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SpectralState(s, [bad, 0.5], ab)
    other = ModeStructure((2, 2, 2))
    with pytest.raises(ValueError):
        SpectralState(s, [0.5, 0.5], [_basis_state(other, k).amplitudes for k in (1, 2)])
