"""Acceptance gate: every published claim the package must reproduce.

Each test prints one PASS/FAIL line so the gate can be read off a plain
pytest -s run.  Tolerances are stated inline; reference rows live in
reference_values.py and were frozen from an independent brute-force
script before the package existed.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mmekit.cli import main
from mmekit.entcore import lstar
from mmekit.linalg import PureStateVector
from mmekit.mme import compatible, construct, max_mme_rank, validate_example_set
from mmekit.modes import ModeStructure
from mmekit.tgx import apply_lu, enumerate_me_tuples
from mmekit.verify import (
    as_spectral,
    decompose,
    haar_unitary,
    min_avg_ent,
    random_lu_set,
    reduction_purity_report,
)

from reference_values import (
    CERTIFICATE_STATES,
    EXAMPLE_SETS,
    EXAMPLE_SETS_LARGER,
    QUBIT_SETS,
    QUBIT_SURVEY,
    SMALL_SURVEY,
    SPACEWISE_GRID_MIN_BALANCED,
    TRI_SURVEY,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _table_rows(capsys, argv: list[str]) -> list[list[str]]:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return [line.split(",") for line in out.strip().splitlines()[1:]]


def test_acceptance_small_system_rank_table(capsys) -> None:
    rows = _table_rows(capsys, ["tables", "1", "--format", "csv"])
    got = [(int(r[0]), r[1], int(r[4])) for r in rows]
    want = [(n, "x".join(str(d) for d in dims), R) for n, dims, R in SMALL_SURVEY]
    ok = got == want
    _report(
        "small-system rank table",
        ok,
        f"{len(got)} rows, exact match to published ranks = {ok}",
    )


def test_acceptance_three_plus_mode_rank_table(capsys) -> None:
    rows = _table_rows(capsys, ["tables", "3", "--format", "csv"])
    got = [(int(r[0]), r[1], int(r[2]), int(r[3]), int(r[4])) for r in rows]
    want = [
        (n, "x".join(str(d) for d in dims), minL, rt, R)
        for n, dims, minL, rt, R in TRI_SURVEY
    ]
    hardest = max_mme_rank(ModeStructure((2, 2, 3, 3)))
    ok = got == want and hardest.status == "complete" and hardest.exhaustive
    _report(
        "three-plus-mode rank table",
        ok,
        f"{len(got)} rows exact = {got == want}; "
        f"2x2x3x3 search {hardest.status} in {hardest.nodes} nodes",
    )


def test_acceptance_qubit_ladder() -> None:
    details = []
    ok = True
    for N in range(2, 6):
        report = max_mme_rank(ModeStructure((2,) * N))
        ok = ok and report.exhaustive and report.R_MME == QUBIT_SURVEY[N][1]
        details.append(f"2^{N}:R={report.R_MME}")

    s6 = ModeStructure((2,) * 6)
    published = validate_example_set(s6, QUBIT_SETS[6])
    report6 = max_mme_rank(s6)
    ok = ok and published.all_pass
    ok = ok and report6.status == "complete" and report6.R_MME == 16
    ok = ok and report6.R_MME == report6.r_tilde
    details.append(f"2^6:R={report6.R_MME} ({report6.status})")

    report7 = max_mme_rank(ModeStructure((2,) * 7), search="greedy")
    ok = ok and report7.R_MME >= 22 and compatible(report7.witness)
    details.append(f"2^7:R>={report7.R_MME} (greedy)")
    _report("qubit ladder 2^2..2^7", ok, ", ".join(details))


def test_acceptance_qubit_2_7_exhaustive() -> None:
    # the published 2^7 rank is a greedy lower bound; the colouring-bounded
    # clique search proves it maximal in a few thousand nodes
    report = max_mme_rank(ModeStructure((2,) * 7), search="exhaustive")
    bnb_nodes = report.nodes - report.tuple_count
    ok = report.status == "complete" and report.exhaustive
    ok = ok and report.R_MME == QUBIT_SURVEY[7][1] and compatible(report.witness)
    ok = ok and bnb_nodes < 20_000
    _report(
        "qubit 2^7 exhaustive",
        ok,
        f"R={report.R_MME} ({report.status}) over {report.tuple_count} tuples "
        f"in {bnb_nodes} search nodes",
    )


def test_acceptance_published_eigen_tuple_sets() -> None:
    checked = 0
    ok = True
    for table in (EXAMPLE_SETS, EXAMPLE_SETS_LARGER):
        for dims, level_sets in table.items():
            report = validate_example_set(ModeStructure(dims), level_sets)
            ok = ok and report.all_pass
            checked += 1
    _report(
        "published eigen-tuple sets",
        ok,
        f"{checked} sets: every tuple ME, every set and pair compatible",
    )


def test_acceptance_figure_certificates() -> None:
    details = []
    ok = True
    for dims, level_sets in CERTIFICATE_STATES.items():
        state, _ = construct(ModeStructure(dims), level_sets, (0.7, 0.3))
        spec, _ = as_spectral(state)

        grid = min_avg_ent(spec, strategy="grid")
        grid_ok = grid.samples == 400 and all(
            abs(a - 1.0) <= 1e-9 for a in grid.averages
        )
        rand = min_avg_ent(spec, strategy="random", samples=100)
        rand_ok = rand.samples == 300 and rand.min_avg >= 1 - 1e-9

        ok = ok and grid_ok and rand_ok
        details.append(
            f"{'x'.join(str(d) for d in dims)}: grid min {grid.min_avg:.12f}, "
            f"random min {rand.min_avg:.12f}"
        )
    _report("figure certificates at 1e-9", ok, "; ".join(details))


def test_acceptance_family_sweep(capsys) -> None:
    rows = _table_rows(capsys, ["sweep", "--format", "csv"])
    by_family: dict[str, list[tuple[float, float]]] = {}
    for family, lam1, min_avg in rows:
        by_family.setdefault(family, []).append((float(lam1), float(min_avg)))

    ok = all(len(v) == 500 for v in by_family.values())
    ok = ok and all(abs(v - 1.0) <= 1e-9 for _, v in by_family["mme"])
    ok = ok and all(abs(v) <= 1e-9 for _, v in by_family["separable"])

    self_at_half = by_family["e_selfspace"][0]
    space_at_half = by_family["e_spacewise"][0]
    ok = ok and self_at_half[0] == 0.5 and abs(self_at_half[1]) <= 1e-6
    ok = ok and space_at_half[0] == 0.5
    ok = ok and abs(space_at_half[1] - SPACEWISE_GRID_MIN_BALANCED) <= 1e-9
    ok = ok and space_at_half[1] < 0.999
    _report(
        "comparison-family sweep",
        ok,
        f"{sum(len(v) for v in by_family.values())} spectra; "
        f"balanced e_selfspace {self_at_half[1]:.2e}, "
        f"balanced e_spacewise {space_at_half[1]:.12f}",
    )


def test_acceptance_bipartite_closed_form() -> None:
    checked = 0
    ok = True
    for n_S in range(2, 5):
        for n_B in range(n_S, 13):
            report = max_mme_rank(ModeStructure((n_S, n_B)))
            ok = ok and report.exhaustive and report.R_MME == n_B // n_S
            checked += 1
    _report(
        "bipartite closed form",
        ok,
        f"{checked} structures with R equal to floor(n_B/n_S)",
    )


def _certified_states():
    out = []
    for dims, level_sets, spectrum in [
        ((2, 5), CERTIFICATE_STATES[(2, 5)], (0.7, 0.3)),
        ((2, 2, 2, 2), QUBIT_SETS[4], (0.4, 0.3, 0.2, 0.1)),
        ((2, 6), EXAMPLE_SETS[(2, 6)], (0.5, 0.3, 0.2)),
        ((3, 6), None, (0.6, 0.4)),
        ((3, 3, 3), None, (0.5, 0.3, 0.2)),
    ]:
        s = ModeStructure(dims)
        if level_sets is None:
            level_sets = tuple(t.levels for t in max_mme_rank(s).witness)
        state, _ = construct(s, level_sets, spectrum)
        spec, _ = as_spectral(state)
        out.append(spec)
    return out


def test_acceptance_reconstruction_fidelity() -> None:
    rng = np.random.default_rng(2026)
    states = _certified_states()
    worst = 0.0
    count = 0
    for spec in states:
        rho = spec.matrix().entries
        r = spec.rank
        for _ in range(200):
            D = int(rng.integers(r, r * r + 1))
            sample = decompose(spec, haar_unitary(D, rng))
            rebuilt = sum(
                p * np.outer(w.amplitudes, w.amplitudes.conj())
                for p, w in zip(sample.probabilities, sample.members)
                if w is not None
            )
            worst = max(worst, float(np.abs(rebuilt - rho).max()))
            count += 1
    ok = count == 1000 and worst <= 1e-10
    _report(
        "decomposition reconstruction",
        ok,
        f"{count} decompositions, worst entry deviation {worst:.2e} (tol 1e-10)",
    )


def test_acceptance_lu_invariance() -> None:
    from mmekit.entcore import ent_pure

    rng = np.random.default_rng(88)
    worst = 0.0
    count = 0
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3)]:
        s = ModeStructure(dims)
        for i in range(100):
            raw = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
            v = PureStateVector(s, raw / np.linalg.norm(raw))
            moved = apply_lu(v, random_lu_set(s, i))
            worst = max(worst, abs(ent_pure(moved) - ent_pure(v)))
            count += 1
    ok = count == 400 and worst <= 1e-9
    _report(
        "local-unitary invariance",
        ok,
        f"{count} draws, worst drift {worst:.2e} (tol 1e-9)",
    )


def _independent_floor(dims: tuple[int, ...], L: int) -> Fraction:
    # per-mode minimal purity at L, then the modewise affine average
    total = Fraction(0)
    for d in dims:
        q, rem = divmod(L, d)
        p = rem * Fraction(q + 1, L) ** 2 + (d - rem) * Fraction(q, L) ** 2
        total += Fraction(d * p - 1, d - 1)
    return total / len(dims)


def _independent_lstar(dims: tuple[int, ...]) -> tuple[list[int], Fraction]:
    n = math.prod(dims)
    floors = {L: _independent_floor(dims, L) for L in range(2, n // max(dims) + 1)}
    best = min(floors.values())
    return [L for L, f in floors.items() if f == best], best


def _independent_avg_E(dims: tuple[int, ...], levels: tuple[int, ...]) -> float:
    n = math.prod(dims)
    vec = np.zeros(n, dtype=complex)
    for lv in levels:
        vec[lv - 1] = 1 / math.sqrt(len(levels))
    tensor = vec.reshape(dims)
    total = 0.0
    for axis, d in enumerate(dims):
        mat = np.moveaxis(tensor, axis, 0).reshape(d, n // d)
        red = mat @ mat.conj().T
        p = float(np.trace(red @ red).real)
        total += (d * p - 1) / (d - 1)
    return total / len(dims)


def _multipartite_structures(n_max: int):
    found = set()

    def grow(prefix: tuple[int, ...], product: int):
        if len(prefix) >= 2:
            found.add(prefix)
        for d in range(prefix[-1] if prefix else 2, n_max // product + 1):
            if product * d <= n_max:
                grow(prefix + (d,), product * d)

    grow((), 1)
    return sorted(found, key=lambda t: (math.prod(t), len(t), t))


def test_acceptance_enumeration_matches_brute_force() -> None:
    structures = 0
    tuples_checked = 0
    ok = True
    for dims in _multipartite_structures(16):
        s = ModeStructure(dims)
        ls, floor = _independent_lstar(dims)
        ok = ok and list(lstar(s).values) == ls
        for L in ls:
            brute = [
                combo
                for combo in itertools.combinations(range(1, s.n + 1), L)
                if _independent_avg_E(dims, combo) <= float(floor) + 1e-10
            ]
            fast = [t.levels for t in enumerate_me_tuples(s, L)]
            ok = ok and fast == brute
            tuples_checked += len(brute)
        structures += 1
    _report(
        "enumeration vs brute force",
        ok,
        f"{structures} structures up to n=16, {tuples_checked} tuples agree",
    )


def test_acceptance_reduction_purity_constancy() -> None:
    rng = np.random.default_rng(404)
    count = 0
    ok = True
    worst = 0.0
    for spec in _certified_states():
        r = spec.rank
        for D in (r, r * r):
            for _ in range(10):
                sample = decompose(spec, haar_unitary(D, rng))
                report = reduction_purity_report(sample)
                ok = ok and report.clean
                worst = max(worst, report.max_deviation)
                count += 1
    _report(
        "reduction-purity constancy",
        ok,
        f"{count} sampled decompositions, worst deviation {worst:.2e} (tol 1e-9)",
    )
