"""Reference checks behind the benchmark's pass/fail count.

Every check returns a list of error strings; an empty list means the
output matches its reference.  The checks use only the standard library
and numpy: they never call into `mmekit`, so a bug in the package cannot
vouch for itself.  They run after the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

CERT_TOL = 1e-9  # closed-form and min_avg tolerance for certificates
PURITY_TOL = 1e-9  # largest allowed reduction-purity deviation


def parse_dims(text: str) -> tuple[int, ...]:
    """"2x3x4" or "2^5" into a dims tuple (the CLI's two spellings)."""
    if "^" in text:
        base, power = text.split("^")
        return (int(base),) * int(power)
    return tuple(int(d) for d in text.split("x"))


# ---------------------------------------------------------------------
# Exact combinatorial test for rank witnesses
# ---------------------------------------------------------------------


def _labels(dims, level: int) -> tuple[int, ...]:
    """1-based mixed-radix labels of a 1-based level, mode 1 most
    significant."""
    out = []
    rest = level - 1
    for d in reversed(dims):
        out.append(rest % d + 1)
        rest //= d
    return tuple(reversed(out))


def _big_side(dims, m: int) -> tuple[int, ...]:
    """0-based modes of the bigger side of the extreme bipartition of
    mode m (0-based); ties keep m on the smaller side."""
    n_m = dims[m]
    n_rest = math.prod(dims) // n_m
    if n_m > n_rest:
        return (m,)
    return tuple(k for k in range(len(dims)) if k != m)


def witness_errors(dims, L: int, witness) -> list[str]:
    """Check a rank witness without the package.

    Each tuple must hold L distinct levels with balanced labels in every
    mode and no two levels one mode flip apart (the exact ME TGX test),
    and across the witness no level may repeat its projection onto the
    big side of any extreme bipartition (pairwise compatibility).
    """
    errors = []
    n = math.prod(dims)
    seen = [set() for _ in dims]
    for levels in witness:
        levels = [int(x) for x in levels]
        if len(levels) != L or len(set(levels)) != L:
            errors.append(f"tuple {levels} does not hold {L} distinct levels")
            continue
        if not all(1 <= x <= n for x in levels):
            errors.append(f"tuple {levels} leaves 1..{n}")
            continue
        vecs = [_labels(dims, x) for x in levels]
        for m, d in enumerate(dims):
            counts = sorted(
                (sum(1 for v in vecs if v[m] == a) for a in range(1, d + 1)),
                reverse=True,
            )
            q, r = divmod(L, d)
            if counts != [q + 1] * r + [q] * (d - r):
                errors.append(f"tuple {levels} is unbalanced in mode {m + 1}")
        for i in range(L):
            for j in range(i + 1, L):
                if sum(a != b for a, b in zip(vecs[i], vecs[j])) == 1:
                    errors.append(
                        f"tuple {levels}: levels {levels[i]} and {levels[j]} "
                        "differ in one mode"
                    )
        for m in range(len(dims)):
            big = _big_side(dims, m)
            for v in vecs:
                key = tuple(v[k] for k in big)
                if key in seen[m]:
                    errors.append(
                        f"tuple {levels} repeats a mode-{m + 1} projection"
                    )
                seen[m].add(key)
    return errors


# ---------------------------------------------------------------------
# Search outputs
# ---------------------------------------------------------------------

def table_rows(text: str) -> list[list]:
    """The reference columns of a `tables` CSV; extra columns are kept
    at the end so a later schema can add fields without failing."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        row = [int(rec["n"]), rec["dims"], int(rec["minLstar"]),
               int(rec["r_tilde"]), int(rec["R_MME"])]
        if "status" in rec:
            row.append(rec["status"])
        rows.append(row)
    return rows


def check_table(text: str, ref_rows) -> list[str]:
    try:
        rows = table_rows(text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable table: {exc!r}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    errors = []
    for row, ref in zip(rows, ref_rows):
        if row[: len(ref)] != list(ref):
            errors.append(f"row {row} differs from reference {list(ref)}")
    return errors


def check_rank(text: str, ref: dict) -> list[str]:
    """R_MME, status and L_used against the reference; the witness must
    equal the reference when the search is deterministic, and otherwise
    pass the exact combinatorial test."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"unreadable rank output: {exc!r}"]
    errors = []
    for key in ("R_MME", "status", "L_used", "r_tilde"):
        if out.get(key) != ref[key]:
            errors.append(f"{key} = {out.get(key)!r}, expected {ref[key]!r}")
    witness = out.get("witness", [])
    if len(witness) != out.get("R_MME"):
        errors.append(f"witness has {len(witness)} tuples for R_MME {out.get('R_MME')}")
    if ref["witness_exact"]:
        if witness != ref["witness"]:
            errors.append("witness differs from the reference")
    else:
        errors.extend(witness_errors(parse_dims(ref["dims"]), ref["L_used"], witness))
    return errors


def tuples_digest(tuples) -> str:
    blob = json.dumps([[int(x) for x in t] for t in tuples], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_tuples(text: str, ref: dict) -> list[str]:
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"unreadable tuples output: {exc!r}"]
    errors = []
    if out.get("L") != ref["L"]:
        errors.append(f"L = {out.get('L')!r}, expected {ref['L']}")
    if out.get("count") != ref["count"] or len(out.get("tuples", [])) != ref["count"]:
        errors.append(f"count = {out.get('count')!r}, expected {ref['count']}")
    if tuples_digest(out.get("tuples", [])) != ref["sha256"]:
        errors.append("tuple list differs from the reference")
    return errors


# ---------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------


def family_closed_form(kind: str, lam: float) -> float:
    """Grid minimum of the rank-2 comparison families at spectrum
    (lam, 1 - lam), lam in (0.5, 1)."""
    if kind == "mme":
        return 1.0
    if kind == "separable":
        return 0.0
    if kind == "e_selfspace":
        return (2 * lam - 1) ** 2
    if kind == "e_spacewise":
        return 1 - lam * (1 - lam)
    raise ValueError(f"no closed form for {kind!r}")


def check_grid_cert(kind: str, lam: float, min_avg: float, samples: int,
                    grid_points: int) -> list[str]:
    errors = []
    expected = family_closed_form(kind, lam)
    if not abs(min_avg - expected) <= CERT_TOL:
        errors.append(f"{kind} at lambda1={lam!r}: min_avg {min_avg!r}, "
                      f"closed form {expected!r}")
    if samples != grid_points:
        errors.append(f"{samples} unitaries evaluated, expected {grid_points}")
    return errors


def check_mme_cert(min_avg: float, samples: int, expected_samples: int,
                   max_deviation: float) -> list[str]:
    """An LU-dressed MME state: min_avg stays at 1 and every sampled
    reduction sits on the purity floor."""
    errors = []
    if not min_avg >= 1.0 - CERT_TOL:
        errors.append(f"min_avg {min_avg!r} below 1 - {CERT_TOL}")
    if samples != expected_samples:
        errors.append(f"{samples} unitaries evaluated, expected {expected_samples}")
    if not max_deviation <= PURITY_TOL:
        errors.append(f"reduction purity deviates by {max_deviation!r}")
    return errors


def check_construct(text: str, dims: str, tuples, spectrum) -> list[str]:
    """The `construct` payload echoes its inputs, and its matrix is a
    density matrix whose spectrum is the requested one."""
    try:
        out = json.loads(text)
        mat = np.asarray(out["matrix"]["re"]) + 1j * np.asarray(out["matrix"]["im"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable construct output: {exc!r}"]
    errors = []
    n = math.prod(parse_dims(dims))
    if parse_dims(str(out.get("dims"))) != parse_dims(dims):
        errors.append(f"dims {out.get('dims')!r}, expected {dims!r}")
    if out.get("tuples") != [sorted(t) for t in tuples]:
        errors.append("tuples differ from the input")
    if out.get("certificate", {}).get("rank") != len(tuples):
        errors.append("certificate rank differs from the tuple count")
    if mat.shape != (n, n):
        return errors + [f"matrix shape {mat.shape}, expected {(n, n)}"]
    if not np.allclose(mat, mat.conj().T, atol=1e-12, rtol=0.0):
        errors.append("matrix is not Hermitian")
    evals = np.sort(np.linalg.eigvalsh(mat))[::-1][: len(spectrum)]
    if not np.allclose(evals, sorted(spectrum, reverse=True), atol=1e-9, rtol=0.0):
        errors.append("matrix spectrum differs from the input spectrum")
    if not abs(float(np.trace(mat).real) - 1.0) <= 1e-9:
        errors.append("matrix trace is not 1")
    return errors
