"""Command-line interface.

Subcommands:
  lstar              per-system L* report
  tuples             enumerate ME TGX tuples
  rank               maximal MME rank search
  construct          build an MME state from tuples + spectrum
  verify             decomposition-sampling certificate
  tables             regenerate the rank survey tables
  sweep              spectrum sweeps of the comparison families
  validate-examples  certify a published eigen-tuple set

All output is deterministic for a fixed argument list (seeds included),
so identical invocations are byte-identical.  Exit codes: 0 success,
2 argument/validation error, 3 inconclusive search (budget exhausted),
4 internal error (any unexpected exception, reported without a
traceback).
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

import numpy as np

from .entcore import UnsupportedSystemError, lstar
from .linalg import ATOL
from .mme import construct, max_mme_rank, validate_example_set
from .modes import ModeStructure, parse_dims
from .tgx import enumerate_me_tuples
from .verify import (
    COMPARISON_KINDS,
    comparison_family_spectral,
    min_avg_ent,
    random_lu_set,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _parse_tuples(text: str) -> list[list[int]]:
    """";"-separated tuples of ","-separated levels: "1,16;4,13"."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty tuple in {text!r}")
        out.append([int(x) for x in part.split(",")])
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"grid must be 'T,C', got {text!r}")
    t, c = (int(p) for p in parts)
    if t < 1 or c < 1:
        raise ValueError("grid steps must be positive")
    return t, c


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _factorizations(n: int, min_factor: int = 2):
    """Ascending-ordered factor tuples of n with every factor >= 2."""
    if n == 1:
        yield ()
        return
    d = min_factor
    while d * d <= n:
        if n % d == 0:
            for rest in _factorizations(n // d, d):
                yield (d,) + rest
        d += 1
    if n >= min_factor:
        yield (n,)


def _structures_upto(max_n: int):
    """All multipartite structures with n <= max_n, in table order."""
    for n in range(4, max_n + 1):
        dims_list = [d for d in _factorizations(n) if len(d) >= 2]
        for dims in sorted(dims_list, key=lambda d: (len(d), d)):
            yield ModeStructure(dims)


def _rank_row(s: ModeStructure, args) -> dict:
    report = max_mme_rank(
        s,
        search=getattr(args, "search", "auto"),
        budget_nodes=getattr(args, "budget_nodes", None),
        seed=getattr(args, "seed", 0),
    )
    return {
        "n": s.n,
        "dims": str(s),
        "minLstar": lstar(s).min,
        "r_tilde": report.r_tilde,
        "R_MME": report.R_MME,
        "status": report.status,
    }


TABLE_HEADER = ["n", "dims", "minLstar", "r_tilde", "R_MME"]


def cmd_lstar(args) -> int:
    s = parse_dims(args.dims)
    _emit(_json(lstar(s).to_json_dict(str(s))), args.out)
    return EXIT_OK


def cmd_tuples(args) -> int:
    s = parse_dims(args.dims)
    L = args.L if args.L is not None else lstar(s).min
    tuples = enumerate_me_tuples(s, L)
    if args.format == "csv":
        header = [f"level{i + 1}" for i in range(L)]
        _emit(_csv([list(t.levels) for t in tuples], header), args.out)
    else:
        _emit(
            _json(
                {
                    "dims": str(s),
                    "L": L,
                    "count": len(tuples),
                    "tuples": [list(t.levels) for t in tuples],
                }
            ),
            args.out,
        )
    return EXIT_OK


def cmd_rank(args) -> int:
    s = parse_dims(args.dims)
    report = max_mme_rank(
        s,
        search=args.search,
        L=args.L,
        all_lstar=args.all_lstar,
        budget_nodes=args.budget_nodes,
        seed=args.seed,
    )
    if args.format == "csv":
        row = [s.n, str(s), lstar(s).min, report.r_tilde, report.R_MME]
        _emit(_csv([row], TABLE_HEADER), args.out)
    else:
        _emit(_json(report.to_json_dict()), args.out)
    return EXIT_INCONCLUSIVE if report.status == "inconclusive" else EXIT_OK


def _build_state(dims: str, tuples_text: str, spectrum_text: str, lu_seed):
    s = parse_dims(dims)
    tuples = _parse_tuples(tuples_text)
    spectrum = _parse_floats(spectrum_text)
    lus = random_lu_set(s, lu_seed) if lu_seed is not None else None
    return construct(s, tuples, spectrum, lus)


def cmd_construct(args) -> int:
    state, rho = _build_state(args.dims, args.tuples, args.spectrum, args.lu_seed)
    payload = {
        "dims": str(state.structure),
        "tuples": [list(t.levels) for t in state.tuples],
        "spectrum": list(state.spectrum),
        "lu_seed": args.lu_seed,
        "certificate": {
            "rank": state.rank,
            "L": state.tuples[0].L,
            "me_tuples": True,
            "compatible": True,
            "trivial_pure": state.is_trivial,
        },
        "matrix": rho.to_json_dict(),
    }
    _emit(_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.state:
        with open(args.state) as fh:
            saved = json.load(fh)
        try:
            dims, seed = str(saved["dims"]), saved.get("lu_seed")
            tuples_text = ";".join(",".join(str(x) for x in t) for t in saved["tuples"])
            spectrum_text = ",".join(repr(float(w)) for w in saved["spectrum"])
            seed = None if seed is None else operator.index(seed)
            matrix = saved["matrix"]
            matrix = np.array(matrix["re"], float) + 1j * np.array(matrix["im"], float)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad state file {args.state}: {exc!r}") from None
        state, rho = _build_state(dims, tuples_text, spectrum_text, seed)
        if matrix.shape != rho.entries.shape or not np.allclose(
            matrix, rho.entries, atol=ATOL, rtol=0.0
        ):
            raise ValueError(f"state file {args.state}: the saved matrix differs "
                             "from the state its dims, tuples, spectrum and lu_seed build")
    elif args.dims and args.tuples and args.spectrum:
        state, _ = _build_state(args.dims, args.tuples, args.spectrum, args.lu_seed)
    else:
        raise ValueError("give --state FILE, or dims with --tuples and --spectrum")
    estimate = min_avg_ent(
        state,
        strategy=args.strategy,
        grid=_parse_grid(args.grid),
        Dmin=args.Dmin,
        Dmax=args.Dmax,
        samples=args.samples,
        seed=args.seed,
    )
    _emit(
        _json(
            {
                "dims": str(estimate.structure),
                "strategy": estimate.strategy,
                "samples": estimate.samples,
                "min_avg": estimate.min_avg,
                "argmin": estimate.argmin,
                "notes": estimate.notes,
            }
        ),
        args.out,
    )
    return EXIT_OK


def cmd_tables(args) -> int:
    rows = []
    status_worst = EXIT_OK
    if args.which in (1, 3):
        max_n = args.max_n if args.max_n is not None else (28 if args.which == 1 else 36)
        for s in _structures_upto(max_n):
            if args.which == 3 and s.N < 3:
                continue
            row = _rank_row(s, args)
            if args.which == 3 and s.n < 29 and row["R_MME"] < 2:
                continue  # below n=29 the survey keeps only MME-hosting systems
            rows.append(row)
    else:
        max_N = args.max_N if args.max_N is not None else 6
        for N in range(2, max_N + 1):
            rows.append(_rank_row(ModeStructure((2,) * N), args))
    if any(r["status"] == "inconclusive" for r in rows):
        status_worst = EXIT_INCONCLUSIVE
    if args.format == "json":
        if args.which != 5:
            for r in rows:
                r.pop("status", None)
        _emit(_json(rows), args.out)
    else:
        header = TABLE_HEADER + (["status"] if args.which == 5 else [])
        table = []
        for r in rows:
            row = [r["n"], r["dims"], r["minLstar"], r["r_tilde"], r["R_MME"]]
            if args.which == 5:
                row.append(r["status"])
            table.append(row)
        _emit(_csv(table, header), args.out)
    return status_worst


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    kinds = list(COMPARISON_KINDS) if args.family == "all" else [args.family]
    grid = _parse_grid(args.grid)
    rows = []
    for kind in kinds:
        for k in range(args.points):
            lam1 = 0.5 + 0.5 * k / args.points
            state = comparison_family_spectral(kind, (lam1, 1.0 - lam1))
            est = min_avg_ent(state, strategy="grid", grid=grid)
            rows.append([kind, repr(lam1), repr(est.min_avg)])
    _emit(_csv(rows, ["family", "lambda1", "min_avg"]), args.out)
    return EXIT_OK


def cmd_validate_examples(args) -> int:
    s = parse_dims(args.dims)
    report = validate_example_set(s, _parse_tuples(args.tuples))
    _emit(_json(report.to_json_dict()), args.out)
    return EXIT_OK


def _add_common(p, fmt_default="json"):
    p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
    p.add_argument("--out", metavar="PATH", help="write output to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmekit",
        description=(
            "Find, build and certify mixed maximally entangled states of "
            "finite multipartite systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lstar", help="ME level counts L* and purity floor")
    p.add_argument("dims", help='mode structure, e.g. "2x3x4" or "2^5"')
    _add_common(p)
    p.set_defaults(handler=cmd_lstar)

    p = sub.add_parser("tuples", help="enumerate ME TGX tuples")
    p.add_argument("dims")
    p.add_argument("--L", type=int, help="levels per tuple (default: min L*)")
    _add_common(p)
    p.set_defaults(handler=cmd_tuples)

    p = sub.add_parser(
        "rank",
        help="maximal MME rank search",
        description="CSV schema: n,dims,minLstar,r_tilde,R_MME",
    )
    p.add_argument("dims")
    p.add_argument("--search", choices=("auto", "exhaustive", "greedy"),
                   default="auto")
    p.add_argument("--L", type=int, help="fix the tuple size (must lie in L*)")
    p.add_argument("--all-lstar", action="store_true",
                   help="search every L in L* and report the best")
    p.add_argument("--budget-nodes", type=int, metavar="B",
                   help="abort after B search nodes (exit 3)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("construct", help="build an MME state from tuples")
    p.add_argument("dims")
    p.add_argument("--tuples", required=True,
                   help='";"-separated level tuples, e.g. "1,16;4,13"')
    p.add_argument("--spectrum", required=True, help='e.g. "0.7,0.3"')
    p.add_argument("--lu-seed", type=int, dest="lu_seed",
                   help="dress with seeded random local unitaries")
    _add_common(p)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser(
        "verify",
        help="decomposition-sampling certificate",
        description=(
            "Reads a construct output via --state, or an inline dims/tuples/"
            "spectrum spec.  Emits JSON {min_avg, samples, strategy, argmin}."
        ),
    )
    p.add_argument("dims", nargs="?", help="inline spec: mode structure")
    p.add_argument("--state", metavar="FILE", help="construct output to verify")
    p.add_argument("--tuples")
    p.add_argument("--spectrum")
    p.add_argument("--lu-seed", type=int, dest="lu_seed")
    p.add_argument("--strategy", choices=("grid", "random"), default="grid")
    p.add_argument("--grid", default="20,20", metavar="T,C")
    p.add_argument("--samples", type=int, default=100, metavar="K",
                   help="random strategy: samples per dimension D")
    p.add_argument("--Dmin", type=int)
    p.add_argument("--Dmax", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "tables",
        help="regenerate the rank survey tables",
        description=(
            "1: all multipartite systems, n <= 28.  3: N >= 3 systems, "
            "n <= 36 (below n=29 only MME-hosting rows).  5: qubit systems "
            "2^N.  Every row is recomputed, never echoed.  "
            "CSV schema: n,dims,minLstar,r_tilde,R_MME[,status]."
        ),
    )
    p.add_argument("which", type=int, choices=(1, 3, 5))
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="tables 1/3: largest total dimension")
    p.add_argument("--max-N", type=int, dest="max_N",
                   help="table 5: largest qubit count (default 6)")
    p.add_argument("--search", choices=("auto", "exhaustive", "greedy"),
                   default="auto")
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, fmt_default="csv")
    p.set_defaults(handler=cmd_tables)

    p = sub.add_parser(
        "sweep",
        help="spectrum sweeps of the four-qubit comparison families",
        description=(
            "Sweeps lambda1 from 0.5 (inclusive) to 1 (exclusive) and "
            "reports the grid minimum average entanglement per spectrum.  "
            "CSV schema: family,lambda1,min_avg."
        ),
    )
    p.add_argument("--family", choices=COMPARISON_KINDS + ("all",),
                   default="all")
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--grid", default="20,20", metavar="T,C")
    _add_common(p, fmt_default="csv")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("validate-examples",
                       help="certify a published eigen-tuple set")
    p.add_argument("dims")
    p.add_argument("--tuples", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_validate_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UnsupportedSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug, not bad input: name it, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
