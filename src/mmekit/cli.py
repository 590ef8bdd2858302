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

Each handler builds its payload from the library's result objects, which
carry no printed form, and `_json` or `_csv` writes it; the handler
returns that text and an exit code, and `main` writes the text to stdout
or `--out`.  `tuples`, `rank` and `tables` write JSON or
CSV (`--format`); `sweep` writes CSV and the rest JSON.  All output is
deterministic for a fixed argument list (seeds included), so identical
invocations are byte-identical.  Exit codes: 0 success,
2 argument/validation error, 3 inconclusive search (node budget spent,
or the graph rows would pass 1 GiB), 4 internal error (any unexpected
exception, reported without a traceback).  `verify --state` reads its
file once, and every refusal of a state file names the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

import numpy as np

from .entcore import lstar
from .linalg import ATOL
from .mme import construct, max_mme_rank, validate_example_set
from .modes import MAX_N, ModeStructure, _check_int, parse_dims
from .tgx import enumerate_me_tuples
from .verify import (
    COMPARISON_KINDS,
    GRID_STEPS,
    comparison_family_spectral,
    min_avg_ent,
    random_lu_set,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _numbers(option: str, text: str, parts, kind) -> list:
    """`parts` of `option`'s `text`, read by `kind`; refusals name both."""
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ValueError(f"{option} {text!r}: expected {kind.__name__} values") from None


def _parse_tuples(text: str) -> list[list[int]]:
    """";"-separated tuples of ","-separated levels: "1,16;4,13"."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ValueError(f"--tuples {text!r}: empty tuple")
        out.append(_numbers("--tuples", text, part.split(","), int))
    return out


def _parse_floats(text: str) -> list[float]:
    return _numbers("--spectrum", text, text.split(","), float)


def _int_rows(obj) -> bool:
    """Whether `obj` is a list of non-empty lists or tuples of plain ints,
    which `str` writes as JSON does."""
    return ({type(r) for r in obj} <= {list, tuple} and all(obj)
            and set(map(type, chain.from_iterable(obj))) == {int})


def _indented(obj, pad: str) -> str:
    """`json.dumps(obj, indent=2)` opened at `pad`, byte for byte (string keys),
    with a numpy array standing for its `.tolist()`.  With `indent` the stdlib
    encodes in pure Python; a list of int rows (`_int_rows`, such as the tuples)
    takes one `str.join` per row, any other list one call per item.  A non-empty
    2-D float array encodes each distinct magnitude once: a density matrix is close
    to Hermitian, so most magnitudes repeat, and `float.__repr__` is the cost."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind != "f" or not obj.size:
            return _indented(obj.tolist(), pad)
        mags, where = np.unique(np.abs(obj), return_inverse=True)
        text = json.dumps(mags.tolist())[1:-1].split(", ")
        signed = np.array(text + ["-" + t for t in text], dtype=object)
        neg = np.signbit(obj) & (obj == obj)  # a NaN prints "NaN" whatever its sign
        cells = signed[where.reshape(obj.shape) + len(mags) * neg].tolist()
        row = ",\n" + inner + "  "
        body = (",\n" + inner).join(
            "[\n" + inner + "  " + row.join(r) + "\n" + inner + "]" for r in cells)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict) and obj:
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    if _int_rows(obj):  # a tuple list: one join per row
        head, sep, tail = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        body = (",\n" + inner).join(head + sep.join(map(str, r)) + tail for r in obj)
    else:
        body = (",\n" + inner).join(_indented(x, inner) for x in obj)
    return "[\n" + inner + body + "\n" + pad + "]"


def _json(obj) -> str:
    return _indented(obj, "") + "\n"


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _factorizations(n: int, min_factor: int = 2):
    """Ascending-ordered factor tuples of n >= min_factor >= 2 with every
    factor at least min_factor."""
    d = min_factor
    while d * d <= n:
        if n % d == 0:
            for rest in _factorizations(n // d, d):
                yield (d,) + rest
        d += 1
    yield (n,)


def _structures_upto(max_n: int):
    """All multipartite structures with n <= max_n, in table order."""
    for n in range(4, max_n + 1):
        dims_list = [d for d in _factorizations(n) if len(d) >= 2]
        for dims in sorted(dims_list, key=lambda d: (len(d), d)):
            yield ModeStructure(dims)


def _rank_row(s: ModeStructure, r) -> list:
    """A rank report's TABLE_HEADER columns, for `rank` and every table."""
    return [s.n, str(s), lstar(s).min, r.r_tilde, r.R_MME, r.status, r.L_used]


TABLE_HEADER = ["n", "dims", "minLstar", "r_tilde", "R_MME", "status", "L_used"]


def cmd_lstar(args) -> tuple[str, int]:
    s = parse_dims(args.dims)
    ls = lstar(s)
    payload = {"dims": str(s), "Lstar": list(ls.values), "M_star": ls.min_mean,
               "table": {str(L): v for L, v in sorted(ls.per_L_mean.items())}}
    return _json(payload), EXIT_OK


def cmd_tuples(args) -> tuple[str, int]:
    s = parse_dims(args.dims)
    L = args.L if args.L is not None else lstar(s).min
    levels = [t.levels for t in enumerate_me_tuples(s, L)]
    if args.format == "csv":
        return _csv(levels, [f"level{i + 1}" for i in range(L)]), EXIT_OK
    payload = {"dims": str(s), "L": L, "count": len(levels), "tuples": levels}
    return _json(payload), EXIT_OK


def cmd_rank(args) -> tuple[str, int]:
    s = parse_dims(args.dims)
    report = max_mme_rank(
        s,
        search=args.search,
        L=args.L,
        all_lstar=args.all_lstar,
        budget_nodes=args.budget_nodes,
        seed=args.seed,
    )
    code = EXIT_INCONCLUSIVE if report.status == "inconclusive" else EXIT_OK
    if args.format == "csv":
        return _csv([_rank_row(s, report)], TABLE_HEADER), code
    payload = {"dims": str(s), "n": s.n, "L_used": report.L_used, "r_tilde": report.r_tilde,
               "R_MME": report.R_MME, "witness": [list(t.levels) for t in report.witness],
               "exhaustive": report.exhaustive, "status": report.status,
               "nodes": report.nodes, "tuple_count": report.tuple_count}
    return _json(payload), code


def _build_state(s: ModeStructure, tuples, spectrum, lu_seed):
    lus = random_lu_set(s, lu_seed) if lu_seed is not None else None
    return construct(s, tuples, spectrum, lus)


def cmd_construct(args) -> tuple[str, int]:
    state, rho = _build_state(parse_dims(args.dims), _parse_tuples(args.tuples),
                              _parse_floats(args.spectrum), args.lu_seed)
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
        # the writer encodes the (n, n) float views without a `.tolist()`
        "matrix": {"dims": str(rho.structure), "re": rho.entries.real,
                   "im": rho.entries.imag},
    }
    return _json(payload), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    inline = (args.dims, args.tuples, args.spectrum, args.lu_seed)
    if args.state and any(x is not None for x in inline):
        raise ValueError("give --state FILE or an inline spec (dims, --tuples, --spectrum, "
                         "--lu-seed), not both")
    if args.state:  # `construct` and `random_lu_set` read the spec; refusals name the file
        try:
            with open(args.state) as fh:
                saved = json.load(fh)
            if not isinstance(saved, dict) or {"dims", "tuples", "spectrum"} - saved.keys():
                raise ValueError("expected a JSON object with dims, tuples and spectrum")
            state, rho = _build_state(parse_dims(str(saved["dims"])), saved["tuples"],
                                      saved["spectrum"], saved.get("lu_seed"))
            n, parts = state.structure.n, []
            for k in ("re", "im"):  # a part absent, ragged or not numbers has no shape
                try:
                    parts.append(np.array(saved["matrix"][k], float))
                except (KeyError, OverflowError, TypeError, ValueError):
                    parts.append(None)
                if np.shape(parts[-1]) != (n, n):
                    raise ValueError(f"matrix.{k} must be an n x n array of numbers, n = {n}")
            if not np.allclose(parts[0] + 1j * parts[1], rho.entries, atol=ATOL, rtol=0.0):
                raise ValueError("the saved matrix differs from the state its dims, tuples, "
                                 "spectrum and lu_seed build")
        except (OSError, OverflowError, TypeError, ValueError) as exc:
            # an OSError's own text repeats the path and its errno
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ValueError(f"bad state file {args.state}: {reason}") from None
    elif args.dims and args.tuples and args.spectrum:
        state, _ = _build_state(parse_dims(args.dims), _parse_tuples(args.tuples),
                                _parse_floats(args.spectrum), args.lu_seed)
    else:
        raise ValueError("give --state FILE, or dims with --tuples and --spectrum")
    estimate = min_avg_ent(state, strategy=args.strategy, Dmin=args.Dmin, Dmax=args.Dmax,
                           samples=args.samples, seed=args.seed)
    payload = {
        "dims": str(estimate.structure),
        "strategy": estimate.strategy,
        "samples": estimate.samples,
        "min_avg": estimate.min_avg,
        "argmin": estimate.argmin,
        "notes": estimate.notes,
    }
    return _json(payload), EXIT_OK


def cmd_tables(args) -> tuple[str, int]:
    if args.which == 5:
        if args.max_n is not None:
            raise ValueError("table 5 takes --max-N, not --max-n")
        max_N = args.max_N if args.max_N is not None else 6
        _check_int("--max-N", max_N, 2, MAX_N.bit_length() - 1)  # 2^max_N <= MAX_N
        structures = [ModeStructure((2,) * N) for N in range(2, max_N + 1)]
    else:
        if args.max_N is not None:
            raise ValueError(f"table {args.which} takes --max-n, not --max-N")
        max_n = args.max_n if args.max_n is not None else (28 if args.which == 1 else 36)
        # n = 4 is the smallest multipartite system, and 2x2x2 the smallest of table 3
        _check_int("--max-n", max_n, 8 if args.which == 3 else 4, MAX_N)
        structures = [s for s in _structures_upto(max_n) if args.which == 1 or s.N >= 3]
    rows = []
    code = EXIT_OK
    for s in structures:
        report = max_mme_rank(s, search=args.search, budget_nodes=args.budget_nodes,
                              seed=args.seed)
        if report.status == "inconclusive":
            code = EXIT_INCONCLUSIVE  # dropped rows count too
        if args.which == 3 and s.n < 29 and report.R_MME < 2:
            continue  # below n=29 the survey keeps only MME-hosting systems
        rows.append(_rank_row(s, report))
    if args.format == "json":
        return _json([dict(zip(TABLE_HEADER, r)) for r in rows]), code
    return _csv(rows, TABLE_HEADER), code


def cmd_sweep(args) -> tuple[str, int]:
    # at most MAX_N^3 unitaries per family, one grid a point
    _check_int("--points", args.points, 1, MAX_N ** 3 // GRID_STEPS ** 2)
    kinds = list(COMPARISON_KINDS) if args.family == "all" else [args.family]
    rows = []
    for kind in kinds:
        for k in range(args.points):
            lam1 = 0.5 + 0.5 * k / args.points
            state = comparison_family_spectral(kind, (lam1, 1.0 - lam1))
            est = min_avg_ent(state, strategy="grid")
            rows.append([kind, repr(lam1), repr(est.min_avg)])
    return _csv(rows, ["family", "lambda1", "min_avg"]), EXIT_OK


def cmd_validate_examples(args) -> tuple[str, int]:
    s = parse_dims(args.dims)
    report = validate_example_set(s, _parse_tuples(args.tuples))
    payload = {"dims": str(s), "tuples": [list(t) for t in report.level_sets],
               "me": list(report.me), "compatible": report.set_compatible,
               "pairwise": [{"i": i, "j": j, "compatible": ok} for i, j, ok in report.pairwise],
               "all_pass": report.all_pass}
    return _json(payload), EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output to PATH")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--search", choices=("auto", "exhaustive"), default="auto",
                        help="auto: exhaustive up to n = 64, greedy orders beyond, which "
                        "can miss a quick exact proof (3x3x3x3x3); past 64 prefer exhaustive")
    search.add_argument("--budget-nodes", type=int, metavar="B",
                        help="abort after B search nodes (exit 3)")
    search.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="mmekit",
        description=(
            "Find, build and certify mixed maximally entangled states of "
            "finite multipartite systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lstar", parents=[out],
                       help="ME level counts L* and purity floor")
    p.add_argument("dims", help='mode structure, e.g. "2x3x4" or "2^5"')
    p.set_defaults(handler=cmd_lstar)

    p = sub.add_parser("tuples", parents=[out], help="enumerate ME TGX tuples")
    p.add_argument("dims")
    p.add_argument("--L", type=int, help="levels per tuple, in L* (default: min L*)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_tuples)

    p = sub.add_parser(
        "rank",
        parents=[out, search],
        help="maximal MME rank search",
        description=f"CSV schema: {','.join(TABLE_HEADER)}",
    )
    p.add_argument("dims")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--L", type=int, help="fix the tuple size (must lie in L*)")
    sizes.add_argument("--all-lstar", action="store_true",
                       help="search every L in L* up to the first whose cap the best "
                       "rank reaches, and report the best")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("construct", parents=[out],
                       help="build an MME state from tuples")
    p.add_argument("dims")
    p.add_argument("--tuples", required=True,
                   help='";"-separated level tuples, e.g. "1,16;4,13"')
    p.add_argument("--spectrum", required=True, help='e.g. "0.7,0.3"')
    p.add_argument("--lu-seed", type=int, dest="lu_seed",
                   help="dress with seeded random local unitaries")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser(
        "verify",
        parents=[out],
        help="decomposition-sampling certificate",
        description=(
            "Reads a construct output via --state, or an inline dims/tuples/"
            "spectrum spec, not both.  A state file's dims, tuples, spectrum and "
            "lu_seed must rebuild its matrix, and every refusal of the file names it.  "
            "Emits JSON {dims, strategy, samples, min_avg, argmin, notes}."
        ),
    )
    p.add_argument("dims", nargs="?", help="inline spec: mode structure")
    p.add_argument("--state", metavar="FILE", help="construct output to verify")
    p.add_argument("--tuples")
    p.add_argument("--spectrum")
    p.add_argument("--lu-seed", type=int, dest="lu_seed")
    p.add_argument("--strategy", choices=("grid", "random"), default="grid",
                   help=f"grid: the {GRID_STEPS}x{GRID_STEPS} u2 grid, rank 2 only (default); "
                   "random: Haar unitaries")
    p.add_argument("--samples", type=int, metavar="K",
                   help="random strategy: samples per dimension D (default 100), at most "
                   f"{MAX_N}^4 units of work in all, {MAX_N}^2 or more a unitary (see README)")
    p.add_argument("--Dmin", type=int,
                   help=f"random strategy: least D (default rank, at most {MAX_N + 2})")
    p.add_argument("--Dmax", type=int,
                   help=f"random strategy: top D (default rank + 2, at most {MAX_N + 2})")
    p.add_argument("--seed", type=int, help="random strategy: at least 0 (default 0)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "tables",
        parents=[out, search],
        help="regenerate the rank survey tables",
        description=(
            "1: all multipartite systems, n <= 28.  3: N >= 3 systems, "
            "n <= 36 (below n=29 only MME-hosting rows).  5: qubit systems "
            "2^N.  Every row is recomputed, never echoed.  "
            f"CSV schema: {','.join(TABLE_HEADER)}."
        ),
    )
    p.add_argument("which", type=int, choices=(1, 3, 5))
    p.add_argument("--max-n", type=int, dest="max_n",
                   help=f"tables 1/3: largest total dimension, 4 (table 3: 8) to {MAX_N}")
    p.add_argument("--max-N", type=int, dest="max_N",
                   help="table 5: largest qubit count, 2 to 8 (default 6)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(handler=cmd_tables)

    p = sub.add_parser(
        "sweep",
        parents=[out],
        help="spectrum sweeps of the four-qubit comparison families",
        description=(
            "Sweeps lambda1 from 0.5 (inclusive) to 1 (exclusive) and "
            "reports the grid minimum average entanglement per spectrum.  "
            "CSV schema: family,lambda1,min_avg."
        ),
    )
    p.add_argument("--family", choices=COMPARISON_KINDS + ("all",),
                   default="all")
    p.add_argument("--points", type=int, default=500,
                   help=f"spectra per family, 1 to {MAX_N ** 3 // GRID_STEPS ** 2}")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("validate-examples", parents=[out],
                       help="certify a published eigen-tuple set")
    p.add_argument("dims")
    p.add_argument("--tuples", required=True)
    p.set_defaults(handler=cmd_validate_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: name it, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
