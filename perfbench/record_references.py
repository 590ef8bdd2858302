"""Regenerate perfbench/references.json from the current source tree.

    python3 perfbench/record_references.py

Runs every search job of the `tables` and `rank-large` workloads once
with --seed 0, and records what the checker compares against: table
rows, rank results with their witnesses, the tuple list digest, the
total ME tuple count behind each search (the denominator of
`mme.stream_ratio`), and the published eigen-tuple sets that the
certificate workloads build states from.  Run it only on a commit whose
results are trusted; `test_perfbench_checker.py` cross-checks the file
against the suite's frozen reference values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import checker  # noqa: E402
import reference_values as rv  # noqa: E402
from mmekit import cli, enumerate_me_tuples, parse_dims  # noqa: E402
from run import source_digest  # noqa: E402
from workloads import PROBE_STRUCTURES, PROBE_TUPLES, SEARCH_JOBS  # noqa: E402


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return buf.getvalue()


def main() -> None:
    reports = []
    original = cli.max_mme_rank

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    cli.max_mme_rank = capture
    refs = {"source_sha256": source_digest(), "table": {}, "rank": {},
            "tuples": {}, "me_tuple_totals": {}, "probe_tuples": {}}
    try:
        for workload, jobs in SEARCH_JOBS.items():
            for kind, argv in jobs:
                key = " ".join(argv)
                seeded = argv + (["--seed", "0"] if kind != "tuples" else [])
                text = _run(seeded)
                if kind == "table":
                    refs["table"][key] = checker.table_rows(text)
                elif kind == "rank":
                    out = json.loads(text)
                    refs["rank"][key] = {
                        "dims": out["dims"],
                        "L_used": out["L_used"],
                        "r_tilde": out["r_tilde"],
                        "R_MME": out["R_MME"],
                        "status": out["status"],
                        "witness": out["witness"],
                        # exhaustive searches return the lex-least maximum
                        # clique; greedy witnesses depend on the seed
                        "witness_exact": out["status"] == "complete",
                    }
                else:
                    out = json.loads(text)
                    refs["tuples"][key] = {
                        "dims": out["dims"], "L": out["L"], "count": out["count"],
                        "sha256": checker.tuples_digest(out["tuples"]),
                    }
    finally:
        cli.max_mme_rank = original

    for r in reports:
        key = f"{r.structure}|{r.L_used}"
        if key not in refs["me_tuple_totals"]:
            refs["me_tuple_totals"][key] = len(enumerate_me_tuples(r.structure, r.L_used))
    for workload, (dims, L) in PROBE_STRUCTURES.items():
        tuples = enumerate_me_tuples(parse_dims(dims), L)[:PROBE_TUPLES]
        refs["probe_tuples"][workload] = {"dims": dims,
                                          "tuples": [list(t.levels) for t in tuples]}
    refs["published_sets"] = {
        "2^4": [list(t) for t in rv.EXAMPLE_SETS[(2, 2, 2, 2)]],
        "3x3x3": [list(t) for t in rv.EXAMPLE_SETS[(3, 3, 3)]],
        "2x2x3x3": [list(t) for t in rv.EXAMPLE_SETS_LARGER[(2, 2, 3, 3)]],
        "2^6": [list(t) for t in rv.QUBIT_SETS[6]],
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
