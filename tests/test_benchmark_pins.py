"""The benchmark's pinned search outputs, checked in the Tier-1 suite.

Every `rank`, `tables` and `tuples` argv that `perfbench/references.json`
pins runs through `cli.main`, with `--seed 0` appended where the
benchmark's workloads append a seed (all but `tuples`), and its stdout
goes through the benchmark's own checker (`perfbench/checker.py`).  A
change that breaks a pin then fails here, before a benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from mmekit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_checker", PERFBENCH / "checker.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)
REFS = json.loads((PERFBENCH / "references.json").read_text())

CHECKS = {"rank": checker.check_rank, "table": checker.check_table,
          "tuples": checker.check_tuples}
PINS = [(kind, argv) for kind in CHECKS for argv in sorted(REFS[kind])]


@pytest.mark.parametrize("kind,argv", PINS)
def test_pinned_search_output_passes_the_benchmark_checker(kind, argv) -> None:
    args = argv.split() + ([] if kind == "tuples" else ["--seed", "0"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code == 0
    assert CHECKS[kind](out.getvalue(), REFS[kind][argv]) == []
