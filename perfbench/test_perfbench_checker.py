"""Self-test of the benchmark's reference checker and tracer.

    python3 -m pytest perfbench -q

The recorded references must agree with the suite's frozen values in
tests/reference_values.py, correct outputs must pass, and corrupted
outputs must count as failures.  Nothing here runs the package.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import checker  # noqa: E402
import reference_values as rv  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

with open(os.path.join(HERE, "references.json")) as _fh:
    REFS = json.load(_fh)

TABLE1 = "tables 1"
TABLE3 = "tables 3"
TABLE5 = "tables 5 --max-N 7 --search exhaustive"


def _dims_str(dims) -> str:
    return "x".join(str(d) for d in dims)


def _table_csv(rows) -> str:
    header = "n,dims,minLstar,r_tilde,R_MME" + (",status" if len(rows[0]) > 5 else "")
    return "\n".join([header] + [",".join(str(x) for x in r) for r in rows]) + "\n"


def _rank_json(ref, **changes) -> str:
    out = {k: ref[k] for k in ("dims", "L_used", "r_tilde", "R_MME", "status", "witness")}
    out.update(changes)
    return json.dumps(out)


# ---------------------------------------------------------------------
# References agree with the suite's frozen values
# ---------------------------------------------------------------------


def test_table_references_match_surveys():
    small = [(r[0], checker.parse_dims(r[1]), r[4]) for r in REFS["table"][TABLE1]]
    assert small == list(rv.SMALL_SURVEY)
    tri = [(r[0], checker.parse_dims(r[1]), r[2], r[3], r[4])
           for r in REFS["table"][TABLE3]]
    assert tri == list(rv.TRI_SURVEY)
    ladder = {len(checker.parse_dims(r[1])): (r[3], r[4]) for r in REFS["table"][TABLE5]}
    assert ladder == rv.QUBIT_SURVEY  # 2^7 = 22, here proved exhaustively
    assert REFS["table"][TABLE5][-1][5] == "complete"


def test_rank_references_are_valid_witnesses():
    for key, ref in REFS["rank"].items():
        assert len(ref["witness"]) == ref["R_MME"], key
        dims = checker.parse_dims(ref["dims"])
        assert checker.witness_errors(dims, ref["L_used"], ref["witness"]) == [], key


def test_published_sets_match_suite():
    sets = REFS["published_sets"]
    assert sets["2^4"] == [list(t) for t in rv.EXAMPLE_SETS[(2, 2, 2, 2)]]
    assert sets["3x3x3"] == [list(t) for t in rv.EXAMPLE_SETS[(3, 3, 3)]]
    assert sets["2x2x3x3"] == [list(t) for t in rv.EXAMPLE_SETS_LARGER[(2, 2, 3, 3)]]
    assert sets["2^6"] == [list(t) for t in rv.QUBIT_SETS[6]]


def test_witness_test_accepts_every_published_set():
    for table in (rv.EXAMPLE_SETS, rv.EXAMPLE_SETS_LARGER):
        for dims, tuples in table.items():
            L = len(tuples[0])
            assert checker.witness_errors(dims, L, tuples) == [], dims
    for N, tuples in rv.QUBIT_SETS.items():
        assert checker.witness_errors((2,) * N, 2, tuples) == [], N


# ---------------------------------------------------------------------
# Correct outputs pass, corrupted ones fail
# ---------------------------------------------------------------------


def test_tables_pass_and_corruptions_fail():
    for key in (TABLE1, TABLE3, TABLE5):
        rows = REFS["table"][key]
        assert checker.check_table(_table_csv(rows), rows) == []
        bad = [list(r) for r in rows]
        bad[-1][4] += 1  # R_MME off by one
        assert checker.check_table(_table_csv(bad), rows)
        assert checker.check_table(_table_csv(rows[:-1]), rows)  # row missing


def test_rank_passes_and_corruptions_fail():
    for key, ref in REFS["rank"].items():
        assert checker.check_rank(_rank_json(ref), ref) == [], key
        assert checker.check_rank(_rank_json(ref, R_MME=ref["R_MME"] + 1), ref), key
        assert checker.check_rank(_rank_json(ref, status="inconclusive"), ref), key
    exact = REFS["rank"]["rank 4x4x4x4"]
    assert exact["witness_exact"]
    shuffled = list(reversed(exact["witness"]))
    assert checker.check_rank(_rank_json(exact, witness=shuffled), exact)


def test_greedy_witness_must_be_compatible():
    ref = REFS["rank"]["rank 3x3x3x3"]
    assert not ref["witness_exact"]
    # a repeated tuple shares every projection with itself
    bad = ref["witness"][:-1] + [ref["witness"][0]]
    assert checker.check_rank(_rank_json(ref, witness=bad), ref)
    # a tuple with two levels one mode flip apart is not ME
    assert checker.witness_errors((2, 2, 2, 2), 2, [[1, 2]])
    # balanced labels are required: levels 1 and 4 of 2^4 share modes 1-2
    assert checker.witness_errors((2, 2, 2, 2), 2, [[1, 4]])


def test_tuples_pass_and_corruptions_fail():
    ref = {"L": 2, "count": 3, "sha256": checker.tuples_digest([[1, 16], [4, 13], [6, 11]])}
    good = {"L": 2, "count": 3, "tuples": [[1, 16], [4, 13], [6, 11]]}
    assert checker.check_tuples(json.dumps(good), ref) == []
    assert checker.check_tuples(json.dumps(dict(good, count=2, tuples=good["tuples"][:2])), ref)
    assert checker.check_tuples(json.dumps(dict(good, tuples=[[1, 16], [4, 13], [7, 10]])), ref)


@pytest.mark.parametrize("lam", [0.55, 0.6, 0.75, 0.9, 0.95])
def test_grid_certificates(lam):
    for kind in ("mme", "separable", "e_selfspace", "e_spacewise"):
        value = checker.family_closed_form(kind, lam)
        assert checker.check_grid_cert(kind, lam, value, 400, 400) == []
        assert checker.check_grid_cert(kind, lam, value - 1e-6, 400, 400)
        assert checker.check_grid_cert(kind, lam, value, 399, 400)
    assert checker.check_grid_cert("mme", lam, 0.99, 400, 400)
    assert checker.check_grid_cert("mme", lam, float("nan"), 400, 400)


def test_mme_certificates():
    assert checker.check_mme_cert(1.0 - 1e-15, 24, 24, 1e-16) == []
    assert checker.check_mme_cert(0.99, 24, 24, 1e-16)
    assert checker.check_mme_cert(float("nan"), 24, 24, 1e-16)
    assert checker.check_mme_cert(1.0, 24, 24, 1e-6)
    assert checker.check_mme_cert(1.0, 23, 24, 0.0)


def _construct_payload(spectrum):
    n = 16
    mat = np.zeros((n, n), dtype=complex)
    for w, (a, b) in zip(spectrum, [(1, 16), (4, 13)]):
        v = np.zeros(n, dtype=complex)
        v[[a - 1, b - 1]] = 1 / math.sqrt(2)
        mat += w * np.outer(v, v.conj())
    return json.dumps({"dims": "2x2x2x2", "tuples": [[1, 16], [4, 13]],
                       "spectrum": list(spectrum), "certificate": {"rank": 2},
                       "matrix": {"re": mat.real.tolist(), "im": mat.imag.tolist()}})


def test_construct_passes_and_corruptions_fail():
    tuples, spectrum = [[1, 16], [4, 13]], [0.7, 0.3]
    assert checker.check_construct(_construct_payload(spectrum), "2^4", tuples,
                                   spectrum) == []
    assert checker.check_construct(_construct_payload([0.6, 0.4]), "2^4", tuples,
                                   spectrum)
    assert checker.check_construct(_construct_payload(spectrum), "2^4",
                                   [[1, 16], [6, 11]], spectrum)
    assert checker.check_construct("{}", "2^4", tuples, spectrum)


# ---------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------


def test_tracer_self_time_matches_span_records():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    leaf_t = tracer.wrap("leaf", leaf)

    def outer(x):
        return leaf_t(x) + leaf_t(x)

    outer_t = tracer.wrap("outer", outer)
    for _ in range(20):
        outer_t(20000)
    assert tracer.calls("outer") == 20 and tracer.calls("leaf") == 40
    per_span = self_times(tracer.spans)
    by_name = {}
    for sid, _, _, name, _, _ in tracer.spans:
        by_name[name] = by_name.get(name, 0.0) + per_span[sid]
    assert by_name["outer"] == pytest.approx(tracer.self_s("outer"), rel=1e-9, abs=1e-12)
    assert by_name["leaf"] == pytest.approx(tracer.total_s("leaf"), rel=1e-9)
    assert tracer.self_s("outer") < tracer.total_s("outer")
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    names = {sid: name for sid, _, _, name, _, _ in tracer.spans}
    assert all(names[parents[s]] == "outer" for s in names if names[s] == "leaf")
