from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmekit import cli, modes, verify
from mmekit.cli import TABLE_HEADER, build_parser, main
from mmekit.linalg import mix
from mmekit.mme import construct
from mmekit.modes import ModeStructure

from reference_values import EXAMPLE_SETS, QUBIT_SETS, SMALL_SURVEY
from test_linalg import _einsum_mix


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lstar_json(capsys) -> None:
    code, out, err = _run(capsys, ["lstar", "2x2x2"])
    assert code == 0
    assert err == ""
    d = json.loads(out)
    assert d["dims"] == "2x2x2"
    assert d["Lstar"] == [2, 4]
    assert d["M_star"] == 0.0
    assert d["table"]["3"] == pytest.approx(1 / 9)


def test_bad_dims_exit_code(capsys) -> None:
    code, out, err = _run(capsys, ["lstar", "2xx3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # above the n <= 256 limit: refused at once instead of searched
    code, out, err = _run(capsys, ["tuples", "2^40"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "256" in err
    code, out, _ = _run(capsys, ["lstar", "2^8"])
    assert code == 0
    assert json.loads(out)["dims"] == "2x2x2x2x2x2x2x2"


def test_unsupported_structure_exit_code(capsys) -> None:
    code, _, err = _run(capsys, ["lstar", "7"])
    assert code == 2
    assert "error:" in err


def test_tuples_csv(capsys) -> None:
    code, out, _ = _run(capsys, ["tuples", "2x4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level1,level2"
    assert lines[1] == "1,6"
    assert len(lines) == 13


def test_rank_csv_and_json(capsys) -> None:
    code, out, _ = _run(capsys, ["rank", "2x4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,dims,minLstar,r_tilde,R_MME,status,L_used"
    assert lines[1] == "8,2x4,2,2,2,complete,2"

    code, out, _ = _run(capsys, ["rank", "2x4"])
    assert code == 0
    d = json.loads(out)
    assert d["R_MME"] == 2
    assert d["status"] == "complete"
    assert d["witness"] == [[1, 6], [3, 8]]


@pytest.mark.parametrize("argv,row,code", [
    # a greedy lower bound, a partial result and an R_MME found above min L*
    (["3x3x3x3"], "81,3x3x3x3,3,9,9,greedy,3", 0),
    (["2^5", "--budget-nodes", "5"], "32,2x2x2x2x2,2,8,4,inconclusive,2", 3),
    (["2x2x3x3", "--L", "12"], "36,2x2x3x3,6,2,1,complete,12", 0),
])
def test_rank_csv_row_names_its_status_and_L(capsys, argv, row, code) -> None:
    # the row hid both: each printed only n,dims,minLstar,r_tilde,R_MME
    assert _run(capsys, ["rank", *argv, "--format", "csv"]) == (
        code, f"n,dims,minLstar,r_tilde,R_MME,status,L_used\n{row}\n", "")


def test_tables_rows_name_their_status_and_L(capsys) -> None:
    # table 3 ended with the bare greedy row 81,3x3x3x3,3,9,9
    code, out, err = _run(capsys, ["tables", "3", "--max-n", "81"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "n,dims,minLstar,r_tilde,R_MME,status,L_used"
    assert lines[-1] == "81,3x3x3x3,3,9,9,greedy,3"
    assert {line.split(",")[5] for line in lines[1:]} == {"complete", "greedy"}


def test_rank_budget_exhaustion_exit_code(capsys) -> None:
    code, out, err = _run(
        capsys,
        ["rank", "2^5", "--search", "exhaustive", "--budget-nodes", "3"],
    )
    assert code == 3
    d = json.loads(out)
    assert d["status"] == "inconclusive"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_rank_budget_below_one_exit_code(capsys, budget) -> None:
    code, out, err = _run(capsys, ["rank", "2^4", "--budget-nodes", budget])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "budget_nodes" in err


def test_rank_all_lstar_budget_exhaustion_exit_code(capsys) -> None:
    # L* = (6, 12): the budget runs out at L = 6, so L = 12 is never searched
    # (the pruned pass proves L = 6 in 2 nodes, so one node runs it out)
    code, out, err = _run(
        capsys, ["rank", "2x2x3x3", "--all-lstar", "--budget-nodes", "1"]
    )
    assert (code, err) == (3, "")
    d = json.loads(out)
    assert (d["status"], d["exhaustive"], d["L_used"]) == ("inconclusive", False, 6)


def test_rank_cap_filled_within_a_small_budget(capsys) -> None:
    # the pruned pass reads one tuple per witness member, so 100 nodes
    # prove the cap of 16
    code, out, err = _run(capsys, ["rank", "4x4x4x4", "--budget-nodes", "100"])
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert (d["status"], d["R_MME"], d["nodes"], d["tuple_count"]) == ("complete", 16, 16, 16)


@pytest.mark.parametrize("argv,L_used,rank", [(["--L", "14"], 14, 0), (["--all-lstar"], 2, 5)])
def test_rank_L_without_me_tuples(capsys, argv, L_used, rank) -> None:
    # L* of 2^5 includes 14, where no ME TGX tuple exists: R_MME is 0 there
    code, out, err = _run(capsys, ["rank", "2^5", *argv])
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert (d["status"], d["L_used"], d["R_MME"], len(d["witness"])) == (
        "complete", L_used, rank, rank)


def test_rank_budget_of_one_stops_in_the_pruned_pass(capsys, deadline) -> None:
    # 2x2x2x3x3 exhaustive: the budget runs out at the pass's second tuple,
    # before any full read of its 54,288 tuples
    deadline(2)
    code, out, err = _run(capsys, ["rank", "2x2x2x3x3", "--search", "exhaustive",
                                   "--budget-nodes", "1"])
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "dims": "2x2x2x3x3", "n": 72, "L_used": 6, "r_tilde": 4, "R_MME": 1,
        "witness": [[1, 5, 9, 64, 68, 72]], "exhaustive": False,
        "status": "inconclusive", "nodes": 2, "tuple_count": 1}


def test_rank_2_6_ends_cleanly(capsys, deadline) -> None:
    # --all-lstar: L = 2 fills its cap of 16, and no later cap is above 8;
    # L = 8 alone: 65,965 roots x 130,220 tuples read pass
    # mme.ADJACENCY_BITS, so the read stops there and the pass's clique
    # is reported, exit 3
    deadline(1)
    code, out, err = _run(capsys, ["rank", "2^6", "--all-lstar", "--search", "exhaustive"])
    d = json.loads(out)
    assert (code, err, d["status"], d["R_MME"], d["L_used"], d["nodes"]) == (
        0, "", "complete", 16, 2, 16)
    deadline(15)
    code, out, err = _run(capsys, ["rank", "2^6", "--L", "8", "--search", "exhaustive"])
    d = json.loads(out)
    assert (code, err, d["status"], d["R_MME"], d["tuple_count"]) == (
        3, "", "inconclusive", 2, 130_220)


def test_rank_finds_a_first_tuple_at_n_150(capsys, deadline) -> None:
    deadline(10)
    code, out, err = _run(capsys, ["rank", "2x3x5x5"])
    d = json.loads(out)
    assert (code, err, d["status"], d["R_MME"]) == (0, "", "complete", 1)


def test_rank_rejects_L_outside_lstar(capsys) -> None:
    code, _, err = _run(capsys, ["rank", "2^4", "--L", "3"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["tuples", "rank"])
def test_tuples_and_rank_share_the_lstar_refusal(capsys, command) -> None:
    code, out, err = _run(capsys, [command, "2x2x3x3", "--L", "3"])
    assert (code, out, err) == (2, "", "error: L=3 is not in L*(6, 12) of 2x2x3x3\n")


def test_rank_L_and_all_lstar_exclude_each_other(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["rank", "2x2x3x3", "--L", "12", "--all-lstar"])
    assert exc.value.code == 2
    assert "--all-lstar: not allowed with argument --L" in capsys.readouterr().err


def test_construct_payload_and_out_file(capsys, tmp_path) -> None:
    code, out, _ = _run(
        capsys,
        ["construct", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3"],
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"dims", "tuples", "spectrum", "lu_seed", "certificate", "matrix"}
    assert d["tuples"] == [[1, 10], [2, 8]]
    cert = d["certificate"]
    assert cert == {
        "rank": 2,
        "L": 2,
        "me_tuples": True,
        "compatible": True,
        "trivial_pure": False,
    }

    target = tmp_path / "state.json"
    code, out, _ = _run(
        capsys,
        [
            "construct",
            "2x5",
            "--tuples",
            "1,10;2,8",
            "--spectrum",
            "0.7,0.3",
            "--out",
            str(target),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == d


def test_construct_refuses_incompatible(capsys) -> None:
    code, _, err = _run(
        capsys,
        ["construct", "2^4", "--tuples", "1,16;2,15", "--spectrum", "0.5,0.5"],
    )
    assert code == 2
    assert "mode-4 line repeats projected level 1" in err


@pytest.mark.parametrize("tuples,message", [
    ("1,16;1,2;2,3", "(1, 2) is not an ME TGX tuple of 2x2x2x2"),
    ("3;5", "(3,) is not an ME TGX tuple of 2x2x2x2"),
    ("1,16;4,4;6,6", "duplicates: (4, 4)"),
    ("1,16;4,17;0,13", "level 17 of (4, 17) out of range 1..16"),
    ("1,16;1,4,13,16;6", "mixed tuple sizes: (1, 4, 13, 16) has L=4"),
])
def test_construct_refuses_bad_tuples(capsys, tuples, message) -> None:
    R = tuples.count(";") + 1
    spectrum = ",".join([repr(1 / R)] * R)
    code, out, err = _run(
        capsys, ["construct", "2^4", "--tuples", tuples, "--spectrum", spectrum]
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_construct_verify_round_trip(capsys, tmp_path) -> None:
    target = tmp_path / "state.json"
    _run(
        capsys,
        [
            "construct",
            "2x5",
            "--tuples",
            "1,10;2,8",
            "--spectrum",
            "0.7,0.3",
            "--out",
            str(target),
        ],
    )
    code, out, _ = _run(capsys, ["verify", "--state", str(target)])
    assert code == 0
    d = json.loads(out)
    assert d["strategy"] == "grid"
    assert d["samples"] == 400
    assert d["min_avg"] == pytest.approx(1.0, abs=1e-9)


def test_construct_by_the_einsum_oracle_passes_verify(capsys, tmp_path, monkeypatch) -> None:
    # a state file whose matrix an einsum built still verifies: it agrees
    # with `mix` far inside the file check's ATOL
    argv = ["construct", "2x2x3x3", "--tuples", "1,5,9,28,32,36;11,15,16,20,24,25",
            "--spectrum", "0.7,0.3", "--lu-seed", "4"]
    target = tmp_path / "state.json"
    built = []

    def einsum_mix(state):
        built.append(state)
        return _einsum_mix(state.basis, state.spectrum)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "mix", einsum_mix)
        assert _run(capsys, argv + ["--out", str(target)]) == (0, "", "")
    assert len(built) == 1  # rho, mixed when printed, came from the einsum
    code, out, err = _run(capsys, ["verify", "--state", str(target)])
    assert (code, err) == (0, "")
    assert json.loads(out)["argmin"] is None


@pytest.mark.parametrize("dims,tuples", [("2^5", "1,32;4,29"), ("3x7", "1,9,17;4,12,20")])
def test_verify_grid_above_n_20(capsys, monkeypatch, dims, tuples) -> None:
    # the 400-point grid in several stacks (2^5 at BLOCK_AMPLITUDES =
    # 2^11, 3x7 at the default too) once exited 2 on a zero-size array
    argv = ["verify", dims, "--tuples", tuples, "--spectrum", "0.7,0.3", "--strategy", "grid"]
    monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", 2**40)
    code, one, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    for block in (2**14, 2**11):
        monkeypatch.setattr(verify, "BLOCK_AMPLITUDES", block)
        assert _run(capsys, argv) == (0, one, "")
    d = json.loads(one)
    assert d["samples"] == 400 and d["argmin"] is None


def test_verify_inline_random(capsys) -> None:
    code, out, _ = _run(
        capsys,
        [
            "verify",
            "2x5",
            "--tuples",
            "1,10;2,8",
            "--spectrum",
            "0.7,0.3",
            "--strategy",
            "random",
            "--samples",
            "5",
            "--Dmin",
            "2",
            "--Dmax",
            "2",
        ],
    )
    assert code == 0
    d = json.loads(out)
    assert d["samples"] == 5
    assert d["min_avg"] == pytest.approx(1.0, abs=1e-9)
    assert d["argmin"] is None


def test_verify_roundoff_minimum_names_no_argmin(capsys) -> None:
    # every average is 1 within about 1e-15 here, so the first minimum
    # is roundoff: the passing certificate prints "argmin": null
    code, out, err = _run(capsys, [
        "verify", "3x3x3", "--tuples", "1,14,27;6,16,20;8,12,22",
        "--spectrum", f"{1 / 6!r},{1 / 3!r},0.5", "--strategy", "random",
        "--samples", "7", "--seed", "5", "--Dmax", "20", "--lu-seed", "3",
    ])
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert d["samples"] == 18 * 7  # D = 3..20
    assert d["min_avg"] == pytest.approx(1.0, abs=1e-12) and d["argmin"] is None
    assert '"argmin": null' in out


def test_verify_requires_state_or_inline(capsys) -> None:
    code, _, err = _run(capsys, ["verify"])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, ["verify", "2x5", "--tuples", "1,10;2,8"])
    assert code == 2


@pytest.mark.parametrize("inline,named", [
    (["2x5"], "dims"),
    (["--tuples", "1,10;2,8"], "--tuples"),
    (["--spectrum", "0.7,0.3"], "--spectrum"),
    (["--lu-seed", "3"], "--lu-seed"),
])
def test_verify_refuses_state_file_with_inline_spec(capsys, tmp_path, inline, named) -> None:
    # the inline options were dropped and the file's state certified, exit 0
    target = tmp_path / "state.json"
    target.write_text(json.dumps(_saved_state(), default=np.ndarray.tolist))
    code, out, err = _run(capsys, ["verify", "--state", str(target), *inline])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--state" in err and named in err
    code, out, _ = _run(capsys, ["verify", "--state", str(target), "--strategy", "random",
                                 "--samples", "3", "--Dmin", "2", "--Dmax", "3", "--seed", "1"])
    assert code == 0 and json.loads(out)["samples"] == 6


@pytest.mark.parametrize("spectrum", ["nan,0.5", "inf,0.5"])
def test_non_finite_spectrum_exit_code(capsys, spectrum) -> None:
    for cmd in ("construct", "verify"):
        code, out, err = _run(
            capsys, [cmd, "2x5", "--tuples", "1,10;2,8", "--spectrum", spectrum]
        )
        assert (code, out) == (2, ""), cmd
        assert "finite and positive" in err


def _saved_state(level=8) -> dict:
    """The construct payload of 2x5 with tuples 1,10;2,8 and spectrum
    0.7,0.3, its last saved level replaced by `level`."""
    _, rho = construct(ModeStructure((2, 5)), [(1, 10), (2, 8)], (0.7, 0.3))
    return {"dims": "2x5", "tuples": [[1, 10], [2, level]], "spectrum": [0.7, 0.3],
            "lu_seed": None,
            "matrix": {"dims": "2x5", "re": rho.entries.real, "im": rho.entries.imag}}


def _tampered_state() -> dict:
    """A construct payload whose saved matrix no longer matches its spec."""
    saved = _saved_state()
    saved["matrix"]["re"][0][0] = 5.0
    return saved


@pytest.mark.parametrize(
    "saved",
    [
        {"dims": "2x5", "tuples": [[1, 10], [2, 8]]},
        {"dims": "2x5", "spectrum": [0.7, 0.3]},
        {"tuples": [[1, 10], [2, 8]], "spectrum": [0.7, 0.3]},
        {"dims": "2x5", "tuples": 5, "spectrum": [0.7, 0.3]},
        {"dims": "2x5", "tuples": [[1, 10], [2, 8]], "spectrum": [None, 0.3]},
        {"dims": "2x5", "tuples": [[1, 10], [2, 8]], "spectrum": [0.7, 0.3],
         "lu_seed": "x"},
        _saved_state(1.5),  # saved levels are strict integers
        _saved_state(8.0),
        [1, 2],
        {"dims": "2x5", "tuples": [[1, 10], [2, 8]], "spectrum": [0.7, 0.3]},
        _tampered_state(),
    ],
)
def test_verify_bad_state_file_exit_code(capsys, tmp_path, saved) -> None:
    target = tmp_path / "state.json"
    target.write_text(json.dumps(saved, default=np.ndarray.tolist))
    code, out, err = _run(capsys, ["verify", "--state", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _lu_seed_true(saved) -> None:
    saved["lu_seed"] = True


def _level_true(saved) -> None:
    saved["tuples"][0][0] = True


def _im_three_rows(saved) -> None:
    saved["matrix"]["im"] = saved["matrix"]["im"][:3]


def _weight_true(saved) -> None:
    saved["spectrum"][0] = True


def _weights_as_strings(saved) -> None:
    saved["spectrum"] = [str(w) for w in saved["spectrum"]]


def _ragged_re(saved) -> None:
    saved["matrix"]["re"][3] = saved["matrix"]["re"][3][:-1]


def _text_in_im(saved) -> None:
    saved["matrix"]["im"][0][1] = "x"


def _not_me(saved) -> None:
    saved["tuples"][1] = [1, 2]


def _dims_too_small(saved) -> None:
    saved["dims"] = "2^3"


def _weight_past_float(saved) -> None:
    saved["spectrum"][0] = 10**400


def _tuples_not_a_list(saved) -> None:
    saved["tuples"] = 5


def _spectrum_not_a_list(saved) -> None:
    saved["spectrum"] = 5


def _missing(target: Path) -> None:
    target.unlink()


@pytest.mark.parametrize("edit,message", [
    (None, None),
    (_lu_seed_true, "lu_seed=True is not an integer"),  # once read as lu_seed 1
    (_level_true, "level=True is not an integer"),  # once read as level 1
    (_im_three_rows, "matrix.im must be an n x n array of numbers, n = 16"),
    (_weight_true, "spectrum weight=True is not a number"),  # once read as 1.0
    (_weights_as_strings, "spectrum weight='0.7' is not a number"),  # once parsed
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "expected a JSON object with dims, tuples and spectrum"),
    (_ragged_re, "matrix.re must be an n x n array of numbers, n = 16"),
    (_text_in_im, "matrix.im must be an n x n array of numbers, n = 16"),
    (_not_me, "(1, 2) is not an ME TGX tuple of 2x2x2x2"),
    (_dims_too_small, "level 16 of (1, 16) out of range 1..8 for 2x2x2"),
    (_weight_past_float, f"spectrum weight={10**400} is not a number"),  # once an OverflowError
    (_tuples_not_a_list, "tuples=5 is not a list of level lists"),  # once "'int' object is
    (_spectrum_not_a_list, "spectrum=5 is not a list of weights"),  # not iterable"
    (_missing, "No such file or directory"),  # once "[Errno 2] ...: '<path>'"
], ids=["unedited", "lu_seed_true", "level_true", "im_three_rows", "weight_true",
        "weights_as_strings", "not_json", "not_an_object", "ragged_re", "text_in_im",
        "not_me", "dims_too_small", "weight_past_float", "tuples_not_a_list",
        "spectrum_not_a_list", "missing"])
def test_verify_state_file_refusals_name_the_field(capsys, tmp_path, edit, message) -> None:
    # one refusal path: each message names the file and holds no numpy or
    # Python-internal text; a string edit replaces the file's text, and
    # `_missing` removes the file
    target = tmp_path / "state.json"
    argv = ["construct", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3",
            "--lu-seed", "1", "--out", str(target)]
    assert _run(capsys, argv) == (0, "", "")
    if isinstance(edit, str):
        target.write_text(edit)
    elif edit is _missing:
        edit(target)
    elif edit is not None:
        saved = json.loads(target.read_text())
        edit(saved)
        target.write_text(json.dumps(saved))
    code, out, err = _run(capsys, ["verify", "--state", str(target)])
    if edit is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"error: bad state file {target}: {message}\n")


def test_verify_state_reads_each_input_once(capsys, tmp_path, spy) -> None:
    # `random_lu_set` and `construct` are the only readers of the saved
    # lu_seed, levels and weights
    target = tmp_path / "state.json"
    argv = ["construct", "2^4", "--tuples", "1,16;4,13;6,11;7,10", "--spectrum",
            "0.1,0.2,0.3,0.4", "--lu-seed", "7", "--out", str(target)]
    assert _run(capsys, argv) == (0, "", "")
    ints, reals = spy(modes._check_int), spy(modes._check_real)
    argv = ["verify", "--state", str(target), "--strategy", "random", "--samples", "2"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "") and json.loads(out)["argmin"] is None
    assert [x for what, x, *_ in ints if "level" in what] == [1, 16, 4, 13, 6, 11, 7, 10]
    assert reals == [("spectrum weight", w) for w in (0.1, 0.2, 0.3, 0.4)]
    assert [args for args in ints if args[0] == "lu_seed"] == [("lu_seed", 7)]


def test_rho_is_mixed_only_where_printed_or_compared(capsys, tmp_path, spy) -> None:
    # inline `verify` samples the eigen-ensemble and never mixes rho;
    # `construct` mixes it to print it, and `verify --state` to compare it
    calls = spy(mix)
    spec = ["2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3", "--lu-seed", "1"]
    code, out, err = _run(capsys, ["verify", *spec])
    assert (code, err, calls) == (0, "", [])
    target = tmp_path / "state.json"
    assert _run(capsys, ["construct", *spec, "--out", str(target)]) == (0, "", "")
    assert len(calls) == 1
    assert _run(capsys, ["verify", "--state", str(target)]) == (0, out, "")
    assert len(calls) == 2


@pytest.mark.parametrize("points", ["0", "-3", "100000000"])
def test_sweep_rejects_points_below_one(capsys, points) -> None:
    # and above MAX_N^3 / 400 on the 400-point grid, which could never finish
    code, out, err = _run(capsys, ["sweep", "--points", points])
    assert (code, out) == (2, "")
    assert "--points" in err and points in err
    if points == "100000000":
        assert err == "error: --points=100000000 is above 41943\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lstar", "2x4"],
        ["construct", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3"],
        ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3"],
        ["sweep", "--points", "1"],
        ["validate-examples", "2^4", "--tuples", "1,16;4,13"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_rejected_by_single_format_subcommands(capsys, argv) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_every_option_is_read() -> None:
    """Each subcommand option is read as `args.<dest>` by its handler;
    `out` is read by `main`, which writes every handler's output."""
    parser = build_parser()
    assert build_parser() is parser
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    main_source = inspect.getsource(main)
    for name, p in sub.choices.items():
        handler_source = inspect.getsource(p.get_default("handler"))
        for action in p._actions:
            if action.dest == "help":
                continue
            source = main_source if action.dest == "out" else handler_source
            assert re.search(rf"\bargs\.{action.dest}\b", source), (name, action.dest)


@pytest.mark.parametrize("command", ["rank", "tables"])
def test_help_names_the_csv_schema(capsys, command) -> None:
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"CSV schema: {','.join(TABLE_HEADER)}" in capsys.readouterr().out


def test_verify_help_names_its_payload_keys_in_order(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    keys = re.search(r"Emits JSON \{([^}]*)\}", " ".join(capsys.readouterr().out.split()))
    _, out, _ = _run(capsys, ["verify", "2^4", "--tuples", "1,16;4,13", "--spectrum",
                              "0.7,0.3"])
    assert keys[1].split(", ") == list(json.loads(out))


@pytest.mark.parametrize("argv", [["rank", "2^4"], ["tables", "1"]])
def test_explicit_greedy_search_rejected(capsys, argv) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--search", "greedy"])
    assert exc.value.code == 2
    assert "invalid choice: 'greedy'" in capsys.readouterr().err


def test_workers_option_rejected(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["lstar", "2x2", "--workers", "2"])
    assert exc.value.code == 2


def test_tables_five(capsys) -> None:
    code, out, _ = _run(capsys, ["tables", "5", "--max-N", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,dims,minLstar,r_tilde,R_MME,status,L_used"
    assert lines[1] == "4,2x2,2,1,1,complete,2"
    assert lines[2] == "8,2x2x2,2,2,1,complete,2"
    assert lines[3] == "16,2x2x2x2,2,4,4,complete,2"
    assert len(lines) == 4


def test_tables_one_prefix(capsys) -> None:
    code, out, _ = _run(capsys, ["tables", "1", "--max-n", "12", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    expected = [(n, dims, r) for n, dims, r in SMALL_SURVEY if n <= 12]
    assert len(rows) == len(expected)
    for row, (n, dims, r) in zip(rows, expected):
        cells = row.split(",")
        assert int(cells[0]) == n
        assert cells[1] == "x".join(str(d) for d in dims)
        assert int(cells[4]) == r


def test_tables_three_filter(capsys) -> None:
    code, out, _ = _run(capsys, ["tables", "3", "--max-n", "30", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["2x2x2x2", "3x3x3", "2x3x5"]


@pytest.mark.parametrize(
    "argv", [["1", "--max-n", "12"], ["3", "--max-n", "30"], ["5", "--max-N", "4"]]
)
def test_tables_json_matches_csv(capsys, argv) -> None:
    code, out, _ = _run(capsys, ["tables", *argv, "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    code, out, _ = _run(capsys, ["tables", *argv])
    assert code == 0
    header, *csv_rows = [line.split(",") for line in out.strip().splitlines()]
    assert header == TABLE_HEADER
    assert len(rows) == len(csv_rows) > 0
    for row, cells in zip(rows, csv_rows):
        assert list(row) == header
        assert [str(v) for v in row.values()] == cells


@pytest.mark.parametrize("argv,option", [
    (["5", "--max-n", "10"], "--max-N"),
    (["1", "--max-N", "3"], "--max-n"),
    (["3", "--max-N", "3"], "--max-n"),
])
def test_tables_refuse_the_other_tables_size_option(capsys, argv, option) -> None:
    code, out, err = _run(capsys, ["tables", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"takes {option}" in err


@pytest.mark.parametrize("argv", [["1", "--max-n", "0"], ["3", "--max-n", "-7"],
                                  ["1", "--max-n", "3"], ["5", "--max-N", "1"],
                                  ["5", "--max-N", "-3"], ["3", "--max-n", "7"]])
def test_tables_refuse_sizes_that_admit_no_structure(capsys, argv) -> None:
    # each printed only the CSV header and exited 0; table 1 starts at
    # n = 4, the smallest multipartite system, table 3 at 2x2x2 (n = 8),
    # its smallest structure, and table 5 at 2 qubits
    code, out, err = _run(capsys, ["tables", *argv])
    least = {"1": 4, "3": 8, "5": 2}[argv[0]]
    assert (code, out, err) == (2, "", f"error: {argv[1]}={argv[2]} is below {least}\n")


def test_tables_exit_code_covers_dropped_rows(capsys) -> None:
    # every search runs out of budget, and table 3 drops every row below n = 29
    code, out, err = _run(capsys, ["tables", "3", "--max-n", "28", "--budget-nodes", "1"])
    assert (code, out, err) == (3, ",".join(TABLE_HEADER) + "\n", "")


@pytest.mark.parametrize(
    "argv", [["1", "--max-n", "257"], ["3", "--max-n", "257"], ["5", "--max-N", "9"]]
)
def test_tables_refuse_structures_above_max_n(capsys, argv) -> None:
    # n <= 256, and 2^8 = 256
    code, out, err = _run(capsys, ["tables", *argv])
    most = {"--max-n": 256, "--max-N": 8}[argv[1]]
    assert (code, out, err) == (2, "", f"error: {argv[1]}={argv[2]} is above {most}\n")


def test_sweep_selfspace_closed_form(capsys) -> None:
    code, out, _ = _run(
        capsys,
        [
            "sweep",
            "--family",
            "e_selfspace",
            "--points",
            "4",
        ],
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "family,lambda1,min_avg"
    assert len(rows) == 5
    for row in rows[1:]:
        family, lam1, min_avg = row.split(",")
        assert family == "e_selfspace"
        assert float(min_avg) == pytest.approx(
            (2 * float(lam1) - 1) ** 2, abs=1e-12
        )
    assert [float(r.split(",")[1]) for r in rows[1:]] == [0.5, 0.625, 0.75, 0.875]


def test_validate_examples_cli(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["validate-examples", "2^4", "--tuples", "1,16;4,13;6,11;7,10"],
    )
    assert code == 0
    d = json.loads(out)
    assert d["all_pass"] is True
    assert len(d["pairwise"]) == 6

    code, out, _ = _run(
        capsys, ["validate-examples", "2^4", "--tuples", "1,16;2,15"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["all_pass"] is False
    assert d["me"] == [True, True]
    assert d["compatible"] is False

    code, out, _ = _run(capsys, ["validate-examples", "2^4", "--tuples", "1,16;2,3"])
    assert code == 0
    d = json.loads(out)
    assert d["me"] == [True, False]
    assert d["all_pass"] is False


def test_output_is_byte_deterministic(capsys, tmp_path) -> None:
    argv = ["rank", "2^4"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second

    target = tmp_path / "rank.json"
    code, out, _ = _run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert target.read_text() == first


def _stdlib_json(obj) -> str:
    """The oracle of `cli._json`: the stdlib writer, an array as its `.tolist()`."""
    return json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e308, -(10**30)])
    | st.text()
)
_JSON_KEYS = st.text() | st.sampled_from(["\u00e9t\u00e9", 'say "hi"', "two words", "\\\n\t", ""])
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_JSON_KEYS, inner, max_size=5)),
    max_leaves=40,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(obj=_JSON_VALUES | st.lists(st.booleans() | st.integers() | st.floats()))
@example(obj=[-0.0, 5e-324, 1e308, -(10**30), True, False, None, 'q"\u2603\n'])
@example(obj={"\u00e9 \"k\"": {"a b": [[], {}, (), [1, [True]], [[0.5], {"x": None}]]}})
def test_json_matches_stdlib_indent(obj) -> None:
    assert cli._json(obj) == _stdlib_json(obj)


_INT_ROWS = st.lists(st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1)
                     | st.tuples(st.integers(1, 256), st.integers(1, 256)), min_size=1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rows=_INT_ROWS)
def test_int_rows_match_stdlib_indent(rows) -> None:
    # the tuple lists' one join per row, at the top level and in a payload
    assert cli._int_rows(rows)
    assert cli._json(rows) == _stdlib_json(rows)
    assert cli._json({"tuples": rows, "count": len(rows)}) == _stdlib_json(
        {"tuples": rows, "count": len(rows)})


@pytest.mark.parametrize("rows", [
    [[1, 2], [True, 3]], [[1, 2], [3, 4.0]], [[1, 2], []], [], [[1, [2]]],
    [[1, 2], {"a": 1}], [(1, 2), [3, None]], [[1, 2], "ab"], [[False]],
], ids=["bool", "float", "empty-row", "empty", "nested", "dict", "none", "str", "only-bool"])
def test_other_rows_take_the_general_path(rows) -> None:
    assert not cli._int_rows(rows)
    assert cli._json(rows) == _stdlib_json(rows)


def test_numpy_integer_rows_are_refused_as_by_the_stdlib() -> None:
    rows = [[np.int64(1), 2]]
    assert not cli._int_rows(rows)
    with pytest.raises(TypeError):
        json.dumps(rows, indent=2)
    with pytest.raises(TypeError):
        cli._json(rows)


_MATRIX_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def _one_magnitude_both_signs(draw) -> np.ndarray:
    x = abs(draw(st.floats() | _EDGE_FLOATS))
    return np.where(draw(hnp.arrays(np.bool_, _MATRIX_SHAPES)), -x, x)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(a=hnp.arrays(np.float64, _MATRIX_SHAPES, elements=st.floats() | _EDGE_FLOATS)
       | _one_magnitude_both_signs())
@example(a=np.array([[-math.nan, math.nan, -0.0, 0.0], [-math.inf, math.inf, -5e-324, 1e308]]))
def test_float_matrix_json_matches_stdlib_indent(a) -> None:
    # the per-magnitude writer against the stdlib on the array's list,
    # at the top level and opened at an indent inside a payload
    assert cli._json(a) == json.dumps(a.tolist(), indent=2) + "\n"
    assert cli._json({"matrix": {"re": a}}) == _stdlib_json({"matrix": {"re": a.tolist()}})


PUBLISHED_SETS = {**EXAMPLE_SETS, **{(2,) * N: levels for N, levels in QUBIT_SETS.items()}}


@pytest.mark.parametrize("lu_seed", [None, 7])
@pytest.mark.parametrize("dims", PUBLISHED_SETS, ids=lambda dims: "x".join(map(str, dims)))
def test_construct_payload_matches_stdlib_indent(capsys, monkeypatch, dims, lu_seed) -> None:
    # the real payload object, dressed and undressed, not its parsed stdout
    levels, payloads = PUBLISHED_SETS[dims], []
    monkeypatch.setattr(cli, "_json", lambda obj: payloads.append(obj) or _stdlib_json(obj))
    R = len(levels)  # a decreasing spectrum that sums to 1
    argv = ["construct", "x".join(map(str, dims)),
            "--tuples", ";".join(",".join(map(str, t)) for t in levels),
            "--spectrum", ",".join(repr(2 * (R - k) / (R * (R + 1))) for k in range(R))]
    argv += [] if lu_seed is None else ["--lu-seed", str(lu_seed)]
    assert _run(capsys, argv)[0] == 0
    (payload,) = payloads
    monkeypatch.undo()
    # the matrix reaches the writer as arrays: a `.tolist()` would bring
    # back one `float.__repr__` per entry
    assert all(type(payload["matrix"][k]) is np.ndarray for k in ("re", "im"))
    assert cli._json(payload) == _stdlib_json(payload)


def _key_paths(obj, prefix: str = "") -> list[str]:
    # every key of every JSON object in `obj`, in order, as a dotted path;
    # the objects of a list share their list's path, each key listed once
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in [prefix + k, *_key_paths(v, prefix + k + ".")]]
    if isinstance(obj, list):
        return list(dict.fromkeys(p for x in obj for p in _key_paths(x, prefix)))
    return []


# each JSON payload's key paths, in order: the CLI is their one owner
JSON_KEYS = {
    "lstar": ["dims", "Lstar", "M_star", "table", *(f"table.{L}" for L in range(2, 13))],
    "tuples": ["dims", "L", "count", "tuples"],
    "rank": ["dims", "n", "L_used", "r_tilde", "R_MME", "witness", "exhaustive", "status",
             "nodes", "tuple_count"],
    "construct": ["dims", "tuples", "spectrum", "lu_seed", "certificate", "certificate.rank",
                  "certificate.L", "certificate.me_tuples", "certificate.compatible",
                  "certificate.trivial_pure", "matrix", "matrix.dims", "matrix.re", "matrix.im"],
    "verify": ["dims", "strategy", "samples", "min_avg", "argmin", "notes"],
    "tables": TABLE_HEADER,
    "validate-examples": ["dims", "tuples", "me", "compatible", "pairwise", "pairwise.i",
                          "pairwise.j", "pairwise.compatible", "all_pass"],
}


@pytest.mark.parametrize("argv", [
    ["lstar", "2x2x3x3"],
    ["tuples", "2x4"],
    ["rank", "2^4"],
    ["construct", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3", "--lu-seed", "5"],
    ["verify", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3"],
    ["tables", "5", "--max-N", "4", "--format", "json"],
    ["validate-examples", "2^4", "--tuples", "1,16;4,13;6,11;7,10"],
], ids=lambda argv: argv[0])
def test_json_stdout_round_trips_through_the_stdlib(capsys, argv) -> None:
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == _stdlib_json(json.loads(out))
    assert _key_paths(json.loads(out)) == JSON_KEYS[argv[0]]


def test_internal_error_exit_code(capsys, monkeypatch) -> None:
    def boom(*args, **kwargs):
        raise RuntimeError("searcher broke")

    monkeypatch.setattr("mmekit.cli.max_mme_rank", boom)
    code, out, err = _run(capsys, ["rank", "2x4"])
    assert code == 4
    assert err.startswith("internal error:")


def test_unexpected_exception_exit_code(capsys, monkeypatch) -> None:
    def boom(*args, **kwargs):
        raise KeyError("lost key")

    monkeypatch.setattr("mmekit.cli.max_mme_rank", boom)
    code, out, err = _run(capsys, ["rank", "2x4"])
    assert code == 4
    assert err == "internal error: KeyError: 'lost key'\n"
    assert "Traceback" not in err


# One argv per parser of outside text.
PARSER_ARGVS = {
    "lstar-dims": lambda text: ["lstar", "--", text],
    "construct-tuples": lambda text: ["construct", "2^4", f"--tuples={text}",
                                      "--spectrum=0.5,0.5"],
    "construct-spectrum": lambda text: ["construct", "2^4", "--tuples=1,16;4,13",
                                        f"--spectrum={text}"],
    "validate-tuples": lambda text: ["validate-examples", "2^4", f"--tuples={text}"],
}


@pytest.mark.parametrize("parser", sorted(PARSER_ARGVS))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=st.text() | st.text(alphabet="0123456789,;.x^-+e _"))
def test_parsers_exit_0_or_2(parser, text) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(PARSER_ARGVS[parser](text))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 2), (code, err.getvalue())


def test_module_invocation_smoke(child_env) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "mmekit.cli", "lstar", "2x4"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["Lstar"] == [2]


@pytest.mark.skipif(shutil.which("mmekit") is None, reason="script not on PATH")
def test_console_script_smoke() -> None:
    proc = subprocess.run(
        ["mmekit", "lstar", "2x4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["Lstar"] == [2]


def test_console_script_entry_point(capsys) -> None:
    # the PATH test above needs an installed script; this one resolves the
    # declared entry point itself
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"mmekit": "mmekit.cli:main"}
    module, _, attr = scripts["mmekit"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["lstar", "2x4"]) == 0
    assert json.loads(capsys.readouterr().out)["Lstar"] == [2]


def _readme_commands() -> list[list[str]]:
    """Argv of each `mmekit` command in README's "Command line" block:
    backslash continuations joined, `#` comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv[1:] for argv in (shlex.split(line, comments=True) for line in lines)
            if argv and argv[0] == "mmekit"]


def test_readme_commands_parse() -> None:
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv)  # parse only; argparse exits on a bad one


REFUSALS = [
    ["tuples", "2x2x3x3", "--L", "3"],
    ["rank", "2x2x3x3", "--L", "3"],
    ["rank", "2x2x3x3", "--L", "12", "--all-lstar"],
    ["tables", "5", "--max-n", "10"],
    ["tables", "1", "--max-N", "3"],
    ["tables", "1", "--max-n", "0"],
    ["tables", "3", "--max-n", "-7"],
    ["tables", "5", "--max-N", "1"],
    ["tables", "5", "--max-N", "-3"],
    ["lstar", "2xx3"],
    ["rank", "2^40"],
    ["verify", "--state", "{bad_state}"],
    ["verify", "2x5", "--state", "{state}"],
    ["verify", "--state", "{state}", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3"],
    ["verify", "--state", "{state}", "--lu-seed", "3"],
    ["rank", "3x3x3x3", "--seed", "-1"],
    ["rank", "2x2x2x2x3", "--seed", "-5"],
    ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3",
     "--strategy", "random", "--seed", "-1"],
    # sampler sizes that could never finish: a D x D Haar draw per D up to
    # Dmax, samples Haar unitaries per D and points grids per family
    ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3",
     "--strategy", "random", "--samples", "1", "--Dmax", "100000"],
    ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3",
     "--strategy", "random", "--samples", "100000000"],
    ["sweep", "--points", "100000000"],
]

# refusals of an option's text, which must name the option
PARSE_REFUSALS = {
    ("construct", "2^4", "--tuples", "1.5,16;4,13", "--spectrum", "0.7,0.3"): "--tuples",
    ("construct", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,x"): "--spectrum",
    ("validate-examples", "2^4", "--tuples", "1,x"): "--tuples",
}
# refusals whose full message is pinned: a negative --lu-seed is named as
# lu_seed, never as the --seed beside it; a default D bound is named as
# one; a sampling option is refused under the strategy that never reads it,
# with the library's own text
REFUSAL_MESSAGES = {
    ("construct", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--lu-seed", "-1"):
        "lu_seed=-1 is below 0",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--lu-seed", "-1",
     "--strategy", "random", "--seed", "3"): "lu_seed=-1 is below 0",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--strategy", "random",
     "--Dmin", "5", "--samples", "2"):
        "Dmax=4 (the default, rank + 2) below Dmin=5; give Dmax >= 5",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--strategy", "random",
     "--Dmax", "1"): "Dmax=1 below Dmin=2 (the default, the rank); give Dmax >= 2",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--seed", "-1"):
        "seed does not apply to strategy 'grid'",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--samples", "5",
     "--Dmin", "7", "--seed", "3"): "samples does not apply to strategy 'grid'",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3",
     "--samples", "100000000"): "samples does not apply to strategy 'grid'",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--Dmin", "2"):
        "Dmin does not apply to strategy 'grid'",
    ("verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--strategy", "grid",
     "--Dmax", "3"): "Dmax does not apply to strategy 'grid'",
}
REFUSALS += [list(argv) for argv in [*PARSE_REFUSALS, *REFUSAL_MESSAGES]]


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_refusals_exit_2_without_source_paths(child_env, tmp_path, argv) -> None:
    # a child process, so a warning or traceback would reach stderr as a user sees it
    state, bad_state = tmp_path / "state.json", tmp_path / "bad_state.json"
    state.write_text(json.dumps(_saved_state(), default=np.ndarray.tolist))
    bad_state.write_text(json.dumps(_saved_state(1.5), default=np.ndarray.tolist))
    argv = [a.format(state=state, bad_state=bad_state) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "mmekit.cli", *argv],
                          capture_output=True, text=True, env=child_env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error:" in proc.stderr
    assert ".py:" not in proc.stderr and "Warning" not in proc.stderr
    option = PARSE_REFUSALS.get(tuple(argv))
    if option:  # with the text given
        assert f"error: {option} {argv[argv.index(option) + 1]!r}: " in proc.stderr
    message = REFUSAL_MESSAGES.get(tuple(argv))
    if message:
        assert proc.stderr == f"error: {message}\n"
