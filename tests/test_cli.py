from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmekit import cli, verify
from mmekit.cli import TABLE_HEADER, build_parser, main
from mmekit.linalg import DensityMatrix
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
    assert lines[0] == "n,dims,minLstar,r_tilde,R_MME"
    assert lines[1] == "8,2x4,2,2,2"

    code, out, _ = _run(capsys, ["rank", "2x4"])
    assert code == 0
    d = json.loads(out)
    assert d["R_MME"] == 2
    assert d["status"] == "complete"
    assert d["witness"] == [[1, 6], [3, 8]]


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
    code, out, err = _run(
        capsys, ["rank", "2x2x3x3", "--all-lstar", "--budget-nodes", "5"]
    )
    assert (code, err) == (3, "")
    d = json.loads(out)
    assert (d["status"], d["exhaustive"], d["L_used"]) == ("inconclusive", False, 6)


@pytest.mark.parametrize("argv,L_used,rank", [(["--L", "14"], 14, 0), (["--all-lstar"], 2, 5)])
def test_rank_L_without_me_tuples(capsys, argv, L_used, rank) -> None:
    # L* of 2^5 includes 14, where no ME TGX tuple exists: R_MME is 0 there
    code, out, err = _run(capsys, ["rank", "2^5", *argv])
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert (d["status"], d["L_used"], d["R_MME"], len(d["witness"])) == (
        "complete", L_used, rank, rank)


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
    with monkeypatch.context() as patch:
        patch.setattr(verify, "mix", lambda states, weights: DensityMatrix(
            states[0].structure, _einsum_mix(states, weights), validate=False))
        assert _run(capsys, argv + ["--out", str(target)]) == (0, "", "")
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
            "lu_seed": None, "matrix": rho.to_json_dict()}


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
    target.write_text(json.dumps(saved))
    code, out, err = _run(capsys, ["verify", "--state", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sweep_rejects_points_below_one(capsys, points) -> None:
    code, out, err = _run(capsys, ["sweep", "--points", points])
    assert (code, out) == (2, "")
    assert "--points" in err


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
    assert lines[0] == "n,dims,minLstar,r_tilde,R_MME,status"
    assert lines[1] == "4,2x2,2,1,1,complete"
    assert lines[2] == "8,2x2x2,2,2,1,complete"
    assert lines[3] == "16,2x2x2x2,2,4,4,complete"
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
    assert header == TABLE_HEADER + (["status"] if argv[0] == "5" else [])
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


def test_tables_exit_code_covers_dropped_rows(capsys) -> None:
    # every search runs out of budget, and table 3 drops every row below n = 29
    code, out, err = _run(capsys, ["tables", "3", "--max-n", "28", "--budget-nodes", "1"])
    assert (code, out, err) == (3, ",".join(TABLE_HEADER) + "\n", "")


@pytest.mark.parametrize(
    "argv", [["1", "--max-n", "257"], ["3", "--max-n", "257"], ["5", "--max-N", "9"]]
)
def test_tables_refuse_structures_above_max_n(capsys, argv) -> None:
    code, out, err = _run(capsys, ["tables", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "256" in err


def test_sweep_selfspace_closed_form(capsys) -> None:
    code, out, _ = _run(
        capsys,
        [
            "sweep",
            "--family",
            "e_selfspace",
            "--points",
            "4",
            "--grid",
            "8,8",
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
    return json.dumps(obj, indent=2) + "\n"


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
    assert cli._json(payload) == _stdlib_json(payload)


@pytest.mark.parametrize("argv", [
    ["lstar", "2x2x3x3"],
    ["tuples", "2x4"],
    ["rank", "2^4"],
    ["construct", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3", "--lu-seed", "5"],
    ["verify", "2^4", "--tuples", "1,16;4,13", "--spectrum", "0.7,0.3", "--grid", "3,3"],
    ["tables", "5", "--max-N", "4", "--format", "json"],
    ["validate-examples", "2^4", "--tuples", "1,16;4,13;6,11;7,10"],
], ids=lambda argv: argv[0])
def test_json_stdout_round_trips_through_the_stdlib(capsys, argv) -> None:
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == _stdlib_json(json.loads(out))


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


# One argv per parser of outside text; verify runs the random strategy
# with one sample per D, so a grid that parses is checked, not swept.
PARSER_ARGVS = {
    "lstar-dims": lambda text: ["lstar", "--", text],
    "construct-tuples": lambda text: ["construct", "2^4", f"--tuples={text}",
                                      "--spectrum=0.5,0.5"],
    "construct-spectrum": lambda text: ["construct", "2^4", "--tuples=1,16;4,13",
                                        f"--spectrum={text}"],
    "validate-tuples": lambda text: ["validate-examples", "2^4", f"--tuples={text}"],
    "verify-grid": lambda text: ["verify", "2^4", "--tuples=1,16;4,13",
                                 "--spectrum=0.5,0.5", "--strategy=random",
                                 "--samples=1", f"--grid={text}"],
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
    ["lstar", "2xx3"],
    ["rank", "2^40"],
    ["verify", "--state", "{bad_state}"],
    ["rank", "3x3x3x3", "--seed", "-1"],
    ["rank", "2x2x2x2x3", "--seed", "-5"],
    ["construct", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--lu-seed", "-1"],
    ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3",
     "--strategy", "random", "--seed", "-1"],
    ["verify", "2x5", "--tuples", "1,10;2,8", "--spectrum", "0.7,0.3", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_refusals_exit_2_without_source_paths(child_env, tmp_path, argv) -> None:
    # a child process, so a warning or traceback would reach stderr as a user sees it
    bad_state = tmp_path / "state.json"
    bad_state.write_text(json.dumps(_saved_state(1.5)))
    argv = [a.format(bad_state=bad_state) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "mmekit.cli", *argv],
                          capture_output=True, text=True, env=child_env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error:" in proc.stderr
    assert ".py:" not in proc.stderr and "Warning" not in proc.stderr
