from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import mmekit

if sys.version_info >= (3, 11):
    import tomllib


def test_no_imports_inside_functions() -> None:
    # every import sits at module top, where a cycle fails at load time
    found = []
    for path in sorted(Path(mmekit.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_readme_quick_start_prints_its_comments() -> None:
    # each print line's output is its comment, up to a ": " gloss
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    want = [line.split("# ", 1)[1].partition(": ")[0]
            for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == want
    assert want[1:] == ["2", "['{1,7}', '{3,9}']", "0.9999999999999996"]


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layer_functions() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


def _mk_chains(name: str) -> set[tuple[str, str]]:
    # every `mk.<module>.<name>` attribute chain in a benchmark script
    return {(node.value.attr, node.attr)
            for node in ast.walk(ast.parse((BENCH / name).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "mk"}


def test_distribution_is_named_mmekit() -> None:
    # so that `pip show mmekit` and importlib.metadata.version("mmekit")
    # find an install of this package
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        project = tomllib.loads(text)["project"]
    else:  # the [project] table's plain `key = "value"` lines
        table = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        project = dict(re.findall(r'^(\w+) = "([^"]*)"$', table, re.M))
    assert (project["name"], project["version"]) == ("mmekit", mmekit.__version__)


def test_benchmark_entry_points_exist() -> None:
    # the benchmark reaches the package by these names, read without
    # importing its scripts; a deleted one crashes its traced run
    targets = set(_layer_functions()) | _mk_chains("run.py") | _mk_chains("workloads.py")
    assert ("tgx", "is_me_tuple") in targets and ("mme", "construct") in targets
    missing = []
    for module, name in sorted(targets):
        owner = importlib.import_module(f"mmekit.{module}")
        if (module, name) == ("verify", "average_ent"):
            owner = owner.DecompositionSample
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module}.{name}")
    assert missing == []


def _readers() -> set[str]:
    # names read outside the tests: AST names, and attributes of mmekit or
    # one of its modules, in the package (bar `__init__`), the demos and
    # the benchmark scripts; the benchmark's traced layers; backticked
    # README names
    package = Path(mmekit.__file__).parent
    owners = {"mk", "mmekit"} | {p.stem for p in package.glob("*.py")}
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += list((BENCH.parent / "demos").glob("*.py"))
    paths += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    found = {name for _, name in _layer_functions()}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and (
                    getattr(node.value, "id", None) in owners
                    or getattr(node.value, "attr", None) in owners):
                found.add(node.attr)
    readme = (BENCH.parent / "README.md").read_text()
    found |= {name.rsplit(".", 1)[-1]
              for name in re.findall(r"`([A-Za-z_][\w.]*)`", readme)}
    return found


def test_every_export_has_a_reader_outside_the_tests() -> None:
    # an exported name that only the tests call is dead weight: delete it
    # or keep it in the tests as an oracle
    assert sorted(set(mmekit.__all__) - _readers()) == []


def test_cli_handlers_write_json_only_through_one_writer() -> None:
    # every JSON payload goes through cli._json, which the byte-identity
    # tests in test_cli.py compare against json.dumps(obj, indent=2)
    tree = ast.parse((Path(mmekit.__file__).parent / "cli.py").read_text())
    handlers = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert len(handlers) == 8
    found = [f"{fn.name}: json.{node.attr}" for fn in handlers for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "json" and node.attr in ("dump", "dumps", "JSONEncoder")]
    assert found == []


def test_cli_owns_every_printed_schema() -> None:
    # the library's result types carry no printed form: each `cmd_`
    # handler builds its payload from their fields
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(mmekit.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "to_json_dict"]
    assert found == []


def test_a_certificate_keeps_no_per_unitary_record() -> None:
    # `min_avg_ent` streams its minimum: a field holding every average
    # would grow with the sample count
    fields = mmekit.verify.EntEstimate.__dataclass_fields__
    assert list(fields) == ["structure", "strategy", "samples", "min_avg", "argmin", "notes"]


def _qualified_uses(tree: ast.AST, name: str, owner: str = "") -> list[str]:
    # the qualified name of the def or class around each use of `name`, a
    # name or a dotted attribute chain
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += _qualified_uses(node, name, f"{owner}.{node.name}".lstrip("."))
        else:
            if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) == name:
                found.append(owner)
            found += _qualified_uses(node, name, owner)
    return found


def test_verify_checks_unitaries_where_they_enter() -> None:
    # the caller's unitary in `decompose`, each Haar stack as it is drawn
    # and each grid once, when it is built; a check in `_coefficients`
    # would recheck the cached grid on every certificate
    tree = ast.parse((Path(mmekit.__file__).parent / "verify.py").read_text())
    assert sorted(_qualified_uses(tree, "_check_isometry")) == [
        "SpectralState.__post_init__", "_u2_grid", "decompose", "min_avg_ent.haar_stacks"]


def _qualified_nodes(tree: ast.AST, owner: str = ""):
    # each node with the qualified name of the def or class around it, as
    # `_qualified_uses` names them
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _qualified_nodes(node, f"{owner}.{node.name}".lstrip("."))
        else:
            yield owner, node
            yield from _qualified_nodes(node, owner)


def _package_owners(match) -> list[str]:
    # "module.owner" of each node of the package that `match` accepts
    return [f"{path.stem}.{owner}"
            for path in sorted(Path(mmekit.__file__).parent.glob("*.py"))
            for owner, node in _qualified_nodes(ast.parse(path.read_text())) if match(node)]


def test_one_function_reads_a_raw_level() -> None:
    # `scalar_to_vector` and the tuple builders share `modes._check_levels`,
    # so a level is refused with one text wherever it enters
    assert _package_owners(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_int"
        and [ast.unparse(a) for a in node.args[:1]] == ["'level'"]) == ["modes._check_levels"]


def test_one_function_refuses_a_set_that_is_not_me() -> None:
    # `MeTgxTuple.__init__` certifies through `tgx._certify`, the one-row case
    assert _package_owners(lambda node: isinstance(node, ast.Raise)
                           and "is not an ME TGX tuple" in ast.unparse(node)) == ["tgx._certify"]


def test_one_function_reads_an_integer_range() -> None:
    # every count, size, label and seed passes its bounds to
    # `modes._check_int`, the one text of a value out of range;
    # `cli._parse_grid` keeps "steps must be positive", which quotes the
    # --grid text as typed
    assert not hasattr(importlib.import_module("mmekit.modes"), "_check_seed")
    assert _package_owners(lambda node: isinstance(node, ast.Raise)
                           and re.search(r"is (below|above) \{", ast.unparse(node))) \
        == ["modes._check_int", "modes._check_int"]
    phrases = ("must be at least", "must be >=", "D must be positive", "seeds must be",
               "at least one step per axis")
    assert _package_owners(lambda node: isinstance(node, ast.Raise)
                           and any(p in ast.unparse(node) for p in phrases)) == []


def test_cli_joins_json_lists_one_way() -> None:
    # `_indented` writes each list item itself: no stdlib call with its own
    # separators prints a second form of the same list
    calls = _package_owners(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
        and any(k.arg == "separators" for k in node.keywords))
    assert [owner for owner in calls if owner.startswith("cli.")] == []


# The types that check their arguments where an instance is built, so
# that every instance is valid by existence.
CHECKED_TYPES = ("DensityMatrix", "PureStateVector", "SpectralState", "MeTgxTuple",
                 "LocalUnitarySet", "ModeStructure")


def test_checked_types_are_valid_by_existence() -> None:
    # two builders skip the checks, each on input checked before:
    # `tgx._certified` wraps certified level sets, and `verify._MixedOnRead`
    # is the rho of a checked SpectralState; no subclass of a checked type
    # builds any other way
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(Path(mmekit.__file__).parent.glob("*.py"))}
    assert [f"{stem}.{owner}" for stem, tree in trees.items()
            for owner in _qualified_uses(tree, "object.__new__")] == ["tgx._certified"]
    classes = [(stem, node) for stem, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    checked, builders = set(CHECKED_TYPES), []
    for _ in classes:  # a subclass of a subclass is reached on a later pass
        for stem, node in classes:
            if node.name not in checked and any(
                    ast.unparse(base).split(".")[-1] in checked for base in node.bases):
                checked.add(node.name)
                builders += [f"{stem}.{node.name}.{fn.name}" for fn in node.body
                             if isinstance(fn, ast.FunctionDef)
                             and fn.name in ("__new__", "__init__", "__post_init__")]
    assert "MmeState" in checked
    assert builders == ["verify._MixedOnRead.__init__"]
    # a non-Hermitian 2^4 matrix is refused, and no flag skips the checks
    s = mmekit.ModeStructure((2,) * 4)
    bad = mmekit.construct(s, [(1, 16), (4, 13)], (0.5, 0.5))[1].entries.copy()
    bad[0, 15] = 5.0
    with pytest.raises(ValueError, match="not Hermitian"):
        mmekit.DensityMatrix(s, bad)
    with pytest.raises(TypeError):
        mmekit.DensityMatrix(s, bad, validate=False)


# Every cache in the package, as "module.function": its maxsize (None for
# unbounded) and what bounds its entries.  An unbounded cache grows for
# the life of the process, so a new one must say why it cannot.
CACHES = {
    "cli.build_parser": (None, "takes no arguments: one parser"),
    "entcore.lstar": (None, "one report per structure used"),
    "mme._certified_set": (64, "tuple sets are unbounded: mme.CERTIFIED_SETS"),
    "modes._level_table": (None, "one layout per structure used"),
    "verify._summing_matrices": (None, "two matrices per structure used"),
    "verify._u2_grid": (8, "grid sizes come from the caller"),
}


def _cache_uses() -> tuple[set[str], list[str]]:
    # the functions decorated by functools' lru_cache or cache, and any
    # other use of those two, which the table could not name
    decorated, loose = set(), []
    for path in sorted(Path(mmekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = [node for node in ast.walk(tree)
                if getattr(node, "id", None) in ("lru_cache", "cache")
                or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) == "functools"]
        at = set()
        for fn in ast.walk(tree):
            for dec in getattr(fn, "decorator_list", []):
                target = dec.func if isinstance(dec, ast.Call) else dec
                if target in uses:
                    decorated.add(f"{path.stem}.{fn.name}")
                    at.add(target)
        loose += [f"{path.name}:{use.lineno}" for use in uses if use not in at]
    return decorated, loose


def test_every_cache_is_declared() -> None:
    decorated, loose = _cache_uses()
    assert loose == []
    assert sorted(decorated) == sorted(CACHES)
    for name, (maxsize, bound) in CACHES.items():
        module, fn = name.split(".")
        cached = getattr(importlib.import_module(f"mmekit.{module}"), fn)
        assert (name, cached.cache_info().maxsize) == (name, maxsize)
        assert bound
