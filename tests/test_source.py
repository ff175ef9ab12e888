"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import balhyp
import balhyp.coloring
import balhyp.core
import balhyp.matching


def test_no_assert_statements():
    # post-conditions must be explicit checks: python -O strips assert
    found = []
    for path in sorted(Path(balhyp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_incidence_has_no_library_caller():
    # `core.incidence` is kept only as a traced benchmark layer; no other
    # module may come to depend on it again
    found = []
    for path in sorted(Path(balhyp.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if "incidence" in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            )
        ]
    assert found == []


def test_coloring_attempt_builds_no_python_lists():
    # every coloring attempt runs these; their state stays in arrays
    path = Path(balhyp.coloring.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    attempt = {"col_random_phase", "is_clamped", "rebalance", "_uncolor_lowest"}
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in attempt]
    assert {node.name for node in defs} == attempt
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in defs
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "tolist"
    ]
    assert found == []


def test_one_row_encoder():
    # rows become comparable integers only through `core.edge_keys`
    found = []
    for path in sorted(Path(balhyp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("_keys", "_lex_order")
        ]
    assert found == []
    path = Path(balhyp.matching.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert any(
        isinstance(node, ast.ImportFrom)
        and node.module == "balhyp.core"
        and "edge_keys" in [alias.name for alias in node.names]
        for node in tree.body
    )
    assert balhyp.matching.edge_keys is balhyp.core.edge_keys


def test_bench_tracer_finds_every_layer():
    # a refactor that drops or renames a traced layer fails here, not in
    # every benchmark run's self-test
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod in sorted(Path(balhyp.__file__).parent.glob("[!_]*.py")):
        importlib.import_module(f"balhyp.{mod.stem}")
    residual = balhyp.coloring.residual
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert balhyp.coloring.residual is not residual
    finally:
        tracer.uninstall()
    assert balhyp.coloring.residual is residual
