"""Every public name of the package has a caller outside the tests.

A public top-level function or class of ``src/semitoric``, or a public
method written in such a class, must be referenced by name somewhere in the
program: the package itself, ``scripts/`` or ``perfbench/``, outside its
own definition.  A name that only tests reach belongs next to those tests,
or in ``semitoric.testing``, which holds the oracles and generators the
tests share and is exempt.  Names that BENCHMARK.json times as spans stay
public while the benchmark lists them.

The scan reads ``ast.Name`` and ``ast.Attribute`` loads, so an unrelated
use of the same identifier counts as a caller: it finds names nothing
mentions, not every name without a true caller.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semitoric"
EXEMPT = {PACKAGE / "testing.py"}
SPAN_METRICS = (".calls", ".s", ".self_s")


def _benchmark_spans():
    """``Name`` and ``Name.method`` of each span BENCHMARK.json lists,
    read as test_benchmark_spans.py reads them, without the layer."""
    names = (m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])
    return {n.rsplit(".", 1)[0].split(".", 1)[1] for n in names
            if n.endswith(SPAN_METRICS) and not n.startswith("trace.")}


def _program_files():
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path, ast.parse(path.read_text(), str(path))


def _loads(tree):
    """(line, identifier) of every name and attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.attr


def _public_definitions(tree):
    """(qualified name, definition node) of each public top-level function
    and class, and of each public method written in such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    files = list(_program_files())
    loads = [(path, line, name) for path, tree in files for line, name in _loads(tree)]
    allowed = _benchmark_spans()
    orphans = []
    for path, tree in files:
        if PACKAGE not in path.parents or path in EXEMPT:
            continue
        for qualname, node in _public_definitions(tree):
            if qualname in allowed:
                continue
            called = any(name == node.name
                         and not (where == path and node.lineno <= line <= node.end_lineno)
                         for where, line, name in loads)
            if not called:
                orphans.append(f"{path.relative_to(PACKAGE)}:{qualname}")
    assert not orphans, "public names only tests reach: " + ", ".join(orphans)
