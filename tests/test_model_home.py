"""One home for the model kind.

Everything that depends on which system a ``ModelSpec`` is lives in that
kind's subclass in ``semitoric.models``, so no other module of the package
names a kind.  The exceptions: ``models`` defines the kind constants, the
package ``__init__`` re-exports them, ``cli`` maps its model names to them,
and ``reference`` and ``testing`` hold the closed forms and the dense oracle
that the subclasses are checked against, which must not read the
subclasses' maps.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semitoric"
KINDS = {"SPIN_OSCILLATOR", "COUPLED_ANGULAR_MOMENTA"}
HOMES = {"models.py", "__init__.py", "cli.py", "reference.py", "testing.py"}


def _kind_names(tree):
    """(line, name) of each import or attribute read of a kind constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name in KINDS)
        elif isinstance(node, ast.Attribute) and node.attr in KINDS:
            yield node.lineno, node.attr


def test_only_the_kind_homes_name_a_model_kind():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel not in HOMES:
            tree = ast.parse(path.read_text(), str(path))
            found += [f"{rel}:{line}:{name}" for line, name in _kind_names(tree)]
    assert not found, "model kind named outside its homes: " + ", ".join(found)
