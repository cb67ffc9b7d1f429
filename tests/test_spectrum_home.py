"""One home for the spectrum reads of the estimators.

The estimators of ``semitoric.invariants`` take the probe tables and counts
that ``pipeline.recover_all`` reads off its labelled spectra, so no module
of the subpackage other than ``spacings``, which defines
``LabelledSpectrum`` and ``ray_samples``, reads a spectrum or imports from
``spacings``.  The exception: the subpackage's ``__init__`` re-exports
those two names (and reads nothing).
"""

import ast
from pathlib import Path

SUBPACKAGE = Path(__file__).resolve().parents[1] / "src" / "semitoric" / "invariants"
READS = {"origin", "ladder", "nearest_column", "a1a2_interpolated",
         "_count_below", "_heights", "_size"}


def _spacings_imports(tree):
    """Line of each import of or from the ``spacings`` module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "spacings" for n in names):
            yield node.lineno


def _spectrum_reads(tree):
    """(line, name) of each attribute read of a spectrum's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in READS:
            yield node.lineno, node.attr


def test_only_spacings_reads_a_spectrum():
    found = []
    for path in sorted(SUBPACKAGE.glob("*.py")):
        if path.name == "spacings.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}:{name}" for line, name in _spectrum_reads(tree)]
        if path.name != "__init__.py":
            found += [f"{path.name}:{line}:import" for line in _spacings_imports(tree)]
    assert not found, "spectrum read outside invariants/spacings.py: " + ", ".join(found)
