"""The public API is the only way in: the CLI, tests and demos import no
private names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
CLI = ROOT / "src" / "triform" / "cli.py"


def private_imports(source: str) -> list:
    """Underscore names (dunders excepted) that ``source`` imports from triform.

    Relative imports count as imports from triform: only modules of the
    package use them.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "triform"):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "triform"
                     for part in a.name.split(".")]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def test_detector_flags_private_imports():
    assert private_imports("from triform.specdecomp import _spectral_batches")
    assert private_imports("from triform import _x, y")
    assert private_imports("import triform._private")
    assert not private_imports("from triform import __version__, sobolev_trace")
    assert not private_imports("from triform.specfun import log_gamma_array")
    assert not private_imports("from other import _helper")
    assert private_imports("from .specdecomp import _mode_rows")
    assert private_imports("from ._private import x")
    assert not private_imports("from . import __version__")


def test_tests_and_demos_import_no_private_names():
    assert len(SOURCES) > 10
    offenders = {f"{p.parent.name}/{p.name}":
                 private_imports(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_cli_imports_no_private_names():
    assert private_imports(CLI.read_text(encoding="utf-8")) == []
