"""The public API is the only way in: the package's modules, tests and demos
import no private names, every name the demos and the bench import exists,
and every export but a listed few has a caller outside tests.  Every CLI
flag is read by the command that accepts it, and the package refuses bad
input with its own error types, never a builtin exception."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triform
from triform import (CircleFunction, GaussianSpec, PreconditionError,
                     QuadratureConfig, cli, group_action,
                     homogeneous_reduction_check, kernel_gaussian_check,
                     minor_pullback_check, radius_moment)

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
CLI = ROOT / "src" / "triform" / "cli.py"
# scripts whose imports are checked here without running them (two demos
# also run in test_demos.py)
UNRUN = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")])


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


def _resolves(module: str, name: str = None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    return _resolves(f"{module}.{name}")


def missing_imports(source: str) -> list:
    """Names that ``source`` imports from triform and the package lacks."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "triform":
            missing += [f"line {node.lineno}: {node.module}.{a.name}"
                        for a in node.names if not _resolves(node.module, a.name)]
        elif isinstance(node, ast.Import):
            missing += [f"line {node.lineno}: {a.name}" for a in node.names
                        if a.name.split(".")[0] == "triform"
                        and not _resolves(a.name)]
    return missing


def test_detector_flags_missing_names():
    assert missing_imports("from triform import no_such_name")
    assert missing_imports("from triform import bump_vector, no_such_name")
    assert missing_imports("from triform.nowhere import x")
    assert missing_imports("import triform.nowhere")
    assert not missing_imports("from triform import bump_vector, cli")
    assert not missing_imports("from triform.quadrature import unit_nodes")
    assert not missing_imports("import triform.specfun")
    assert not missing_imports("from other import no_such_name")


def test_demos_and_bench_import_only_existing_names():
    assert len(UNRUN) > 6
    offenders = {f"{p.parent.name}/{p.name}":
                 missing_imports(p.read_text(encoding="utf-8")) for p in UNRUN}
    assert {k: v for k, v in offenders.items() if v} == {}


def unread_flags(parser: argparse.ArgumentParser, argv: list) -> list:
    """Flags of the command ``argv`` names that the command never reads.

    The command runs once per flag with that flag's attribute deleted from
    the parsed namespace: a command that reads the flag fails, so one that
    still finishes never needed it.  A value that is only echoed through
    ``getattr(args, name, default)`` counts as unread.
    """
    unread = []
    for name in sorted(vars(parser.parse_args(argv))):
        if name in ("command", "func"):
            continue
        args = parser.parse_args(argv)
        delattr(args, name)
        try:
            args.func(args)
        except AttributeError:
            continue
        unread.append(name)
    return unread


def _toy_parser():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--used", type=int, default=1)
    p.add_argument("--echoed", type=int, default=2)
    p.add_argument("--ignored", type=int, default=3)
    p.set_defaults(func=lambda args: (args.used, getattr(args, "echoed", None)))
    return ap


def test_detector_flags_unread_cli_flags():
    assert unread_flags(_toy_parser(), ["run"]) == ["echoed", "ignored"]


# one cheap configuration per subcommand, every flag's branch exercised
CHEAP_RUNS = [
    ["closed-form", "--triples", "0,0,0", "--cube", "0"],
    ["quadrature-check", "--triples", "0,0,0", "--cube", "0",
     "--quad-levels", "3", "--target", "1e-2"],
    ["gaussian-check", "--samples", "200"],
    ["decay-scan", "--ladder", "25,50"],
    ["sobolev-trace", "--t-ladder", "2", "--max-mode", "2", "--k-modes", "2",
     "--check-doubling"],
]


def test_cli_commands_read_every_flag(tmp_path):
    common = ["--reproducible", "--format", "json", "--out", str(tmp_path / "t")]
    commands = {f for name, f in vars(cli).items() if name.startswith("cmd_")}
    assert {cli.build_parser().parse_args(r).func for r in CHEAP_RUNS} == commands
    offenders = {argv[0]: unread_flags(cli.build_parser(), argv + common)
                 for argv in CHEAP_RUNS}
    assert {k: v for k, v in offenders.items() if v} == {}


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}
# every module under src/, subpackages included
PACKAGE = sorted((ROOT / "src").rglob("*.py"))


def builtin_raises(source: str) -> list:
    """``raise`` statements of ``source`` that name a builtin exception type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                found.append(f"line {node.lineno}: {exc.id}")
    return found


def test_detector_flags_builtin_raises():
    assert builtin_raises("raise ValueError('bad')")
    assert builtin_raises("raise ArithmeticError")
    assert builtin_raises("def f():\n    raise TypeError('x') from None")
    assert not builtin_raises("raise PreconditionError('bad')")
    assert not builtin_raises("try:\n    f()\nexcept ValueError:\n    raise")
    assert not builtin_raises("x = ValueError('not raised')")


def test_package_raises_only_its_own_errors():
    # Estimate's error_bound >= 0 invariant guards against a program bug,
    # not a bad input, so it keeps its ValueError
    assert PACKAGE
    offenders = {p.relative_to(ROOT / "src").as_posix():
                 builtin_raises(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert [r.split(": ")[1]
            for r in offenders.pop("triform/estimate.py")] == ["ValueError"]
    assert {k: v for k, v in offenders.items() if v} == {}


def test_package_modules_import_no_private_names():
    # the package's modules reach each other through public names too
    offenders = {p.relative_to(ROOT / "src").as_posix():
                 private_imports(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert {k: v for k, v in offenders.items() if v} == {}


INIT = ROOT / "src" / "triform" / "__init__.py"
# exports that no module, demo or bench script calls, each with why it stays
UNCALLED_EXPORTS = {
    "induced_form": "dense reference that sobolev_trace is tested against",
    "relative_trace": "dense reference that sobolev_trace is tested against",
    "weighted_mean_bound": "the bound acceptance's localization criterion checks",
    "minor_map": "reference for the Monte Carlo third-minor line; tests rotate it",
}


def unused_exports(init_source: str, sources: list) -> set:
    """Names that ``init_source`` imports from the package's modules and no
    source in ``sources`` reads as a name, an attribute or an import."""
    exported = {a.asname or a.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                exported.discard(node.id)
            elif isinstance(node, ast.Attribute):
                exported.discard(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                exported.difference_update(a.name for a in node.names)
    return exported


def test_detector_flags_unused_exports():
    init = "from .a import f, g, h, k, m\nfrom .b import C"
    sources = ["f(1)", "x = mod.g", "from triform import h", "def k(): pass",
               "__all__ = ['m']", "class C: pass"]
    assert unused_exports(init, sources) == {"k", "m", "C"}
    assert unused_exports(init, sources + ["k(); y = [m, C]"]) == set()


def test_every_export_has_a_caller():
    sources = [p.read_text(encoding="utf-8") for p in [*PACKAGE, *UNRUN]
               if p.name != "__init__.py"]
    assert unused_exports(INIT.read_text(encoding="utf-8"), sources) == set(
        UNCALLED_EXPORTS)


# every defaulted parameter of an exported function or public method and
# every defaulted field of an exported dataclass, each with why it stays
DEFAULTED_VALUES = {
    "CircleFunction.tail_energy": "diagnostic: only group_action's truncation "
                                  "sets it; other data have none",
    "CircleFunction.constant(value)": "the constant's one datum; the bench "
                                      "writes out 1.0 and tests pass 2.0",
    "Estimate.method": "closed forms and refined values label themselves",
    "Estimate.cost": "closed forms cost no integrand evaluation",
    "QuadratureConfig.target_rel_error": "the CLI's --target and tests set it",
    "QuadratureConfig.refinement_levels": "the CLI's --quad-levels and tests set it",
    "homogeneous_reduction_check(method)": "the demo takes the radial route and "
                                           "the bench the Monte Carlo one",
    "homogeneous_reduction_check(spec)": "only the Monte Carlo route draws samples",
    "random_sl2(max_norm)": "the pairing search's norm <= 2 region; the bench's "
                            "Fourier workload moves its data by norm <= 1.3",
    "triple_quadrature(cfg)": "the CLI's --quad-levels and --target reach it",
    "weighted_mean_bound(weights)": "acceptance passes a measure; None is the "
                                    "counting measure",
}


def defaulted_values(namespace: dict) -> set:
    """"f(p)" for each defaulted parameter p of a function f in ``namespace``,
    "C.m(p)" for one of a public method m of a class C, and "C.x" for each
    defaulted field x of a dataclass C."""
    found = set()
    for name, obj in namespace.items():
        if name.startswith("_"):
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            members = {f"{name}.{attr}": m.__func__ if isinstance(m, classmethod) else m
                       for attr, m in vars(obj).items() if not attr.startswith("_")}
            if dataclasses.is_dataclass(obj):
                found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING}
        for label, f in members.items():
            if inspect.isfunction(f):
                found |= {f"{label}({p.name})"
                          for p in inspect.signature(f).parameters.values()
                          if p.default is not inspect.Parameter.empty}
    return found


def test_detector_flags_defaulted_values():
    @dataclasses.dataclass
    class Config:
        size: int
        level: int = 3

        @classmethod
        def make(cls, size=1):
            return cls(size)

        def _hidden(self, x=0):
            return x

    def run(a, b=2, *, c=None):
        return a, b, c

    assert defaulted_values({"Config": Config, "run": run, "_private": run,
                             "np": np}) == {"Config.level", "Config.make(size)",
                                            "run(b)", "run(c)"}


def test_every_defaulted_value_is_listed():
    exported = {name: obj for name, obj in vars(triform).items()
                if not inspect.ismodule(obj)}
    assert defaulted_values(exported) == set(DEFAULTED_VALUES)


ONE = CircleFunction.constant(1.0)
PLANE, SPACE = (GaussianSpec(dim=n, seed=1, samples=10) for n in (2, 3))


# one bad input per refusing site outside trilinear.py and specdecomp.py
# (unit_nodes' scheme check is test_unit_nodes_refuses_other_schemes), then
# counts that are no integers or too small, which raised builtin errors at
# first use or returned a value, and a group element that is not 2x2
@pytest.mark.parametrize("call", [
    lambda: QuadratureConfig(target_rel_error=0.0),
    lambda: QuadratureConfig(refinement_levels=0),
    lambda: GaussianSpec(dim=0, seed=1, samples=10),
    lambda: homogeneous_reduction_check(0.5j, ONE, method="mc"),
    lambda: homogeneous_reduction_check(0.5j, ONE, "nope", PLANE),
    lambda: homogeneous_reduction_check(0.5j, ONE, "mc", SPACE),
    lambda: minor_pullback_check(0.5, PLANE),
    lambda: kernel_gaussian_check(0.0, 1j, 2j, SPACE),
    lambda: CircleFunction(np.ones(2), 1),
    lambda: CircleFunction.from_modes({1: 1.0}, 1),
    lambda: CircleFunction.from_modes({4: 1.0}, 1),
    lambda: GaussianSpec(dim=2.5, seed=1, samples=10),
    lambda: GaussianSpec(dim=2, seed=1, samples=100.5),
    lambda: GaussianSpec(dim=2, seed=-1, samples=10),
    lambda: GaussianSpec(dim=2, seed=1.5, samples=10),
    lambda: GaussianSpec(dim=2, seed=1, samples=1),
    lambda: QuadratureConfig(refinement_levels=2.5),
    lambda: radius_moment(-1, 3),
    lambda: radius_moment(0, 1),
    lambda: group_action(np.eye(3), 0, ONE),
])
def test_bad_inputs_raise_precondition_error(call):
    with pytest.raises(PreconditionError):
        call()


def test_cli_refuses_a_short_triple(capsys):
    assert cli.main(["closed-form", "--triples", "0,1"]) == 2
    assert "must have three entries" in capsys.readouterr().err


def test_importing_the_package_loads_no_scipy():
    # only the Sobolev algebra needs scipy, and imports it where it runs, so
    # a CLI command that does no Sobolev algebra starts without it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, triform, triform.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
