"""Module boundaries inside the package."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import maflow
from maflow import errors
from maflow import DrivingTerm, FlowConfig, MetricPath, ScalarField, TorusGrid, VolumeForm, cli, run
from maflow.flow import TrajectoryAudit
from maflow.psh import RegularizationSchedule

# grid holds the one Hessian entry point and geometry the one form algebra;
# other modules reach them through public names only
ONE_HOME = ("grid", "geometry")


def private_uses(path: Path) -> list:
    """(line, name) of each private grid or geometry name the module imports or reads."""
    tree = ast.parse(path.read_text())
    hits, aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 1:  # relative to the package
            module = f"maflow.{module}" if module else "maflow"
        if module in {f"maflow.{m}" for m in ONE_HOME}:
            hits += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif module == "maflow":
            aliases |= {a.asname or a.name for a in node.names if a.name in ONE_HOME}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(hits)


def numpy_uses(path: Path, name: str) -> list:
    """(line, enclosing function) of each use of numpy's `name` (np.name or an import of it)."""
    tree = ast.parse(path.read_text())
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy"
    }
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        used = (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr == name
        )
        used |= isinstance(node, ast.ImportFrom) and (
            node.module == f"numpy.{name}"
            or node.module == "numpy" and any(a.name == name for a in node.names)
        )
        used |= isinstance(node, ast.Import) and any(a.name == f"numpy.{name}" for a in node.names)
        if used:
            hits.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return hits


def matmul_uses(path: Path) -> list:
    """(line, enclosing function) of each @ operator (a @ b or a @= b) in the module."""
    tree = ast.parse(path.read_text())
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            hits.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return hits


def run_uses(path: Path) -> list:
    """(line, enclosing function, how) of each use of flow's `run` in the module.

    how is "call" for a call of run or flow.run, and "name" for any other
    reference: an import of it, or the bare name or attribute read.
    """
    tree = ast.parse(path.read_text())
    hits, called = [], set()

    def is_run(node):
        if isinstance(node, ast.Name):
            return node.id == "run"
        return isinstance(node, ast.Attribute) and node.attr == "run" and (
            isinstance(node.value, ast.Name) and node.value.id == "flow"
        )

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Call) and is_run(node.func):
            called.add(id(node.func))
            hits.append((node.lineno, where, "call"))
        elif is_run(node) and id(node) not in called:
            hits.append((node.lineno, where, "name"))
        elif isinstance(node, ast.ImportFrom) and any(a.name == "run" for a in node.names):
            hits.append((node.lineno, where, "name"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return hits


def test_only_run_family_calls_run():
    # every flow the library integrates is a member of a family (flow.run_family);
    # the package's __init__ re-exports run, and names it for nothing else
    package = Path(maflow.__file__).parent
    found = {p.stem: run_uses(p) for p in sorted(package.glob("*.py"))}
    assert [how for _, _, how in found.pop("__init__")] == ["name"]
    assert [(where, how) for _, where, how in found.pop("flow")] == [("run_family", "call")]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_run_check_sees_imports_reads_and_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .flow import run, run_family\n"
        "from . import flow\n"
        "def family(members):\n"
        "    go = flow.run\n"
        "    return [run(*m) for m in members], flow.run(members)\n"
    )
    assert run_uses(probe) == [
        (1, None, "name"), (4, "family", "name"), (5, "family", "call"), (5, "family", "call")
    ]


def test_only_grid_transforms_and_only_psh_despiking_rolls():
    package = Path(maflow.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {p.name for p in modules if numpy_uses(p, "fft")} == {"grid.py"}
    rolls = {(p.name, where) for p in modules for _, where in numpy_uses(p, "roll")}
    # the neighbour stacks of the clamped-sample repair
    assert rolls == {("psh.py", "_despike_floor")}


def test_the_numpy_use_check_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as xp\n"
        "from numpy import roll\n"
        "from numpy.fft import rfftn\n"
        "import numpy.fft\n"
        "def f(v):\n"
        "    return xp.roll(v, 1), xp.fft.rfftn(v)\n"
    )
    assert numpy_uses(probe, "roll") == [(2, None), (6, "f")]
    assert numpy_uses(probe, "fft") == [(3, None), (4, None), (6, "f")]


def test_grid_inner_is_the_one_inner_product_of_grid_arrays():
    # BLAS's threaded dot products sum in an order set by the thread count
    package = Path(maflow.__file__).parent
    modules = sorted(package.rglob("*.py"))
    names = ("vdot", "dot", "inner", "tensordot", "matmul", "einsum")
    found = {(p.name, where, name) for p in modules for name in names for _, where in numpy_uses(p, name)}
    found |= {(p.name, where, "@") for p in modules for _, where in matmul_uses(p)}
    assert found == {
        ("grid.py", "inner", "einsum"),
        # the per-axis products: a threaded GEMM splits its output, not its sums
        ("grid.py", "_along", "matmul"),
        # verify.random_pd_pairs multiplies seeded (samples, n, n) stacks, not grid arrays
        ("verify.py", "stack", "@"),
    }


def test_the_matmul_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b):\n    c = a @ b\n    c @= b\n    return c\nd = 1\n")
    assert matmul_uses(probe) == [(2, "f"), (3, "f")]


# the Newton operators' builders, which work in the workspace's correction only
OPERATOR_BUILDERS = ("_jacobian", "_preconditioner_terms", "_preconditioner", "_krylov_step")


def workspace_reads(path: Path, functions) -> list:
    """(line, function, attribute) of each ws.<attribute> read inside the named functions."""
    tree = ast.parse(path.read_text())
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            hits += [
                (sub.lineno, node.name, sub.attr)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "ws"
            ]
    return sorted(hits)


def test_the_newton_operators_read_only_the_correction_of_the_workspace():
    found = workspace_reads(Path(maflow.__file__).parent / "flow.py", OPERATOR_BUILDERS)
    assert {where for _, where, _ in found} == set(OPERATOR_BUILDERS)
    assert [hit for hit in found if hit[2] not in ("grid", "backend", "correction")] == []


def test_the_workspace_read_check_sees_a_planted_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _krylov_step(ws):\n"
        "    def step():\n"
        "        return ws.tmp\n"
        "    return ws.correction, step\n"
        "def other(ws):\n"
        "    return ws.tmp\n"
    )
    assert workspace_reads(probe, OPERATOR_BUILDERS) == [
        (3, "_krylov_step", "tmp"),
        (4, "_krylov_step", "correction"),
    ]


# the code whose arrays flow._ARRAYS declares: the constructors, the run
# that makes its states and the step that writes them (a correction's
# V-cycle, grid.ShiftedVCycle, makes its own); and the makers of new arrays,
# numpy's and an array's copy method
DECLARED = ("_Workspace.__init__", "_Correction.__init__", "run", "_advance")
MAKERS = (
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like", "full_like", "copy"
)


def arrays_made(path: Path, names) -> list:
    """(line, name, call) of each array maker or `_laid_out` call inside the named code.

    A name is Class.method or a module-level function.
    """
    tree = ast.parse(path.read_text())
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy"
    }
    scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    hits = []
    for where, fn in scopes:
        if where not in names:
            continue
        for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
            f = call.func
            if isinstance(f, ast.Attribute):
                numpy = isinstance(f.value, ast.Name) and f.value.id in aliases
                name = f.attr if numpy or f.attr == "copy" else None
            else:
                name = f.id if isinstance(f, ast.Name) else None
            if name in (*MAKERS, "_laid_out"):
                hits.append((call.lineno, where, name))
    return sorted(hits)


def test_the_workspace_and_correction_make_arrays_only_from_the_declared_rows():
    # run makes its states through `_laid_out` only, and a step makes none
    found = arrays_made(Path(maflow.__file__).parent / "flow.py", DECLARED)
    assert [(where, call) for _, where, call in found] == [
        ("_Correction.__init__", "_laid_out"),
        ("_Workspace.__init__", "_laid_out"),
        ("run", "_laid_out"),
    ]


def test_the_array_maker_check_sees_a_planted_allocation(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as xp\n"
        "from numpy import empty_like\n"
        "class _Workspace:\n"
        "    def __init__(self, grid):\n"
        "        self.a = _laid_out(grid, ('ws',))\n"
        "        self.b = xp.zeros(grid.shape)\n"
        "        self.c = empty_like(self.b)\n"
        "    def other(self):\n"
        "        return xp.empty(3)\n"
        "class _Correction:\n"
        "    def __init__(self, grid):\n"
        "        self.d = [xp.empty(grid.shape)]\n"
        "def run(phi0, grid):\n"
        "    states = _laid_out(grid, ('state',))\n"
        "    return states, phi0.values.copy()\n"
        "def _advance(u, ws):\n"
        "    return xp.copy(u), ws.u.copy()\n"
        "def other(u):\n"
        "    return u.copy()\n"
    )
    assert arrays_made(probe, DECLARED) == [
        (5, "_Workspace.__init__", "_laid_out"),
        (6, "_Workspace.__init__", "zeros"),
        (7, "_Workspace.__init__", "empty_like"),
        (12, "_Correction.__init__", "empty"),
        (14, "run", "_laid_out"),
        (15, "run", "copy"),
        (17, "_advance", "copy"),
        (17, "_advance", "copy"),
    ]


def calls_of(path: Path, name: str) -> list:
    """(line, enclosing scope) of each call of name, bare or as an attribute, in the module.

    The scope is its enclosing classes and functions joined by dots, as
    Class.method or function.inner, or None at module level.
    """
    tree = ast.parse(path.read_text())
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called == name:
                hits.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return hits


def test_only_the_correction_makes_a_vcycle():
    # with its other arrays, on an n = 1 fd grid (flow._Correction.cycles)
    found = calls_of(Path(maflow.__file__).parent / "flow.py", "ShiftedVCycle")
    assert [where for _, where in found] == ["_Correction.__init__"]


def test_the_call_check_sees_a_planted_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import grid\n"
        "class _Correction:\n"
        "    def vcycle(self):\n"
        "        return ShiftedVCycle(self.resolution)\n"
        "    def __init__(self, N):\n"
        "        self.cycle = grid.ShiftedVCycle(N)\n"
        "def _krylov_step(ws):\n"
        "    def step():\n"
        "        return ShiftedVCycle(8)\n"
        "    return step, ShiftedVCycle.nbytes(8)\n"
        "cycle = ShiftedVCycle(16)\n"
    )
    assert calls_of(probe, "ShiftedVCycle") == [
        (4, "_Correction.vcycle"), (6, "_Correction.__init__"), (9, "_krylov_step.step"), (11, None)
    ]


def test_single_precision_stays_inside_grid_and_flow():
    # grid's n = 2 kernels follow their values' dtype and flow's Newton
    # correction is the one caller that hands them float32
    package = Path(maflow.__file__).parent
    found = {
        p.relative_to(package).as_posix()
        for p in package.rglob("*.py")
        if re.search(r"float32|complex64", p.read_text())
    }
    assert found == {"grid.py", "flow.py"}


def test_a_float32_correction_stores_only_float64():
    grid = TorusGrid(n=2, resolution=16)
    phi0 = ScalarField.from_function(grid, lambda x1, y1, x2, y2: 0.02 * np.cos(2 * np.pi * x2))
    cfg = FlowConfig(horizon=0.004, t_min=1e-3, ratio=1.2, probes=(0.002,))
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    traj = run(phi0, path, DrivingTerm.affine(slope=0.5), omega, cfg)
    assert all(f.values.dtype == np.float64 for f in traj.fields)
    assert all(p.values.dtype == np.float64 for p in traj.phidots)
    for key in ("initial_residual", "residual", "positivity_margin", "linear_rel_residual"):
        assert all(type(d[key]) is float for d in traj.diagnostics)


def test_no_module_uses_a_private_name_of_grid_or_geometry():
    package = Path(maflow.__file__).parent
    found = {p.name: private_uses(p) for p in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_structure_check_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .grid import _along, hessian_components\n"
        "from . import geometry as geo\n"
        "geo._square(1.0, None)\n"
    )
    assert private_uses(probe) == [(1, "_along"), (3, "geo._square")]


def test_geometry_takes_no_grid_derivative():
    # geometry adds theta to a Hessian its caller took; grid takes every derivative
    tree = ast.parse((Path(maflow.__file__).parent / "geometry.py").read_text())
    from_grid = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "grid"
        for a in node.names
    }
    assert from_grid == {"TorusGrid"}


def untyped(fn, given=()) -> list:
    """The parameters of fn outside given whose annotation the scenario reader cannot type."""

    def leaves(annotation):
        if typing.get_origin(annotation) is typing.Annotated:  # a type and its domain
            return leaves(typing.get_args(annotation)[0])
        args = [a for a in typing.get_args(annotation) if a is not Ellipsis]
        return [leaf for a in args for leaf in leaves(a)] if args else [annotation]

    bad = []
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        if name in given:
            continue
        try:
            for leaf in leaves(param.annotation):
                cli._fits(object(), leaf)  # TypeError for a type no JSON value has
        except TypeError:
            bad.append(name)
    return bad


def test_every_document_setting_is_typed():
    # the program supplies grid, horizon and n to section constructors; a check's
    # settings are the keyword-only parameters of its verify function
    targets = [(cli._scenario, ()), (cli.TorusGrid, ()), (cli.FlowConfig, ())]
    targets += [(RegularizationSchedule, ()), (RegularizationSchedule.geometric, ())]
    tables = (cli.METRIC_KINDS, cli.VOLUME_KINDS, cli.DRIVING_KINDS, cli.INITIAL_KINDS)
    targets += [(fn, ("grid", "horizon", "n")) for table in tables for fn in table.values()]
    for fn in cli.CHECK_TABLE.values():
        params = inspect.signature(fn).parameters.values()
        targets.append((fn, [p.name for p in params if p.kind != p.KEYWORD_ONLY]))
    found = [f"{fn.__qualname__}.{name}" for fn, given in targets for name in untyped(fn, given)]
    assert found == []


def test_the_typing_check_sees_unannotated_and_foreign_types():
    def probe(grid, a, b: float = 1.0, c: list[tuple[int, set]] = (), d: float | None = None):
        pass

    assert untyped(probe, ("grid",)) == ["a", "c"]


def test_the_typing_check_sees_a_foreign_type_under_a_domain():
    def probe(a: typing.Annotated[set, errors.POSITIVE], b: typing.Annotated[int, errors.POSITIVE]):
        pass

    assert untyped(probe) == ["a"]


def undeclared(module) -> list:
    """The functions of module, and of its classes, whose signature declares a domain
    (an Annotated parameter) but that errors.declared does not wrap, so that a direct
    call would not refuse a value outside it."""
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(f"{name}.{k}", v) for k, v in vars(obj).items()] if isinstance(obj, type) else []
        for qualname, fn in members or [(name, obj)]:
            fn = getattr(fn, "__func__", fn)  # a classmethod's function
            if not inspect.isfunction(fn):
                continue
            params = errors.signature(fn).parameters.values()
            if any(hasattr(p.annotation, "__metadata__") for p in params):
                if fn.__code__.co_qualname != "declared.<locals>.checked":
                    found.append(qualname)
    return found


def test_every_declared_domain_is_refused_on_a_direct_call_too():
    paths = sorted(Path(maflow.__file__).parent.glob("*.py"))
    modules = [importlib.import_module(f"maflow.{p.stem}") for p in paths if p.stem != "__init__"]
    assert [f"{m.__name__}.{name}" for m in modules for name in undeclared(m)] == []


def test_the_declared_check_sees_an_unwrapped_domain(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from dataclasses import dataclass\n"
        "from typing import Annotated\n"
        "from maflow.errors import POSITIVE, declared\n"
        "@dataclass\nclass Open:\n    width: Annotated[float, POSITIVE] = 1.0\n"
        "@declared\n@dataclass\nclass Closed:\n    width: Annotated[float, POSITIVE] = 1.0\n"
        "class Maker:\n"
        "    @classmethod\n    def loose(cls, width: Annotated[float, POSITIVE] = 1.0): ...\n"
        "    @classmethod\n    @declared\n"
        "    def tight(cls, width: Annotated[float, POSITIVE] = 1.0): ...\n"
        "    def plain(self, width: float = 1.0): ...\n"
        "def loose(width: Annotated[float, POSITIVE] = 1.0): ...\n"
        "@declared\ndef tight(width: Annotated[float, POSITIVE] = 1.0): ...\n"
    )
    spec = importlib.util.spec_from_file_location("planted", planted)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert undeclared(module) == ["Open.__init__", "Maker.loose", "loose"]
    with pytest.raises(errors.ConfigError, match="width must be > 0, got 0"):
        module.Closed(0)


def check_faults(fn) -> list:
    """What the RunContext cannot give the check fn from what its signature says it takes.

    Each argument cli derives from fn's positional parameters must be a
    RunContext field or property, and "audit" must be among them exactly
    when fn takes a TrajectoryAudit.
    """
    ctx_names = {f.name for f in dataclasses.fields(cli.RunContext)}
    ctx_names |= {k for k, v in vars(cli.RunContext).items() if isinstance(v, property)}
    args = cli._args(fn)
    faults = [f"RunContext has no {name!r}" for name in args if name not in ctx_names]
    params = inspect.signature(fn, eval_str=True).parameters.values()
    if ("audit" in args) != any(p.annotation is TrajectoryAudit for p in params):
        faults.append("'audit' in args unlike a TrajectoryAudit parameter")
    return faults


def test_the_context_gives_every_check_what_its_function_takes():
    assert {name: check_faults(fn) for name, fn in cli.CHECK_TABLE.items()} == dict.fromkeys(
        cli.CHECK_TABLE, []
    )


def test_verify_replays_the_checks_that_need_a_run_but_not_the_second_datum():
    assert cli.ARCHIVE_CHECKS == (
        "comparison",
        "apriori-bounds",
        "time-derivative",
        "gradient-laplacian",
        "energy",
        "residual-certificate",
        "convergence",
    )


def test_the_check_check_sees_a_planted_bad_function():
    def unaudited(audit, *, slack: float = 1e-8):  # no TrajectoryAudit annotation
        pass

    def misnamed(audits: TrajectoryAudit, run_seed: int):
        pass

    def audited_late(grid: TorusGrid, seed: int, *, audit: TrajectoryAudit = None):
        pass

    assert check_faults(unaudited) == ["'audit' in args unlike a TrajectoryAudit parameter"]
    assert check_faults(misnamed) == [
        "RunContext has no 'audits'",
        "'audit' in args unlike a TrajectoryAudit parameter",
    ]
    assert check_faults(audited_late) == ["'audit' in args unlike a TrajectoryAudit parameter"]
