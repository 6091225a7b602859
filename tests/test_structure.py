"""Module boundaries inside the package."""

import ast
from pathlib import Path

import maflow

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
