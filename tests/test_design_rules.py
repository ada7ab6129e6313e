"""Design rules of the package, checked on its source: there is one way to
build a ``DriveScenario``, preset names are resolved only where the
command line reads them, numpy is imported by plain imports in one
module only, values check their own finiteness and position, the
union measure of the arcs is summed in one function, the guide search
only asks the scenario for probabilities, and only ``main`` prints."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trackside"


def scoped_nodes() -> list[tuple[str, str | None, ast.AST]]:
    """(module, innermost enclosing function, node) of every node of
    ``src/trackside/*.py``."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            found.append((module, scope, child))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def called(node) -> str | None:
    """The name a call calls, bare or as an attribute; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def calls_to(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every call to ``name``,
    whether called bare or as an attribute, in ``src/trackside/*.py``."""
    return [(module, scope) for module, scope, node in scoped_nodes() if called(node) == name]


def summed_minimums() -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every running sum of ``min`` calls:
    an augmented assignment whose value calls ``min``, or a ``sum`` or
    ``fsum`` whose arguments do."""
    found = []
    for module, scope, node in scoped_nodes():
        if isinstance(node, ast.AugAssign):
            parts = [node.value]
        elif called(node) in ("sum", "fsum"):
            parts = node.args
        else:
            continue
        if any(called(inner) == "min" for part in parts for inner in ast.walk(part)):
            found.append((module, scope))
    return found


def imported_modules() -> dict[str, set[str]]:
    """Top-level names of the modules each ``src/trackside/*.py`` imports,
    at module level or inside a function; relative imports are left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        found[path.stem] = names
    return found


def test_scenario_built_only_by_scenario_for_mount():
    assert calls_to("DriveScenario") == [("presets", "scenario_for_mount")]


def test_only_cli_resolves_preset_names():
    callers = calls_to("path_loss_preset")
    assert callers and {module for module, _ in callers} == {"cli"}


def test_walker_sees_attribute_and_nested_calls():
    # The rules above would pass vacuously if the walker missed calls.
    assert ("cli", "cmd_calibrate") in calls_to("scenario_for_mount")
    assert ("sim", "_objective_grid") in calls_to("scenario_for_mount")
    assert ("roadplan", "plan_deployment") in calls_to("recommend_interval")


def test_only_montecarlo_imports_numpy():
    # The standard-library commands stay free of numpy's import because
    # the Monte Carlo paths import this one module inside the function.
    assert {m for m, names in imported_modules().items() if "numpy" in names} == {"montecarlo"}


def test_no_import_machinery():
    assert [m for m, names in imported_modules().items() if "importlib" in names] == []
    assert calls_to("__import__") == calls_to("import_module") == []


def test_values_own_finiteness_and_position():
    # A float's finiteness and a position's place on the globe are checked
    # where the value is built, so readers only parse and values built in
    # Python are checked too; receiver_step turns a non-finite event time
    # into a rejection instead.
    positions = calls_to("validate_position")
    assert positions and {scope for _, scope in positions} == {"__post_init__"}
    finite = calls_to("isfinite")
    assert finite and {scope for _, scope in finite} <= {"__post_init__", "receiver_step"}


def test_guide_search_uses_no_rendezvous_internals():
    # derive_guide probes pass_probability alone; no bound of its own can
    # drift from the coverage it would have to bound.
    tree = ast.parse((SRC / "power.py").read_text())
    relative = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert relative == {"presets"}


def test_only_main_prints():
    # A command raises its failure; main writes the one ``error:`` line.
    assert set(calls_to("print")) == {("cli", "main")}


def test_union_measure_summed_in_one_place():
    # The left-to-right sum of min(gap, arc) is the union measure behind
    # every analytic probability and the calibration grid; a second copy
    # could drift from it by one rounding.
    assert summed_minimums() == [("rendezvous", "_union_share")]
    assert {module for module, _ in calls_to("_union_share")} == {"rendezvous", "sim"}
