"""Design rules of the package, checked on its source: there is one way to
build a ``DriveScenario``, preset names are resolved only where the
command line reads them, numpy is imported by plain imports in one
module only, no module uses dataclasses or runs generated code, values
check their own finiteness and position, a value class writes
``__init__`` only to check or convert its arguments, only ``value``
binds fields, the union measure of the arcs is summed in one function,
the guide search only asks the scenario for probabilities, only ``main``
prints, every function has a caller in the package, every defaulted
parameter is passed by some call in it, and the README's module table
lists every module."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trackside"

# Functions with no caller in the package, and why each stays in it.
UNCALLED = {
    ("sim", "simulate_pass"): "a span of bench/tracer.py, which resolves every traced "
                              "name; it moves to the tests once the benchmark drops it",
    ("protocol", "receiver_step"): "the receiver device's model, run on the device",
    ("pathloss", "predict_rssi"): "the forward model that detection_range is tested against",
}

# Defaulted parameters that no call in the package passes, and why each
# stays settable.  A value class's field is named after the class.
UNSET = {
    ("cli", "main", "argv"): "the entry point: the console script passes nothing",
    ("cli", "main", "out"): "the entry point: the console script passes nothing",
    ("pathloss", "detection_range", "threshold_dbm"):
        "acceptance 2 and the inverse check against predict_rssi pass it",
    ("rendezvous", "AdvertiserConfig", "event_duration_ms"):
        "acceptance 3 sweeps it over 1-10 ms",
}


def module_trees() -> dict[str, ast.Module]:
    """The syntax tree of each ``src/trackside/*.py``, by module name."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def scoped_nodes() -> list[tuple[str, str | None, ast.AST]]:
    """(module, innermost enclosing function, node) of every node of
    ``src/trackside/*.py``."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            found.append((module, scope, child))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, module, inner)

    for module, tree in module_trees().items():
        visit(tree, module, None)
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
    for module, tree in module_trees().items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        found[module] = names
    return found


def test_readme_lists_every_module():
    # The README's module table has a row for each module of the package.
    readme = (SRC.parents[1] / "README.md").read_text()
    listed = {line.split("`")[1] for line in readme.splitlines() if line.startswith("| `trackside.")}
    assert listed == {f"trackside.{module}" for module in module_trees() if module != "__init__"}


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


def test_no_dataclasses():
    # Value classes derive from trackside.value.Value: dataclasses would
    # generate and compile their methods again in every process.
    assert [m for m, names in imported_modules().items() if "dataclasses" in names] == []


def test_values_own_finiteness_and_position():
    # A float's finiteness and a position's place on the globe are checked
    # where the value is built, so readers only parse and values built in
    # Python are checked too; receiver_step turns a non-finite event time
    # into a rejection instead.
    positions = calls_to("validate_position")
    assert positions and {scope for _, scope in positions} == {"__init__"}
    finite = calls_to("isfinite")
    assert finite and {scope for _, scope in finite} <= {"__init__", "receiver_step"}


def test_guide_search_uses_no_rendezvous_internals():
    # derive_guide probes pass_probability alone; no bound of its own can
    # drift from the coverage it would have to bound.
    tree = ast.parse((SRC / "power.py").read_text())
    relative = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert relative == {"presets", "value"}


def test_only_main_prints():
    # A command raises its failure; main writes the one ``error:`` line.
    assert set(calls_to("print")) == {("cli", "main")}


def test_union_measure_summed_in_one_place():
    # The left-to-right sum of min(gap, arc) is the union measure behind
    # every analytic probability and the calibration grid; a second copy
    # could drift from it by one rounding.
    assert summed_minimums() == [("rendezvous", "_union_share")]
    assert {module for module, _ in calls_to("_union_share")} == {"rendezvous"}
    # The calibration grid reads rendezvous.coverage_table, not its rows.
    tree = ast.parse((SRC / "sim.py").read_text())
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
    assert "coverage_table" in imported
    assert imported & {"_arc_gaps", "_union_share", "_event_split"} == set()


def names_used(node) -> Counter:
    """How often each name is read, bare or as an attribute, in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def uncalled_functions(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every top-level function and method, dunders
    aside, whose name no other code of the package reads; a method is
    named ``Class.method``."""
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(f"{cls.name}.{node.name}", node) for node in cls.body
                         if isinstance(node, ast.FunctionDef)]
        for qualname, node in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] == names_used(node)[name]:
                found.add((module, qualname))
    return found


def is_object_setattr(node) -> bool:
    """Whether ``node`` is a call of ``object.__setattr__``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and getattr(node.func.value, "id", None) == "object"
    )


def field_copying_inits(trees: dict[str, ast.Module]) -> list[str]:
    """Value classes whose ``__init__`` does nothing but hand its
    parameters unchanged to ``Value.__init__`` or ``super().__init__``, or
    store each one, ``object.__setattr__(self, "x", x)``, which
    ``Value.__init__`` already does, and set ``_``-prefixed slots: derived
    state, which neither checks nor converts an argument."""

    def copies_parameters(stmt, parameters) -> bool:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if is_object_setattr(call):
            return (
                len(call.args) == 3
                and getattr(call.args[0], "id", None) == "self"
                and isinstance(call.args[1], ast.Constant)
                and (getattr(call.args[2], "id", None) == call.args[1].value
                     or call.args[1].value.startswith("_"))
            )
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__init__"):
            return False
        owner, args = call.func.value, call.args
        if getattr(owner, "id", None) == "Value" and args:
            if getattr(args[0], "id", None) != "self":
                return False
            args = args[1:]
        elif called(owner) != "super":
            return False
        return all(getattr(value, "id", None) in parameters
                   for value in args + [k.value for k in call.keywords])

    found = []
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and any(getattr(base, "id", None) == "Value" for base in cls.bases)):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    body = node.body
                    if ast.get_docstring(node) is not None:
                        body = body[1:]
                    parameters = {a.arg for a in node.args.args[1:] + node.args.kwonlyargs}
                    if all(copies_parameters(stmt, parameters) for stmt in body):
                        found.append(cls.name)
    return found


def test_value_init_only_checks_or_converts():
    # Value.__init__ binds the fields from __slots__; a class that writes
    # its own does so to check or convert its arguments.
    assert field_copying_inits(module_trees()) == []


def test_field_copy_rule_sees_a_copying_init():
    tree = ast.parse(
        "class Pair(Value):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
        "class Checked(Value):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', tuple(a))\n"
        "class Cached(Value):\n"
        "    __slots__ = ('a', '_cache')\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, '_cache', None)\n"
        "class Forwards(Value):\n"
        "    __slots__ = ('a', 'b', '_cache')\n"
        "    def __init__(self, a, b=1):\n"
        "        Value.__init__(self, a, b=b)\n"
        "        object.__setattr__(self, '_cache', None)\n"
        "class Supers(Value):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, *, b):\n"
        "        super().__init__(a, b)\n"
        "class Converts(Value):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        Value.__init__(self, a, tuple(b))\n"
        "class Checks(Value):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        if a < 0:\n"
        "            raise ValueError('negative')\n"
        "        super().__init__(a)\n"
    )
    assert field_copying_inits({"m": tree}) == ["Pair", "Cached", "Forwards", "Supers"]


def field_stores(trees: dict[str, ast.Module]) -> list[tuple[str, str | None]]:
    """(module, slot name) of every ``object.__setattr__`` outside
    ``value`` that may store a field: one whose slot name does not start
    with ``_``, or is not a literal, which is named None."""
    found = []
    for module, tree in trees.items():
        if module == "value":
            continue
        for node in ast.walk(tree):
            if is_object_setattr(node):
                name = node.args[1] if len(node.args) == 3 else None
                name = name.value if isinstance(name, ast.Constant) else None
                if not (isinstance(name, str) and name.startswith("_")):
                    found.append((module, name))
    return found


def test_only_value_binds_fields():
    # A value's fields are bound by Value.__init__, which a checking
    # __init__ ends by calling; elsewhere object.__setattr__ stores only
    # derived state, in a ``_`` slot.
    assert field_stores(module_trees()) == []


def test_field_store_rule_sees_a_field_store():
    planted = (
        "class C(Value):\n"
        "    __slots__ = ('a', '_cache')\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, '_cache', None)\n"
        "    def put(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
    )
    trees = {"m": ast.parse(planted), "value": ast.parse(planted)}
    assert field_stores(trees) == [("m", "a"), ("m", None)]


def test_no_generated_code():
    # Values bind their fields without generating code; nothing else
    # needs exec, eval or compile either.
    builtins = {"exec", "eval", "compile"}
    calls = [
        (module, node.func.id)
        for module, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in builtins
    ]
    assert calls == []


def test_every_function_has_a_caller():
    # What the package holds, the chain runs; a helper only tests use
    # lives in those tests.
    assert uncalled_functions(module_trees()) == set(UNCALLED)


def test_caller_rule_sees_an_uncalled_function():
    tree = ast.parse(
        "def used(): return 1\n"
        "def unused(): return used()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class C:\n"
        "    def method(self): return self.other()\n"
        "    def other(self): return 2\n"
        "    def __repr__(self): return ''\n"
    )
    assert uncalled_functions({"m": tree}) == {("m", "unused"), ("m", "recursive"),
                                               ("m", "C.method")}


def call_shapes(trees: dict[str, ast.Module]) -> dict[str, list[tuple[int, set[str], bool, bool]]]:
    """Per name called, bare or as an attribute, in the package: for each
    call, (positional arguments, keywords, whether it spreads ``*args``,
    whether it spreads ``**kwargs``).  ``_checked(build, what, ...)``
    counts as a call of ``build`` with the arguments after ``what``."""
    shapes: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name, args = called(node), getattr(node, "args", [])
            if name == "_checked" and args:
                name = getattr(args[0], "id", None) or getattr(args[0], "attr", None)
                args = args[2:]
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            shapes.setdefault(name, []).append((
                sum(not isinstance(a, ast.Starred) for a in args),
                keywords,
                any(isinstance(a, ast.Starred) for a in args),
                any(k.arg is None for k in node.keywords),
            ))
    return shapes


def defaulted_parameters(trees: dict[str, ast.Module]):
    """(module, callable, parameter, position) of every parameter a call
    may leave out: a defaulted parameter of a top-level function or
    method.  A method is named ``Class.method``, and ``__init__`` by the
    class; ``Value.__init__`` has no parameter a call may leave out.
    ``position`` counts the arguments a call passes, ``self`` and ``cls``
    aside; it is None for a keyword-only parameter."""
    found = []

    def add(module, name, node, bound):
        a = node.args
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        found.extend((module, name, arg.arg, first + i)
                     for i, arg in enumerate(positional[first:]))
        found.extend((module, name, arg.arg, None)
                     for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)

    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                add(module, node.name, node, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            # The package has no static methods: each method binds self or cls.
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else f"{node.name}.{item.name}"
                    add(module, name, item, 1)
    return found


def unset_parameters(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, callable, parameter) of every parameter that
    ``defaulted_parameters`` finds and no call in the package passes,
    by position or keyword; functions in ``UNCALLED`` have no call to
    look at."""
    shapes = call_shapes(trees)
    unset = set()
    for module, name, parameter, position in defaulted_parameters(trees):
        if (module, name) in UNCALLED:
            continue
        if not any(
            parameter in keywords or spreads_keywords
            or (position is not None and (passed > position or spreads_args))
            for passed, keywords, spreads_args, spreads_keywords
            in shapes.get(name.rsplit(".", 1)[-1], ())
        ):
            unset.add((module, name, parameter))
    return unset


def test_every_setting_is_set():
    # Every setting is a flag or a constant: a default that no call
    # overrides is a constant under a second name.
    assert unset_parameters(module_trees()) == set(UNSET)


def test_setting_rule_sees_an_unset_parameter():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3): return a\n"
        "def g(x=0): return f(1, 2, d=4)\n"
        "class P(Value):\n"
        "    __slots__ = ('a', 'b', '_cache')\n"
        "class Q(Value):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b=0): pass\n"
        "    def m(self, k=1, j=2): return g()\n"
        "built = [P(1, 2), Q(1, 2), _checked(Q.m, 'what', k=2)]\n"
    )
    assert unset_parameters({"m": tree}) == {("m", "f", "c"), ("m", "g", "x"),
                                             ("m", "Q.m", "j")}
