"""Every public function of the package has a caller outside the tests,
every private one is referenced outside its own body, every name imported
from the package is used, every default is both taken and overridden by
production code, the number of settable values does not grow, no
`np.linalg` result is truncated to integers, outside `series` one
function, the point reader in `flows`, references `eval_many`, a composite
map is a tuple of lifts, first-applied first, that no module tests for
`MapChain`, that no walk or grid read carries an integer part, that
Laurent data are plain series outside `realization`, that
no class wraps a single value unless the benchmark pins it, and every
refusal goes through the gate of `errors`.

The scan parses `src/torusnf` and the benchmark under `perfbench/` with
`ast` and collects every name they reference: plain names, attribute names
and the dotted parts of string constants (the benchmark tracer names its
layers by string).  A public function or method of the package whose name is
referenced nowhere outside its own body has only test callers.  Matching is
by bare name, so a method shares its references with every other definition
of that name; the scan can miss dead code but never flags live code.

A settable value is a keyword option with a default or a dataclass field
with a default, private helpers included.  A default is live when some call
in `src/torusnf` or `perfbench/` leaves it out and some call passes it; a
default with only one production configuration is a constant or a required
argument in disguise.  Calls are matched by bare name.  A call with `*args`
counts as both leaving out and passing each positional parameter it could
fill, and a call with `**kwargs` as both for every parameter, so this scan
too can miss a dead default but never flags one that calls set both ways.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "torusnf").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Public functions exempt from both scans.  Test conjugations and model data
# live in tests/oracles.py, so none is.
ALLOWED = set()
MAX_SETTABLE_VALUES = 4


def referenced_names(node):
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree))
    dead = [f"{path.stem}.{node.name}"
            for path in SOURCES for node in ast.walk(trees[path])
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in ALLOWED
            and everywhere[node.name] == referenced_names(node)[node.name]]
    assert dead == []
    # an allowlisted function that gains a caller leaves the list
    assert sorted(name for name in ALLOWED if everywhere[name]) == []


def test_every_private_function_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree))
    dead = [f"{path.stem}.{node.name}"
            for path in SOURCES for node in ast.walk(trees[path])
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.endswith("__")
            and everywhere[node.name] == referenced_names(node)[node.name]]
    assert dead == []


def test_every_name_imported_from_the_package_is_used():
    unused = []
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        used = referenced_names(tree)
        unused += [f"{path.stem}.{alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level or node.module.split(".")[0] == "torusnf")
                   for alias in node.names
                   if not used[alias.asname or alias.name]]
    assert unused == []


def is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_do_not_grow():
    total = sum(settable_values(ast.parse(path.read_text()))
                for path in SOURCES)
    assert total <= MAX_SETTABLE_VALUES


def defaulted_parameters(tree):
    """(function, parameter, positional index or None) for each default of
    a function outside ALLOWED, dunder methods left out.  The index counts
    from the first argument a call passes, so it skips a method's `self`."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.FunctionDef) or node.name in ALLOWED
                or node.name.startswith("__")):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = id(node) in methods and not any(
            "staticmethod" in ast.unparse(d) for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield node.name, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    return getattr(call.func, "attr", None)


def test_every_default_has_two_production_configurations():
    calls = [node for path in CALLERS
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    one_way = []
    for path in SOURCES:
        for name, param, index in defaulted_parameters(
                ast.parse(path.read_text())):
            left_out = passed = False
            for call in (c for c in calls if call_name(c) == name):
                n_pos = sum(not isinstance(a, ast.Starred) for a in call.args)
                explicit = (any(k.arg == param for k in call.keywords)
                            or index is not None and index < n_pos)
                unknown = (any(k.arg is None for k in call.keywords)
                           or index is not None and n_pos < len(call.args))
                left_out = left_out or not explicit
                passed = passed or explicit or unknown
            if not (left_out and passed):
                one_way.append(f"{path.stem}.{name}({param})")
    assert one_way == []


def test_eval_many_has_one_reader_in_flows():
    """Scattered points are read in one place: outside `series`, the only
    function that references `eval_many` is the point reader of the stage
    walk, so retiring scattered evaluation is a change at one site."""
    readers, loose = [], []
    for path in SOURCES:
        if path.stem == "series":
            continue
        tree = ast.parse(path.read_text())
        found = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and referenced_names(node)["eval_many"]]
        readers += [f"{path.stem}.{node.name}" for node in found]
        if referenced_names(tree)["eval_many"] != sum(
                referenced_names(node)["eval_many"] for node in found):
            loose.append(path.stem)
    assert readers == ["flows._read_points"]
    assert loose == []


def test_a_composite_is_a_tuple_of_lifts():
    """A composite map is a tuple of lifts, first-applied first.  `MapChain`
    only reads such a tuple at scattered points and collapses it, so its
    body defines no lift-shaped member for an entry point to branch on, and
    no module asks whether a map is one.  `compose_maps` takes the tuple as
    its one positional parameter, so no outermost-first argument list can
    come back."""
    tree = ast.parse((ROOT / "src" / "torusnf" / "flows.py").read_text())
    [compose] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "compose_maps"]
    args = compose.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["stages"]
    assert args.vararg is None
    [chain] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "MapChain"]
    members = [node.name for node in chain.body
               if isinstance(node, ast.FunctionDef)]
    assert members == ["__init__", "apply", "jacobian_det", "to_single"]
    branches = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and call_name(node) == "isinstance"
        and len(node.args) == 2 and "MapChain" in referenced_names(node.args[1])]
    assert branches == []


def test_no_walk_or_grid_read_carries_an_integer_part():
    """Every lift is near-identity, theta + f(theta): an integer map acts on
    coefficients through `pull_back_linear`.  So no grid values are
    re-indexed (`np.take`) anywhere in the package, and in `flows` only the
    constructor of `TorusMapLift`, which refuses any D but I, has a
    parameter named D."""
    takes = [f"{path.stem}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "take"]
    assert takes == []
    tree = ast.parse((ROOT / "src" / "torusnf" / "flows.py").read_text())
    [lift] = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "TorusMapLift"]
    [init] = [node for node in lift.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    with_D = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node is not init
              and "D" in [a.arg for a in node.args.posonlyargs
                          + node.args.args + node.args.kwonlyargs]]
    assert with_D == []


def test_laurent_data_are_plain_series_outside_realization():
    """Inside the package Laurent data are `PeriodicSeries`.  The wrapper
    types `AnnulusFunction` and `AnnulusMap` are where `realize_form` meets
    its callers, so no other module names them, imported or used, and
    `pipeline` imports nothing from `realization`."""
    wrappers = {"AnnulusFunction", "AnnulusMap"}
    naming = []
    for path in SOURCES:
        if path.stem == "realization":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        naming += [f"{path.stem}.{name}" for name in sorted(wrappers)
                   if referenced_names(tree)[name] or name in imported]
    assert naming == []
    tree = ast.parse((ROOT / "src" / "torusnf" / "pipeline.py").read_text())
    from_realization = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and ((node.module or "").split(".")[-1] == "realization"
             or any(a.name == "realization" for a in node.names))
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[-1] == "realization" for a in node.names)]
    assert from_realization == []


# Classes whose instances hold one value, each kept because `perfbench/`
# builds it or names one of its members as a traced layer.
ONE_VALUE_WRAPPERS = {
    "CurveImmersion": "perfbench/workloads.py builds the n3-seeded curve "
                      "with it and reads `g.series`",
    "MapChain": "its `apply`, `jacobian_det` and `to_single` are layers of "
                "BENCHMARK.json and perfbench/tracer.py",
    "AnnulusFunction": "perfbench/workloads.py builds the annulus densities "
                       "with `from_terms`, `*` and `.norm`",
    "AnnulusMap": "perfbench/workloads.py reads `res.phi.log_g[j].series` "
                  "in its witness and fingerprint",
}


def held_values(cls):
    """The fields of a dataclass, or the names of `__slots__`; None for a
    class that declares neither."""
    if is_dataclass(cls):
        return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
    for s in cls.body:
        if (isinstance(s, ast.Assign)
                and [ast.unparse(t) for t in s.targets] == ["__slots__"]):
            value = ast.literal_eval(s.value)
            return [value] if isinstance(value, str) else list(value)
    return None


def test_no_class_wraps_one_value_unless_the_benchmark_pins_it():
    """A stage input is a plain series, not a one-field class around one.
    A class whose instances hold one value (a dataclass of one field, or
    `__slots__` of one name) is kept only where the benchmark builds it or
    traces a member, and each such class must still be one, so the list
    shrinks as they go."""
    wrappers = {node.name for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and len(held_values(node) or ()) == 1}
    assert sorted(wrappers) == sorted(ONE_VALUE_WRAPPERS)


def is_linalg_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) in ("np.linalg", "numpy.linalg"))


def test_no_linalg_result_is_truncated_to_int():
    """`.astype(int)` truncates toward zero, so an inverse or determinant
    that rounding put just below an integer loses one: the inverse of
    [[3, 2], [1, 1]] would come out as [[0, -1], [0, 2]].  Round first."""
    truncated = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype" and is_linalg_call(node.func.value)
        and [ast.unparse(a) for a in node.args] == ["int"]]
    assert truncated == []


def test_every_refusal_goes_through_one_gate():
    """Outside `errors`, no module constructs a `HypothesisViolation` or a
    `NumericalFailure`: a refusal is a call to `at_most` or `above`.  Every
    code those calls pass is a literal key of `GATES`, and every key is
    passed somewhere, so codes, classes and messages live in one table."""
    built, codes = [], set()
    for path in SOURCES:
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in ("HypothesisViolation", "NumericalFailure"):
                built.append(f"{path.stem}:{node.lineno}")
            elif name in ("at_most", "above"):
                code = node.args[0]
                assert isinstance(code, ast.Constant), (
                    f"{path.stem}:{node.lineno} passes a computed code")
                codes.add(code.value)
    assert built == []
    from torusnf.errors import GATES
    assert codes - set(GATES) == set()
    assert set(GATES) - codes == set()
