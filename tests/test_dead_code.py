"""Every public function of the package has a caller outside the tests, and
the number of settable values does not grow.

The scan parses `src/torusnf` and the benchmark under `perfbench/` with
`ast` and collects every name they reference: plain names, attribute names
and the dotted parts of string constants (the benchmark tracer names its
layers by string).  A public function or method of the package whose name is
referenced nowhere outside its own body has only test callers.  Matching is
by bare name, so a method shares its references with every other definition
of that name; the scan can miss dead code but never flags live code.

A settable value is a keyword option with a default or a dataclass field
with a default, private helpers included.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "torusnf").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Test conjugations and model data: the public entry points the tests build
# their inputs and comparisons from.
ALLOWED = {
    "circle",
    "identity_embedding",
    "phase_profile_distance",
    "postcompose_monomial_shear",
    "half_turn_profile",
}
MAX_SETTABLE_VALUES = 23


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
