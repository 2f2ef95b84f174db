"""No public helper that only a test calls.

Every public module-level function or class in ``src/aggnet`` must be
used by package code outside its own definition or by the benchmark
under ``perfbench/``, or be listed in ``TEST_ONLY`` with the acceptance
test that needs it.  ``__init__.py`` only re-exports names and does not
count as a use.

A use is a bare name, a name imported from the package, or an attribute
of an imported package module (``datamod.batches``); an attribute of
anything else (``np.matmul``) is not.  The benchmark's tracer names the
functions it wraps as strings, so in ``perfbench/`` a string equal to the
name is a use too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> the acceptance test class that calls it
TEST_ONLY = {
    "fmean_weights": "tests/test_acceptance.py::TestC2AnalyticLimits",
    "gaussian_affinity": "tests/test_acceptance.py::TestC2AnalyticLimits",
    "gaussian_support_weights": "tests/test_acceptance.py::TestC2AnalyticLimits",
    "save_batch_file": "tests/test_acceptance.py::TestC8DataIntegrity",
}


def _imported(tree) -> set[str]:
    """Names bound by ``from aggnet... import`` or a relative import."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("aggnet"))
            for alias in node.names}


def _uses(node, imported, strings=False) -> set[str]:
    """Every package name used under ``node``, as defined above."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in imported):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _unused_public_names() -> list[str]:
    bench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(p.read_text())
        bench |= _uses(tree, _imported(tree), strings=True)
    # (module file, top-level statement, the names it uses) over the package
    package = []
    for p in sorted((ROOT / "src/aggnet").glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        imported = _imported(tree)
        package += [(p.name, node, _uses(node, imported)) for node in tree.body]
    unused = []
    for module, node, _ in package:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        used = node.name in bench or any(
            node.name in uses for _, other, uses in package if other is not node)
        if not used:
            unused.append(f"{module}:{node.name}")
    return unused


def test_every_public_name_has_a_caller_or_an_acceptance_pin():
    unpinned = [n for n in _unused_public_names() if n.split(":")[1] not in TEST_ONLY]
    assert unpinned == []


def test_every_pin_is_still_needed():
    """A pinned name that gains a package caller leaves the list, and each
    pin names a test class that uses it."""
    unused = {n.split(":")[1] for n in _unused_public_names()}
    assert sorted(TEST_ONLY) == sorted(unused)
    for name, test in TEST_ONLY.items():
        path, cls = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        (body,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
        assert name in _uses(body, set()), test
