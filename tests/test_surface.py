"""The library keeps only what it or the bench uses: every public top-level
function or class in src/gapsieve must be named somewhere in src/gapsieve
(outside the package's re-exports) or in bench/.  Oracles that only the
tests call live in tests/oracles.py.  Importing the package loads no module
that only some runs need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept though only the tests call them
KEPT = {
    # the extended route of the singular series, kept independent of the direct one
    "singular_series_extended",
}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier, attribute and string constant the module mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_definition_has_a_caller():
    defined, named = {}, set()
    for path in sorted((ROOT / "src" / "gapsieve").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "gapsieve":
            defined.update((node.name, path.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"))
        if path.name != "__init__.py":
            named |= _names(tree)
    assert KEPT <= defined.keys()
    unused = {name: module for name, module in defined.items() if name not in named and name not in KEPT}
    assert unused == {}


def test_no_class_writes_its_own_document():
    """Documents come from one rule, serialize.Report.doc: no src/ class
    defines or binds a doc of its own."""
    own = []
    for path in sorted((ROOT / "src" / "gapsieve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                defined = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "doc"
                bound = (isinstance(item, ast.Assign)
                         and any(getattr(t, "id", None) == "doc" for t in item.targets)
                         and getattr(item.value, "id", None) != "_document")
                if defined or bound:
                    own.append(f"{path.name}: {node.name}")
    assert own == []


# loaded where they are used: the prime zeta values are a table, hashlib by
# the first fingerprint, the pool's modules when a pool starts
_NOT_ON_IMPORT = ("mpmath", "hashlib", "multiprocessing", "concurrent.futures")


def test_import_loads_none_of_the_deferred_modules():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, gapsieve; print(*sorted(set(sys.modules) & set({_NOT_ON_IMPORT!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_grouped_sums_accumulate_in_place():
    """A grouped sum in src/ is np.add.at into its own accumulator, so one
    idiom keeps every class or signature sum in index order: np.bincount
    only counts, and no call passes it weights."""
    weighted = []
    for path in sorted((ROOT / "src" / "gapsieve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bincount"
                    and (len(node.args) > 1 or any(kw.arg in ("weights", None) for kw in node.keywords))):
                weighted.append(f"{path.name}:{node.lineno}")
    assert weighted == []


def _import_graph() -> dict[str, set[str]]:
    """Each src/gapsieve module's imports from the package, by module name;
    `from . import x` names the module x where there is one, else the
    package's __init__."""
    package = ROOT / "src" / "gapsieve"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__" for a in node.names)
        graph[name] = edges
    return graph


def test_the_package_imports_form_no_cycle():
    """Modules that import nothing left are peeled off until none is left; a
    cycle would stay."""
    left = _import_graph()
    while leaves := [name for name, edges in left.items() if not edges & left.keys()]:
        for name in leaves:
            del left[name]
    assert left == {}


def test_the_probe_depends_only_on_the_sieve():
    """bv reads its primes from primes and its rationals from serialize, so a
    later import of bv from moments, weights, singular or tuples makes no
    cycle."""
    assert _import_graph()["bv"] & {"moments", "weights", "singular", "tuples"} == set()
