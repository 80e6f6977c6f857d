"""Every package module uses every name it imports (``__init__`` re-exports),
none imports an underscore name from another package module, every public
package name has a caller in the program: the package itself, the demos or
the benchmark, and only ``nalearn.pool`` opens process pools. The test helpers ``oracles.py`` and ``util.py`` keep
the same import rules, so the reference implementations use only public
names."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nalearn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
HELPERS = [ROOT / "tests" / "oracles.py", ROOT / "tests" / "util.py"]
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# "module.name" of each public name that nothing in the program calls, mapped to
# the one-line reason it stays (documented API, say); empty while every name
# has a caller
ALLOWED_UNUSED: dict[str, str] = {}


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES + HELPERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def private_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "nalearn"
                                                 or node.module.startswith("nalearn.")):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + HELPERS, ids=lambda p: p.name)
def test_no_private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = sorted(private_imports(tree))
    assert not private, f"{path.name} imports the private names {private}"


def defined_names(tree: ast.Module):
    """Public names a module defines at its top level (not those it imports)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def loaded_names(tree: ast.Module):
    """Names a file reads: a variable, an attribute, a name it imports from
    elsewhere, or a part of a "nalearn.module:attr" binding string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for binding in re.findall(r"\bnalearn\.\w+:([\w.]+)", node.value):
                yield from binding.split(".")


def unused_public_names() -> list[str]:
    loaded = {path: set(loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
              for path in CALLERS}
    unused = []
    for path in MODULES:
        for name in defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            if not name.startswith("_") and not any(name in names for names in loaded.values()):
                unused.append(f"{path.stem}.{name}")
    return sorted(unused)


def test_every_public_name_has_a_caller():
    unused = unused_public_names()
    uncalled = [name for name in unused if name not in ALLOWED_UNUSED]
    assert not uncalled, f"public names nothing in src/, demos/ or perfbench/ loads: {uncalled}"
    stale = sorted(set(ALLOWED_UNUSED) - set(unused))
    assert not stale, f"allow-listed names that have a caller: {stale}"


def pool_uses(tree: ast.Module):
    """Each import of concurrent.futures or multiprocessing in a module, and
    each ProcessPoolExecutor it constructs."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (f"import {alias.name}" for alias in node.names
                        if alias.name.partition(".")[0] in ("concurrent", "multiprocessing"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] in (
                "concurrent", "multiprocessing"):
            yield f"from {node.module} import"
        elif isinstance(node, ast.Call) and "ProcessPoolExecutor" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield "ProcessPoolExecutor()"


def test_only_the_pool_module_opens_process_pools():
    """One pool policy: a second module that imports a pool library or builds
    an executor goes around nalearn.pool.pool_map."""
    uses = {path.name: list(pool_uses(ast.parse(path.read_text(encoding="utf-8"))))
            for path in MODULES}
    outside = {name: found for name, found in uses.items() if found and name != "pool.py"}
    assert not outside, f"process pools opened outside nalearn.pool: {outside}"
    assert uses["pool.py"].count("ProcessPoolExecutor()") == 1


MCAR_MODELS = {"Bernoulli", "KPerRecord"}


def model_branches(tree: ast.Module):
    """Each MCAR model class that an isinstance call in the module tests against."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            for part in ast.walk(node.args[1]):
                name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
                if name in MCAR_MODELS:
                    yield name


def imports_from(tree: ast.Module, module: str):
    """The names a package module imports from nalearn.<module>, and "*" for
    an import of the module itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module in (f"nalearn.{module}", module if node.level else None)):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in ("nalearn", None) and any(
                alias.name == module for alias in node.names):
            yield "*"
        elif isinstance(node, ast.Import) and any(
                alias.name == f"nalearn.{module}" for alias in node.names):
            yield "*"


def test_mcar_models_are_known_to_sampling_alone():
    """nalearn.sampling parses the MCAR models, masks by them and gives each
    family's theta and each model's label: no other module branches on a
    model's class, population reads theta through observation_probability
    alone, and experiments takes nothing from population."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    branches = {name: sorted(set(model_branches(tree))) for name, tree in trees.items()}
    assert branches["sampling.py"] == sorted(MCAR_MODELS)
    outside = {name: found for name, found in branches.items() if found and name != "sampling.py"}
    assert not outside, f"MCAR models tested outside nalearn.sampling: {outside}"
    concrete = sorted(set(imports_from(trees["population.py"], "sampling"))
                      & (MCAR_MODELS | {"subset_observation_probability"}))
    assert not concrete, f"population.py imports {concrete}"
    assert not list(imports_from(trees["experiments.py"], "population"))
