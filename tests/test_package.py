"""The public names resolve, read from the source without running demos."""

import ast
import importlib
import inspect
from pathlib import Path

import cubeshadows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubeshadows"
DEMOS = ROOT / "demos"
TRACING = ROOT / "perfbench" / "tracing.py"

# The defaulted parameters of the public functions, each one set to another
# value by a caller outside the tests: the CLI, the benchmark or the sweep.
# Every other tolerance and cap is a module constant, read at call time.
OPTIONS = {
    ("criterion", "criterion_tol"),
    ("enumerate_shadows", "n_limit"),
    ("enumerate_shadows_naive", "n_limit"),
    ("numerical_max", "restarts"),
    ("numerical_max", "seed"),
    ("sample_sphere", "index"),
}


def test_every_exported_name_resolves():
    missing = [n for n in cubeshadows.__all__ if not hasattr(cubeshadows, n)]
    assert missing == []


def test_only_the_options_a_caller_sets_have_defaults():
    found = set()
    for name in cubeshadows.__all__:
        obj = getattr(cubeshadows, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            found |= {(name, p.name) for p in params if p.default is not p.empty}
    assert found == OPTIONS


def test_no_module_reads_the_environment():
    # an environment variable would be an option that no signature shows
    knobs = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in knobs:
                reads.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names} & knobs
                reads += [(path.name, node.lineno, name) for name in names]
    assert reads == []


def test_every_name_the_demos_import_resolves():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "cubeshadows":
                for alias in node.names:
                    assert hasattr(cubeshadows, alias.name), (path.name, alias.name)


def test_every_attribute_the_benchmark_wraps_exists():
    # perfbench wraps these (module, attribute) pairs by name; a renamed
    # library function would otherwise only fail in the benchmark
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "BINDINGS" for t in node.targets)
    )
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert pairs
    for module, attr in pairs:
        mod = importlib.import_module(f"cubeshadows.{module}")
        assert hasattr(mod, attr), (module, attr)


def test_every_private_helper_is_used():
    # a top-level _name that no other statement of src/ reads, as a name or
    # an attribute, was orphaned by a deletion; an import is not a read
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            names = [getattr(t, "id", None) for t in targets]
            names.append(getattr(stmt, "name", None))
            own = {n for n in names if n and n[0] == "_" and n[:2] != "__"}
            defined |= own
            for node in ast.walk(stmt):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    read |= {name} - own
    assert defined
    assert sorted(defined - read) == []


def test_only_draws_builds_a_philox_generator():
    # one keying path: measure._draws makes the generator that every draw
    # re-keys, and no other function of src/ constructs Philox
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                func = getattr(node, "func", None)
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name == "Philox":
                    found.append((path.stem, getattr(stmt, "name", None)))
    assert found == [("measure", "_draws")]


def test_geometry_and_oracle_define_no_tolerance():
    # every inside decision of geometry and oracle is exact, so neither
    # module has a *_TOL constant for a caller to tune
    found = []
    for stem in ("geometry", "oracle"):
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(name, str) and name.endswith("_TOL"):
                found.append((stem, name))
    assert found == []
