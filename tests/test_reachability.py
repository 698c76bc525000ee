"""Every module under ``src/repro`` is reached by a run, or says why it stays.

An import walk (AST only — nothing is imported) from the two run roots.
``from package import Name`` resolves through the package's ``__init__`` to
the module that defines ``Name``, so a re-export is not a use.  Beside it:
every non-Python file under ``src/repro`` is named in ``setup.py``, so an
installed package and a checkout cannot run different numbers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro.__main__", "repro.scenarios.fuzz")
# Unreached by the walk on purpose; every entry carries its reason.
ALLOWED = {
    **dict.fromkeys(
        ("repro.baselines.fedavg", "repro.baselines.fedprox",
         "repro.baselines.oort", "repro.baselines.fielding",
         "repro.baselines.feddrift"),
        "registered by `import repro.baselines` in experiments/registry.py"),
    "repro.experts.facility": "Eq. 2; benchmarks/test_bench_ablations.py",
    "repro.privacy.overhead": "Section 5.4; benchmarks/test_bench_overheads.py",
    "repro.nn.gradcheck": "reference the layer tests differentiate against",
    "repro.detection.drift": (
        "Section 2.1's shift-vs-drift distinction; "
        "examples/gradual_drift_monitoring.py, test_extensions.py::TestDriftMonitor"),
}
MODULES = {}
for _path in (SRC / "repro").rglob("*.py"):
    _parts = _path.relative_to(SRC).with_suffix("").parts
    MODULES[".".join(_parts[:-1] if _parts[-1] == "__init__" else _parts)] = _path


def _imports(module):
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module}: relative import"
            yield from ((node.module, a.name, a.asname) for a in node.names)


def _definer(module, name):
    """The module a run loads for ``from module import name``."""
    if module not in MODULES:
        return None  # stdlib / numpy
    if MODULES[module].name != "__init__.py":
        return module
    if name is None:
        return None  # bare ``import package``: runs re-exports, uses nothing
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    for source, original, alias in _imports(module):
        if original is not None and (alias or original) == name:
            return _definer(source, original)
    return module  # defined in the __init__ itself


def test_every_module_is_reached_by_a_run_or_allowlisted():
    seen, todo = set(), list(ROOTS)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(filter(None, (_definer(source, name)
                                      for source, name, _ in _imports(module))))
    plain = {m for m, path in MODULES.items() if path.name != "__init__.py"}
    assert sorted(plain - seen - set(ALLOWED)) == []
    assert sorted(m for m in ALLOWED if m in seen or m not in plain) == []


def test_every_non_python_file_is_named_in_package_data():
    declared = (SRC.parent / "setup.py").read_text().partition("package_data")[2]
    assert [str(path.relative_to(SRC)) for path in (SRC / "repro").rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")
            and path.name not in declared] == []
