"""Everything under ``src/repro`` is reached by a run, or says why it stays.

Two walks, AST only — nothing is imported.

*Modules*: an import walk from the two run roots.  A package ``__init__``
holds its docstring and re-exports nothing (one exception, below), so each
name has one import path: the module that defines it.  A run then loads
exactly the modules the walk reaches.

*Definitions*: a fixpoint over names inside the reached modules.  A
module-level function or class is live when its name is read by the
module-level code of a reached module, by the body of a live definition, or
by a program someone runs (``CALLERS``: the frozen benchmark driver and the
examples the docs job executes); a method also needs its class to be live.
A test is not a caller.  Name-based, so it errs towards "live": it cannot
tell two methods of one name apart, but a name nothing reads is dead.

Beside them: every package ``__init__`` is its docstring and no module
assigns ``__all__``; every non-Python file under ``src/repro`` is named in
``setup.py``, so an installed package and a checkout cannot run different
numbers; no strategy module reads what ``run_fl_round`` owns (the engine,
the masking, the model metering), so the call stays one line per strategy;
outside ``repro.nn`` a model's parameters have one form, a flat vector; and
one reader types every plan value.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOTS = ("repro.__main__", "repro.scenarios.fuzz")
# The one import a package __init__ keeps: the frozen benchmark driver
# (benchmarks/e2e) reads these two names from the package.
PACKAGE_IMPORTS = {
    "repro.experiments":
        "from repro.experiments.plan import ExperimentPlan, load_plan",
}
# Unreached by the walk on purpose; every entry carries its reason.  A whole
# module here exempts every definition in it.
ALLOWED = {
    "repro.experts.facility": (
        "Eq. 2; examples/expert_lifecycle.py and benchmarks/fidelity.py's "
        "ablation_facility, until the shift response solves it"),
}
# Programs someone runs that are not under src/: what they read is used.
CALLERS = [ROOT / "benchmarks" / "e2e" / name
           for name in ("child.py", "make_plans.py", "tracer.py")]
CALLERS += sorted((ROOT / "examples").glob("*.py"))
# Definitions no run reads, kept for one of two reasons; the file named
# must still mention the definition.
KINDS = ("reader", "test state")
ALLOWED_DEFINITIONS = {
    "repro.utils.serialization.load_run_result":
        ("reader", "tests/test_serialization.py"),
    "repro.federation.pool.PartyPool.resident_ids":
        ("test state", "tests/test_party_pool.py"),
    "repro.privacy.secure_aggregation.SecureAggregationSession.is_sealed":
        ("test state", "tests/test_secure_aggregation.py"),
    "repro.data.federated.PartyWindowData.num_train":
        ("test state", "tests/test_data_differential.py"),
    "repro.data.federated.PartyWindowData.num_test":
        ("test state", "tests/test_data_differential.py"),
    "repro.flips.selector.FlipsSelector.selection_counts":
        ("test state", "tests/test_flips.py"),
}
MODULES = {}
for _path in (SRC / "repro").rglob("*.py"):
    _parts = _path.relative_to(SRC).with_suffix("").parts
    MODULES[".".join(_parts[:-1] if _parts[-1] == "__init__" else _parts)] = _path
DEFS = (ast.FunctionDef, ast.ClassDef)
# Decorators that do not hand the definition to anyone.
PLAIN_DECORATORS = {"dataclass", "dataclasses", "property", "cached_property",
                    "functools", "staticmethod", "classmethod"}


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
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"  # a submodule of the package
    return module


def _reached():
    seen, todo = set(), list(ROOTS)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(filter(None, (_definer(source, name)
                                      for source, name, _ in _imports(module))))
    return seen


def test_every_module_is_reached_by_a_run_or_allowlisted():
    seen = _reached()
    plain = {m for m, path in MODULES.items() if path.name != "__init__.py"}
    assert sorted(plain - seen - set(ALLOWED)) == []
    assert sorted(m for m in ALLOWED if m in seen or m not in plain) == []


def _reads(nodes):
    """Every name or attribute name loaded anywhere under ``nodes``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _handed_over(node):
    """Decorated by something that keeps it (``@register_strategy(...)``)."""
    return bool(_reads(node.decorator_list) - PLAIN_DECORATORS)


def _census():
    """``(definitions, reads)`` of the modules a run executes.

    ``definitions`` maps a qualified name to ``(name, owning class or None,
    its AST, kept by a decorator)``; ``reads`` are the names read by
    module-level code, by the callers, and by the allowlisted modules (they
    stay, so what they call stays).
    """
    definitions, reads = {}, set()
    for module in sorted(_reached()):
        path = MODULES[module]
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, DEFS):
                qual = f"{module}.{stmt.name}"
                inner = [s for s in stmt.body if isinstance(s, DEFS)] \
                    if isinstance(stmt, ast.ClassDef) else []
                rest = [s for s in ast.iter_child_nodes(stmt) if s not in inner]
                definitions[qual] = (stmt.name, None, rest, _handed_over(stmt))
                for method in inner:
                    definitions[f"{qual}.{method.name}"] = (
                        method.name, qual, [method], False)
            else:
                reads |= _reads([stmt])
    for module in ALLOWED:
        reads |= _reads([ast.parse(MODULES[module].read_text())])
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        reads |= _reads([tree])
        if path.name == "tracer.py":  # LAYER_SPANS names its targets as paths
            reads |= {part for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      for part in node.value.split(".") if part.isidentifier()}
    return definitions, reads


def _grow(definitions, reads, live):
    """Fixpoint: a definition whose name is read (and whose class is live)
    is live, and then what its body reads is read."""
    changed = True
    while changed:
        changed = False
        for qual, (name, owner, body, kept) in definitions.items():
            dunder = name.startswith("__") and name.endswith("__")
            if (qual not in live and (owner is None or owner in live)
                    and (kept or dunder or name in reads)):
                live.add(qual)
                reads |= _reads(body)
                changed = True
    return live


def test_every_definition_is_read_by_a_run_or_allowlisted():
    definitions, reads = _census()
    live = _grow(definitions, reads, set())
    stale = sorted(q for q in ALLOWED_DEFINITIONS
                   if q not in definitions or q in live)
    assert not stale, "gone, or read by a run after all: " + ", ".join(stale)
    for qual, (kind, where) in ALLOWED_DEFINITIONS.items():
        assert kind in KINDS, qual
        assert qual.rpartition(".")[2] in (ROOT / where).read_text(), qual
        reads |= _reads(definitions[qual][2])
    live = _grow(definitions, reads, live | set(ALLOWED_DEFINITIONS))
    dead = sorted(set(definitions) - live)
    assert not dead, "read by no run and not allowlisted: " + ", ".join(dead)
    assert len(ALLOWED_DEFINITIONS) <= 7


def test_strategies_leave_the_round_to_run_fl_round():
    """``run_fl_round(ctx, ...)`` owns the engine, the masking and the model
    metering: a strategy module that reads one of them is growing its own
    copy of the dispatch stanza back."""
    owned = {"record_model_download", "record_model_upload", "masking",
             "federation"}
    strategies = [m for m in MODULES
                  if m.startswith("repro.baselines.")] + ["repro.core.server"]
    found = {m: sorted(owned & _reads([ast.parse(MODULES[m].read_text())]))
             for m in strategies}
    assert {m: names for m, names in found.items() if names} == {}


def test_one_parameter_representation():
    """A model's parameters are one flat vector (per-tensor shapes live in
    ``Sequential._views``): no module defines a per-tensor list form, a
    spec of its shapes, or a converter to or from it."""
    second_form = {"Params", "ParamSpec", "flatten_params", "stack_params",
                   "weighted_average"}
    found = []
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, DEFS) and node.name in second_form:
                found.append(f"{module} defines {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found += [f"{module} defines {t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id in second_form]
    assert found == []


def test_a_package_init_is_its_docstring():
    """A package ``__init__`` that imports would load what it names on every
    run, reached or not, and give each name a second import path."""
    found = {}
    for module, path in MODULES.items():
        if path.name == "__init__.py":
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), module
            found[module] = [ast.unparse(stmt) for stmt in tree.body[1:]]
    assert found == {m: [PACKAGE_IMPORTS[m]] if m in PACKAGE_IMPORTS else []
                     for m in found}


def test_no_module_assigns_all():
    assert sorted(m for m, path in MODULES.items()
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and node.id == "__all__"
                  and isinstance(node.ctx, ast.Store)) == []


def test_every_non_python_file_is_named_in_package_data():
    declared = (SRC.parent / "setup.py").read_text().partition("package_data")[2]
    assert [str(path.relative_to(SRC)) for path in (SRC / "repro").rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")
            and path.name not in declared] == []


def test_one_plan_reader():
    """Every plan value is typed by ``repro.utils.validation.read_knob``
    (and ``read_kwargs``, its read for a strategy factory's signature): no
    module defines the retired second typing path, and no other module reads
    annotations itself."""
    retired = {"typed_fields", "_overlay"}
    found = []
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            reads_hints = (
                isinstance(node, ast.Attribute) and node.attr == "get_type_hints"
                or isinstance(node, ast.alias) and node.name == "get_type_hints")
            if isinstance(node, DEFS) and node.name in retired:
                found.append(f"{module} defines {node.name}")
            elif reads_hints and module != "repro.utils.validation":
                found.append(f"{module} reads typing.get_type_hints")
    assert found == []
