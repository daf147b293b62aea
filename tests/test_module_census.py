"""Module census: a module exists only if something runs it.

Every module of every ``repro`` package must be imported -- directly
or through other modules -- by something besides its own unit tests:
the CLI, a ``tools/`` script, ``perf_check.py``, the ledger, or a
``bench_fig*``/``bench_table*``/``bench_ablation*`` file that
EXPERIMENTS.md names.  The harness packages (``bench/``, ``chaos/``,
``transport/``) are censused like any other, not counted as roots: a
harness module is alive because the CLI, a tool or the ledger runs it,
not because it exists.  A module only its tests import is a design no
golden, ledger workload or soak has ever run, so it is deleted, not
kept "for later".

A ``bench_extension_*`` row is a module's own demonstration, not a
reason: an extension beyond the paper's artefacts that nothing else
runs states its reason in ``ALLOWED``.  That is the escape hatch, and it
is deliberately short.

The walk is syntactic (``ast``) and *name-level*: ``from repro.core
import OcBcast`` follows ``core/__init__.py``'s ``from .ocbcast import
OcBcast`` to ``core/ocbcast.py`` and reaches nothing else the package
re-exports, so listing a module in an ``__init__`` does not keep it
alive.  A reached module's own imports are followed in full.

The same rule holds one level down, for every function, method and
class: some root, or a module a root reaches, must *name* it -- a call,
an attribute, an import or a dispatch string -- or it is a def only its
tests run.  Such a def is deleted, or moved into a ``tests/`` helper
(as ``reference_l1.py`` was), or states its reason in ``ALLOWED_DEFS``.
A module in ``ALLOWED`` exempts its defs, and its names count.

The other half of the rule -- a protocol module speaks only
``Endpoint`` -- is ``tests/differential/test_endpoint_conformance.py``.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Who counts as running a module (plus the EXPERIMENTS.md bench rows).
ROOT_GLOBS = (
    "src/repro/cli.py", "src/repro/__main__.py",
    "tools/*.py",
    "benchmarks/perf_check.py",
    "benchmarks/ledger/*.py",
)
BENCH_ROWS = ("fig", "table", "ablation")

#: module -> why it stays although no root reaches it.
ALLOWED = {
    "repro.model.design":
        "EXPERIMENTS.md row A7 and its 'Design-space checks' report what "
        "it derives",
    "repro.obs.goldens":
        "the golden trace files under tests/ are written in its "
        "serialization",
    "repro.core.occollectives":
        "OC-Barrier/OC-Reduce (EXPERIMENTS row A6) speak only Endpoint and "
        "are pinned on both backends by tests/differential/"
        "test_occollectives_parity.py",
    "repro.collectives.reduce":
        "ReduceOp is OC-Reduce's operator type; binomial_reduce is row "
        "A6's two-sided comparator",
    "repro.collectives.barrier":
        "row A6's two-sided comparator for OC-Barrier",
}
MAX_ALLOWED = 6

#: ``module.name`` -> why a def of that name stays although nothing but
#: tests names it.
ALLOWED_DEFS = {
    "repro.bench.contention.mesh_link_probe":
        "benchmarks/bench_mesh_contention.py (the paper-claims CI job) and "
        "examples/contention_study.py run the link probe",
    "repro.bench.contention.slowdown":
        "the loaded/unloaded ratio bench_mesh_contention.py asserts",
    "repro.scc.chip.makespan":
        "the run timing examples/quickstart.py and collective_pipeline.py "
        "print",
    "repro.scc.core.scripts_lines":
        "the regime claim_lines counts against, as one predicate; the "
        "leg-script and quiet-injector suites pin which regime a run takes",
    "repro.scc.core.scripts_stores":
        "the same predicate for claim_stores (vote casts)",
    "repro.scc.core.mem_read_line_cost":
        "Formula 6 as the chip charges it; test_model_vs_sim holds it equal "
        "to the model's and the analytic engine's",
    "repro.scc.core.mem_write_line_cost":
        "Formula 5, likewise",
    "repro.rcce.flags.peek":
        "the untimed host-side read of a flag or slot the asyncio "
        "scheduler oracle and the slot-array suites check state with",
    "repro.sim.resources.in_use":
        "a port's occupancy, compared against the per-line loop's by the "
        "leg-script and vote-cast equivalence suites",
    "repro.sim.resources.queue_length":
        "a port's queue, likewise",
    "repro.scc.memory.contains":
        "the run-length L1's query API, checked operation for operation "
        "against tests/reference_l1.py",
    "repro.scc.memory.resident_lines":
        "likewise (the LRU order)",
    "repro.scc.memory.invalidate":
        "likewise (the flush)",
}
MAX_ALLOWED_DEFS = 13


def _roots() -> list[pathlib.Path]:
    roots = [
        path for glob in ROOT_GLOBS for path in sorted(ROOT.glob(glob))
        if not path.name.startswith("test_")
    ]
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        row = path.stem.removeprefix("bench_")
        if row.startswith(BENCH_ROWS) and row in experiments:
            roots.append(path)
    return roots


def _module_of(path: pathlib.Path) -> str | None:
    """Dotted name of a file under ``src/`` (None for a script)."""
    if SRC not in path.parents:
        return None
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source(module: str) -> pathlib.Path | None:
    """The file of a ``repro`` module or package (None: not ours)."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


@functools.lru_cache(maxsize=None)
def _imports(path: pathlib.Path) -> tuple[tuple[str, str | None, str], ...]:
    """``(module, name, bound as)`` of every import statement in a file;
    ``name`` is None for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, None, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                package = _module_of(path).split(".")
                if path.name != "__init__.py":
                    package.pop()
                package = package[:len(package) - node.level + 1]
                target = ".".join(package + ([target] if target else []))
            found += [(target, a.name, a.asname or a.name) for a in node.names]
    return tuple(found)


def _definer(module: str, name: str | None) -> str | None:
    """The ``repro`` module a ``from module import name`` really loads:
    the submodule of that name, or the end of the package's re-export
    chain.  None for a foreign module."""
    path = _source(module)
    if path is None:
        return None
    if name is None:
        return module
    if _source(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    if path.name == "__init__.py":
        for target, original, bound in _imports(path):
            if bound == name and original is not None:
                return _definer(target, original)
    return module


def _reached() -> set[str]:
    todo = _roots()
    seen: set[str] = set()
    while todo:
        for target, name, _ in _imports(todo.pop()):
            module = _definer(target, name)
            if module is None or module in seen:
                continue
            seen.add(module)
            path = _source(module)
            # A package's __init__ only re-exports: being listed there
            # is not being run.
            if path.name != "__init__.py":
                todo.append(path)
    return seen


def _census() -> set[str]:
    """Every module of every ``repro`` package (a package's
    ``__init__`` only re-exports)."""
    return {
        _module_of(f) for f in (SRC / "repro").rglob("*/*.py")
        if f.name != "__init__.py"
    }


def test_every_protocol_module_is_run_by_something_besides_its_tests():
    unreached = _census() - _reached()
    orphans = sorted(unreached - ALLOWED.keys())
    assert not orphans, (
        "modules nothing but their own tests imports (delete them, or "
        f"give a ledger workload, bench row, CLI verb or tool a use): {orphans}"
    )
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"allow-listed but reached (or gone): {stale}"
    assert len(ALLOWED) <= MAX_ALLOWED and all(ALLOWED.values())


def _named() -> set[str]:
    """Every identifier the roots and the modules they reach (the
    allow-listed ones included) name: a variable, an attribute, an
    imported name, or a string that could be one (a dispatch key)."""
    paths = _roots() + [_source(m) for m in _reached() | ALLOWED.keys()]
    names: set[str] = set()
    for path in paths:
        if path.name == "__init__.py":
            continue  # re-exports name nothing into use
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _defs() -> set[str]:
    """``module.name`` of every function, method and class of every
    censused module outside ``ALLOWED`` (dunders are called implicitly)."""
    found = set()
    for module in _census() - ALLOWED.keys():
        for node in ast.walk(ast.parse(_source(module).read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not (node.name.startswith("__") and node.name.endswith("__")):
                found.add(f"{module}.{node.name}")
    return found


def test_every_def_is_named_by_something_besides_its_tests():
    named = _named()
    unnamed = {d for d in _defs() if d.rpartition(".")[2] not in named}
    orphans = sorted(unnamed - ALLOWED_DEFS.keys())
    assert not orphans, (
        "defs nothing but tests names (delete them, move them into a "
        f"tests/ helper, or state a reason in ALLOWED_DEFS): {orphans}"
    )
    stale = sorted(ALLOWED_DEFS.keys() - unnamed)
    assert not stale, f"allow-listed but named (or gone): {stale}"
    assert len(ALLOWED_DEFS) <= MAX_ALLOWED_DEFS and all(ALLOWED_DEFS.values())
