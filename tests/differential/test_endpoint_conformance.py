"""Guard against the protocol twin growing back.

Both transport backends must be :class:`repro.rcce.endpoint.Endpoint`
subclasses that supply *every* declared primitive and override *nothing
else* of the shared surface: a backend that re-implements, say,
``flag_set_acked`` has forked the protocol layer again, and the two
copies will drift (they did: ``process="core3"`` vs ``"rank3"`` on the
same timeout).  The one named exception is the SCC-only two-sided RCCE
surface, which the base class declares as unsupported.

The other direction is guarded too: no protocol module under ``core/``,
``collectives/`` or ``member/`` may reach *around* the endpoint -- into
the chip, the core or the event kernel -- because such a module runs on
one backend only.
"""

import ast
import pathlib

import pytest

from repro.rcce import CoreComm
from repro.rcce.endpoint import Endpoint
from repro.transport import (
    AsyncioNetwork,
    AsyncioTransport,
    SccTransport,
    Transport,
    make_scc_world,
)

pytestmark = pytest.mark.differential

#: SCC-only methods ``CoreComm`` may (and must) override.
TWO_SIDED = {"send", "recv"}

PRIMITIVES = set(Endpoint.PRIMITIVES)

#: Everything the base class implements once, for every backend.
SHARED = {
    name for name, member in vars(Endpoint).items()
    if not name.startswith("__") and (callable(member) or isinstance(member, property))
}

BACKENDS = {CoreComm: TWO_SIDED, AsyncioTransport: set()}


def test_transport_name_is_the_base_class():
    assert Transport is Endpoint
    assert SccTransport is CoreComm


def test_primitives_are_not_implemented_by_the_base():
    """The contract is disjoint from the shared surface (and small)."""
    assert not PRIMITIVES & SHARED
    assert len(PRIMITIVES) == len(Endpoint.PRIMITIVES) <= 20


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda cls: cls.__name__)
def test_backend_supplies_only_the_primitives(backend):
    assert issubclass(backend, Endpoint)
    own = set(vars(backend))
    missing = PRIMITIVES - own
    assert not missing, f"{backend.__name__} lacks primitives {sorted(missing)}"
    allowed = BACKENDS[backend]
    forked = (own & SHARED) - allowed
    assert not forked, (
        f"{backend.__name__} overrides shared protocol methods "
        f"{sorted(forked)}: implement them once in Endpoint instead"
    )
    assert allowed <= own


def test_backends_set_the_instance_attributes():
    """``rank``/``comm``/``tracer``/``metrics`` are plain attributes set
    in ``__init__`` (the rest of the contract is class-level)."""
    chip, comm = make_scc_world(8)
    for cc in (comm.attach(chip.cores[3]), AsyncioNetwork(8).transport(3)):
        assert cc.rank == 3 and cc.size == 8
        assert {"rank", "comm", "tracer", "metrics"} <= set(vars(cc))


def test_two_sided_surface_is_scc_only():
    for name in TWO_SIDED:
        assert getattr(AsyncioTransport, name) is getattr(Endpoint, name)
    with pytest.raises(NotImplementedError, match="SCC-backend-only"):
        Endpoint.send(None, 0, None, 0)


# -- the protocol modules stay behind the endpoint -----------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
PROTOCOL_PACKAGES = ("core", "collectives", "member")
#: Attributes that lead from an endpoint or world object into one backend.
REACH_INS = {"chip", "core", "sim"}
#: Names of the SCC assembly and the event kernel.
BACKEND_NAMES = {"run_spmd", "SccChip", "Event"}


def _is_endpoint(node: ast.expr) -> bool:
    """``cc``, ``comm`` or ``self.comm``."""
    if isinstance(node, ast.Name):
        return node.id in ("cc", "comm")
    return (
        isinstance(node, ast.Attribute) and node.attr == "comm"
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def _is_type_checking(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If) and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def _reach_ins(tree: ast.AST) -> list[tuple[int, str]]:
    hits = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if _is_type_checking(node):
            continue
        if (isinstance(node, ast.Attribute) and node.attr in REACH_INS
                and _is_endpoint(node.value)):
            hits.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in BACKEND_NAMES:
            hits.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in BACKEND_NAMES:
            hits.append((node.lineno, f"import {node.name}"))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(hits)


def test_protocol_modules_do_not_reach_around_the_endpoint():
    hits = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for package in PROTOCOL_PACKAGES
        for path in sorted((SRC / package).glob("*.py"))
        for line, what in _reach_ins(ast.parse(path.read_text()))
    ]
    assert not hits, (
        "protocol modules must speak Endpoint only (port or delete): "
        + "; ".join(hits)
    )


def test_reach_in_walk_tells_a_fault_coordinate_from_an_endpoint():
    """``spec.core`` is a FaultSpec field, ``cc.core`` a reach-in; names
    under ``if TYPE_CHECKING:`` are annotations only."""
    source = (
        "if TYPE_CHECKING:\n"
        "    from ..scc.chip import SccChip\n"
        "def f(self, cc, spec):\n"
        "    spec.core; cc.core.sim; self.comm.chip; run_spmd\n"
    )
    assert [what for _, what in _reach_ins(ast.parse(source))] == [
        "cc.core", "run_spmd", "self.comm.chip",
    ]
