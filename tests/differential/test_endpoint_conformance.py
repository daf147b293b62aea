"""Guard against the protocol twin growing back.

Both transport backends must be :class:`repro.rcce.endpoint.Endpoint`
subclasses that supply *every* declared primitive and override *nothing
else* of the shared surface: a backend that re-implements, say,
``flag_set_acked`` has forked the protocol layer again, and the two
copies will drift (they did: ``process="core3"`` vs ``"rank3"`` on the
same timeout).  The one named exception is the SCC-only two-sided RCCE
surface, which the base class declares as unsupported.
"""

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
TWO_SIDED = {"send", "recv", "isend", "irecv", "wait_all"}

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
