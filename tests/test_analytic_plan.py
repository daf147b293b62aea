"""The analytic engine's memoised plan is safe to share.

Every :class:`AnalyticEngine` starts as a copy of a plan's attributes
(``repro.scc.analytic._plan``): the geometry, the tree schedule, its
level groups and drains, derived once per distinct set of arguments and
shared by every engine built with equal ones.  Sharing is only sound if
equal arguments -- and nothing else -- meet in one plan, if nobody can
write through a shared array, if a subclass that rebinds an attribute
keeps the change to itself, and if the cache stays bounded.  Engines
share a plan exactly when they hold the same array objects.
"""

import numpy as np
import pytest

from repro.scc import AnalyticEngine, AnalyticUnsupported, SccConfig
from repro.scc.analytic import _plan
from repro.scc.config import CACHE_LINE, ContentionMode

from .reference_analytic_replay import ReferenceReplayEngine

#: A small chip (12 cores), so each new plan costs little.
SMALL = SccConfig(mesh_cols=3, mesh_rows=2)


def same_plan(a: AnalyticEngine, b: AnalyticEngine) -> bool:
    return a.line_cost is b.line_cost and a._groups is b._groups


def _reversed_order(root: int = 0) -> list[int]:
    return [root] + [r for r in range(SMALL.num_cores - 1, -1, -1) if r != root]


class TestSharing:
    def test_equal_arguments_share_one_plan(self):
        kw = dict(k=2, notify_degree=3, root=4, ft=True, ft_flag_timeout=250.0)
        a = AnalyticEngine(SccConfig(mesh_cols=3, mesh_rows=2), **kw)
        b = AnalyticEngine(SccConfig(mesh_cols=3, mesh_rows=2), **kw)
        assert same_plan(a, b)
        assert a.tree == b.tree and a._drains is b._drains

    @pytest.mark.parametrize("change", [
        {"config": SMALL.with_(t_poll=0.3)},
        {"config": SMALL.with_(contention_mode=ContentionMode.IDEAL)},
        {"k": 3},
        {"root": 1},
        {"order": _reversed_order()},
        {"notify_degree": 1},
        {"chunk_lines": 33},
        {"num_buffers": 3},
        {"leaf_direct_to_memory": True},
        {"interrupt_notify": True},
        {"ft": True},
        {"ft_ack_data": True},
        {"ft_flag_timeout": 299.0},
    ])
    def test_any_differing_argument_gets_its_own_plan(self, change):
        base = dict(config=SMALL, k=2)
        a = AnalyticEngine(**base)
        b = AnalyticEngine(**{**base, **change})
        assert not same_plan(a, b)

    def test_equal_arguments_of_other_types_share_a_plan_of_builtins(self):
        _plan.cache_clear()
        numpy_first = AnalyticEngine(
            SMALL, k=np.int64(2), chunk_lines=np.int64(96), root=np.int64(1),
            order=np.array([1, 0, *range(2, SMALL.num_cores)]),
            ft=np.bool_(True), ft_flag_timeout=300,
        )
        builtin = AnalyticEngine(
            SMALL, k=2, root=1, order=[1, 0, *range(2, SMALL.num_cores)],
            ft=True, ft_flag_timeout=300.0,
        )
        assert same_plan(numpy_first, builtin)
        for name, kind in [("k", int), ("chunk_lines", int), ("root", int),
                           ("ft", bool), ("ft_flag_timeout", float)]:
            assert type(getattr(builtin, name)) is kind, name
        assert all(type(r) is int for r in builtin.tree.ranks)
        assert all(type(ent["rank"]) is int for ent in builtin._sched)

    def test_order_normal_forms(self):
        default = AnalyticEngine(SMALL, root=2)
        spelt_out = [*range(2, SMALL.num_cores), 0, 1]
        for order in ([], (), np.array([], dtype=np.int64),
                      spelt_out, np.array(spelt_out)):
            assert same_plan(AnalyticEngine(SMALL, root=2, order=order), default)
        listed = AnalyticEngine(SMALL, order=_reversed_order())
        for order in (tuple(_reversed_order()), np.array(_reversed_order())):
            assert same_plan(AnalyticEngine(SMALL, order=order), listed)
        assert not same_plan(listed, AnalyticEngine(SMALL))

    def test_shared_plan_evaluates_like_a_fresh_one(self):
        sizes = [CACHE_LINE, 97 * CACHE_LINE, 300 * CACHE_LINE]
        _plan.cache_clear()
        fresh = AnalyticEngine(SMALL, k=2).evaluate_batch(sizes, iters=2)
        shared = AnalyticEngine(SMALL, k=2)
        assert _plan.cache_info().hits >= 1
        assert shared.evaluate_batch(sizes, iters=2) == fresh


class TestReadOnly:
    def arrays(self, engine: AnalyticEngine) -> list[np.ndarray]:
        out = [engine.line_cost, engine.mem_read_line, engine.mem_write_line,
               engine._mem_read_loop]
        for g in engine._groups:
            out += [g.ranks, g.line_parent, g.line_self, g.mem_write]
            out += [a for pair in g.relay + g.own for a in pair]
            if g.children is not None:
                out.append(g.children)
        for ranks, children, _ in engine._drains:
            out += [ranks, children]
        return out

    def test_writing_a_shared_array_raises(self):
        engine = AnalyticEngine(SMALL, k=2)
        arrays = self.arrays(engine)
        assert len(arrays) > 10
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            engine.line_cost += 1.0

    def test_rebinding_stays_on_the_engine(self):
        engine = AnalyticEngine(SMALL, k=2)
        sched = engine._sched
        engine._sched = None
        engine.line_cost = None
        again = AnalyticEngine(SMALL, k=2)
        assert again._sched is sched
        assert again.line_cost is not None


class TestReferenceOracle:
    def test_fills_its_own_cold_miss_table(self):
        engine = AnalyticEngine(SMALL, k=2, chunk_lines=40)
        ref = ReferenceReplayEngine(SMALL, k=2, chunk_lines=40)
        # Everything else is the shared plan; the table is the oracle's.
        assert same_plan(ref, engine)
        assert ref._mem_read_loop is not engine._mem_read_loop
        assert ref._mem_read_loop.flags.writeable
        assert np.array_equal(ref._mem_read_loop, engine._mem_read_loop)
        # ... and never reaches the cache.
        after = AnalyticEngine(SMALL, k=2, chunk_lines=40)
        assert after._mem_read_loop is engine._mem_read_loop
        assert not after._mem_read_loop.flags.writeable


class TestCache:
    def test_stays_bounded(self):
        maxsize = _plan.cache_info().maxsize
        assert maxsize == 16
        for chunk_lines in range(1, 2 * maxsize + 1):
            AnalyticEngine(SMALL, chunk_lines=chunk_lines)
        assert _plan.cache_info().currsize == maxsize

    @pytest.mark.parametrize("kw,error", [
        ({"root": 99}, ValueError),
        ({"order": [1, 0, *range(2, SMALL.num_cores)]}, ValueError),
        ({"order": [0, 0, *range(2, SMALL.num_cores)]}, ValueError),
        ({"k": 0}, ValueError),
        ({"k": 2.0}, ValueError),
        ({"chunk_lines": 1.5}, ValueError),
        ({"ft": True, "ft_flag_timeout": -5}, ValueError),
        ({"ft_flag_timeout": 0}, ValueError),
        ({"ft_flag_timeout": float("nan")}, ValueError),
        ({"config": SMALL.with_(jitter=0.05)}, AnalyticUnsupported),
    ])
    def test_a_rejected_key_never_reaches_the_cache(self, kw, error):
        kw = {"config": SMALL, **kw}
        before = _plan.cache_info()
        with pytest.raises(error):
            AnalyticEngine(**kw)
        assert _plan.cache_info() == before


class TestValidation:
    """Both used to slip through: a non-positive FT poll budget became a
    misleading "exceeds its -5-us FT poll budget" refusal (or, at 0, was
    accepted), and a fractional iteration count died inside numpy."""

    @pytest.mark.parametrize("timeout", [-5, 0, 0.0])
    @pytest.mark.parametrize("ft", [True, False])
    def test_ft_timeout_must_be_positive(self, ft, timeout):
        with pytest.raises(ValueError, match="FT timeouts must be > 0"):
            AnalyticEngine(ft=ft, ft_flag_timeout=timeout)

    @pytest.mark.parametrize("kw", [
        {"iters": 1.5}, {"iters": 2.0}, {"warmup": 0.5}, {"iters": "2"},
    ])
    def test_iteration_counts_must_be_whole(self, kw):
        engine = AnalyticEngine(SMALL)
        with pytest.raises(ValueError, match="whole numbers"):
            engine.evaluate(4096, **kw)
        with pytest.raises(ValueError, match="whole numbers"):
            engine.evaluate_batch([64, 4096], **kw)

    def test_numpy_iteration_counts_are_whole(self):
        engine = AnalyticEngine(SMALL)
        assert engine.evaluate(4096, iters=np.int64(2)) == engine.evaluate(
            4096, iters=2
        )
