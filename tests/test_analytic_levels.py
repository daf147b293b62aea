"""Differential tests: the level-synchronous analytic replay against the
per-rank replay it replaced (``tests/reference_analytic_replay.py``).

Stepping whole dependency levels at a time, on compressed lanes, is a
change of evaluation order, not of arithmetic: every clock of every rank
in every lane must equal the per-rank walk's to the last bit
(``np.array_equal``, never a tolerance) -- across meshes, fan-outs,
protocol variants, ring depths, notification degrees, roots, tree
orders, chunk sizes, ragged unsorted batches and back-to-back
iterations -- and a wait that overruns its FT poll budget must be
refused by both.  The input checks that ride along (``order`` as an
array, non-integral sizes) are pinned here too.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.scc import AnalyticEngine, AnalyticUnsupported, SccConfig
from repro.scc.config import CACHE_LINE

from .reference_analytic_replay import ReferenceReplayEngine

#: (cols, rows) meshes spanning P = 4 .. 48 cores.
MESHES = [(2, 1), (2, 2), (3, 2), (4, 3), (6, 4)]
#: Protocol variants: plain, FT flags, FT flags + acked data, and the two
#: options that change a node's code path.
VARIANTS = [
    {},
    {"ft": True},
    {"ft": True, "ft_ack_data": True},
    {"leaf_direct_to_memory": True},
    {"interrupt_notify": True},
]
#: (num_buffers, notify_degree)
RINGS = [(2, 2), (1, 1), (3, 3)]
CHUNK_LINES = [8, 33, 96]


def _order(rng: np.random.Generator, P: int, root: int) -> list[int]:
    rest = [r for r in range(P) if r != root]
    rng.shuffle(rest)
    return [root] + rest


def assert_same_replay(cfg: SccConfig, sizes, iters_list=(1,), **kw) -> None:
    new = AnalyticEngine(cfg, **kw)
    ref = ReferenceReplayEngine(cfg, **kw)
    sizes = np.asarray(sizes, dtype=np.int64)
    for iters in iters_list:
        enters, exits = new._replay(sizes, iters)
        ref_enters, ref_exits = ref._replay(sizes, iters)
        assert np.array_equal(enters, ref_enters), (cfg, kw, iters)
        assert np.array_equal(exits, ref_exits), (cfg, kw, iters)


@pytest.mark.parametrize("cols,rows", MESHES)
def test_grid_equals_per_rank_replay(cols, rows):
    cfg = SccConfig(mesh_cols=cols, mesh_rows=rows)
    P = cfg.num_cores
    rng = np.random.default_rng(P)
    # Root, tree order and chunk size cycle through all twelve
    # combinations while the fan-out / variant / ring axes are crossed.
    placements = itertools.cycle(
        itertools.product((0, P // 2), (False, True), CHUNK_LINES)
    )
    for k, variant, (num_buffers, notify_degree) in itertools.product(
        sorted({1, 2, 3, 7, P - 1}), VARIANTS, RINGS
    ):
        root, permute, chunk_lines = next(placements)
        # Twelve unsorted sizes spanning one to five chunks, so lanes
        # drop out of the chunk loop at different times and in no order.
        sizes = rng.integers(1, 5 * chunk_lines * CACHE_LINE, size=12)
        assert_same_replay(
            cfg, sizes, iters_list=(1, 3),
            k=k, chunk_lines=chunk_lines, num_buffers=num_buffers,
            notify_degree=notify_degree, root=root,
            order=_order(rng, P, root) if permute else None,
            **variant,
        )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_configurations_equal_per_rank_replay(data):
    cols, rows = data.draw(st.sampled_from(MESHES[:4]), label="mesh")
    cfg = SccConfig(mesh_cols=cols, mesh_rows=rows)
    P = cfg.num_cores
    root = data.draw(st.integers(0, P - 1), label="root")
    rest = data.draw(
        st.permutations([r for r in range(P) if r != root]), label="order"
    )
    chunk_lines = data.draw(st.integers(1, 40), label="chunk_lines")
    ft = data.draw(st.booleans(), label="ft")
    assert_same_replay(
        cfg,
        data.draw(
            st.lists(
                st.integers(1, 5 * chunk_lines * CACHE_LINE),
                min_size=1, max_size=9,
            ),
            label="sizes",
        ),
        iters_list=(data.draw(st.integers(1, 3), label="iters"),),
        k=data.draw(st.integers(1, P - 1), label="k"),
        chunk_lines=chunk_lines,
        num_buffers=data.draw(st.integers(1, 3), label="num_buffers"),
        notify_degree=data.draw(st.integers(1, 3), label="notify_degree"),
        root=root,
        order=[root] + list(rest),
        ft=ft,
        ft_ack_data=ft and data.draw(st.booleans(), label="ft_ack_data"),
        leaf_direct_to_memory=data.draw(st.booleans(), label="leaf_direct"),
        interrupt_notify=data.draw(st.booleans(), label="interrupt_notify"),
    )


@pytest.mark.parametrize("cols,rows", [(16, 16), (32, 16)])
def test_manycore_meshes_equal_per_rank_replay(cols, rows):
    """512 and 1,024 cores: the replay's steps follow the tree's depth,
    its arithmetic still the per-rank walk's."""
    cfg = SccConfig(mesh_cols=cols, mesh_rows=rows)
    sizes = [CACHE_LINE * n for n in (200, 1, 96, 97, 333, 40)]
    assert_same_replay(cfg, sizes, k=7)


def test_single_lane_budget_overrun_refused_by_both():
    """One lane -- the only one still streaming when its recycle wait
    comes up, so the check runs on compressed lanes -- overruns the FT
    poll budget: both replays refuse the batch; without it both pass."""
    cfg = SccConfig(mesh_cols=3, mesh_rows=2)
    kw = dict(k=2, num_buffers=1, ft=True, ft_flag_timeout=40.0)
    small = [CACHE_LINE * n for n in (1, 2, 3, 96, 5)]
    assert_same_replay(cfg, small, **kw)
    overrun = np.asarray(small[:2] + [2 * 96 * CACHE_LINE] + small[2:])
    for engine in (AnalyticEngine(cfg, **kw), ReferenceReplayEngine(cfg, **kw)):
        with pytest.raises(AnalyticUnsupported, match="FT poll budget"):
            engine._replay(overrun, 1)


def test_schedule_is_consumed_at_construction():
    """Evaluation runs off the level groups alone."""
    engine = AnalyticEngine(k=7)
    sizes = [CACHE_LINE * n for n in (1, 96, 97, 192)]
    expected = engine.evaluate_batch(sizes, iters=2, warmup=1)
    engine._sched = None
    assert engine.evaluate_batch(sizes, iters=2, warmup=1) == expected


class TestReplaySteps:
    @pytest.mark.parametrize("k,steps", [(2, 8), (7, 12), (47, 8)])
    def test_stock_chip(self, k, steps):
        assert AnalyticEngine(k=k).replay_steps == steps

    def test_follows_depth_not_core_count(self):
        cfg = SccConfig(mesh_cols=32, mesh_rows=16)
        assert AnalyticEngine(cfg, k=7).replay_steps == 34

    def test_read_only(self):
        with pytest.raises(AttributeError):
            AnalyticEngine(k=7).replay_steps = 1


class TestResults:
    def test_mean_of_one_iteration_is_that_latency(self):
        for res in AnalyticEngine(k=7).evaluate_batch([64, 3072, 6144 + 32]):
            assert res.mean_latency == float(np.mean(res.latencies))
            assert type(res.mean_latency) is float
            assert all(type(t) is float for t in res.completion_times)

    def test_single_core_chip(self):
        cfg = SccConfig(mesh_cols=1, mesh_rows=1, cores_per_tile=1)
        res = AnalyticEngine(cfg).evaluate(4096, iters=2)
        assert res.latencies == (0.0, 0.0)
        assert res.completion_times == (0.0,)
        assert res.metrics == {}


class TestInputs:
    def test_order_accepts_an_array(self):
        order = np.concatenate(([5], np.delete(np.arange(48), 5)[::-1]))
        sizes = [CACHE_LINE, 97 * CACHE_LINE]
        got = AnalyticEngine(root=5, order=order).evaluate_batch(sizes)
        want = AnalyticEngine(root=5, order=order.tolist()).evaluate_batch(sizes)
        assert got == want
        identity = AnalyticEngine(order=np.arange(48)).evaluate_batch(sizes)
        assert identity == AnalyticEngine().evaluate_batch(sizes)

    @pytest.mark.parametrize("sizes", [[100.7], [64, 96.5], [float("nan")], [float("inf")]])
    def test_non_integral_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="whole number"):
            AnalyticEngine().evaluate_batch(sizes)

    def test_non_numeric_sizes_rejected(self):
        with pytest.raises(ValueError):
            AnalyticEngine().evaluate_batch([None])
        with pytest.raises(ValueError):
            AnalyticEngine().evaluate_batch(["64"])

    def test_integral_floats_are_sizes(self):
        engine = AnalyticEngine()
        assert engine.evaluate_batch([128.0]) == engine.evaluate_batch([128])
