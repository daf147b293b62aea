"""Tests for chip assembly and SPMD execution."""

import pytest

from repro.scc import SccChip, SccConfig, run_spmd
from repro.sim import Tracer


def test_chip_assembly_defaults():
    chip = SccChip()
    assert chip.num_cores == 48
    assert len(chip.mpbs) == 48
    assert len(chip.cores) == 48
    assert chip.now == 0.0


def test_spmd_runs_all_cores():
    chip = SccChip()

    def program(core):
        yield core.compute(float(core.id + 1))
        return core.id * 2

    res = run_spmd(chip, program)
    assert res.core_ids == tuple(range(48))
    assert res.values == tuple(i * 2 for i in range(48))
    assert res.finish_times == tuple(float(i + 1) for i in range(48))
    assert res.end_time == 48.0
    assert res.makespan == 48.0


def test_spmd_subset_of_cores():
    chip = SccChip()

    def program(core):
        yield core.compute(1.0)
        return core.id

    res = run_spmd(chip, program, core_ids=[3, 7, 11])
    assert res.values == (3, 7, 11)
    assert res.finish_times[res.core_ids.index(11)] == 1.0


def test_spmd_duplicate_cores_rejected():
    chip = SccChip()

    def program(core):
        yield core.compute(1.0)

    with pytest.raises(ValueError):
        run_spmd(chip, program, core_ids=[1, 1])


def test_clock_persists_across_spmd_runs():
    chip = SccChip()

    def program(core):
        yield core.compute(5.0)

    r1 = run_spmd(chip, program, core_ids=[0])
    r2 = run_spmd(chip, program, core_ids=[0])
    assert r1.start_time == 0.0
    assert r2.start_time == 5.0
    assert r2.end_time == 10.0


def test_tracer_collects_when_enabled():
    chip = SccChip(tracer=Tracer(enabled=True))
    chip.trace("test", "hello", x=1)
    assert len(chip.tracer) == 1
    rec = chip.tracer.records[0]
    assert rec.source == "test"
    assert rec.kind == "hello"
    assert rec.detail == {"x": 1}


def test_tracer_disabled_by_default():
    chip = SccChip()
    chip.trace("test", "hello")
    assert len(chip.tracer) == 0


def test_custom_mesh_size():
    chip = SccChip(SccConfig(mesh_cols=2, mesh_rows=2))
    assert chip.num_cores == 8

    def program(core):
        yield core.compute(1.0)
        return core.tile

    res = run_spmd(chip, program)
    assert res.values == (
        (0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)
    )
