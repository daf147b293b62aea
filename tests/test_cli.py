"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import _parse_spec, build_parser, main


class TestSpecParsing:
    def test_oc_with_k(self):
        spec = _parse_spec("oc:12")
        assert spec.algo == "oc" and spec.k == 12

    def test_oc_default_k(self):
        spec = _parse_spec("oc")
        assert spec.algo == "oc" and spec.k == 7

    def test_named_algorithms(self):
        assert _parse_spec("binomial").algo == "binomial"
        assert _parse_spec("scatter_allgather").algo == "scatter_allgather"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            _parse_spec("telepathy")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "48" in out and "6x4" in out

    def test_info_custom_mesh(self, capsys):
        assert main(["info", "--mesh-cols", "8", "--mesh-rows", "8"]) == 0
        assert "128" in capsys.readouterr().out

    def test_bcast(self, capsys):
        rc = main(["bcast", "--algo", "oc", "--k", "3", "--cache-lines", "4",
                   "--iters", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OC-Bcast k=3" in out
        assert "mean latency" in out

    def test_bcast_binomial(self, capsys):
        rc = main(["bcast", "--algo", "binomial", "--cache-lines", "2",
                   "--iters", "1"])
        assert rc == 0
        assert "binomial" in capsys.readouterr().out

    def test_sweep_latency(self, capsys):
        rc = main(["sweep", "--algos", "oc:7", "--sizes", "1", "4",
                   "--iters", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OC-Bcast k=7" in out and "latency" in out

    def test_sweep_throughput_with_chart(self, capsys):
        rc = main(["sweep", "--algos", "oc:7", "binomial", "--sizes", "1", "16",
                   "--iters", "1", "--throughput", "--chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "o=OC-Bcast k=7" in out  # chart legend

    def test_contention(self, capsys):
        rc = main(["contention", "--op", "put", "--lines", "1",
                   "--counts", "1", "4", "--iters", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Concurrent put" in out

    def test_fit(self, capsys):
        rc = main(["fit", "--iters", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "l_hop" in out and "0.000%" in out

    def test_faults_byz_campaign(self, capsys):
        rc = main(["faults", "--trials", "2", "--byz", "--adversaries", "3",
                   "--no-baseline", "--cache-lines", "96",
                   "--mesh-cols", "3", "--mesh-rows", "2", "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Byzantine campaign" in out
        assert "rbc tax" in out
        assert "byz agreement rate: 100.0%" in out
        assert "fault.injected" in out  # the timeline printed

    def test_faults_byz_rejects_too_many_adversaries(self, capsys):
        rc = main(["faults", "--trials", "1", "--byz", "--adversaries", "12",
                   "--no-baseline", "--mesh-cols", "3", "--mesh-rows", "2"])
        assert rc == 2

    def test_faults_rejects_adversary_kind_without_byz(self, capsys):
        rc = main(["faults", "--trials", "1", "--kinds", "lie_quorum"])
        assert rc == 2
        assert "ERROR: lie_in_quorum needs byz=True" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bcast", "--cache-lines", "0"],
        ["bcast", "--k", "0"],
        ["bcast", "--k", "300"],  # MemoryError: the flags outgrow the MPB
        ["bcast", "--mesh-cols", "0"],
        ["bcast", "--root", "99"],
        ["sweep", "--sizes", "0"],
        ["sweep", "--algos", "foo"],
        ["trace", "--cache-lines", "0"],
        ["model", "--cores", "0"],
        ["contention", "--lines", "0"],  # used to print inf
        ["fit", "--iters", "0"],  # used to print nan
    ], ids=" ".join)
    def test_bad_input_is_one_error_line_and_exit_2(self, argv, capsys):
        """Whichever layer rejects the input, the CLI ends the same way:
        no traceback, no table of inf/nan."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR: ")
        assert len(captured.err.splitlines()) == 1

    def test_chaos_replay_of_a_crash_no_rank_emits(self, tmp_path, capsys):
        """The bundle would otherwise replay fault-free and report the
        mismatch as a protocol change, not as the bad coordinate it is."""
        pinned = pathlib.Path(__file__).parent / "chaos_bundles"
        bundle = json.loads(
            (pinned / "service-forged-holder-vote-scc.json").read_text()
        )
        bundle["schedule"]["crash"] = [0, "oc.chunk.begn", 1]
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(bundle))
        assert main(["chaos", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR: crash coordinate kind "
                                       "'oc.chunk.begn'")

    def test_chaos_max_chunks_zero(self, capsys):
        assert main(["chaos", "--trials", "1", "--max-chunks", "0"]) == 2
        assert capsys.readouterr().err == "ERROR: max_chunks must be >= 1\n"

    def test_model_table2(self, capsys):
        assert main(["model", "--what", "table2"]) == 0
        out = capsys.readouterr().out
        assert "scatter-allgather" in out

    def test_model_fig6_chart(self, capsys):
        assert main(["model", "--what", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "binomial" in out and "|" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
