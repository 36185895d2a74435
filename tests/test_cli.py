"""Tests for the ``python -m repro`` command line (repro.cli)."""

import csv
import io
import json

import pytest

from repro.cli import _parse_buffer, build_parser, main
from repro.core import paper_data
from repro.core.registry import REGISTRY, get
from repro.report import figures


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point every CLI run at a private cache and a single worker."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv("REPRO_SCALE", raising=False)


class TestParsing:
    def test_buffer_tokens(self):
        assert _parse_buffer("64") == 64
        assert _parse_buffer("64:8") == (64, 8)

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_command_is_gone(self, capsys):
        # `report` is the one figure front end.
        with pytest.raises(SystemExit) as exit_info:
            main(["figures"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'figures'" in capsys.readouterr().err

    def test_run_command_is_gone(self, capsys):
        # `export` is the one command that runs a sweep.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig5"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err

    def test_unknown_sweep_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["describe", "fig99"])

    def test_bad_scale_is_a_usage_error(self, capsys, tmp_path):
        # Every --scale goes through the check REPRO_SCALE does.
        for command in (["list"], ["describe", "fig5"], ["export", "fig5"],
                        ["report"], ["perf"]):
            for bad in ("nan", "inf", "0", "-3", "banana"):
                with pytest.raises(SystemExit) as exit_info:
                    main(command + ["--scale=%s" % bad])
                assert exit_info.value.code == 2, (command, bad)
                assert "finite number above 0" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestList:
    def test_lists_every_registered_sweep(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_json_output(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in entries} == set(REGISTRY)
        for entry in entries:
            assert entry["cells"] > 0


class TestDescribe:
    def test_plain(self, capsys):
        assert main(["describe", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "long-many" in out

    def test_hashes_match_spec_tasks(self, capsys):
        assert main(["describe", "fig5", "--json", "--hashes"]) == 0
        description = json.loads(capsys.readouterr().out)
        spec = get("fig5")
        expected = {task.content_hash() for task in spec.tasks(1.0)}
        assert set(description["cell_hashes"].values()) == expected

    def test_scale_override(self, capsys):
        assert main(["describe", "fig7b", "--json", "--scale", "4"]) == 0
        description = json.loads(capsys.readouterr().out)
        assert len(description["workloads"]) == 5


class TestRun:
    def test_tiny_override_run(self, capsys):
        code = main(["export", "fig4-up", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--no-cache"])
        assert code == 0
        captured = capsys.readouterr()
        assert "long-few/8" in captured.out
        assert "down_utilization" in captured.out
        assert "[1 cells: 0 cached, 1 computed" in captured.err

    def test_json_run(self, capsys):
        # A run's JSON comes from `--format json`; there is no --json.
        argv = ["fig4-up", "--workloads", "long-few", "--buffers", "8",
                "--duration", "2", "--warmup", "1", "--no-cache"]
        with pytest.raises(SystemExit):
            main(["export"] + argv + ["--json"])
        capsys.readouterr()
        assert main(["export"] + argv + ["--format", "json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["key"] == ["long-few", 8]
        assert record["payload"]["duration"] == 2.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["export", "fig5", "--workloads", "mystery"])

    @pytest.mark.parametrize("argv, message", [
        (["fig7a", "--workloads", "noBG", "--buffers", "0"], "buffer size"),
        (["fig7a", "--workloads", "noBG", "--buffers=-4"], "buffer size"),
        (["fig5", "--buffers", "8", "--duration", "-1"], "duration"),
        (["fig5", "--buffers", "8", "--warmup", "-3"], "warmup"),
        (["fig9a", "--workloads", "noBG", "--buffers", "8", "--duration",
          "0"], "duration"),
        (["fig8", "--workloads", "noBG", "--buffers", "749:28"],
         "backbone testbed has one buffer size for both directions"),
    ])
    def test_out_of_range_cell_values_rejected(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(["export"] + argv + ["--no-cache"])

    def test_bad_workers_is_a_usage_error(self, capsys, monkeypatch):
        for bad in ("0", "-2", "two"):
            with pytest.raises(SystemExit) as exit_info:
                main(["export", "fig5", "--workers", bad])
            assert exit_info.value.code == 2, bad
            assert "at least 1" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(SystemExit, match="REPRO_WORKERS must be at least"):
            main(["export", "fig5", "--buffers", "8"])

    def test_bad_env_scale_exits_with_its_message(self, monkeypatch,
                                                  tmp_path):
        # Every command that reads REPRO_SCALE exits with the one-line
        # message of the --scale check, before any work, not a traceback.
        monkeypatch.setenv("REPRO_SCALE", "abc")
        for command in (["list"], ["describe", "fig5"], ["export", "fig5"],
                        ["report", "table2", "-o", str(tmp_path / "out")]):
            with pytest.raises(SystemExit) as exit_info:
                main(command)
            assert exit_info.value.code == ("REPRO_SCALE must be a finite "
                                            "number above 0, got 'abc'"), \
                command
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()

    def test_malformed_buffers_rejected(self):
        with pytest.raises(SystemExit):
            main(["export", "fig5", "--buffers", "8x"])

    @pytest.mark.parametrize("argv, message", [
        (["fig7a", "--workloads", "noBG", "--buffers", "8,8"],
         "repeats buffer size 8"),
        (["fig10b", "--workloads", "noBG", "--buffers", "8", "--duration",
          "99"], "fixed fetch count"),
    ])
    def test_ambiguous_overrides_rejected_before_any_work(self, argv,
                                                          message, capsys,
                                                          tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["export"] + argv)
        code = exit_info.value.code
        assert isinstance(code, str) and message in code
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "cache").exists()

    def test_duration_override_is_literal_under_scale(self, capsys,
                                                      monkeypatch):
        # --duration must mean simulated seconds, not seconds*REPRO_SCALE.
        monkeypatch.setenv("REPRO_SCALE", "4")
        code = main(["export", "fig4-up", "--workloads", "long-few",
                     "--buffers", "8", "--duration", "2", "--warmup", "1",
                     "--no-cache", "--format", "json"])
        assert code == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["payload"]["duration"] == 2.0

    def test_per_direction_buffer_override(self, capsys):
        code = main(["export", "fig4-up", "--workloads", "long-few",
                     "--buffers", "16:4", "--duration", "2", "--warmup",
                     "1", "--no-cache"])
        assert code == 0
        assert "long-few/(16, 4)" in capsys.readouterr().out

    def test_format_csv(self, capsys):
        argv = ["fig4-up", "--workloads", "long-few", "--buffers", "8",
                "--duration", "2", "--warmup", "1"]
        assert main(["export"] + argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["key"] == "long-few/8"
        assert float(rows[0]["down_utilization"]) > 0.0


#: One tiny export per cell kind (the CI smoke runs the same quartet).
EXPORT_CASES = {
    "qos": ["export", "fig4-up", "--workloads", "long-few",
            "--buffers", "8", "--duration", "1", "--warmup", "0.5"],
    "voip": ["export", "fig7a", "--workloads", "noBG", "--buffers", "8",
             "--duration", "1", "--warmup", "0.5"],
    "video": ["export", "fig9a", "--workloads", "noBG", "--buffers", "8",
              "--duration", "1", "--warmup", "0.5"],
    "web": ["export", "fig10b", "--workloads", "noBG", "--buffers", "8",
            "--warmup", "0.5"],
}


class TestExport:
    @pytest.mark.parametrize("kind", sorted(EXPORT_CASES))
    def test_csv_per_kind_is_parseable_and_nonempty(self, kind, capsys):
        assert main(EXPORT_CASES[kind]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows, "export produced an empty CSV"
        assert all(row["kind"] == kind for row in rows)
        cell = [EXPORT_CASES[kind][3], "8"]  # the one workload and buffer
        assert all(row["key"].split("/")[:2] == cell for row in rows)
        # Every row carries at least one parseable numeric metric.
        metric = {"qos": "down_utilization", "voip": "listens",
                  "video": "ssim", "web": "median_plt"}[kind]
        for row in rows:
            float(row[metric])
        if kind == "qos":
            assert float(rows[0]["down_utilization"]) > 0.0

    def test_json_format(self, capsys):
        assert main(EXPORT_CASES["qos"] + ["--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["kind"] == "qos"
        assert entries[0]["payload"]["duration"] == 1.0

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(EXPORT_CASES["qos"] + ["--output", str(target)]) == 0
        assert "wrote 1 records" in capsys.readouterr().err
        with target.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1

    def test_cached_only_round_trip(self, capsys):
        # Cold cache: nothing to export.
        argv = EXPORT_CASES["qos"]
        assert main(argv + ["--cached-only"]) == 1
        capsys.readouterr()
        # Run once (fills the isolated cache), then export cache-only.
        assert main(argv) == 0
        ran = capsys.readouterr().out
        assert main(argv + ["--cached-only"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ran
        assert "partial" not in captured.err  # full grid, no warning

    def test_cached_only_partial_grid_is_reported(self, capsys):
        # Cache only one of two cells, then export the two-cell grid.
        one = EXPORT_CASES["qos"]
        assert main(one) == 0
        capsys.readouterr()
        two = [arg if arg != "8" else "8,16" for arg in one]
        assert main(two + ["--cached-only"]) == 0
        captured = capsys.readouterr()
        assert "partial grid — only 1 of 2 cells cached" in captured.err
        assert len(captured.out.strip().splitlines()) == 2  # header + 1 row


class TestReport:
    """``report --strict`` exits 1 on a FAIL verdict and on any claim that
    does not hold, and its stderr names each such claim."""

    def report(self, tmp_path, *argv):
        return main(["report", "-o", str(tmp_path / "out")] + list(argv))

    def test_strict_closed_form_table_passes_without_simulating(
            self, capsys, tmp_path):
        assert self.report(tmp_path, "--strict", "table2") == 0
        err = capsys.readouterr().err
        assert ("report: table2           PASS (0/0 cells), claims 2 of 2 "
                "hold\n") in err
        assert "(1 figures: 1 PASS; claims 2 of 2 hold)" in err
        assert (tmp_path / "out" / "table2.svg").exists()
        assert not (tmp_path / "cache").exists()

    def test_strict_fails_on_a_broken_claim(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setattr(figures, "_table2_within",
                            lambda side, bound: False)
        assert self.report(tmp_path, "table2") == 0
        capsys.readouterr()
        assert self.report(tmp_path, "--strict", "table2") == 1
        err = capsys.readouterr().err
        assert "table2           PASS (0/0 cells), claims 0 of 2 hold" in err
        assert ("\n  broken: every access buffer's analytic uplink delay is "
                "within 15% of the paper's\n") in err
        assert "report --strict: table2 failed" in err

    def test_strict_fails_on_an_unevaluated_claim(self, capsys, tmp_path):
        # An empty cache leaves fig7a without cells: SKIP, and its claims
        # are unevaluated, not vacuously true.
        assert self.report(tmp_path, "--strict", "--cached-only",
                           "fig7a") == 1
        err = capsys.readouterr().err
        assert "fig7a            SKIP (0/9 cells), claims 0 of 2 hold" in err
        assert ("\n  unevaluated: long-many at 64 packets: talks MOS above "
                "3.5\n") in err
        assert "report --strict: fig7a failed" in err

    def test_strict_fails_on_a_fail_verdict(self, capsys, monkeypatch,
                                            tmp_path):
        # Doubled printed backbone delays put Table 2 50% off the paper,
        # a FAIL, while both its claims (access rows only) still hold.
        for packets, printed in paper_data.TABLE2_BACKBONE.items():
            monkeypatch.setitem(paper_data.TABLE2_BACKBONE, packets,
                                printed * 2)
        assert self.report(tmp_path, "--strict", "table2") == 1
        err = capsys.readouterr().err
        assert "table2           FAIL (0/0 cells), claims 2 of 2 hold" in err
        assert "report --strict: table2 failed" in err

    @pytest.mark.parametrize("names", [["--strict", "table2", "nosuch"],
                                       ["--strict", "fig5", "nosuch"],
                                       ["nosuch"]])
    def test_unknown_name_rejected_before_any_work(self, names, capsys,
                                                   tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            self.report(tmp_path, *names)
        assert exit_info.value.code not in (0, None)
        assert "nosuch" in str(exit_info.value.code)
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()


class TestPerf:
    @pytest.mark.parametrize("argv, message", [
        (["--profile", "nope"], "unknown sweep 'nope'"),
        (["--profile", "fig5", "--cell", "999"], "cell 999 out of range"),
        (["--profile", "fig5", "--sort", "bogus"], "invalid choice: 'bogus'"),
        (["--repetitions", "0"], "at least 1, got '0'"),
    ])
    def test_bad_arguments_exit_cleanly(self, argv, message, capsys):
        # A one-line message and a non-zero exit, never a traceback and
        # never a profiled or benchmarked cell.
        with pytest.raises(SystemExit) as exit_info:
            main(["perf"] + argv + ["--output", ""])
        code = exit_info.value.code
        if isinstance(code, str):
            assert message in code and "\n" not in code
        else:
            assert code == 2
            assert message in capsys.readouterr().err
        assert capsys.readouterr().out == ""
