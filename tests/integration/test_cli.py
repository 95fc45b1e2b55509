"""The command-line interface."""

import pytest

from repro.cli import _check_workload, main
from repro.workloads import WORKLOAD_NAMES

SMALL = ["--scale", "0.00390625"]


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bfs_push" in out and "ns_decouple" in out


def test_run(capsys):
    assert main(["run", "histogram", "--mode", "ns", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "histogram/ns" in out
    assert "offloaded fraction" in out


def test_compare(capsys):
    assert main(["compare", "histogram", *SMALL]) == 0
    out = capsys.readouterr().out
    for mode in ("base", "inst", "ns", "ns_decouple"):
        assert mode in out


def test_tables(capsys):
    for number, marker in (("1", "Near-Stream"), ("2", "Compute"),
                           ("3", "Prodigy"), ("4", "fptr"),
                           ("5", "MESI")):
        assert main(["table", number]) == 0
        assert marker in capsys.readouterr().out


def test_unknown_table_fails_cleanly(capsys):
    assert main(["table", "42"]) == 2


def test_fig_1a(capsys):
    assert main(["fig", "1a", *SMALL, "--workloads", "histogram"]) == 0
    out = capsys.readouterr().out
    assert "stream fraction" in out


def test_fig_9_subset(capsys):
    assert main(["fig", "9", *SMALL, "--workloads", "histogram"]) == 0
    out = capsys.readouterr().out
    assert "histogram" in out and "geomean" in out


def test_unknown_fig_fails_cleanly(capsys):
    assert main(["fig", "99"]) == 2


@pytest.mark.parametrize("command", ["run", "compare", "compile",
                                     "profile", "faults", "trace"])
def test_bad_workload_rejected_with_suggestion(command, capsys):
    """Unknown workloads exit 2 with a did-you-mean hint, no traceback."""
    assert main([command, "bfs_psuh"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err
    assert "did you mean" in err and "bfs_push" in err


def test_bad_flag_exits_nonzero_without_traceback(capsys):
    for argv in (["profile", "memset", "--mode", "warp"],
                 ["faults", "memset", "--rates", "ten"],
                 ["trace", "memset", "--frobnicate"],
                 ["run", "memset", "--timeout", "0"],
                 ["run", "memset", "--timeout", "-3"],
                 ["run", "memset", "--timeout", "soon"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("rate", ["-5", "nan", "inf"])
def test_faults_bad_rate_is_one_line_exit_2(rate, capsys):
    """A malformed rate is a usage error, reported before any run."""
    assert main(["faults", "memset", "--rates", "0", rate, *SMALL]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "--rates" in err and "finite and non-negative" in err


def test_trace_command(tmp_path, capsys):
    import json
    out = tmp_path / "trace.json"
    assert main(["trace", "memset", "--out", str(out), *SMALL]) == 0
    stdout = capsys.readouterr().out
    assert "memset/ns" in stdout
    assert "0 violation(s)" in stdout
    assert "sanitizer.checks" in stdout
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["traceEvents"]


def test_trace_records_benchlog(tmp_path, monkeypatch):
    from repro.eval.benchlog import read_records
    log = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_LOG", str(log))
    assert main(["trace", "memset", *SMALL]) == 0
    records = [r for r in read_records(log) if r["kind"] == "trace"]
    assert records and records[-1]["violations"] == 0
    assert records[-1]["events"] > 0 and records[-1]["checks"] > 0


def test_compile(capsys):
    assert main(["compile", "sssp", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "streams:" in out
    assert "dist_ind_at" in out
    assert "micro-op ledger" in out


def test_report_subset(capsys):
    assert main(["report", *SMALL, "--workloads", "histogram",
                 "bfs_push"]) == 0
    out = capsys.readouterr().out
    assert "Headline comparison" in out
    assert "paper" in out and "measured" in out


def test_profile(capsys):
    assert main(["profile", "memset", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "stage" in out and "seconds" in out
    assert "phase.sample_caches" in out
    assert "total (wall)" in out


def test_run_json(capsys):
    import json
    assert main(["run", "memset", "--mode", "ns", "--json", *SMALL]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "memset"
    assert payload["cycles"] > 0


def test_profile_mesh(capsys):
    assert main(["profile", "memset", "--mesh", "4", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "total (wall)" in out


@pytest.mark.parametrize("command", ["profile", "trace"])
@pytest.mark.parametrize("mesh", ["0", "-3", "65"])
def test_bad_mesh_rejected_with_hint(command, mesh, capsys):
    """Degenerate --mesh exits 2 with the preset hint, no traceback."""
    assert main([command, "memset", "--mesh", mesh, *SMALL]) == 2
    err = capsys.readouterr().err
    assert "mesh_width" in err and "preset sizes" in err
    assert "Traceback" not in err


#: The commands that take --scale, each with a valid rest of its argv.
SCALED_COMMANDS = {
    "run": ["run", "histogram"],
    "compare": ["compare", "histogram"],
    "sweep": ["sweep", "histogram"],
    "compile": ["compile", "histogram"],
    "fig": ["fig", "9", "--workloads", "histogram"],
    "report": ["report", "--workloads", "histogram"],
    "profile": ["profile", "histogram"],
    "trace": ["trace", "histogram"],
    "faults": ["faults", "histogram"],
}


@pytest.mark.parametrize("command", sorted(SCALED_COMMANDS))
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1.5"])
def test_bad_scale_rejected_before_any_run(command, scale, capsys):
    """--scale outside (0, 1] is a usage error: exit 2 with one message
    naming the flag, no traceback, no simulation."""
    with pytest.raises(SystemExit) as excinfo:
        main([*SCALED_COMMANDS[command], "--scale", scale])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--scale" in err and "(0, 1]" in err
    assert "Traceback" not in err


#: Commands that sweep, each with a valid rest of its argv.
SWEEPING_COMMANDS = {
    "run": ["run", "histogram"],
    "compare": ["compare", "histogram"],
    "fig9": ["fig", "9", "--workloads", "histogram"],
    "fig16": ["fig", "16"],
    "report": ["report", "--workloads", "histogram"],
}


@pytest.mark.parametrize("command", sorted(SWEEPING_COMMANDS))
def test_failed_point_prints_failure_table_and_exits_1(command, capsys,
                                                      monkeypatch):
    import repro.eval.experiments as experiments
    import repro.sim.run as run_mod

    def explode(*args, **kwargs):
        raise RuntimeError("injected CLI failure")

    monkeypatch.setattr(run_mod, "run_workload", explode)
    # A figure memoized by an earlier test would never sweep.
    monkeypatch.setattr(experiments, "_SWEEP_CACHE", {})
    assert main([*SWEEPING_COMMANDS[command], *SMALL]) == 1
    err = capsys.readouterr().err
    assert "failed point(s)" in err and "injected CLI failure" in err
    assert "Traceback" not in err


#: Flags a subcommand used to accept without its handler reading them.
IGNORED_FLAGS = {
    "run": ["--jobs"],
    "compile": ["--jobs", "--timeout", "--cache", "--cache-dir"],
    "report": ["--timeout"],
    "fig": ["--timeout"],
    "profile": ["--jobs", "--timeout", "--cache", "--cache-dir"],
    "trace": ["--jobs", "--timeout", "--cache", "--cache-dir"],
    "faults": ["--jobs", "--timeout", "--cache", "--cache-dir"],
}
FLAG_VALUES = {"--jobs": ["2"], "--timeout": ["5"], "--cache": [],
               "--cache-dir": ["unused_dir"]}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED_FLAGS.items()
    for flag in flags])
def test_flags_the_handler_never_reads_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*SCALED_COMMANDS[command], flag, *FLAG_VALUES[flag]])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_command_with_journal_and_resume(tmp_path, capsys):
    import json
    journal = tmp_path / "j.jsonl"
    argv = ["sweep", "histogram", "memset", "--journal", str(journal),
            *SMALL]
    assert main([*argv, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert len(first["results"]) == 4  # 2 workloads x (base, ns)
    assert first["failures"] == []
    # resume from a complete journal: pure replay, identical JSON
    assert main([*argv, "--resume", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    # and the human-readable form reports the resume
    assert main([*argv, "--resume"]) == 0
    out = capsys.readouterr().out
    assert "4 point(s) resumed" in out and "speedup" in out


def test_sweep_failures_print_summary_table_and_exit_1(tmp_path, capsys,
                                                       monkeypatch):
    import repro.sim.run as run_mod

    def explode(*args, **kwargs):
        raise RuntimeError("injected CLI failure")

    monkeypatch.setattr(run_mod, "run_workload", explode)
    code = main(["sweep", "histogram", "--modes", "ns",
                 "--journal", str(tmp_path / "j.jsonl"), *SMALL])
    assert code == 1
    captured = capsys.readouterr()
    assert "failed point(s)" in captured.err
    assert "injected CLI failure" in captured.err
    assert "RuntimeError" in captured.err


def test_sweep_resume_requires_journal(capsys):
    assert main(["sweep", "histogram", "--resume", *SMALL]) == 2
    assert "--resume requires --journal" in capsys.readouterr().err


def test_sweep_rejects_bad_workload(capsys):
    assert main(["sweep", "histogram", "bfs_psuh", *SMALL]) == 2
    assert "did you mean" in capsys.readouterr().err


def test_cache_clear_quarantine_only(tmp_path, capsys):
    from repro.eval.result_cache import ResultCache
    cache = ResultCache(tmp_path)
    cache.store("ab" + "0" * 62, "live")
    cache._path("cd" + "1" * 62).parent.mkdir(parents=True, exist_ok=True)
    cache._path("cd" + "1" * 62).write_bytes(b"garbage")
    assert cache.lookup("cd" + "1" * 62) is None  # quarantines it

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "quarantine: 1" in out and "total size:" in out

    assert main(["cache", "clear", "--quarantine",
                 "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1 quarantined" in capsys.readouterr().out
    # live entries survived; only the quarantine was dropped
    assert ResultCache(tmp_path).lookup("ab" + "0" * 62) == "live"
    assert not list(ResultCache(tmp_path).quarantine_root.glob("*.pkl"))


@pytest.mark.parametrize("name", ["memset", "vecsum", "condsum", "saxpy"])
def test_names_outside_the_table_fall_back_to_the_registry(name):
    """The micro-kernels are not in the static Table VI name table; the
    registry still validates them."""
    assert name not in WORKLOAD_NAMES
    assert _check_workload(name)
