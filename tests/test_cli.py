"""CLI surface."""

import json
from types import SimpleNamespace

import pytest

from repro import cli
from repro.api.session import Session
from repro.cli import build_parser, main
from repro.experiments import fig1_ways, fig2_sets, registry
from repro.experiments.registry import EXPERIMENTS


def test_schemes_command(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "avgcc" in out and "dsr" in out


def test_mixes_command(capsys):
    assert main(["mixes"]) == 0
    out = capsys.readouterr().out
    assert "429+401" in out and "445+401+444+456" in out


def test_run_command(capsys):
    code = main(["run", "--mix", "444+445", "--scheme", "baseline",
                 "--quota", "4000", "--warmup", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted speedup improvement" in out
    assert "core0" in out


def test_experiment_tab5(capsys):
    assert main(["experiment", "tab5"]) == 0
    assert "Table 5" in capsys.readouterr().out


#: Experiments that simulate through a Session (every one but the
#: analytic tab5): each must get the one session carrying every
#: orchestration flag.
SESSION_EXPERIMENTS = (
    "fig1", "fig2", "fig4", "fig5", "tab1", "fig7", "fig8", "fig9", "fig10",
    "fig11", "tab4", "sec61", "sec62", "sec63mt", "sec63pf", "sec64", "sec7",
)


def test_every_simulating_experiment_gets_a_session():
    simulating = {
        name for name, (experiment, params) in EXPERIMENTS.items()
        if experiment.cells(**params)
    }
    assert set(SESSION_EXPERIMENTS) == simulating == set(EXPERIMENTS) - {"tab5"}


@pytest.mark.parametrize("name", SESSION_EXPERIMENTS)
def test_experiment_session_carries_every_orchestration_flag(name, tmp_path, monkeypatch):
    experiment, params = EXPERIMENTS[name]
    prewarmed, rendered = [], []
    monkeypatch.setattr(
        Session, "prewarm", lambda self, specs: prewarmed.append((self, list(specs)))
    )
    stub = SimpleNamespace(
        cells=experiment.cells,
        render=lambda session, **_params: rendered.append(session),
        format_result=lambda _result: "",
    )
    monkeypatch.setitem(EXPERIMENTS, name, (stub, params))
    paths = {flag: str(tmp_path / flag) for flag in ("cells", "report.json", "run.prom")}
    assert main([
        "experiment", name, "--jobs", "3", "--cache-dir", paths["cells"],
        "--timeout", "7.5", "--retries", "4", "--report", paths["report.json"],
        "--metrics", paths["run.prom"],
    ]) == 0
    # One batch of the declared cells, then a render from the same session.
    ((session, specs),) = prewarmed
    assert specs == experiment.cells(**params)
    assert rendered == [session]
    assert session._knobs == dict(
        jobs=3,
        cache_dir=paths["cells"],
        timeout=7.5,
        retries=4,
        report_path=paths["report.json"],
        metrics_path=paths["run.prom"],
    )


def test_experiment_all_is_one_batch_printing_every_table(tmp_path, monkeypatch, capsys):
    params = dict(codes=[473], ways_list=[6, 8], quota=3_000, warmup=1_000)
    small = {
        "fig1": (fig1_ways, dict(params, include_full_assoc=False)),
        "fig2": (fig2_sets, params),
        "tab5": EXPERIMENTS["tab5"],
    }
    monkeypatch.setattr(registry, "EXPERIMENTS", small)
    monkeypatch.setattr(cli, "EXPERIMENTS", small)
    tables = []
    for name in small:
        assert main(["experiment", name]) == 0
        tables.append(capsys.readouterr().out)
    cells, report = tmp_path / "cells", tmp_path / "report.json"
    for simulated in (2, 0):  # Figure 2's two cells are Figure 1's.
        assert main(["experiment", "all", "--cache-dir", str(cells),
                     "--report", str(report)]) == 0
        assert capsys.readouterr().out == "".join(tables)
        counts = json.loads(report.read_text())["counts"]
        assert (counts["total"], counts["simulated"]) == (2, simulated)


def test_bad_mix_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--mix", "abc"])


@pytest.mark.parametrize("text", ["", "   ", "471+", "+444", "471++444"])
def test_empty_mix_components_get_usage_message(text):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--mix", text])
    assert "expected '+'-separated SPEC codes like 471+444" in str(excinfo.value)


def test_non_numeric_mix_names_the_bad_part():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--mix", "abc+444"])
    message = str(excinfo.value)
    assert "'abc' is not a number" in message
    assert "471+444" in message  # shows the expected shape


def test_unknown_benchmark_code_lists_available_codes():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--mix", "471+999"])
    message = str(excinfo.value)
    assert "unknown benchmark code(s) 999" in message
    # The full SPEC roster is offered, not just a refusal.
    assert "471" in message and "444" in message and "482" in message


def test_bad_mix_via_main_has_no_traceback(capsys):
    with pytest.raises(SystemExit):
        main(["stats", "--mix", "471+oops"])
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "fig99"])
    message = str(excinfo.value)
    assert "unknown experiment 'fig99'" in message
    assert "fig8" in message and "tab5" in message  # lists what exists


def test_unknown_trace_event_kind_lists_known_kinds():
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--mix", "471+444", "--events", "spill,warp"])
    message = str(excinfo.value)
    assert "unknown kind(s) warp" in message
    assert "regrain" in message and "qos_throttle" in message


def test_unknown_scheme_exits_with_available_list(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--mix", "471+444", "--scheme", "typo"])
    message = str(excinfo.value)
    assert "unknown scheme 'typo'" in message
    assert "avgcc" in message and "ascc/<sets-per-counter>" in message
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--quota", "-5"), ("--quota", "0"), ("--warmup", "-1"), ("--seed", "-3"),
     ("--jobs", "0"), ("--retries", "-1"), ("--timeout", "-2")],
)
def test_negative_numeric_flags_rejected(flag, value, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--mix", "471+444", flag, value])
    err = capsys.readouterr().err
    assert flag in err and ("negative" in err or "positive" in err)


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--mix", "471+444"])
    assert args.scheme == "avgcc"
    assert args.timeout is None and args.retries == 2 and args.report is None


def test_supervision_flags_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["experiment", "fig8", "--jobs", "4", "--timeout", "30",
         "--retries", "1", "--report", "/tmp/r.json"]
    )
    assert args.timeout == 30.0 and args.retries == 1
    assert args.report == "/tmp/r.json"


def test_run_writes_report_when_asked(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["run", "--mix", "444", "--scheme", "baseline",
                 "--quota", "2000", "--warmup", "1000",
                 "--cache-dir", str(tmp_path / "cells"), "--report", str(report)])
    assert code == 0
    import json

    data = json.loads(report.read_text())
    assert data["counts"]["simulated"] == data["counts"]["total"]
    assert data["interrupted"] is False


def test_calibrate_runs_every_code_in_one_batch(tmp_path, capsys):
    import json

    report = tmp_path / "report.json"
    code = main(["calibrate", "--quota", "3000", "--warmup", "1000",
                 "--jobs", "2", "--report", str(report)])
    assert code == 0
    assert "Benchmark calibration vs Table 3" in capsys.readouterr().out
    counts = json.loads(report.read_text())["counts"]
    assert counts["total"] == 13 and counts["simulated"] == 13


def test_stats_command_prints_interval_series(tmp_path, capsys):
    dump = tmp_path / "series.json"
    code = main(["stats", "--mix", "471+444", "--scheme", "avgcc",
                 "--quota", "4000", "--warmup", "1000",
                 "--interval", "1000", "--json", str(dump)])
    assert code == 0
    out = capsys.readouterr().out
    assert "core0 (471.omnetpp)" in out and "core1 (444.namd)" in out
    assert "mpki" in out and "r/n/s" in out
    assert "final set roles:" in out
    import json

    payload = json.loads(dump.read_text())
    assert payload["interval"] == 1000 and payload["samples"]


def test_trace_command_emits_jsonl(tmp_path, capsys):
    out_path = tmp_path / "events.jsonl"
    code = main(["trace", "--mix", "471+444", "--scheme", "ascc",
                 "--quota", "4000", "--warmup", "1000",
                 "--events", "spill,swap", "--output", str(out_path)])
    assert code == 0
    import json

    lines = out_path.read_text().splitlines()
    assert lines
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds <= {"spill", "swap"}
    # The summary goes to stderr, keeping stdout/file purely JSONL.
    assert "emitted" in capsys.readouterr().err


def test_chaos_env_knob_injects_and_recovers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash=1,seed=3")
    report = tmp_path / "report.json"
    code = main(["run", "--mix", "444", "--scheme", "baseline",
                 "--quota", "2000", "--warmup", "1000",
                 "--retries", "2", "--report", str(report)])
    assert code == 0
    import json

    data = json.loads(report.read_text())
    assert data["retried"] == 1  # the injected crash was retried
    assert data["counts"]["failed"] == 0


def test_warmup_zero_is_accepted_boundary():
    """Regression: --warmup 0 is legal (disables warmup), not an error."""
    code = main(["run", "--mix", "444", "--scheme", "baseline",
                 "--quota", "2000", "--warmup", "0"])
    assert code == 0


def test_quota_smaller_than_warmup_is_accepted():
    """Regression: a measured window shorter than warmup must run."""
    code = main(["run", "--mix", "444", "--scheme", "baseline",
                 "--quota", "500", "--warmup", "2000"])
    assert code == 0


def test_batch_command_dedups_and_reports(tmp_path, capsys):
    import json

    specs = [
        {"mix": "471+444", "quota": 1500, "warmup": 500},
        {"mix": "471+444", "scheme": "baseline", "quota": 1500, "warmup": 500},
        {"mix": "471+444", "quota": 1500, "warmup": 500},
        {"mix": "444+445", "quota": 1500, "warmup": 500},
        {"mix": "471+444", "scheme": "baseline", "quota": 1500, "warmup": 500},
        {"mix": "444+445", "scheme": "dsr", "quota": 1500, "warmup": 500},
    ]
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(specs))
    code = main(["batch", str(path), "--cache-dir", str(tmp_path / "cells")])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.count("digest") == 6
    assert "4 simulated, 2 deduplicated" in captured.err
    # Re-running the same batch resolves everything from the disk cache.
    code = main(["batch", str(path), "--cache-dir", str(tmp_path / "cells")])
    assert code == 0
    assert "0 simulated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["batch", "serve"])
@pytest.mark.parametrize("flag", ["--max-queue", "--max-bytes"])
def test_retired_admission_flags_are_usage_errors(command, flag, tmp_path, capsys):
    """5.0.0 removed admission control: its flags are unknown arguments."""
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([{"mix": "444", "quota": 1500, "warmup": 500}]))
    argv = [command, str(path)] if command == "batch" else [command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, "2"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["batch", "serve"])
def test_retired_hang_grace_is_a_usage_error(command, tmp_path, capsys):
    """6.0.0 folded the hang grace into --timeout: the flag is unknown."""
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([{"mix": "444", "quota": 1500, "warmup": 500}]))
    argv = [command, str(path)] if command == "batch" else [command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--hang-grace", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --hang-grace 2" in capsys.readouterr().err


def test_batch_command_accepts_jsonl_and_priorities(tmp_path, capsys):
    import json

    path = tmp_path / "specs.jsonl"
    path.write_text(
        "# a comment\n"
        + json.dumps({"spec": {"mix": "444", "scheme": "baseline",
                               "quota": 1500, "warmup": 500}, "priority": 2})
        + "\n"
        + json.dumps({"mix": "445", "scheme": "baseline",
                      "quota": 1500, "warmup": 500})
        + "\n"
    )
    assert main(["batch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "444/baseline" in out and "445/baseline" in out


def test_batch_command_rejects_bad_spec_with_index(tmp_path, capsys):
    import json

    path = tmp_path / "specs.json"
    path.write_text(json.dumps([{"mix": "471+444"}, {"mix": "471", "quota": 0}]))
    with pytest.raises(SystemExit) as excinfo:
        main(["batch", str(path)])
    assert "spec #2" in str(excinfo.value)
    assert "positive" in capsys.readouterr().err


def test_batch_command_missing_file_is_actionable(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["batch", "/nonexistent/specs.json"])
    assert "cannot read" in str(excinfo.value)
    assert "Traceback" not in capsys.readouterr().err


def test_serve_command_jsonl_round_trip(tmp_path, capsys, monkeypatch):
    import io
    import json

    request = json.dumps({"mix": "444", "scheme": "baseline",
                          "quota": 1500, "warmup": 500})
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    code = main(["serve", "--report", str(tmp_path / "report.json")])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1 and rows[0]["ok"] and rows[0]["workload"] == "444"
    assert json.loads((tmp_path / "report.json").read_text())["counts"]["simulated"] == 1
