"""The ``repro verify`` subcommand and the ``--sanitize`` flag plumbing."""

import os

import pytest

from repro.cli import _spec_from_args, build_parser, main
from repro.verify import GridCell, GridReport
from repro.verify.sanitizer import consume_armed_corruption


@pytest.fixture(autouse=True)
def _sanitize_env_guard(monkeypatch):
    """main() writes REPRO_SANITIZE into os.environ; keep tests hermetic."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    consume_armed_corruption()
    yield
    os.environ.pop("REPRO_SANITIZE", None)
    consume_armed_corruption()


def test_verify_runs_sanitized_and_prints_digest(capsys):
    assert main(["verify", "--mix", "401", "--quota", "800", "--warmup", "200"]) == 0
    out = capsys.readouterr().out
    assert "sanitized run clean" in out
    assert "digest" in out


def test_verify_rejects_bad_mix(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--mix", "999", "--quota", "800"])
    assert "--mix" in capsys.readouterr().err


def test_verify_grid_smoke(capsys):
    assert (
        main(
            [
                "verify",
                "--mix",
                "401",
                "--quota",
                "600",
                "--warmup",
                "150",
                "--grid",
                "--jobs",
                "2",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "IDENTICAL" in captured.out
    assert "8 cells" in captured.out
    # The progress stream named every cell as it finished.
    assert "slot/traces/serial" in captured.err
    assert "dict/gen/batch" in captured.err


def test_verify_grid_help_names_the_real_grid():
    from repro.verify.differential import BACKENDS, PATHS, TRACE_MODES

    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    grid = next(action for action in verify._actions if "--grid" in action.option_strings)
    cells = len(BACKENDS) * len(TRACE_MODES) * len(PATHS)
    assert f"{{{','.join(PATHS)}}} ({cells} cells)" in grid.help


def test_verify_grid_exits_nonzero_on_divergence(monkeypatch, capsys):
    import repro.verify as verify

    def fake_run_grid(spec, jobs=2, progress=None):
        return GridReport(
            spec=spec,
            cells=[
                GridCell("slot", True, "serial", "a" * 64),
                GridCell("dict", True, "serial", "b" * 64),
            ],
        )

    monkeypatch.setattr(verify, "run_grid", fake_run_grid)
    assert main(["verify", "--mix", "401", "--grid"]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_sanitize_flag_parses_on_every_simulating_command():
    parser = build_parser()
    for argv in (
        ["run", "--mix", "401", "--sanitize"],
        ["experiment", "fig7", "--sanitize"],
        ["batch", "specs.json", "--sanitize"],
        ["serve", "--sanitize"],
        ["stats", "--mix", "401", "--sanitize"],
        ["trace", "--mix", "401", "--sanitize"],
    ):
        assert parser.parse_args(argv).sanitize is True
    # Default is None (unset), not False — env still decides.
    assert parser.parse_args(["run", "--mix", "401"]).sanitize is None


def test_sanitize_flag_threads_into_the_spec():
    args = build_parser().parse_args(["run", "--mix", "401", "--sanitize"])
    assert _spec_from_args(args).sanitize is True
    args = build_parser().parse_args(["run", "--mix", "401"])
    assert _spec_from_args(args).sanitize is None


def test_sanitize_flag_exports_environment(capsys):
    assert "REPRO_SANITIZE" not in os.environ
    assert (
        main(
            [
                "run",
                "--mix",
                "401",
                "--quota",
                "600",
                "--warmup",
                "100",
                "--sanitize",
            ]
        )
        == 0
    )
    assert os.environ["REPRO_SANITIZE"] == "1"
    capsys.readouterr()
