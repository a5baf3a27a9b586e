"""Prometheus exposition escaping: label values and HELP text.

Regression tests for the exporter hardening: a scheme or mix name
containing a backslash, quote or newline must render as a parseable
scrape page, not a torn one.  Covers both halves of the one exporter
(service stats and run report) plus the cluster gauges.
"""

from repro.execution.report import RunReport
from repro.obs.metrics import escape_help, escape_label_value, prometheus_text
from repro.service.scheduler import ServiceStats


def stats(**overrides) -> ServiceStats:
    base = dict(
        submitted=0,
        dedup_hits=0,
        cache_hits=0,
        executed=0,
        failed=0,
        cancelled=0,
        queue_depth=0,
        inflight=0,
    )
    base.update(overrides)
    return ServiceStats(**base)


def test_escape_label_value_handles_all_three_specials():
    assert escape_label_value("plain") == "plain"
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("one\ntwo") == "one\\ntwo"


def test_escape_label_value_backslash_escapes_first():
    # Escaping the quote introduces a backslash; if backslash were
    # escaped second, the quote's escape would itself get mangled.
    assert escape_label_value('\\"') == '\\\\\\"'
    # And an input that already looks escaped stays unambiguous.
    assert escape_label_value("\\n") == "\\\\n"


def test_escape_help_escapes_backslash_and_newline_only():
    assert escape_help("plain help.") == "plain help."
    assert escape_help("line\nbreak") == "line\\nbreak"
    assert escape_help("back\\slash") == "back\\\\slash"
    # Quotes are legal in HELP text, unlike in label values.
    assert escape_help('say "hi"') == 'say "hi"'


def test_report_exporter_escapes_hostile_scheme_labels():
    report = RunReport()
    cell = ((471, 444), 'we"ird\\sch\neme')
    report.record(cell).duration = 1.25
    report.finalize()
    text = prometheus_text(stats(), report, per_cell=True)
    sample = next(
        line for line in text.splitlines() if line.startswith("repro_cell_seconds{")
    )
    # Quote and backslash escaped, the newline gone: one parseable line.
    hostile = 'we\\"ird\\\\sch\\neme'
    assert sample == (
        f'repro_cell_seconds{{cell="471+444/{hostile}",mix="471+444",'
        f'scheme="{hostile}"}} 1.25'
    )


def test_service_exporter_escapes_hostile_latency_labels():
    snapshot = stats(
        latency={
            'bad"scheme\n': {
                "p50": 0.1,
                "p90": 0.2,
                "p99": 0.3,
                "count": 4,
                "sum": 0.8,
                "max": 0.3,
            }
        }
    )
    text = prometheus_text(snapshot, RunReport())
    assert 'scheme="bad\\"scheme\\n"' in text
    assert "\n\n" not in text  # no sample line torn by a raw newline


def test_service_exporter_renders_cluster_gauges():
    text = prometheus_text(
        stats(executor="cluster", workers_connected=3, leases_active=5, redispatches=2),
        RunReport(),
    )
    assert "repro_cluster_workers_connected 3" in text
    assert "repro_cluster_leases_active 5" in text
    assert "repro_cluster_redispatches_total 2" in text


def test_local_stats_render_zero_cluster_gauges():
    text = prometheus_text(stats(), RunReport())
    assert "repro_cluster_workers_connected 0" in text
    assert "repro_cluster_redispatches_total 0" in text
