"""The shared comparison machinery."""

import pytest

from repro.api import Session
from repro.experiments.comparison import Comparison, format_comparison

SPEC = dict(quota=5_000, warmup=3_000)


@pytest.fixture(scope="module")
def session():
    return Session()


def compare(session, title, mixes, schemes, metric="speedup"):
    experiment = Comparison(title, mixes, schemes, metric=metric)
    session.prewarm(experiment.cells(**SPEC))
    return experiment.render(session, **SPEC)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        Comparison("t", [(444, 445)], ["baseline"], metric="latency")


def test_matrix_and_geomean(session):
    result = compare(session, "t", [(444, 445)], ["baseline", "dsr"])
    assert result.value((444, 445), "baseline") == pytest.approx(0.0)
    geo = result.geomeans()
    assert set(geo) == {"baseline", "dsr"}


def test_rows_include_geomean_row(session):
    result = compare(session, "t", [(444, 445)], ["baseline"])
    rows = result.rows()
    assert rows[-1][0] == "geomean"
    assert rows[0][0] == "444+445"


def test_format_contains_title(session):
    result = compare(session, "My Title ({cores} cores)", [(444, 445)], ["baseline"])
    assert "My Title (2 cores)" in format_comparison(result)


@pytest.mark.parametrize("metric", ["fairness", "aml", "offchip"])
def test_all_metrics_run(session, metric):
    result = compare(session, "t", [(444, 445)], ["baseline"], metric=metric)
    assert result.metric == metric
