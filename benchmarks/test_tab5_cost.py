"""Table 5: exact storage cost (pure arithmetic, must match the paper)."""

import pytest
from benchmarks.conftest import run_once

from repro.experiments import tab5_cost


def test_tab5_cost(benchmark, emit):
    rows = run_once(benchmark, tab5_cost.run)
    emit("tab5_cost", tab5_cost.format_result(rows))
    items = {r["item"]: r for r in rows}
    assert items["Total (kB)"]["baseline"] == pytest.approx(1144.0)
    assert 1146.0 < items["Total (kB)"]["avgcc"] < 1147.0
    assert items["Additional storage (B)"]["avgcc"] == 2564
