"""Table 5: exact storage cost (pure arithmetic, must match the paper)."""

import pytest
from benchmarks.conftest import regenerate


def test_tab5_cost(benchmark, emit):
    # Arithmetic only: no session, so this bench never waits on the batch.
    rows = regenerate(benchmark, None, emit, "tab5", "tab5_cost")
    items = {r["item"]: r for r in rows}
    assert items["Total (kB)"]["baseline"] == pytest.approx(1144.0)
    assert 1146.0 < items["Total (kB)"]["avgcc"] < 1147.0
    assert items["Additional storage (B)"]["avgcc"] == 2564
