"""Ablations of this reproduction's own mechanism decisions (DESIGN.md S6).

Compares ASCC's two remote-service models on donor+taker mixes: the
Section 3.2 swap (migrate the line home, swap the victim into the freed
slot) versus serve-in-place (`ascc-noswap`, the model the swap-less prior
schemes use).  Empirically the two trade off: swap concentrates the hot
rows locally at the cost of migration churn; serve-in-place pays the
remote latency forever but never disturbs either cache.  The ablation
records the measured difference rather than presuming a winner.
"""

from benchmarks.conftest import SWAP_ABLATION, run_once


def test_swap_ablation(benchmark, session, emit):
    result = run_once(benchmark, lambda: SWAP_ABLATION.render(session))
    emit("ablation_swap", SWAP_ABLATION.format_result(result))
    geo = result.geomeans()
    # Both service models must deliver substantial cooperative gains and
    # clearly beat whole-cache DSR on these donor+taker mixes; which of
    # the two leads is workload-dependent (see DESIGN.md Section 6).
    assert geo["ascc"] > 0.05
    assert geo["ascc-noswap"] > 0.05
    assert min(geo["ascc"], geo["ascc-noswap"]) > geo["dsr"] - 0.02
