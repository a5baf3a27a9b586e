"""The one registry of the paper's experiments.

:data:`EXPERIMENTS` maps each name ``repro experiment`` takes to its
experiment and the params the archived ``results/`` tables were made
with; the CLI and the benchmark harness both read it.
:func:`declared_cells` is the union a single batch simulates for any set
of them, the whole paper included.  (A module of its own, so importing
:mod:`repro` does not import every experiment.)
"""

from repro.experiments import (
    fig1_ways,
    fig2_sets,
    fig4_breakdown,
    fig5_neutral,
    fig7_twocore,
    fig8_fourcore,
    fig9_fairness,
    fig10_latency,
    fig11_qos,
    sec61_shared,
    sec62_energy,
    sec63_multithread,
    sec63_prefetch,
    sec64_behavior,
    sec7_limited,
    tab1_granularity,
    tab4_sizes,
    tab5_cost,
)
from repro.workloads.mixes import MIX2, MIX4

#: Experiment name -> (experiment, declared params), in report order.
EXPERIMENTS: dict[str, tuple[object, dict]] = {
    "fig1": (fig1_ways, {}),
    "fig2": (fig2_sets, {}),
    "fig4": (fig4_breakdown.COMPARISON, {}),
    "fig5": (fig5_neutral.COMPARISON, {}),
    "tab1": (tab1_granularity.COMPARISON, {}),
    "fig7": (fig7_twocore.COMPARISON, {}),
    "fig8": (fig8_fourcore.COMPARISON, {}),
    "fig9": (fig9_fairness.COMPARISON, {}),
    "fig10": (fig10_latency, {}),
    "tab4": (
        tab4_sizes,
        dict(mixes4=MIX4[:3], mixes2=MIX2[:5], quota=100_000, warmup=100_000),
    ),
    "tab5": (tab5_cost, {}),
    "fig11": (fig11_qos.COMPARISON, {}),
    "sec61": (sec61_shared.COMPARISON, {}),
    "sec62": (sec62_energy, {}),
    "sec63mt": (sec63_multithread, {}),
    "sec63pf": (sec63_prefetch.COMPARISON, {}),
    "sec64": (sec64_behavior, {}),
    "sec7": (sec7_limited, {}),
}


def declared_cells(names=None) -> list:
    """The distinct cells of the named experiments (default: all), in
    first-seen order."""
    return list(dict.fromkeys(
        cell
        for name in (EXPERIMENTS if names is None else names)
        for cell in EXPERIMENTS[name][0].cells(**EXPERIMENTS[name][1])
    ))
