"""Section 6.3: multithreaded sensitivity (512 kB LLCs, 4 threads).

Shared-data kernels give sets a more uniform demand across caches and let
spilled lines benefit the receiver too (it may need the line soon).  The
paper reports ASCC +5% and AVGCC +6% execution-time reduction over the
baseline; improvement here is measured the same way (weighted speedup of
the threads against the baseline run, stand-alone-normalised per thread).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.api.spec import RunSpec
from repro.metrics.speedup import geometric_mean, improvement
from repro.workloads.multithread import KERNELS

KB = 1024
SCHEMES = ["dsr", "ecc", "ascc", "avgcc"]
#: The paper reduces the LLC to 512 kB for these runs.
MT_L2_PAPER_BYTES = 512 * KB
KERNEL_NAMES = sorted(KERNELS)


@dataclass(frozen=True)
class MultithreadResult:
    """Throughput improvements per (kernel, scheme)."""

    schemes: tuple[str, ...]
    kernels: tuple[str, ...]
    improvements: dict[tuple[str, str], float]  # (kernel, scheme)

    def geomeans(self) -> dict[str, float]:
        return {
            s: geometric_mean([self.improvements[(k, s)] for k in self.kernels])
            for s in self.schemes
        }

    def rows(self) -> list[list[object]]:
        rows = [
            [k] + [f"{100 * self.improvements[(k, s)]:+.1f}%" for s in self.schemes]
            for k in self.kernels
        ]
        geo = self.geomeans()
        rows.append(["geomean"] + [f"{100 * geo[s]:+.1f}%" for s in self.schemes])
        return rows


def cells(
    kernels=KERNEL_NAMES,
    schemes=SCHEMES,
    num_threads: int = 4,
    quota: int = 120_000,
    warmup: int = 120_000,
    seed: int = 5,
    **spec,
) -> list[RunSpec]:
    """Every kernel under every scheme; a session adds the baselines."""
    return [
        RunSpec(
            kernel=(kernel, num_threads), scheme=scheme, quota=quota, warmup=warmup,
            seed=seed, l2_paper_bytes=MT_L2_PAPER_BYTES, **spec,
        )
        for kernel in kernels
        for scheme in schemes
    ]


def render(session, kernels=KERNEL_NAMES, schemes=SCHEMES, **params) -> MultithreadResult:
    """Each cell's throughput improvement over its kernel's baseline."""
    improvements = {}
    for cell in cells(kernels, schemes, **params):
        outcome = session.outcome(cell)
        improvements[(cell.kernel[0], cell.scheme)] = improvement(
            sum(c.ipc for c in outcome.result.cores),
            sum(c.ipc for c in outcome.baseline.cores),
        )
    return MultithreadResult(
        schemes=tuple(schemes), kernels=tuple(kernels), improvements=improvements
    )


def format_result(result: MultithreadResult) -> str:
    """Render the multithreaded-sensitivity table."""
    return format_table(
        ["kernel"] + list(result.schemes),
        result.rows(),
        title="Section 6.3: multithreaded kernels, throughput improvement (512kB LLCs)",
    )
