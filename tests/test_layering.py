"""Package layering: the service tiers never import the figure package.

``repro.service``, ``repro.cluster`` and ``repro.obs`` run cells through
the neutral :mod:`repro.execution` core; :mod:`repro.experiments` holds
figure code only.  The one allowed crossing is the scheduler's
``ResultCache`` import, which stays at its module path while the layer
benchmark wraps it there.

``repro.obs`` sits below the service tiers: cluster workers import
:mod:`repro.obs.spans` to build span records, so the telemetry package
imports nothing from ``repro.service``, ``repro.cluster`` or
``repro.api``.

:mod:`repro.execution` is the core both service tiers stand on, so it
imports nothing from ``repro.service`` or ``repro.cluster``.

Figures and their analysis simulate through a session, never by driving
the engine themselves: nothing under ``repro.experiments`` or
``repro.analysis`` imports :mod:`repro.sim.engine`.  Experiments do not
run their own batches either: they declare cells and render from a
session someone else prewarmed.

Each process role imports only the layers it runs, checked in a fresh
interpreter: a cluster lane runs the one worker entry point,
:func:`repro.execution.simulate._run_spec`, on the execution core and
the wire protocol alone; an untimed in-process batch loads no pool
machinery; a cluster coordinator loads no figure code.  None of them
maps OpenSSL (``_hashlib``) unless it computes a digest.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SERVICE_TIERS = ("service", "cluster", "obs")
ALLOWED = {("repro/service/scheduler.py", "repro.experiments.parallel", ("ResultCache",))}
OBS_FORBIDDEN = ("repro.service", "repro.cluster", "repro.api")
EXECUTION_FORBIDDEN = ("repro.service", "repro.cluster")
FIGURE_TIERS = ("experiments", "analysis")


def imports_of(source: str, packages: tuple) -> list[tuple]:
    """``(module, names)`` of every import of one of ``packages`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names: tuple = ()
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = tuple(alias.name for alias in node.names)
            modules = [node.module]
            if node.module == "repro":
                modules = [f"repro.{name}" for name in names]
        else:
            continue
        for module in modules:
            if any(module == pkg or module.startswith(pkg + ".") for pkg in packages):
                found.append((module, names))
    return found


def test_service_tiers_do_not_import_the_figure_package():
    crossings = {
        (str(path.relative_to(SRC)), module, names)
        for tier in SERVICE_TIERS
        for path in sorted((SRC / "repro" / tier).rglob("*.py"))
        for module, names in imports_of(path.read_text(), ("repro.experiments",))
    }
    assert crossings <= ALLOWED, sorted(crossings - ALLOWED)


def test_obs_imports_no_service_tier():
    crossings = [
        (str(path.relative_to(SRC)), module)
        for path in sorted((SRC / "repro" / "obs").rglob("*.py"))
        for module, _names in imports_of(path.read_text(), OBS_FORBIDDEN)
    ]
    assert crossings == []


def test_execution_core_imports_no_service_tier():
    crossings = [
        (str(path.relative_to(SRC)), module)
        for path in sorted((SRC / "repro" / "execution").rglob("*.py"))
        for module, _names in imports_of(path.read_text(), EXECUTION_FORBIDDEN)
    ]
    assert crossings == []


def test_figures_do_not_drive_the_engine():
    crossings = [
        (str(path.relative_to(SRC)), module)
        for tier in FIGURE_TIERS
        for path in sorted((SRC / "repro" / tier).rglob("*.py"))
        for module, names in imports_of(path.read_text(), ("repro.sim",))
        if module == "repro.sim.engine" or (module == "repro.sim" and "engine" in names)
    ]
    assert crossings == []


def test_experiments_declare_cells_and_never_simulate_themselves():
    """Experiments hand their cells to whoever runs the batch: nothing
    under ``repro.experiments`` but the runner imports a ``Session``,
    builds a session or runner, or calls ``prewarm``/``run_many``."""
    found = []
    for path in sorted((SRC / "repro" / "experiments").rglob("*.py")):
        if path.name == "runner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "Session" for alias in node.names
            ):
                found.append((path.name, "imports Session"))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in ("Session", "ExperimentRunner", "prewarm", "run_many"):
                    found.append((path.name, f"calls {name}"))
    assert found == []


#: Environment switches that would load optional layers on purpose.
SWITCHES = ("REPRO_SANITIZE", "REPRO_FAULT_PLAN", "REPRO_TRACE_CACHE", "REPRO_CACHE_BACKEND")


def loaded_after(code: str, modules: tuple) -> list:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    code += f"\nimport sys\nprint(sorted(set({modules!r}) & set(sys.modules)))"
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


CELL = "RunSpec(mix=(471, 444), scheme='avgcc', quota=2000, warmup=1000)"


def test_a_cluster_lane_loads_only_the_execution_core_and_the_wire():
    code = f"""
import repro.cli
from repro.cluster.worker import run_worker
from repro.execution.simulate import _run_spec
from repro.api import RunSpec
_run_spec({{"spec": {CELL}.to_dict()}})
"""
    assert loaded_after(code, (
        "_hashlib",
        "multiprocessing",
        "concurrent.futures.process",
        "repro.service.scheduler",
        "repro.experiments",
        "repro.verify",
    )) == []


def test_an_untimed_in_process_batch_loads_no_pool_machinery():
    code = f"""
from repro.api import RunSpec, run_batch
outcomes, stats, report = run_batch([{CELL}], jobs=1)
assert stats.executed == 1, stats
"""
    assert loaded_after(code, ("_hashlib", "multiprocessing", "repro.verify")) == []


def test_a_cluster_coordinator_loads_no_figure_code():
    code = """
from repro.api import BatchScheduler
scheduler = BatchScheduler(executor="cluster", executor_options={"listen": "127.0.0.1:0"})
scheduler.close()
"""
    assert loaded_after(
        code, ("multiprocessing", "repro.verify", "repro.experiments.registry")
    ) == []
