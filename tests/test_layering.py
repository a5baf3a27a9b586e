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
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SERVICE_TIERS = ("service", "cluster", "obs")
ALLOWED = {("repro/service/scheduler.py", "repro.experiments.parallel", ("ResultCache",))}
OBS_FORBIDDEN = ("repro.service", "repro.cluster", "repro.api")
EXECUTION_FORBIDDEN = ("repro.service", "repro.cluster")


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
