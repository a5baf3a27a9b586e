"""Shared test infrastructure: per-test timeouts and hypothesis profiles.

A regression that hangs an executor (or any simulation loop) must
fail fast instead of stalling the whole run.  CI installs
``pytest-timeout``; when that plugin is absent (e.g. a bare local
checkout) this fallback arms a ``SIGALRM`` per test with the same
budget, so the guarantee holds everywhere POSIX.  Override with
``REPRO_TEST_TIMEOUT`` seconds; ``0`` disables the fallback.

Hypothesis runs under two registered profiles, selected by the
``HYPOTHESIS_PROFILE`` environment variable:

* ``default`` — fast enough for every push (deadlines off: simulation
  startup makes per-example deadlines flaky);
* ``nightly`` — the scheduled deep-fuzz configuration.  Property tests
  that want more than the profile's example count scale themselves with
  :func:`examples` (e.g. the cache-array oracle lockstep), so one env
  variable turns the whole suite up.
"""

import os
import signal

import pytest

try:
    from hypothesis import settings as _hyp_settings
except ImportError:  # pragma: no cover - hypothesis ships with the test env
    _hyp_settings = None
else:
    _hyp_settings.register_profile("default", deadline=None)
    _hyp_settings.register_profile("nightly", deadline=None, max_examples=1000)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Multiplier the nightly profile applies to explicit example counts.
NIGHTLY_SCALE = 10


def examples(base: int) -> int:
    """``base`` examples normally, ``NIGHTLY_SCALE x`` under nightly."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "nightly":
        return base * NIGHTLY_SCALE
    return base

#: Per-test budget in seconds.  Generous: the slowest legitimate tests
#: (module-scoped simulation fixtures) finish well under a minute.
TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    if (
        TEST_TIMEOUT <= 0
        or not hasattr(signal, "SIGALRM")
        or request.config.pluginmanager.hasplugin("timeout")
    ):
        yield  # disabled, unsupported platform, or pytest-timeout owns it
        return

    def on_alarm(signum, frame):
        pytest.fail(
            f"test exceeded the {TEST_TIMEOUT}s per-test timeout "
            "(REPRO_TEST_TIMEOUT to override)",
            pytrace=True,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
