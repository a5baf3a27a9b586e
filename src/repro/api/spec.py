"""The canonical simulation request: a frozen, validated :class:`RunSpec`.

Every consumer of the simulator — the CLI, the figure/table experiments,
the session, the batch service — ultimately asks the same
question: *simulate this mix under this scheme with these parameters*.
Historically each of them re-spelled that question as a different bag of
``(mix, scheme, quota, warmup, seed, scale, ...)`` kwargs and assembled
its own cache keys.  :class:`RunSpec` is the one spelling:

* **frozen and hashable** — a spec can key dictionaries, deduplicate
  queues and travel through pickled worker payloads unchanged;
* **validated once** — :meth:`RunSpec.validate` performs every boundary
  check (positive quota, non-negative warmup, known mix codes, known
  scheme, sane scale) with a single actionable message per defect,
  replacing the per-callsite checks that used to live in the CLI, the
  engine and the experiment runners;
* **content-addressed** — :meth:`RunSpec.cache_key` is the *single*
  canonical disk-cache key; the session memo and the batch service
  derive their keys from it, so a result computed by one is a cache hit
  for the other.

``events`` names the observability event kinds a trace session should
record.  Observers are bit-identical by construction (DESIGN.md §10), so
``events`` deliberately does **not** participate in the cache key: a
traced run and a plain run produce the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Optional, Sequence

from repro.sim.config import PAPER_L2, PAPER_SWEEP_L2, PrefetchConfig, ScaleModel

#: Bump when the simulation's observable output, the spec's key layout,
#: or the cache-entry format changes; old entries then miss instead of
#: poisoning results.  v3: keys are derived from the canonical
#: ``RunSpec.key_tuple()`` (one layout for every consumer) rather than
#: the runner-fingerprint tuple of v2.
CACHE_FORMAT_VERSION = 3

#: Scheme name handled outside the policy registry (Section 6.1's
#: banked shared LLC); :func:`repro.execution.simulate.simulate_spec`
#: builds it.
SHARED_SCHEME = "shared"

#: ``RunSpec.l2_ways`` spelling of the fully associative sweep cache.
FULL_ASSOC = "full"


class SpecError(ValueError):
    """A :class:`RunSpec` failed validation.

    ``field`` names the offending spec field (``"quota"``, ``"mix"``,
    ...) so front-ends can point at the flag or JSON key the user has to
    fix; the message itself is already actionable on its own.
    """

    def __init__(self, message: str, *, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


def parse_mix(text: str) -> tuple[int, ...]:
    """Parse ``"471+444"`` into benchmark codes, failing usefully.

    Every malformed shape — empty mix, empty component (``471+``),
    non-numeric parts, unknown SPEC codes — raises :class:`SpecError`
    naming the offending piece and what would have been accepted.
    """
    parts = text.split("+")
    if not text.strip() or any(not part.strip() for part in parts):
        raise SpecError(
            f"bad mix {text!r}: expected '+'-separated SPEC codes like 471+444",
            field="mix",
        )
    codes = []
    for part in parts:
        try:
            codes.append(int(part))
        except ValueError:
            raise SpecError(
                f"bad mix {text!r}: {part.strip()!r} is not a number; "
                f"expected SPEC codes like 471+444",
                field="mix",
            ) from None
    return tuple(codes)


def _check_codes(codes: Sequence[int]) -> None:
    from repro.workloads.spec2006 import all_codes

    known = all_codes()
    unknown = [code for code in codes if code not in known]
    if unknown:
        raise SpecError(
            f"bad mix {'+'.join(str(c) for c in codes)!r}: "
            f"unknown benchmark code(s) {', '.join(str(c) for c in unknown)}; "
            f"available: {', '.join(str(c) for c in known)}",
            field="mix",
        )


@dataclass(frozen=True)
class RunSpec:
    """One simulation request, fully specified and immutable.

    Defaults mirror the paper methodology (and the historical
    ``ExperimentRunner`` defaults), so
    ``RunSpec(mix=(471, 444))`` is the headline AVGCC cell.

    ``quota < warmup`` is deliberately legal: the engine warms for
    ``warmup`` committed instructions and then measures ``quota`` more,
    so a long warmup with a short measured window is a valid (if
    unusual) request, not an error.

    A cell runs either a SPEC ``mix`` (one benchmark per core) or a
    multithreaded ``kernel``, never both.
    """

    mix: tuple[int, ...] = ()
    scheme: str = "avgcc"
    quota: int = 150_000
    warmup: int = 150_000
    seed: int = 7
    scale: float = ScaleModel().scale
    l2_paper_bytes: int = PAPER_L2.size_bytes
    prefetch: Optional[tuple[int, int, int]] = None
    #: Enabled ways of the Figure 1/2 sweep cache (``PAPER_SWEEP_L2``,
    #: scaled; the set count stays fixed), 1..16, or :data:`FULL_ASSOC`
    #: for its fully associative form; ``None`` runs the
    #: ``l2_paper_bytes`` L2.  Only a single-benchmark ``baseline`` cell
    #: takes it, and its result then carries per-set miss counts.
    l2_ways: Optional[int | str] = None
    #: A multithreaded kernel ``(name, threads)`` from
    #: ``repro.workloads.multithread.KERNELS``, one thread per core, in
    #: place of ``mix``.
    kernel: Optional[tuple[str, int]] = None
    #: Event kinds an attached tracer should keep (``None`` = all).
    #: Excluded from the cache key: observers never change results.
    events: Optional[tuple[str, ...]] = field(default=None, compare=False)
    #: Whether to replay materialized trace buffers instead of running
    #: the workload generators (``None`` = process default, i.e. enabled
    #: unless ``REPRO_TRACE_CACHE=0``).  Excluded from the cache key:
    #: replay is bit-identical by construction, so a replayed and a
    #: generated run share a result-cache entry.
    trace_cache: Optional[bool] = field(default=None, compare=False)
    #: Whether to attach the :mod:`repro.verify` runtime sanitizer
    #: (``None`` = process default, i.e. off unless ``REPRO_SANITIZE=1``).
    #: Excluded from the cache key: the sanitizer only *reads* simulator
    #: state — a sanitized run is bit-identical to a plain run, so both
    #: share a result-cache entry.  Travels through ``to_dict``/
    #: ``from_dict`` (and therefore the batch journal), so resumed batch
    #: workers run sanitized when the original submission asked for it.
    sanitize: Optional[bool] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Coerce the convenient spellings (lists, strings, the config
        # dataclasses) into the canonical hashable forms exactly once.
        mix = self.mix
        if isinstance(mix, str):
            mix = parse_mix(mix)
        elif isinstance(mix, int):
            mix = (mix,)
        object.__setattr__(self, "mix", tuple(int(code) for code in mix))
        scale = self.scale
        if isinstance(scale, ScaleModel):
            object.__setattr__(self, "scale", scale.scale)
        else:
            object.__setattr__(self, "scale", float(scale))
        prefetch = self.prefetch
        if isinstance(prefetch, PrefetchConfig):
            prefetch = (
                prefetch.table_entries,
                prefetch.degree,
                prefetch.confidence_threshold,
            )
        if prefetch is not None:
            object.__setattr__(self, "prefetch", tuple(int(p) for p in prefetch))
        if self.events is not None:
            object.__setattr__(
                self, "events", tuple(str(kind) for kind in self.events)
            )
        if isinstance(self.kernel, list):
            object.__setattr__(self, "kernel", tuple(self.kernel))
        if self.trace_cache is not None:
            object.__setattr__(self, "trace_cache", bool(self.trace_cache))
        if self.sanitize is not None:
            object.__setattr__(self, "sanitize", bool(self.sanitize))

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> "RunSpec":
        """Check every boundary once; raise :class:`SpecError` or return self.

        The single place quota/warmup/seed/scale/mix/scheme boundary
        values are policed — front-ends (CLI flags, batch JSON, the
        service protocol) call this instead of re-implementing checks.
        """
        kernel, ways = self.kernel, self.l2_ways
        if kernel is not None:
            from repro.workloads.multithread import KERNELS

            if self.mix or not (
                isinstance(kernel, tuple)
                and len(kernel) == 2
                and kernel[0] in KERNELS
                and type(kernel[1]) is int
                and kernel[1] >= 1
            ):
                raise SpecError(
                    f"kernel must be (name, threads >= 1) with a name from "
                    f"{', '.join(sorted(KERNELS))}, in place of a mix; "
                    f"got {kernel!r} and mix {self.mix}",
                    field="kernel",
                )
        elif not self.mix:
            raise SpecError(
                "bad mix: at least one SPEC benchmark code is required "
                "(e.g. 471+444)",
                field="mix",
            )
        else:
            _check_codes(self.mix)
        self._check_scheme()
        if ways is not None and not (
            (ways == FULL_ASSOC or type(ways) is int and 1 <= ways <= PAPER_SWEEP_L2.ways)
            and len(self.mix) == 1
            and self.scheme == "baseline"
            and self.l2_paper_bytes == PAPER_L2.size_bytes
        ):
            raise SpecError(
                f"l2_ways must be 1..{PAPER_SWEEP_L2.ways} or {FULL_ASSOC!r}, "
                f"on one benchmark alone under 'baseline' at the default "
                f"l2_paper_bytes; got {ways!r} on {self.name}",
                field="l2_ways",
            )
        if self.quota <= 0:
            raise SpecError(
                f"quota must be a positive number of measured instructions, "
                f"got {self.quota}",
                field="quota",
            )
        if self.warmup < 0:
            raise SpecError(
                f"warmup must not be negative (0 disables warmup), "
                f"got {self.warmup}",
                field="warmup",
            )
        if self.seed < 0:
            raise SpecError(
                f"seed must not be negative, got {self.seed}", field="seed"
            )
        if not (0.0 < self.scale <= 1.0):
            raise SpecError(
                f"scale must be in (0, 1] (fraction of the paper geometry), "
                f"got {self.scale}",
                field="scale",
            )
        if self.l2_paper_bytes <= 0:
            raise SpecError(
                f"l2_paper_bytes must be positive, got {self.l2_paper_bytes}",
                field="l2_paper_bytes",
            )
        if self.prefetch is not None and (
            len(self.prefetch) != 3 or any(p <= 0 for p in self.prefetch)
        ):
            raise SpecError(
                f"prefetch must be three positive ints "
                f"(table_entries, degree, confidence_threshold), "
                f"got {self.prefetch}",
                field="prefetch",
            )
        if self.events is not None:
            from repro.obs.events import KNOWN_KINDS

            unknown = sorted(set(self.events) - set(KNOWN_KINDS))
            if not self.events or unknown:
                raise SpecError(
                    (
                        f"unknown kind(s) {', '.join(unknown)}; "
                        if unknown
                        else "events must not be empty (omit it to trace all); "
                    )
                    + f"known kinds: {', '.join(KNOWN_KINDS)}",
                    field="events",
                )
        return self

    def _check_scheme(self) -> None:
        if self.scheme == SHARED_SCHEME:
            return
        from repro.policies.registry import make_policy

        try:
            make_policy(self.scheme)
        except KeyError as exc:
            raise SpecError(str(exc.args[0]), field="scheme") from None

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Human-readable label naming exactly one cell: ``471+444/avgcc``,
        ``473@ways=6/baseline`` or ``lu*4/ascc``, then every other key
        field that differs from its default, in brackets:
        ``471+444/avgcc[quota=100000,l2_paper_bytes=2097152]``."""
        if self.kernel is not None:
            workload = "*".join(map(str, self.kernel))
        else:
            workload = "+".join(map(str, self.mix))
        ways = "" if self.l2_ways is None else f"@ways={self.l2_ways}"
        extra = ",".join(
            f"{name}={':'.join(map(str, value)) if isinstance(value, tuple) else value}"
            for name, default in _NAMED_DEFAULTS.items()
            if (value := getattr(self, name)) != default
        )
        return f"{workload}{ways}/{self.scheme}" + (f"[{extra}]" if extra else "")

    def key_tuple(self) -> tuple:
        """The primitives that fully determine this spec's result.

        ``events`` is excluded: observability is bit-identical by
        contract, so a traced and an untraced run share a cache entry.
        ``l2_ways`` and ``kernel`` join only when set, so every other
        cell keeps the key it had before they existed.
        """
        key = (
            self.mix,
            self.scheme,
            self.quota,
            self.warmup,
            self.seed,
            self.scale,
            self.l2_paper_bytes,
            self.prefetch,
        )
        for name in ("l2_ways", "kernel"):
            value = getattr(self, name)
            if value is not None:
                key += ((name, value),)
        return key

    def cache_key(self) -> str:
        """The canonical content-addressed key for this spec's result.

        The single key of the :class:`repro.experiments.parallel.ResultCache`,
        the session memo and the batch service's dedup, so any of them
        can serve a result another computed.
        """
        import hashlib  # here, not at module level: it maps OpenSSL

        payload = repr((CACHE_FORMAT_VERSION, self.key_tuple()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def runner_params(self) -> dict:
        """Keyword arguments for :class:`~repro.experiments.runner.ExperimentRunner`."""
        return dict(
            scale=ScaleModel(self.scale),
            quota=self.quota,
            warmup=self.warmup,
            seed=self.seed,
            l2_paper_bytes=self.l2_paper_bytes,
            prefetch=None if self.prefetch is None else PrefetchConfig(*self.prefetch),
        )

    def cell(self) -> tuple[tuple[int, ...], str]:
        """The runner-level ``(codes, scheme)`` cell coordinates."""
        return (self.mix, self.scheme)

    def to_dict(self) -> dict:
        """JSON-ready dict of every field, tuples as lists; defaults are
        included for self-description."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in data.items()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Build a spec from a JSON-style mapping, rejecting unknown keys.

        ``mix`` accepts a list of codes or the CLI's ``"471+444"``
        string form, ``kernel`` a ``[name, threads]`` list; everything
        else mirrors the dataclass fields.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"a spec must be a JSON object with at least a 'mix' key, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec key(s) {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}",
                field=unknown[0],
            )
        if "mix" not in data and "kernel" not in data:
            raise SpecError(
                "a spec needs a 'mix' (list of SPEC codes or a string "
                "like '471+444') or a 'kernel' ([name, threads])",
                field="mix",
            )
        return cls(**dict(data))

    def replace(self, **changes) -> "RunSpec":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return replace(self, **changes)


#: Key fields :attr:`RunSpec.name` shows only when they leave their default.
_NAMED_DEFAULTS = {
    f.name: f.default
    for f in fields(RunSpec)
    if f.name in ("quota", "warmup", "seed", "scale", "l2_paper_bytes", "prefetch")
}


def spec_grid(
    mixes: Iterable[Sequence[int]],
    schemes: Iterable[str],
    **params,
) -> list[RunSpec]:
    """The (mix x scheme) product as a flat, ordered batch of specs.

    The one-liner behind every figure/table grid: shared simulation
    parameters are given once and stamped onto each cell.
    """
    schemes = list(schemes)
    return [
        RunSpec(mix=tuple(mix), scheme=scheme, **params)
        for mix in mixes
        for scheme in schemes
    ]
