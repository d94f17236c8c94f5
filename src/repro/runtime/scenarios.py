"""Named bandwidth-dynamics scenarios.

Each scenario wraps a base weather model (usually
:class:`~repro.net.dynamics.FluctuationModel`) and multiplies in a
deterministic *shape* — a structural capacity change the offline
training campaign never saw.  That is exactly the regime the runtime
service exists for: the prediction model stays calibrated to normal
weather, the scenario drifts the real network away from it, and the
:class:`~repro.runtime.drift.DriftDetector` has something to catch.

Scenario models satisfy the same duck-typed interface as the weather
models (``factor`` and ``snapshot_jitter``), so they plug straight into
:class:`~repro.net.simulator.NetworkSimulator` and the measurement
probes.  Everything is a pure function of ``(seed, i, j, t)`` — replays
and independent simulator instances agree on the shape.

Scenarios register by name in the shared
:data:`~repro.pipeline.registry.scenario_registry`
(``@register_scenario`` / :func:`register_scenario_model`), and
``+``-joined names compose: ``scenario("diurnal+flash-crowd")`` stacks
a flash crowd on the diurnal swing.  Built-in names:

====================  ================================================
name                  shape
====================  ================================================
``calm``              base weather only (control)
``diurnal``           deep daily swing on every link
``flash-crowd``       a transient capacity crunch on ~half the links
``link-degradation``  a subset of links ramp down to ~25 % and stay
``link-failure``      a few links collapse to ~5 % (effective failure)
``step-drop``         the whole substrate steps down to ~55 %
``circuit-failover``  hit links fail → degraded window → secondary
``circuit-flap``      chronically flapping links (square wave)
``path-policy``       switch to the secondary when the primary dips
====================  ================================================

The ``circuit-*`` and ``path-policy`` scenarios are built on the
multi-path circuit primitives in :mod:`repro.net.circuits` — see that
module for the failover/flap/path-policy semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.gda.engine.cluster import GeoCluster
from repro.net.circuits import CircuitPair, flap_quality, select_path
from repro.net.dynamics import (
    DAY_S,
    FluctuationModel,
    StaticModel,
    _link_uniform,
)
from repro.net.profiles import network_profile
from repro.pipeline.config import ServiceConfig
from repro.pipeline.registry import register_scenario, scenario_registry

#: Hard floor for the combined capacity factor — links never reach
#: exactly zero (the fluid solver needs positive caps).
FACTOR_FLOOR = 0.02

#: Salt for scenario link selection, kept away from the weather model's
#: own hash inputs.
_SELECT_SALT = 0x5C3A


def _selected(seed: int, i: int, j: int, fraction: float) -> bool:
    """Deterministically pick ``fraction`` of directed links."""
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    return _link_uniform(seed ^ _SELECT_SALT, i, j, -3, 0.0, 1.0) < fraction


def _ramp(t: float, start: float, ramp_s: float) -> float:
    """0 before ``start``, 1 after ``start + ramp_s``, linear between."""
    if t <= start:
        return 0.0
    if ramp_s <= 0.0 or t >= start + ramp_s:
        return 1.0
    return (t - start) / ramp_s


@dataclass(frozen=True)
class ScenarioModel:
    """Base class: base weather × scenario shape, floored.

    Subclasses override :meth:`shape`; ``factor`` is what the simulator
    consumes.  ``snapshot_jitter`` delegates to the base model so probe
    noise is unchanged.
    """

    base: FluctuationModel | StaticModel = field(
        default_factory=FluctuationModel
    )
    seed: int = 7

    #: Registry key; subclasses set their own.
    name: str = "scenario"

    def shape(self, i: int, j: int, t: float) -> float:
        """Multiplicative scenario factor (1 = no effect)."""
        return 1.0

    def factor(self, i: int, j: int, t: float) -> float:
        """Combined capacity factor for link ``i → j`` at time ``t``."""
        if i == j:
            return 1.0
        combined = self.base.factor(i, j, t) * self.shape(i, j, t)
        return float(max(combined, FACTOR_FLOOR))

    def snapshot_jitter(
        self, i: int, j: int, t: float, window_s: float
    ) -> float:
        """Probe jitter, inherited from the base weather."""
        return self.base.snapshot_jitter(i, j, t, window_s)


@dataclass(frozen=True)
class DiurnalSwing(ScenarioModel):
    """A pronounced daily cycle on every link.

    Much deeper than the base model's own diurnal term — models a
    shared-backbone region where business-hours cross-traffic halves
    usable capacity.  Per-link phases are spread a little so the trough
    is not perfectly synchronized.
    """

    name: str = "diurnal"
    amplitude: float = 0.35
    period_s: float = DAY_S
    phase_spread: float = 0.6

    def shape(self, i: int, j: int, t: float) -> float:
        """Phase-spread sinusoid dipping to ``1 − amplitude``."""
        phase = _link_uniform(
            self.seed ^ _SELECT_SALT, i, j, -4, -self.phase_spread, self.phase_spread
        )
        return 1.0 - self.amplitude * (
            0.5 + 0.5 * math.sin(2.0 * math.pi * t / self.period_s + phase)
        )


@dataclass(frozen=True)
class FlashCrowd(ScenarioModel):
    """A transient crunch: affected links ramp down, hold, recover.

    Models a correlated external event (a big live stream, a viral
    release) stealing WAN capacity for ``duration_s``.
    """

    name: str = "flash-crowd"
    start_s: float = 600.0
    duration_s: float = 900.0
    ramp_s: float = 120.0
    depth: float = 0.4
    hit_fraction: float = 0.5

    def shape(self, i: int, j: int, t: float) -> float:
        """Ramp down to ``depth``, hold, ramp back (selected links)."""
        if not _selected(self.seed, i, j, self.hit_fraction):
            return 1.0
        onset = _ramp(t, self.start_s, self.ramp_s)
        recovery = _ramp(t, self.start_s + self.duration_s, self.ramp_s)
        intensity = onset - recovery
        return 1.0 - (1.0 - self.depth) * max(0.0, intensity)


@dataclass(frozen=True)
class LinkDegradation(ScenarioModel):
    """Selected links ramp down to ``residual`` capacity and stay there.

    Models route damage — a submarine-cable fault, a bad peering
    change.  ``links`` pins explicit (i, j) index pairs; when empty,
    ``hit_fraction`` of links is hash-selected.  With a small
    ``residual`` this doubles as the link-*failure* scenario.
    """

    name: str = "link-degradation"
    start_s: float = 600.0
    ramp_s: float = 300.0
    residual: float = 0.25
    hit_fraction: float = 0.25
    links: tuple[tuple[int, int], ...] = ()

    def _hit(self, i: int, j: int) -> bool:
        if self.links:
            return (i, j) in self.links
        return _selected(self.seed, i, j, self.hit_fraction)

    def shape(self, i: int, j: int, t: float) -> float:
        """Ramp hit links down to ``residual`` and hold there."""
        if not self._hit(i, j):
            return 1.0
        progress = _ramp(t, self.start_s, self.ramp_s)
        return 1.0 - (1.0 - self.residual) * progress


@dataclass(frozen=True)
class StepDrop(ScenarioModel):
    """The whole substrate steps down to ``level`` at ``at_s``.

    Models a provider-wide brownout (maintenance window, backbone
    reroute) — instantaneous, global, persistent.
    """

    name: str = "step-drop"
    at_s: float = 900.0
    level: float = 0.55

    def shape(self, i: int, j: int, t: float) -> float:
        """``level`` everywhere once ``at_s`` passes."""
        return self.level if t >= self.at_s else 1.0


@dataclass(frozen=True)
class CircuitFailover(ScenarioModel):
    """Hit links lose their primary circuit and fail over.

    Each selected link rides a :class:`~repro.net.circuits.CircuitPair`:
    full quality until ``fail_at_s``, a degraded-quality transition
    window while the failover converges, then the secondary circuit's
    steady (thinner) quality for the rest of the run.  Per-link phase
    jitter spreads the failure instants a little so a population of
    links does not fail on one simulator event.
    """

    name: str = "circuit-failover"
    circuit: CircuitPair = CircuitPair()
    fail_at_s: float = 600.0
    #: Per-link failure-time spread (uniform in ±spread_s).
    spread_s: float = 60.0
    hit_fraction: float = 0.3

    def _fail_at(self, i: int, j: int) -> float:
        if self.spread_s <= 0.0:
            return self.fail_at_s
        return self.fail_at_s + _link_uniform(
            self.seed ^ _SELECT_SALT, i, j, -5, -self.spread_s, self.spread_s
        )

    def shape(self, i: int, j: int, t: float) -> float:
        """The circuit pair's delivered quality for hit links."""
        if not _selected(self.seed, i, j, self.hit_fraction):
            return 1.0
        quality, _ = self.circuit.quality_at(t - self._fail_at(i, j))
        return quality


@dataclass(frozen=True)
class FlappingLink(ScenarioModel):
    """Chronically unstable links: a square wave of up/down quality.

    From ``start_s`` on, each selected link flaps with period
    ``period_s``, spending ``duty`` of every period down at
    ``down_quality``.  Per-link hash-derived phases desynchronize the
    population — at any instant roughly ``duty`` of the hit links are
    down, which is the chronic-instability regime (no steady level for
    a planner to converge to).
    """

    name: str = "circuit-flap"
    start_s: float = 300.0
    period_s: float = 180.0
    duty: float = 0.5
    down_quality: float = 0.1
    hit_fraction: float = 0.3

    def shape(self, i: int, j: int, t: float) -> float:
        """Square-wave quality on hit links once flapping starts."""
        if t < self.start_s:
            return 1.0
        if not _selected(self.seed, i, j, self.hit_fraction):
            return 1.0
        phase = _link_uniform(
            self.seed ^ _SELECT_SALT, i, j, -6, 0.0, self.period_s
        )
        return flap_quality(
            t - self.start_s,
            self.period_s,
            self.duty,
            up_quality=1.0,
            down_quality=self.down_quality,
            phase_s=phase,
        )


@dataclass(frozen=True)
class PathPolicySwitch(ScenarioModel):
    """Minimum-capacity path policy over the base weather.

    Watches the *primary* path's weather factor; while it clears
    ``min_capacity_fraction`` traffic stays on the primary (shape 1).
    The moment it dips below, policy moves the link to a steady
    secondary circuit: the shape compensates the weather so the
    combined factor holds at ``secondary_quality`` — a stable, thinner
    path instead of a collapsing one.  (The policy reads base weather,
    not sibling scenario shapes, so in a ``+``-composition it reacts
    to the shared weather only.)
    """

    name: str = "path-policy"
    min_capacity_fraction: float = 0.5
    secondary_quality: float = 0.6

    def shape(self, i: int, j: int, t: float) -> float:
        """1 on the primary; weather-compensated on the secondary."""
        primary = self.base.factor(i, j, t)
        if select_path(primary, self.min_capacity_fraction) == "primary":
            return 1.0
        return self.secondary_quality / max(primary, FACTOR_FLOOR)


@dataclass(frozen=True)
class ComposedScenario(ScenarioModel):
    """Several scenario shapes stacked multiplicatively on one base.

    Built by :func:`scenario` for ``+``-joined names — e.g.
    ``"diurnal+flash-crowd"`` runs a flash crowd *on top of* the deep
    daily swing (a ROADMAP composition item).  Each part contributes
    its :meth:`~ScenarioModel.shape` only; the shared base weather is
    applied once by :meth:`~ScenarioModel.factor`.
    """

    name: str = "composed"
    parts: tuple[ScenarioModel, ...] = ()

    def shape(self, i: int, j: int, t: float) -> float:
        """Product of every part's shape."""
        combined = 1.0
        for part in self.parts:
            combined *= part.shape(i, j, t)
        return combined


def _base(base: FluctuationModel | StaticModel | None, seed: int):
    return base if base is not None else FluctuationModel(seed=seed)


def register_scenario_model(
    cls: type[ScenarioModel],
    name: str | None = None,
    **defaults: object,
) -> type[ScenarioModel]:
    """Register a :class:`ScenarioModel` subclass under its name.

    The registry stores ``(base, seed) → model`` factories;
    ``defaults`` become fixed constructor keywords — how one shape
    class backs several named scenarios (``link-degradation`` and
    ``link-failure`` below)::

        @dataclass(frozen=True)
        class MeteorStrike(ScenarioModel):
            name: str = "meteor-strike"
            ...

        register_scenario_model(MeteorStrike)
    """
    key = name if name is not None else cls.name
    register_scenario(key)(
        lambda base, seed: cls(_base(base, seed), seed, **defaults)
    )
    return cls


register_scenario_model(ScenarioModel, name="calm")
register_scenario_model(DiurnalSwing)
register_scenario_model(FlashCrowd)
register_scenario_model(LinkDegradation)
register_scenario_model(
    LinkDegradation,
    name="link-failure",
    start_s=600.0,
    ramp_s=60.0,
    residual=0.05,
    hit_fraction=0.15,
)
register_scenario_model(StepDrop)
register_scenario_model(CircuitFailover)
register_scenario_model(FlappingLink)
register_scenario_model(PathPolicySwitch)

#: Composed spellings advertised by entry points (help strings, error
#: messages, the sweep axis validator).  Composition is open-ended —
#: any ``+``-join of registered names resolves — but discoverability
#: needs concrete examples, and everything listed here is covered by a
#: resolve test.
FEATURED_COMPOSITIONS: tuple[str, ...] = (
    "diurnal+flash-crowd",
    "step-drop+link-degradation",
    "circuit-failover+circuit-flap",
)


def scenario_names(include_composed: bool = False) -> tuple[str, ...]:
    """All registered scenario names, sorted (atomic names first).

    Registered names are atomic; any ``+``-join of them also resolves
    (``scenario("diurnal+flash-crowd")``).  With ``include_composed``,
    the :data:`FEATURED_COMPOSITIONS` examples are appended so entry
    points that print "known scenarios" advertise the composition
    syntax with names that actually work.
    """
    names = scenario_registry.names()
    if include_composed:
        names += tuple(
            name for name in FEATURED_COMPOSITIONS if scenario_known(name)
        )
    return names


def _split_composed(name: str) -> list[str]:
    """The atomic parts of a (possibly ``+``-composed) scenario name."""
    return [part.strip() for part in name.split("+") if part.strip()]


def scenario_known(name: str) -> bool:
    """Whether :func:`scenario` would resolve ``name``.

    The single source of truth for composition syntax — the entry
    points' name check (:func:`repro.pipeline.registry.unregistered`)
    calls this instead of re-parsing ``+`` chains.
    """
    parts = _split_composed(name)
    return bool(parts) and all(part in scenario_registry for part in parts)


def scenario(
    name: str,
    seed: int = 7,
    base: FluctuationModel | StaticModel | None = None,
) -> ScenarioModel:
    """Build a named scenario over ``base`` weather (seeded default).

    ``+`` composes registered scenarios into one model —
    ``scenario("diurnal+flash-crowd")`` stacks a flash crowd on the
    diurnal swing.

    >>> scenario("step-drop", seed=3).factor(0, 1, 0.0) > 0
    True
    """
    if "+" in name:
        shared = _base(base, seed)
        parts = tuple(
            scenario(part, seed=seed, base=shared)
            for part in _split_composed(name)
        )
        if not parts:
            raise KeyError(f"empty composed scenario {name!r}")
        return ComposedScenario(shared, seed, name=name, parts=parts)
    factory = scenario_registry.get(name)
    return factory(base, seed)


def service_cluster(
    config: ServiceConfig, weather: object = None
) -> tuple[GeoCluster, FluctuationModel]:
    """The cluster a service config describes, and its base weather.

    The base weather is the profile's fluctuation seeded from
    ``config.seed`` (what the service's prediction model trains on);
    the cluster runs the configured scenario on top of it, or
    ``weather`` (any ``factor``/``snapshot_jitter`` model) when given.
    """
    profile = network_profile(config.profile)
    base = profile.fluctuation(seed=config.seed)
    if weather is None:
        weather = (
            scenario(config.scenario, seed=config.seed, base=base)
            if config.scenario is not None
            else base
        )
    cluster = GeoCluster.build(
        config.regions,
        config.vm,
        fluctuation=weather,
        profile=profile,
        kernel=config.kernel,
    )
    return cluster, base
