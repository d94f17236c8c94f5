"""String-keyed extension registries for the pipeline seams.

Fig. 3's architecture is a staged pipeline, and every stage boundary is
an extension point: the three *stages* themselves (how BWs are gauged,
predicted, and planned), deployment *variants* (how a plan lands on the
network), placement *policies* (how a GDA system splits work across
DCs), and bandwidth *scenarios* (how the substrate drifts under the
service).  Each seam gets one :class:`Registry`, and registration makes
a new implementation reachable from every entry point — the
:class:`~repro.pipeline.core.Pipeline` facade, the runtime service, the
sweep runner, and the CLI — with zero core edits::

    from repro.pipeline import register_variant

    @register_variant("my-variant")
    class MyVariant:
        def build(self, pipeline, bw, **kwargs):
            ...

    pipeline.deployment("my-variant")       # works immediately

Stage registrations work the same way, and their entries may be classes
*or* factories; :func:`build_stage` constructs them, passing whatever
subset of the ``(topology, weather, config)`` context the entry's
signature accepts::

    from repro.pipeline import register_gauger

    @register_gauger("my-gauger")
    class MyGauger:                     # zero-arg: context is optional
        def gauge(self, topology, weather, at_time):
            ...

    Pipeline(topology, config=PipelineConfig(gauger="my-gauger"))

Built-in entries live next to the things they construct (stage defaults
in :mod:`repro.pipeline.stages`, alternates in
:mod:`repro.pipeline.alternates`, variants in
:mod:`repro.pipeline.variants`, policies in :mod:`repro.gda.systems`,
scenarios in :mod:`repro.runtime.scenarios`); each registry lazily
imports its home module(s) on first lookup so the built-ins are always
present without import-order gymnastics.
"""

from __future__ import annotations

import importlib
import inspect
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

T = TypeVar("T")


class Registry:
    """A named string → object mapping with decorator registration.

    ``bootstrap`` is a module path (or a sequence of them) imported on
    first lookup; importing it runs the built-in ``@register_*``
    decorators.  Registration is last-wins so tests can shadow a
    built-in and restore it afterwards (see :meth:`unregister`).
    """

    def __init__(
        self,
        kind: str,
        bootstrap: Union[str, Sequence[str], None] = None,
    ) -> None:
        self.kind = kind
        if isinstance(bootstrap, str):
            bootstrap = (bootstrap,)
        self._bootstrap: Optional[tuple[str, ...]] = (
            tuple(bootstrap) if bootstrap is not None else None
        )
        self._entries: dict[str, object] = {}

    def _ensure_bootstrapped(self) -> None:
        if self._bootstrap is not None:
            modules, self._bootstrap = self._bootstrap, None
            for module in modules:
                importlib.import_module(module)

    def register(self, name: object = None) -> Callable[[T], T]:
        """Decorator: ``@registry.register("name")``.

        Without an explicit name, the object's ``name`` attribute is
        used (every built-in variant/policy/scenario carries one).
        Bare decoration (``@registry.register`` with no call) works
        too — the decorated object must then carry a ``name``.
        """
        # Load the built-ins first so a user registration shadowing one
        # is not clobbered when a later lookup bootstraps.  Re-entrant
        # registrations from the bootstrap module itself no-op here:
        # _bootstrap is cleared before its import starts.
        self._ensure_bootstrapped()

        def decorate(obj: T, key: Optional[str] = None) -> T:
            """Store ``obj`` under ``key`` (or its ``name`` attribute)."""
            key = key if key is not None else getattr(obj, "name", None)
            if not key or not isinstance(key, str):
                msg = f"{self.kind} registration needs a string name; got {key!r} for {obj!r}"
                raise ValueError(msg)
            self._entries[key] = obj
            return obj

        if name is None or isinstance(name, str):
            return lambda obj: decorate(obj, name)
        # Bare decoration: ``@register_variant`` without parentheses
        # hands the class itself in as ``name``.
        return decorate(name)

    def add(self, name: str, obj: object) -> None:
        """Imperative registration (``register`` without the decorator)."""
        self.register(name)(obj)

    def unregister(self, name: str) -> None:
        """Drop an entry (no-op when absent) — test cleanup."""
        self._ensure_bootstrapped()
        self._entries.pop(name, None)

    def get(self, name: str) -> object:
        """Look up an entry; ``KeyError`` names the known alternatives."""
        self._ensure_bootstrapped()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names())
            raise KeyError(f"unknown {self.kind} {name!r}; known: {known}") from None

    def resolve(self, spec: object) -> object:
        """Resolve a spec — an instance, class, or registered name.

        Names go through :meth:`get`, classes are instantiated, and
        anything else passes through as an already-built instance.
        """
        if isinstance(spec, str):
            spec = self.get(spec)
        if isinstance(spec, type):
            spec = spec()
        return spec

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        self._ensure_bootstrapped()
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        self._ensure_bootstrapped()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_bootstrapped()
        return len(self._entries)

    @property
    def mapping(self) -> Mapping[str, object]:
        """A live read-only view of the entries (legacy dict surface)."""
        self._ensure_bootstrapped()
        return MappingProxyType(self._entries)


#: Modules whose import registers the built-in stage implementations
#: (defaults first so alternates may wrap them).
_STAGE_BOOTSTRAP = ("repro.pipeline.stages", "repro.pipeline.alternates")

#: Gauger stage — entries are :class:`~repro.pipeline.stages.Gauger`
#: classes/factories (``snapshot`` by default, ``passive-telemetry``
#: in :mod:`repro.pipeline.alternates`).
gauger_registry = Registry("gauger", bootstrap=_STAGE_BOOTSTRAP)

#: Predictor stage — entries are
#: :class:`~repro.pipeline.stages.Predictor` classes/factories
#: (``forest`` by default, ``cached`` in the alternates).
predictor_registry = Registry("predictor", bootstrap=_STAGE_BOOTSTRAP)

#: Planner stage — entries are :class:`~repro.pipeline.stages.Planner`
#: classes/factories (``window`` by default, ``multi-backend`` in the
#: alternates).
planner_registry = Registry("planner", bootstrap=_STAGE_BOOTSTRAP)

#: Deployment variants — entries are :class:`DeploymentStrategy`
#: factories (classes or zero-arg callables) built in
#: :mod:`repro.pipeline.variants`.
variant_registry = Registry("variant", bootstrap="repro.pipeline.variants")

#: GDA placement policies — entries are
#: :class:`~repro.gda.systems.base.PlacementPolicy` subclasses.
policy_registry = Registry("placement policy", bootstrap="repro.gda.systems")

#: Bandwidth scenarios — entries are ``(base, seed) → ScenarioModel``
#: factories (or ScenarioModel subclasses, wrapped on registration by
#: :func:`repro.runtime.scenarios.register_scenario_model`).
scenario_registry = Registry("scenario", bootstrap="repro.runtime.scenarios")

#: Scheduler admission policies — entries are
#: :class:`~repro.runtime.scheduling.policies.AdmissionPolicy` classes
#: or instances (``fifo`` / ``priority`` / ``deadline-edf`` /
#: ``fair-share`` built in).
admission_policy_registry = Registry(
    "admission policy", bootstrap="repro.runtime.scheduling.policies"
)

#: Control-plane preemption policies — entries are
#: :class:`~repro.runtime.control.preemption.PreemptionPolicy` classes
#: or instances (``none`` / ``urgent-slo`` / ``cost-aware`` built in).
preemption_policy_registry = Registry(
    "preemption policy", bootstrap="repro.runtime.control.preemption"
)

#: Online tuner (bandit) policies for the control plane's
#: :class:`~repro.tuner.switcher.PolicySwitcher` — entries are bandit
#: classes or instances (``none`` / ``epsilon-greedy`` / ``ucb1``
#: built in).  ``none`` is a registered sentinel so config validation
#: has one source of truth; the service never builds a switcher for it.
tuner_registry = Registry("tuner policy", bootstrap="repro.tuner.switcher")

register_gauger = gauger_registry.register
register_predictor = predictor_registry.register
register_planner = planner_registry.register
register_variant = variant_registry.register
register_policy = policy_registry.register
register_scenario = scenario_registry.register
register_admission_policy = admission_policy_registry.register
register_preemption_policy = preemption_policy_registry.register
register_tuner_policy = tuner_registry.register


def build_stage(registry: Registry, name: str, **context: object) -> object:
    """Construct a registered stage, passing only the context it wants.

    Stage entries are heterogenous: ``SnapshotGauger()`` takes nothing,
    ``ForestPredictor(topology, weather, config)`` takes the full
    construction context, and custom factories may take any subset.
    This helper inspects the entry's signature and forwards only the
    ``context`` keys it declares, so one registry holds all of them.
    Non-callable entries (pre-built instances) are returned as-is.
    """
    entry = registry.get(name)
    if not callable(entry):
        return entry
    try:
        # For classes this is the __init__ signature minus ``self``
        # (and an empty one when __init__ is inherited from object).
        parameters = inspect.signature(entry).parameters
    except (TypeError, ValueError):  # builtins without signatures
        return entry()
    accepts_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())
    if accepts_kwargs:
        kwargs = dict(context)
    else:
        kwargs = {k: v for k, v in context.items() if k in parameters}
    return entry(**kwargs)


#: Resolvers for the policy seams the scheduler, service and control
#: plane accept as an instance, class, or registered name.
placement_policy = policy_registry.resolve
admission_policy = admission_policy_registry.resolve
preemption_policy = preemption_policy_registry.resolve
