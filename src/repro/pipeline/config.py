"""One layered configuration system for facade, service, and CLI.

Every knob lives in a frozen dataclass — :class:`PipelineConfig` for
the one-shot pipeline, :class:`ServiceConfig` (a superset) for the
runtime service — and every entry point resolves values through the
same four layers, lowest precedence first:

1. dataclass defaults (the paper's settings);
2. a TOML or JSON config file (``--config run.toml`` /
   ``layered_config(path=...)``);
3. ``WANIFY_*`` environment variables (``WANIFY_SEED=7``);
4. explicit overrides — CLI flags actually present on the command
   line, or keyword arguments in code.

CLI arguments are *generated* from the dataclass fields by
:class:`ConfigArguments`, so adding a field to a config class makes it
reachable from the command line (and the environment, and config
files) with no argparse edits.  Field metadata controls the flag
spelling (``cli="--datasets"``), help text, opt-outs (``cli=False``
for fields an entry point wires manually) and valid values (``check=``).

Values are checked at construction (any layer, or
:func:`dataclasses.replace`): floats finite, ranged fields in range,
``autoscale_max`` at or above the concurrency floor when autoscaling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.checks import (
    check_autoscale, check_batch, check_concurrency, check_connections, check_datasets,
    check_deadline, check_estimators, check_kernel, check_min_difference, check_shards,
    check_threshold, check_workers,
)
from repro.cloud.regions import PAPER_REGIONS
from repro.core.globalopt import DEFAULT_MAX_CONNECTIONS
from repro.core.localopt import EPOCH_S

#: Prefix for environment-variable overrides (layer 3).
ENV_PREFIX = "WANIFY_"


def config_field(
    default: Any,
    help: str = "",  # noqa: A002 - mirrors argparse's spelling
    cli: Union[str, bool, None] = None,
    check: Optional[Callable[[Any], None]] = None,
) -> Any:
    """A dataclass field carrying CLI/help metadata.

    ``cli`` may be a flag spelling (``"--datasets"``), ``False`` to
    keep the field off the command line, or ``None`` for the default
    ``--field-name`` spelling.  ``check`` raises :class:`ValueError`
    for an out-of-range value (``None`` is never checked).
    """
    return dataclasses.field(default=default, metadata={"help": help, "cli": cli, "check": check})


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables for the gauge → predict → plan → deploy pipeline.

    Defaults follow the paper; the ``variant`` and ``policy`` fields
    name entries in the :mod:`repro.pipeline.registry` registries, so
    registered extensions are selectable from any entry point.
    """

    max_connections: int = config_field(
        DEFAULT_MAX_CONNECTIONS, help="per-pair connection ceiling", check=check_connections
    )
    min_difference_mbps: float = config_field(
        100.0, help="Eq. 3 balance tolerance (Mbps)", check=check_min_difference
    )
    n_training_datasets: int = config_field(
        120, help="training datasets", cli="--datasets", check=check_datasets
    )
    n_estimators: int = config_field(
        100, help="forest size", cli="--estimators", check=check_estimators
    )
    seed: int = config_field(13, help="weather / campaign seed")
    variant: str = config_field("wanify-tc", help="deployment variant (registered name)")
    policy: str = config_field("tetrium", help="placement policy (registered name)")
    #: Stage choices — each names an entry in the matching stage
    #: registry, so alternate implementations (``passive-telemetry``,
    #: ``cached``, ``multi-backend``) are selectable from any entry
    #: point, including the sweep matrix.
    gauger: str = config_field("snapshot", help="gauger stage (registered name)")
    predictor: str = config_field("forest", help="predictor stage (registered name)")
    planner: str = config_field("window", help="planner stage (registered name)")
    #: Knobs for the ``cached`` predictor (ignored by the others).
    cache_ttl_s: float = config_field(600.0, help="cached predictor TTL (s)")
    cache_drift_tolerance: float = config_field(
        0.15, help="cached predictor re-infer threshold (relative snapshot drift)"
    )

    def __post_init__(self) -> None:
        for field_ in dataclasses.fields(self):
            value, check = getattr(self, field_.name), field_.metadata.get("check")
            # Finiteness first: NaN passes every range (comparisons are False).
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field_.name} must be finite (got {value})")
            if check is not None and value is not None:
                check(value)


@dataclass(frozen=True)
class ServiceConfig(PipelineConfig):
    """Everything needed to build and run a service instance.

    Extends :class:`PipelineConfig` — the service hands itself to the
    pipeline it is built on, so every pipeline knob is a service knob.
    """

    regions: tuple[str, ...] = config_field(PAPER_REGIONS, help="region keys", cli=False)
    vm: str = config_field("t2.medium", help="VM type key")
    profile: str = config_field(
        "vpc-peering",
        help="network profile: vpc-peering, public-internet, edge-cloud",
    )
    seed: int = config_field(42, help="weather / campaign seed")
    #: Named (or ``+``-composed) scenario from the scenario registry;
    #: ``None`` runs plain seeded weather.
    scenario: Optional[str] = config_field(
        None,
        help="bandwidth scenario (registered name, + composes)",
    )
    #: ``False`` freezes the control loop after the initial plan.
    online: bool = config_field(True, help="enable online re-planning", cli=False)
    throttling: bool = config_field(True, help="throttle BW-rich pairs")
    max_concurrent: int = config_field(3, help="concurrent jobs admitted", check=check_concurrency)
    #: Admission policy — names an entry in
    #: ``repro.pipeline.registry.admission_policy_registry`` (``fifo``,
    #: ``priority``, ``deadline-edf``, ``fair-share``, or anything
    #: registered from user code).
    scheduler: str = config_field("fifo", help="admission policy (registered name)")
    #: Scheduler shard count.  ``1`` keeps the single shared-queue
    #: ``JobScheduler`` (byte-identical to the pre-sharding service);
    #: ``>1`` builds a ``ShardedScheduler`` hashing tenants across N
    #: independent shards with work-stealing between them on idle.
    scheduler_shards: int = config_field(
        1, help="scheduler shards (1 = single shared queue)", check=check_shards
    )
    #: Worker processes for the partitioned shard executor (the
    #: ``drain_parallel`` scale-out path).  ``0`` — the default — never
    #: builds the executor, keeping the in-process scheduler
    #: byte-identical to before; ``1`` drains the partitioned shards
    #: serially in-process (the deterministic reference); ``≥ 2`` fans
    #: them out over a multiprocessing pool, one seeded self-contained
    #: simulation per shard, with identical results at any worker
    #: count.
    shard_workers: int = config_field(
        0, help="shard worker processes (0 = in-process)", check=check_workers
    )
    #: Transfer-advancement kernel for the WAN simulator: ``scalar``
    #: advances each transfer from Python (the reference path);
    #: ``vectorized`` advances a link's concurrent transfers as one
    #: numpy vector once it carries more than two.  Both are
    #: bit-identical; only the wall-clock differs.
    kernel: str = config_field(
        "scalar", help="transfer kernel: scalar or vectorized", check=check_kernel
    )
    #: Default per-job SLO deadline, seconds from submission.  Unset
    #: means jobs carry no deadline (and SLO attainment reads 100%).
    slo_deadline_s: Optional[float] = config_field(
        None, help="per-job SLO deadline (s from submission; unset = none)", check=check_deadline
    )
    #: Submissions between admission-queue re-orderings — the batched
    #: reallocation knob (1 = exact policy order on every admission).
    admit_batch: int = config_field(
        16, help="submissions between admission re-orderings", check=check_batch
    )
    #: Probe-dollar budget for drift-triggered re-plans; once the
    #: charged re-gauge cost reaches it, further re-plans are skipped.
    replan_budget_usd: Optional[float] = config_field(
        None, help="probe-dollar budget for re-plans (unlimited when unset)"
    )
    #: Preemption policy — names an entry in
    #: ``repro.pipeline.registry.preemption_policy_registry`` (``none``,
    #: ``urgent-slo``, ``cost-aware``, or anything registered from user
    #: code).  ``none`` keeps the pre-control-plane behavior exactly.
    preemption: str = config_field(
        "none", help="preemption policy (registered name)"
    )
    #: Deadline-aware bandwidth governor: shift WAN share from
    #: slack-rich to slack-poor running jobs via traffic-control caps.
    governor: bool = config_field(
        False, help="deadline-aware bandwidth governor"
    )
    #: Autoscale the scheduler's ``max_concurrent`` between its
    #: configured value (the floor) and ``autoscale_max``.
    autoscale: bool = config_field(
        False, help="autoscale max_concurrent from queue depth/attainment"
    )
    #: Autoscaler concurrency ceiling (``max_concurrent`` is the floor).
    autoscale_max: int = config_field(
        6, help="autoscaler max_concurrent ceiling"
    )
    epoch_s: float = config_field(EPOCH_S, help="AIMD agent epoch (s)")
    check_interval_s: float = config_field(30.0, help="drift check period (s)")
    #: Mirrors ``repro.runtime.drift.DEFAULT_THRESHOLD`` — duplicated
    #: here (and equality-tested) so the light config layer does not
    #: import the runtime package.
    drift_threshold: float = config_field(
        0.45, help="relative error firing a re-plan", check=check_threshold
    )
    #: Mirrors ``repro.runtime.drift.DEFAULT_COOLDOWN_S``.
    cooldown_s: float = config_field(240.0, help="minimum gap between re-plans (s)")
    max_replans: Optional[int] = config_field(None, help="re-plan budget (unlimited when unset)")
    #: Continuous capacity recalibration: a background gauger that
    #: re-derives each link's usable capacity from the p95 of observed
    #: throughput on an interval, keeping plans honest between drift
    #: re-plans.  Off by default — every pre-existing run stays
    #: byte-identical.
    recalibrate: bool = config_field(
        False, help="continuous capacity recalibration loop"
    )
    #: The observability hub: metrics warehouse, event trace, and the
    #: Prometheus rendering surface.  On by default — every hook is
    #: observation-only and the ingest path is an O(1) append, so runs
    #: are numerically identical either way (the runtime benchmark
    #: pins the overhead below 5 %).
    observability: bool = config_field(
        True, help="telemetry warehouse + event trace + metrics surface"
    )
    #: Port for the Prometheus ``/metrics`` endpoint during ``serve``
    #: (0 binds an ephemeral port and prints it; unset serves nothing).
    metrics_port: Optional[int] = config_field(
        None, help="serve /metrics on this port (0 = ephemeral; unset = off)"
    )
    #: Online policy switcher — names an entry in
    #: ``repro.pipeline.registry.tuner_registry`` (``none``,
    #: ``epsilon-greedy``, ``ucb1``, or anything registered from user
    #: code).  ``none`` (the default) builds no switcher at all, so
    #: every pre-existing run stays byte-identical.
    tuner: str = config_field("none", help="online policy switcher (registered name)")
    #: SLO-attainment floor the offline ``wanify tune`` search treats
    #: as its feasibility constraint (also the ``[tune]`` table's
    #: default ``target``).
    tune_target: float = config_field(
        0.9, help="SLO-attainment target for `wanify tune`"
    )
    #: Minimum simulated seconds between switcher decisions.  Matches
    #: the re-plan cooldown default so policy churn and re-planning
    #: settle on the same timescale.
    switch_cooldown_s: float = config_field(
        240.0, help="cooldown between policy-switch decisions (s)"
    )
    #: Training-campaign size (small defaults keep service start cheap;
    #: raise toward the paper's 120/100 for fidelity studies).
    n_training_datasets: int = config_field(
        24, help="training datasets", cli="--datasets", check=check_datasets
    )
    n_estimators: int = config_field(
        16, help="forest size", cli="--estimators", check=check_estimators
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.autoscale:
            # The floor is the scheduler's bound: a shard keeps one slot.
            check_autoscale(self.autoscale_max, max(self.max_concurrent, self.scheduler_shards))


# ----------------------------------------------------------------------
# Layer resolution
# ----------------------------------------------------------------------


def _field_types(cls: type) -> dict[str, Any]:
    """Resolved (non-string) annotations for a config dataclass."""
    return typing.get_type_hints(cls)


def _unwrap_optional(tp: Any) -> tuple[Any, bool]:
    """``Optional[X]`` → ``(X, True)``; anything else → ``(tp, False)``."""
    if typing.get_origin(tp) is Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return tp, False


_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def _coerce(name: str, tp: Any, raw: Any) -> Any:
    """Coerce a file/env value to a field's annotated type."""
    tp, optional = _unwrap_optional(tp)
    if raw is None:
        return None
    if isinstance(raw, str) and optional and raw.lower() in {"", "none"}:
        return None
    if tp is bool:
        if isinstance(raw, bool):
            return raw
        lowered = str(raw).strip().lower()
        if lowered in _TRUTHY:
            return True
        if lowered in _FALSY:
            return False
        raise ValueError(f"cannot read {raw!r} as a boolean for {name!r}")
    if tp in (int, float, str):
        return tp(raw)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if isinstance(raw, str):
            raw = [part for part in raw.replace(",", " ").split() if part]
        return tuple(str(item) for item in raw)
    return raw


def load_config_file(path: Union[str, Path]) -> dict[str, Any]:
    """Read a flat TOML (``.toml``) or JSON mapping of field values."""
    path = Path(path)
    if path.suffix == ".toml":
        import tomllib

        with path.open("rb") as handle:
            data = tomllib.load(handle)
    else:
        data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a table/object")
    return data


def env_overrides(cls: type, environ: Optional[Mapping[str, str]] = None) -> dict[str, Any]:
    """``WANIFY_<FIELD>`` values coerced to the fields of ``cls``.

    Fields with a CLI alias accept the alias spelling too
    (``WANIFY_DATASETS`` for ``n_training_datasets``); the field-name
    spelling wins when both are set.
    """
    environ = os.environ if environ is None else environ
    types = _field_types(cls)
    found: dict[str, Any] = {}
    for field_ in dataclasses.fields(cls):
        names = [ENV_PREFIX + field_.name.upper()]
        cli = field_.metadata.get("cli")
        if isinstance(cli, str):
            alias = cli.lstrip("-").replace("-", "_").upper()
            names.append(ENV_PREFIX + alias)
        for env_name in names:
            raw = environ.get(env_name)
            if raw is not None:
                found[field_.name] = _coerce(field_.name, types[field_.name], raw)
                break
    return found


def layered_config(
    cls: type,
    *,
    path: Union[str, Path, None] = None,
    environ: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    defaults: Optional[Mapping[str, Any]] = None,
):
    """Resolve a config instance through the four layers.

    ``defaults`` sit just above the dataclass defaults (an entry
    point's own preferences, e.g. the CLI's fast training sizes);
    ``overrides`` win over everything (explicit CLI flags / kwargs).
    File keys that are not fields of ``cls`` are ignored, so one file
    can feed entry points with different config classes.
    """
    names = {field_.name for field_ in dataclasses.fields(cls)}
    types = _field_types(cls)
    values: dict[str, Any] = dict(defaults or {})
    if path is not None:
        for key, raw in load_config_file(path).items():
            if key in names:
                values[key] = _coerce(key, types[key], raw)
    values.update(env_overrides(cls, environ))
    values.update(overrides or {})
    return cls(**values)


# ----------------------------------------------------------------------
# CLI generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ArgSpec:
    field_name: str
    dest: str
    flag: str
    type: Any
    optional: bool
    default: Any
    help: str


class ConfigArguments:
    """Auto-generated argparse arguments for a config dataclass.

    ``defaults`` override the dataclass defaults for this entry point
    (they stay in the *defaults* layer, beneath files and env vars);
    ``exclude`` drops fields the command wires another way.  Call
    :meth:`install` on a subparser, then :meth:`resolve` on the parsed
    namespace — only flags literally present on the command line become
    top-layer overrides, so ``--config`` files and ``WANIFY_*`` vars
    still reach everything left at its default.
    """

    def __init__(
        self,
        cls: type,
        defaults: Optional[Mapping[str, Any]] = None,
        exclude: Sequence[str] = (),
    ) -> None:
        self.cls = cls
        self.defaults = dict(defaults or {})
        self.specs: list[_ArgSpec] = []
        types = _field_types(cls)
        for field_ in dataclasses.fields(cls):
            cli = field_.metadata.get("cli")
            if cli is False or field_.name in exclude:
                continue
            flag = cli or "--" + field_.name.replace("_", "-")
            tp, optional = _unwrap_optional(types[field_.name])
            default = self.defaults.get(field_.name, field_.default)
            spec = _ArgSpec(
                field_name=field_.name,
                # Namespace attribute follows the flag spelling
                # (``--datasets`` → ``args.datasets``), matching
                # what a hand-written parser would produce.
                dest=flag.lstrip("-").replace("-", "_"),
                flag=flag,
                type=tp,
                optional=optional,
                default=default,
                help=field_.metadata.get("help", ""),
            )
            self.specs.append(spec)

    def _add(self, parser: argparse.ArgumentParser, spec: _ArgSpec) -> None:
        help_text = f"{spec.help} (default: {spec.default})"
        if spec.type is bool:
            parser.add_argument(
                spec.flag,
                dest=spec.dest,
                action=argparse.BooleanOptionalAction,
                default=spec.default,
                help=help_text,
            )
        else:
            parser.add_argument(
                spec.flag,
                dest=spec.dest,
                type=spec.type,
                default=spec.default,
                help=help_text,
            )

    def install(self, parser: argparse.ArgumentParser) -> None:
        """Add ``--config`` plus one generated argument per field."""
        parser.add_argument(
            "--config",
            dest="config_file",
            metavar="FILE",
            default=None,
            help="TOML/JSON config file layered beneath explicit flags",
        )
        for spec in self.specs:
            self._add(parser, spec)

    def explicit(self, argv: Sequence[str]) -> dict[str, Any]:
        """Values for flags literally present in ``argv``.

        A twin parser with suppressed defaults re-reads the command
        line, so a flag left unset is absent here — and a config file
        or environment variable can still claim it.
        """
        twin = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
        for spec in self.specs:
            self._add(twin, dataclasses.replace(spec, default=argparse.SUPPRESS))
        namespace, _ = twin.parse_known_args(list(argv))
        by_dest = {spec.dest: spec.field_name for spec in self.specs}
        return {by_dest[dest]: value for dest, value in vars(namespace).items()}

    def resolve(
        self,
        args: argparse.Namespace,
        environ: Optional[Mapping[str, str]] = None,
        **extra: Any,
    ):
        """Layered config instance for a parsed namespace.

        ``extra`` supplies overrides for fields the command wires
        manually (e.g. ``regions`` from positionals, ``online`` from
        ``--static``).
        """
        argv = getattr(args, "_argv", None)
        if argv is not None:
            overrides = self.explicit(argv)
        else:
            # No raw argv recorded (direct parse_args callers): treat
            # any value differing from this entry point's default as
            # explicit.
            overrides = {
                spec.field_name: getattr(args, spec.dest)
                for spec in self.specs
                if getattr(args, spec.dest) != spec.default
            }
        overrides.update(extra)
        return layered_config(
            self.cls,
            path=getattr(args, "config_file", None),
            environ=environ,
            overrides=overrides,
            defaults=self.defaults,
        )
