"""Online policy switching: bandit arms over the registered policies.

The offline half of the tuner (:mod:`repro.tuner.search`) finds the
cheapest *static* configuration meeting an SLO target.  This module is
the online half: a :class:`PolicySwitcher` the control plane ticks,
which treats (scheduler, preemption[, gauger]) policy bundles as bandit
**arms**, scores them from live scheduler SLO stats per network
*regime* (classified from the telemetry warehouse's rollups), and
hot-swaps the service's policies between control ticks when a
different arm looks better — the Bala-Join move of re-deciding the
strategy mid-run once gauged bandwidth diverges from what the current
policy assumed.

Everything is seeded and deterministic: epsilon-greedy draws from a
``random.Random(config.seed)``, UCB1 breaks ties by arm index, and the
regime classifier reads memoized rollups.  With ``tuner = "none"``
(the default) no switcher is ever constructed, so paper-reproduction
runs are untouched.

The switcher mirrors the bandwidth governor's strict apply/release
ledger: the baseline arm (whatever the config named) is captured at
construction, every swap is counted and observable through the
``on_switch`` hook, and :meth:`PolicySwitcher.close` restores the
baseline bundle so teardown never leaves a switched-in policy active.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.pipeline.registry import (
    build_stage,
    preemption_policy,
    register_tuner_policy,
    tuner_registry,
)

if TYPE_CHECKING:
    from repro.pipeline.config import ServiceConfig
    from repro.runtime.control.plane import ControlPlane
    from repro.runtime.observability.warehouse import MetricsLog
    from repro.runtime.scheduler import JobScheduler

#: Lookback window (s) for regime classification — matches the
#: warehouse's five 1-minute rollup buckets.
REGIME_WINDOW_S = 300.0

#: Mean p95/capacity utilization above which the network regime is
#: ``hot`` (links congested) rather than ``calm``.
HOT_UTILIZATION = 0.5


@dataclass(frozen=True)
class PolicyArm:
    """One pullable policy bundle: admission + preemption (+ gauger).

    ``gauger`` is optional because the gauger lives in the pipeline,
    not the scheduler; it is applied only when the host wires an
    ``apply_gauger`` callback into the switcher (the default arms
    leave it ``None``, keeping switches a pure control-plane affair).
    """

    name: str
    scheduler: str
    preemption: str
    gauger: Optional[str] = None


@dataclass
class ArmStats:
    """Per-(regime, arm) bandit bookkeeping.

    ``pulls`` counts selections, ``rewarded`` counts observation
    windows that actually decided SLOs (windows with no completions
    teach nothing and are skipped), ``total_reward`` accumulates the
    windowed attainment ratio.
    """

    pulls: int = 0
    rewarded: int = 0
    total_reward: float = 0.0

    @property
    def mean_reward(self) -> float:
        """Average attainment over rewarded windows (0 when unseen)."""
        return self.total_reward / self.rewarded if self.rewarded else 0.0


def default_arms(config: "ServiceConfig") -> tuple[PolicyArm, ...]:
    """The stock arm set: the configured baseline plus SLO-leaning arms.

    Arm 0 is always the baseline bundle (exactly what the config named)
    so the bandit can fall back to configured behavior, and so restore
    on :meth:`PolicySwitcher.close` is just "apply arm 0".
    """
    arms = [PolicyArm("baseline", config.scheduler, config.preemption)]
    if config.scheduler != "deadline-edf":
        arms.append(PolicyArm("edf", "deadline-edf", config.preemption))
    if config.preemption != "urgent-slo":
        arms.append(PolicyArm("edf+preempt", "deadline-edf", "urgent-slo"))
    return tuple(arms)


# ----------------------------------------------------------------------
# Bandit policies (the tuner registry's entries)
# ----------------------------------------------------------------------


@register_tuner_policy("none")
class NoSwitch:
    """Sentinel: observation-only, the service builds no switcher.

    Registered so ``tuner = "none"`` validates through the same
    registry as real bandits (mirroring ``preemption = "none"``).
    """

    name = "none"

    def choose(self, arms: Sequence[PolicyArm], stats: Sequence[ArmStats]) -> int:
        """Always the baseline arm."""
        return 0


@register_tuner_policy("epsilon-greedy")
class EpsilonGreedy:
    """Explore with probability ε, else exploit the best mean reward.

    Seeded from ``config.seed`` so a given run always draws the same
    exploration sequence; cold arms are explored first, in arm order,
    before any random draw happens.
    """

    name = "epsilon-greedy"

    def __init__(
        self,
        config: Optional["ServiceConfig"] = None,
        epsilon: float = 0.2,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1]: {epsilon}")
        self.epsilon = epsilon
        if seed is None:
            seed = config.seed if config is not None else 0
        self._rng = random.Random(seed)

    def choose(self, arms: Sequence[PolicyArm], stats: Sequence[ArmStats]) -> int:
        """Cold arms in order, then ε-explore / exploit best mean."""
        for index, entry in enumerate(stats):
            if entry.pulls == 0:
                return index
        if self._rng.random() < self.epsilon:
            return self._rng.randrange(len(arms))
        return max(range(len(arms)), key=lambda i: (stats[i].mean_reward, -i))


@register_tuner_policy("ucb1")
class Ucb1:
    """UCB1: mean reward plus a ``c·sqrt(ln N / n)`` exploration bonus.

    Fully deterministic — cold arms are pulled in arm order, and score
    ties resolve to the lowest arm index (the baseline wins ties).
    """

    name = "ucb1"

    def __init__(self, c: float = math.sqrt(2.0)) -> None:
        self.c = c

    def choose(self, arms: Sequence[PolicyArm], stats: Sequence[ArmStats]) -> int:
        """Cold arms in order, then the highest upper confidence bound."""
        for index, entry in enumerate(stats):
            if entry.pulls == 0:
                return index
        total = sum(entry.pulls for entry in stats)
        bonus = self.c * math.sqrt(math.log(total))

        def score(index: int) -> tuple[float, int]:
            entry = stats[index]
            return (entry.mean_reward + bonus / math.sqrt(entry.pulls), -index)

        return max(range(len(arms)), key=score)


# ----------------------------------------------------------------------
# The switcher
# ----------------------------------------------------------------------


@dataclass
class SwitchEvent:
    """One applied swap, for the ledger and the event trace."""

    time: float
    action: str  # "switch" | "restore"
    previous: PolicyArm
    arm: PolicyArm
    regime: str = "global"


class PolicySwitcher:
    """Bandit-driven hot-swapping of scheduler + preemption policies.

    Constructed by the control plane when ``config.tuner != "none"``
    and ticked at the tail of every control tick (after autoscale /
    preempt / govern, so it scores the world those actuators made).
    One tick does two things:

    1. **observe** — credit the attainment of SLOs decided since the
       last tick to the arm that was live, under the regime the
       warehouse's recent rollups describe;
    2. **decide** — outside the ``switch_cooldown_s`` window, ask the
       bandit for an arm and apply it if it differs from the live one
       (admission swap via ``JobScheduler.set_admission``, preemption
       swap on the plane's ``policy`` slot).
    """

    def __init__(
        self,
        scheduler: "JobScheduler",
        plane: "ControlPlane",
        config: "ServiceConfig",
        warehouse: Optional[Callable[[], Optional["MetricsLog"]]] = None,
        arms: Optional[Sequence[PolicyArm]] = None,
        apply_gauger: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.plane = plane
        self.config = config
        self.bandit = build_stage(tuner_registry, config.tuner, config=config)
        if isinstance(self.bandit, NoSwitch):
            raise ValueError('tuner "none" is observation-only; build no switcher')
        self.arms: tuple[PolicyArm, ...] = (
            tuple(arms) if arms is not None else default_arms(config)
        )
        if not self.arms:
            raise ValueError("a PolicySwitcher needs at least one arm")
        self.warehouse = warehouse
        self.apply_gauger = apply_gauger
        self.cooldown_s = config.switch_cooldown_s
        #: Arm 0 is the configured bundle; close() restores it.
        self.baseline = self.arms[0]
        self.active = self.arms[0]
        self.stats: dict[tuple[str, str], ArmStats] = {}
        self.switches = 0
        self.restores = 0
        self.events: list[SwitchEvent] = []
        #: Swap observer — the observability hub's hook.
        self.on_switch: Optional[Callable[[SwitchEvent], None]] = None
        self._last_decision_at: Optional[float] = None
        self._last_attained = 0.0
        self._last_missed = 0.0
        self._closed = False

    # -- scoring ---------------------------------------------------------

    def _stats_for(self, regime: str, arm: PolicyArm) -> ArmStats:
        return self.stats.setdefault((regime, arm.name), ArmStats())

    def _aggregate(self, arm: PolicyArm) -> ArmStats:
        """The arm's stats summed over every regime seen so far."""
        total = ArmStats()
        for (_, name), entry in self.stats.items():
            if name == arm.name:
                total.pulls += entry.pulls
                total.rewarded += entry.rewarded
                total.total_reward += entry.total_reward
        return total

    def _selection_stats(self, regime: str) -> list[ArmStats]:
        """What the bandit sees: regime stats, global stats as a prior.

        A run only makes a handful of decisions, and regimes shift
        between them; an arm the bandit has never pulled *in this
        regime* borrows its cross-regime aggregate instead of
        presenting as brand-new, so a regime change doesn't reset
        exploration back to arm 0 every time.
        """
        views: list[ArmStats] = []
        for arm in self.arms:
            entry = self._stats_for(regime, arm)
            views.append(entry if entry.pulls else self._aggregate(arm))
        return views

    def regime(self, now: float) -> str:
        """Classify the current operating regime, deterministically.

        Network side from the warehouse's recent 1-minute link rollups
        (``hot`` when mean p95 utilization crosses
        :data:`HOT_UTILIZATION`, else ``calm``; ``calm`` again when no
        warehouse or no recent rows exist), crossed with queue pressure
        (``backlogged`` when more jobs wait than can run).  Four
        regimes keep the per-regime sample counts high enough for the
        bandit to converge within a run.
        """
        net = "calm"
        log = self.warehouse() if self.warehouse is not None else None
        if log is not None and log.size:
            recent = [
                row
                for row in log.rollup("1m", by="link")
                if row.bucket_start >= now - REGIME_WINDOW_S
                and row.capacity_mbps > 0.0
            ]
            if recent:
                utilization = sum(
                    row.p95_mbps / row.capacity_mbps for row in recent
                ) / len(recent)
                if utilization >= HOT_UTILIZATION:
                    net = "hot"
        load = (
            "backlogged"
            if len(self.scheduler.queued) > self.scheduler.max_concurrent
            else "steady"
        )
        return f"{net}-{load}"

    def _observe(self, regime: str) -> None:
        """Credit the live arm with the window's attainment ratio."""
        stats = self.scheduler.stats()
        attained, missed = stats["slo_attained"], stats["slo_missed"]
        delta_attained = attained - self._last_attained
        delta_missed = missed - self._last_missed
        self._last_attained, self._last_missed = attained, missed
        decided = delta_attained + delta_missed
        if decided <= 0:
            return
        entry = self._stats_for(regime, self.active)
        entry.rewarded += 1
        entry.total_reward += delta_attained / decided

    # -- actuation -------------------------------------------------------

    def tick(self, now: float) -> None:
        """One control-tick step: observe, then (maybe) switch."""
        if self._closed:
            return
        regime = self.regime(now)
        self._observe(regime)
        if (
            self._last_decision_at is not None
            and now - self._last_decision_at < self.cooldown_s
        ):
            return
        self._last_decision_at = now
        index = self.bandit.choose(self.arms, self._selection_stats(regime))
        arm = self.arms[index]
        self._stats_for(regime, arm).pulls += 1
        if arm != self.active:
            self._apply(now, arm, action="switch", regime=regime)

    def _apply(
        self, now: float, arm: PolicyArm, action: str, regime: str = "global"
    ) -> None:
        self.scheduler.set_admission(arm.scheduler)
        self.plane.policy = preemption_policy(arm.preemption)
        if arm.gauger is not None and self.apply_gauger is not None:
            self.apply_gauger(arm.gauger)
        previous, self.active = self.active, arm
        if action == "switch":
            self.switches += 1
        else:
            self.restores += 1
        event = SwitchEvent(
            time=now, action=action, previous=previous, arm=arm, regime=regime
        )
        self.events.append(event)
        if self.on_switch is not None:
            self.on_switch(event)

    def close(self) -> None:
        """Restore the baseline bundle — the apply/restore ledger's exit.

        Idempotent, and a no-op when the baseline arm is already live;
        after it, ``switches == restores + (active is baseline)`` never
        leaves a switched-in policy active past teardown.
        """
        if self._closed:
            return
        self._closed = True
        if self.active != self.baseline:
            self._apply(self.scheduler.sim.now, self.baseline, action="restore")

    # -- reporting -------------------------------------------------------

    def arm_stats(self) -> dict[str, dict[str, float]]:
        """Per-arm totals aggregated over regimes (pulled arms only)."""
        out: dict[str, dict[str, float]] = {}
        for (_, arm_name), entry in sorted(self.stats.items()):
            if entry.pulls == 0 and entry.rewarded == 0:
                continue
            bucket = out.setdefault(
                arm_name, {"pulls": 0.0, "rewarded": 0.0, "total_reward": 0.0}
            )
            bucket["pulls"] += entry.pulls
            bucket["rewarded"] += entry.rewarded
            bucket["total_reward"] += entry.total_reward
        for bucket in out.values():
            bucket["mean_reward"] = (
                bucket["total_reward"] / bucket["rewarded"]
                if bucket["rewarded"]
                else 0.0
            )
        return out

    @property
    def arms_explored(self) -> int:
        """Distinct arms pulled at least once (any regime)."""
        return len({name for (_, name), s in self.stats.items() if s.pulls})
