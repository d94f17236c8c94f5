"""The built-in deployment variants, registered by name.

These reproduce the evaluation's baselines:

=================  ====================================================
variant            meaning (paper section)
=================  ====================================================
``single``         predicted BW only, single connection (§5.2)
``wanify-p``       uniform parallel connections (§5.3.1)
``wanify-dynamic`` heterogeneous connections + AIMD agents, no
                   throttling (§5.3.1)
``wanify-tc``      the default: heterogeneous + AIMD + TC throttling
``global-only``    global optimizer output applied statically (§5.5)
``local-only``     AIMD within a static 1–8 window (§5.5)
=================  ====================================================

Each is a tiny :class:`~repro.pipeline.stages.DeploymentStrategy`;
registering a new one (``@register_variant("my-variant")``) makes it
reachable from ``Pipeline.deployment("my-variant")``, the runtime
service's ``variant`` config field, and the CLI's ``--variant`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.globalopt import static_range_plan, uniform_plan
from repro.net.matrix import BandwidthMatrix
from repro.net.monitor import SampleSink
from repro.pipeline.deploy import Deployment
from repro.pipeline.registry import register_variant

if TYPE_CHECKING:
    from repro.pipeline.core import Pipeline


class VariantStrategy:
    """Shared plumbing: resolve ``bw`` lazily, stamp the variant name.

    ``telemetry`` is the service's shared sample sink, forwarded at
    build time so custom variants see it too (a variant that deploys
    its own agents must wire it itself).
    """

    #: Registered name; subclasses set their own.
    name = "variant"
    #: Whether the deployment runs AIMD agents.
    agents = False

    def build(
        self,
        pipeline: "Pipeline",
        bw: Optional[BandwidthMatrix],
        at_time: float = 0.0,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
        telemetry: Optional[SampleSink] = None,
    ) -> Deployment:
        """Resolve ``bw`` (predicting if absent), then build + configure."""
        if bw is None:
            bw = pipeline.predict(at_time=at_time)
        deployment = self.deployment(pipeline, bw, skew_weights, rvec)
        return self.configure(deployment, telemetry)

    @staticmethod
    def configure(deployment: Deployment, telemetry: Optional[SampleSink]) -> Deployment:
        """Wire the forwarded sample sink (unset keeps the default)."""
        if telemetry is not None:
            deployment.telemetry = telemetry
        return deployment

    def deployment(
        self,
        pipeline: "Pipeline",
        bw: BandwidthMatrix,
        skew_weights: Optional[dict[str, float]],
        rvec: Optional[dict[str, float]],
    ) -> Deployment:
        """Variant-specific plan construction (subclasses implement)."""
        raise NotImplementedError


@register_variant()
class SingleConnection(VariantStrategy):
    """No plan at all: one TCP connection per pair (the §5.2 baseline)."""

    name = "single"

    def build(
        self,
        pipeline: "Pipeline",
        bw: Optional[BandwidthMatrix],
        at_time: float = 0.0,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
        telemetry: Optional[SampleSink] = None,
    ) -> Deployment:
        """An empty deployment (deliberately skips prediction)."""
        deployment = Deployment(self.name, None, agents=self.agents, throttling=False)
        return self.configure(deployment, telemetry)


@register_variant()
class UniformParallel(VariantStrategy):
    """Every pair at the maximum connection count (WANify-P)."""

    name = "wanify-p"

    def deployment(self, pipeline, bw, skew_weights, rvec) -> Deployment:
        """A flat max-connections plan, no agents or throttles."""
        plan = uniform_plan(bw, pipeline.config.max_connections)
        return Deployment(self.name, plan, agents=self.agents, throttling=False)


@register_variant()
class LocalOnly(VariantStrategy):
    """AIMD agents inside a static 1–max window (§5.5 ablation)."""

    name = "local-only"
    agents = True

    def deployment(self, pipeline, bw, skew_weights, rvec) -> Deployment:
        """AIMD agents inside the full static 1–max window."""
        plan = static_range_plan(bw, 1, pipeline.config.max_connections)
        return Deployment(self.name, plan, agents=self.agents, throttling=True)


@register_variant()
class GlobalOnly(VariantStrategy):
    """The optimizer's window applied statically, no agents (§5.5)."""

    name = "global-only"

    def deployment(self, pipeline, bw, skew_weights, rvec) -> Deployment:
        """The optimizer's window, installed statically."""
        plan = pipeline.plan(bw, skew_weights, rvec)
        return Deployment(self.name, plan, agents=self.agents, throttling=False)


@register_variant()
class DynamicNoThrottle(VariantStrategy):
    """Heterogeneous connections + AIMD, no throttling (WANify-Dynamic)."""

    name = "wanify-dynamic"
    agents = True

    def deployment(self, pipeline, bw, skew_weights, rvec) -> Deployment:
        """Optimized windows + AIMD agents, throttling off."""
        plan = pipeline.plan(bw, skew_weights, rvec)
        return Deployment(self.name, plan, agents=self.agents, throttling=False)


@register_variant()
class ThrottledDynamic(VariantStrategy):
    """The full system: AIMD agents + TC throttling (WANify-TC)."""

    name = "wanify-tc"
    agents = True

    def deployment(self, pipeline, bw, skew_weights, rvec) -> Deployment:
        """Optimized windows + AIMD agents + TC throttling."""
        plan = pipeline.plan(bw, skew_weights, rvec)
        return Deployment(self.name, plan, agents=self.agents, throttling=True)
