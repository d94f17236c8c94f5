"""SAGQ [15]: self-adaptive gradient quantization for geo-distributed ML.

Geo-distributed synchronous training alternates local compute with an
all-to-all gradient exchange.  SAGQ shrinks the exchanged payload by
quantizing gradients per link — fewer bits over weaker links — "without
compromising model accuracy".  The quantization decision needs a BW
matrix, which is where WANify plugs in:

==========  =========================================================
variant     BW source for quantization / network setup (§5.6)
==========  =========================================================
``NoQ``     no quantization (32-bit everywhere)
``SAGQ``    static-independent BWs
``SimQ``    static-simultaneous BWs
``PredQ``   WANify-predicted runtime BWs
``WQ``      predicted BWs + WANify-TC parallel heterogeneous
            connections installed on the network
==========  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.cost import CostBreakdown, job_cost
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.deploy import Deployment

#: Quantization ladder: (minimum decision BW in Mbps, gradient bits).
#: Strong links keep full precision; the weakest drop to 4 bits.  The
#: thresholds sit where static-independent and runtime BWs disagree
#: (mid-distance links measure 200–1200 Mbps statically but deliver a
#: fraction of that under all-to-all gradient exchange), which is what
#: separates SAGQ from SimQ/PredQ in Fig. 4.
BITS_LADDER: tuple[tuple[float, int], ...] = (
    (800.0, 32),
    (350.0, 16),
    (120.0, 8),
    (0.0, 4),
)

#: Full-precision gradient bits.
FULL_BITS = 32


def bits_for_bw(bw_mbps: float) -> int:
    """Gradient precision for a link of the given (believed) BW.

    >>> bits_for_bw(1000.0)
    32
    >>> bits_for_bw(120.0)
    4
    """
    for threshold, bits in BITS_LADDER:
        if bw_mbps >= threshold:
            return bits
    return BITS_LADDER[-1][1]


@dataclass(frozen=True)
class MLModelSpec:
    """The trained model and its communication/compute profile.

    Defaults are calibrated to the paper's setup (§5.6): MNIST expanded
    to ~6.8 GB via PySpark unions, a 3-Dense/3-Activation/2-Dropout
    model trained for 10 epochs on the 8-DC cluster via elephas-style
    synchronization, which ships substantial per-epoch state between
    workers.  ``sync_mb_per_pair`` is the full-precision per-epoch
    gradient/weight traffic per ordered worker pair.
    """

    name: str = "mnist-dense"
    sync_mb_per_pair: float = 600.0
    compute_s_per_epoch: float = 180.0
    test_accuracy: float = 0.97

    def payload_mb(self, bits: int) -> float:
        """Per-pair payload at the given quantization."""
        if bits < 1 or bits > FULL_BITS:
            raise ValueError(f"bits out of range [1, 32]: {bits}")
        return self.sync_mb_per_pair * bits / FULL_BITS


@dataclass
class TrainingResult:
    """Outcome of a geo-distributed training run."""

    variant: str
    epochs: int
    total_s: float
    compute_s: float
    network_s: float
    cost: CostBreakdown
    min_bw_mbps: float
    bits_by_pair: dict[tuple[str, str], int] = field(default_factory=dict)
    test_accuracy: float = 0.97

    @property
    def total_minutes(self) -> float:
        """Training time in minutes (Fig. 4's unit)."""
        return self.total_s / 60.0


class SagqTrainer:
    """Runs quantized synchronous training on a geo cluster."""

    def __init__(
        self,
        cluster: GeoCluster,
        model: MLModelSpec = MLModelSpec(),
        epochs: int = 10,
    ) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be ≥ 1: {epochs}")
        self.cluster = cluster
        self.model = model
        self.epochs = epochs

    def bits_matrix(
        self, decision_bw: Optional[BandwidthMatrix]
    ) -> dict[tuple[str, str], int]:
        """Per-pair precision from a decision BW matrix (None → 32)."""
        bits: dict[tuple[str, str], int] = {}
        for src in self.cluster.keys:
            for dst in self.cluster.keys:
                if src == dst:
                    continue
                if decision_bw is None:
                    bits[(src, dst)] = FULL_BITS
                else:
                    bits[(src, dst)] = bits_for_bw(decision_bw.get(src, dst))
        return bits

    def run(
        self,
        variant: str,
        decision_bw: Optional[BandwidthMatrix] = None,
        deployment: Optional[Deployment] = None,
    ) -> TrainingResult:
        """Train for the configured epochs under one §5.6 variant."""
        network = self.cluster.network
        sim = network.sim
        network.reset_statistics()
        network.tc.clear_all()
        network.set_connection_plan(
            BandwidthMatrix.full(self.cluster.keys, 1.0)
        )
        if deployment is not None:
            deployment.install(network)

        bits = self.bits_matrix(decision_bw)
        t0 = sim.now
        compute_total = 0.0
        network_total = 0.0
        for _ in range(self.epochs):
            # Local compute phase (data-parallel, all DCs in lockstep).
            sim.run(until=sim.now + self.model.compute_s_per_epoch)
            compute_total += self.model.compute_s_per_epoch
            # Synchronous gradient exchange.
            start = sim.now
            pending = [0]

            def done(_t) -> None:
                pending[0] -= 1

            for (src, dst), link_bits in bits.items():
                payload = self.model.payload_mb(link_bits)
                pending[0] += 1
                network.start_transfer(
                    src, dst, payload * 8.0, on_complete=done, tag="allreduce"
                )
            while pending[0] > 0:
                if not sim.step():
                    raise RuntimeError("training sync stalled")
            network_total += sim.now - start

        total_s = sim.now - t0
        cost = job_cost(
            self.cluster,
            total_s,
            network.total_wan_mbits(),
            input_mb=6.8 * 1024.0,
        )
        min_bw = network.min_observed_bw()
        if deployment is not None:
            deployment.teardown(network)
        return TrainingResult(
            variant=variant,
            epochs=self.epochs,
            total_s=total_s,
            compute_s=compute_total,
            network_s=network_total,
            cost=cost,
            min_bw_mbps=min_bw,
            bits_by_pair=bits,
            test_accuracy=self.model.test_accuracy,
        )
