"""iPerf-like bandwidth measurement with cost accounting.

The paper distinguishes four ways of obtaining a BW matrix (§2.2):

* **static-independent** — one DC pair probed at a time on an otherwise
  idle mesh (what Tetrium/Kimchi/Iridium do).  Cheap-ish, but ignores
  the contention that exists during real shuffles;
* **static-simultaneous** — every pair probed at once.  This *is* the
  runtime contention pattern, but probing a full mesh for ≥20 s is the
  expensive option Table 2 prices;
* **snapshot** — a 1-second simultaneous probe.  Noisy but cheap; the
  input feature of WANify's predictor;
* **stable runtime** — a ≥20-second simultaneous average ("empirical
  results on AWS suggest that stable runtime BWs are achieved with at
  least 20 seconds of monitoring", §2.2).  The predictor's target.

Every mode runs actual probe flows through the flow-level simulator, so
contended modes inherit exactly the same RTT-biased sharing the
analytics traffic experiences.  Each report carries the Table 3 feature
set and an Eq. 1-style cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.pricing import PriceBook
from repro.net import tcp
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

#: Probe VM used by the paper's Bandwidth Analyzer (Table 2, §2.2).
PROBE_VM = "t3.nano"

#: Stable-runtime window (§2.2).
STABLE_WINDOW_S = 20.0

#: Snapshot window (§2.2).
SNAPSHOT_WINDOW_S = 1.0


@dataclass
class MeasurementCost:
    """What a measurement cost: instance time plus probe traffic."""

    instance_seconds: float = 0.0
    gigabytes: float = 0.0
    dollars: float = 0.0


@dataclass
class MeasurementReport:
    """A measured BW matrix plus per-pair auxiliary features.

    ``memory_util``, ``cpu_load`` and ``retransmissions`` are the
    Table 3 features (``Md``, ``Ci``, ``Nr``); keys are DC keys for the
    first two and ordered pairs for the last.
    """

    mode: str
    matrix: BandwidthMatrix
    window_s: float
    time: float
    cost: MeasurementCost = field(default_factory=MeasurementCost)
    memory_util: dict[str, float] = field(default_factory=dict)
    cpu_load: dict[str, float] = field(default_factory=dict)
    retransmissions: dict[tuple[str, str], float] = field(default_factory=dict)


def _probe_cost(
    topology: Topology,
    instance_seconds: float,
    total_mbits: float,
    prices: PriceBook,
) -> MeasurementCost:
    gigabytes = total_mbits / 8.0 / 1024.0
    dollars = (
        prices.compute_cost(PROBE_VM, instance_seconds)
        + prices.network_cost(gigabytes)
    )
    return MeasurementCost(instance_seconds, gigabytes, dollars)


def _aux_features(
    topology: Topology,
    network: NetworkSimulator,
    matrix: BandwidthMatrix,
    window_s: float,
    seed_time: float,
) -> tuple[dict[str, float], dict[str, float], dict[tuple[str, str], float]]:
    """Synthesize Md / Ci / Nr consistently with the probe activity.

    Receiver memory utilization grows with the number of incoming
    connections (each needs a buffer, §3.1 [17]); CPU load with the
    number of active probe flows; retransmission counts follow the
    loss-rate estimate of the TCP model times the delivered volume.
    """
    memory_util: dict[str, float] = {}
    cpu_load: dict[str, float] = {}
    retrans: dict[tuple[str, str], float] = {}
    rng = np.random.default_rng(int(seed_time * 1000) % (2**32))
    for dst in topology.keys:
        incoming = sum(
            network.connections(src, dst)
            for src in topology.keys
            if src != dst
        )
        base = 0.15 + 0.02 * incoming / max(1, topology.dc(dst).num_vms)
        util = base + rng.normal(0, 0.02)
        # ``np.clip`` by comparisons: the same double, NaN included.
        if util < 0.05:
            util = 0.05
        elif util > 0.98:
            util = 0.98
        memory_util[dst] = util
    for src in topology.keys:
        flows = sum(1 for dst in topology.keys if dst != src)
        base = 0.10 + 0.05 * flows / max(1, topology.dc(src).num_vms)
        load = base + rng.normal(0, 0.03)
        if load < 0.02:
            load = 0.02
        elif load > 1.0:
            load = 1.0
        cpu_load[src] = load
    for src, dst in matrix.pairs():
        rtt = topology.rtt_ms(src, dst)
        loss = topology.tcp.loss_rate_estimate(rtt)
        mbits = matrix.get(src, dst) * window_s
        packets = mbits * 1e6 / (1460 * 8)
        retrans[(src, dst)] = float(max(0.0, packets * loss))
    return memory_util, cpu_load, retrans


def _run_probe_mesh(
    topology: Topology,
    pairs: list[tuple[str, str]],
    window_s: float,
    fluctuation: FluctuationModel | StaticModel,
    at_time: float,
    connections: int | BandwidthMatrix = 1,
) -> tuple[BandwidthMatrix, NetworkSimulator]:
    """Run iPerf probes for ``pairs`` for ``window_s`` seconds."""
    network = NetworkSimulator(
        topology, fluctuation=fluctuation, time_offset=at_time
    )
    if isinstance(connections, BandwidthMatrix):
        network.set_connection_plan(connections)
    elif connections != 1:
        for src, dst in pairs:
            network.set_connections(src, dst, int(connections))
    probes = [
        network.start_transfer(src, dst, size_mbits=1e12, tag="iperf")
        for src, dst in pairs
    ]
    network.sim.run(until=network.sim.now + window_s)
    matrix = network.observed_bw_matrix()
    for probe in probes:
        network.cancel_transfer(probe)
    return matrix, network


def measure_independent(
    topology: Topology,
    fluctuation: FluctuationModel | StaticModel | None = None,
    at_time: float = 0.0,
    window_s: float = STABLE_WINDOW_S,
    prices: PriceBook | None = None,
) -> MeasurementReport:
    """Static-independent BWs: one pair at a time, single connection.

    This is the measurement existing GDA systems feed their optimizers.
    """
    fluctuation = fluctuation if fluctuation is not None else StaticModel()
    prices = prices or PriceBook()
    out = BandwidthMatrix.zeros(topology.keys)
    total_mbits = 0.0
    last_network = None
    for src in topology.keys:
        for dst in topology.keys:
            if src == dst:
                continue
            matrix, network = _run_probe_mesh(
                topology, [(src, dst)], window_s, fluctuation, at_time
            )
            out.set(src, dst, matrix.get(src, dst))
            total_mbits += matrix.get(src, dst) * window_s
            last_network = network
    # Each pair probe occupies the two endpoint VMs for the window; the
    # mesh is probed pair-by-pair (sequentially, as iPerf is run).
    n_pairs = topology.n * (topology.n - 1)
    instance_seconds = 2 * window_s * n_pairs
    cost = _probe_cost(topology, instance_seconds, total_mbits, prices)
    md, ci, nr = _aux_features(
        topology, last_network, out, window_s, at_time
    )
    return MeasurementReport(
        "independent", out, window_s, at_time, cost, md, ci, nr
    )


def measure_simultaneous(
    topology: Topology,
    fluctuation: FluctuationModel | StaticModel | None = None,
    at_time: float = 0.0,
    window_s: float = STABLE_WINDOW_S,
    connections: int | BandwidthMatrix = 1,
    prices: PriceBook | None = None,
) -> MeasurementReport:
    """All-pairs simultaneous BWs — the true runtime contention pattern."""
    fluctuation = fluctuation if fluctuation is not None else StaticModel()
    prices = prices or PriceBook()
    pairs = [
        (src, dst)
        for src in topology.keys
        for dst in topology.keys
        if src != dst
    ]
    matrix, network = _run_probe_mesh(
        topology, pairs, window_s, fluctuation, at_time, connections
    )
    total_mbits = float(matrix.off_diagonal().sum()) * window_s
    instance_seconds = topology.n * window_s
    cost = _probe_cost(topology, instance_seconds, total_mbits, prices)
    md, ci, nr = _aux_features(topology, network, matrix, window_s, at_time)
    return MeasurementReport(
        "simultaneous", matrix, window_s, at_time, cost, md, ci, nr
    )


def snapshot(
    topology: Topology,
    fluctuation: FluctuationModel | StaticModel | None = None,
    at_time: float = 0.0,
    prices: PriceBook | None = None,
) -> MeasurementReport:
    """A 1-second all-pairs probe: cheap, noisy, the predictor's input."""
    fluctuation = fluctuation if fluctuation is not None else StaticModel()
    report = measure_simultaneous(
        topology, fluctuation, at_time, SNAPSHOT_WINDOW_S, 1, prices
    )
    jittered = report.matrix.copy()
    for src, dst in jittered.pairs():
        i, j = topology.index(src), topology.index(dst)
        jitter = fluctuation.snapshot_jitter(i, j, at_time, SNAPSHOT_WINDOW_S)
        jittered.set(src, dst, jittered.get(src, dst) * jitter)
    return MeasurementReport(
        "snapshot",
        jittered,
        SNAPSHOT_WINDOW_S,
        at_time,
        report.cost,
        report.memory_util,
        report.cpu_load,
        report.retransmissions,
    )


def stable_runtime(
    topology: Topology,
    fluctuation: FluctuationModel | StaticModel | None = None,
    at_time: float = 0.0,
    connections: int | BandwidthMatrix = 1,
    prices: PriceBook | None = None,
) -> MeasurementReport:
    """The ≥20-second simultaneous average — the predictor's target."""
    fluctuation = fluctuation if fluctuation is not None else StaticModel()
    report = measure_simultaneous(
        topology, fluctuation, at_time, STABLE_WINDOW_S, connections, prices
    )
    report.mode = "stable_runtime"
    return report
