"""Substrate ablation: which network-model ingredients carry the paper's
phenomena?

DESIGN.md §5 commits to three load-bearing modeling choices beyond the
RTT-calibrated per-connection rates:

* **cap-proportional contention weights** — uniform parallelism must be
  share-preserving (Fig. 2(b): min BW stays near the single-connection
  level); with naive 1/RTT weights, uniform-8 would (wrongly) multiply
  the weak link several-fold — this is the load-bearing ablation;
* **congestion RTT bias** — reported for reference (its effect here is
  indirect; it matters most for throttling's demand-relief mechanism);
* **per-VM stream budget** — reported for reference (the 3-DC uniform
  mesh stays under the knee; the budget bites in the 8-DC experiments).

This is not a paper figure; it regenerates the evidence that our
substitutions preserve the behaviours the experiments rely on.
"""

from __future__ import annotations

from repro.experiments import common
from repro.net import simulator as simulator_mod
from repro.net import tcp
from repro.net.measurement import measure_simultaneous

REGIONS = ("us-east-1", "us-west-1", "ap-southeast-1")


def _uniform_vs_single(at_time: float) -> tuple[float, float]:
    topology = common.probe_topology(REGIONS)
    weather = common.fluctuation()
    single = measure_simultaneous(
        topology, weather, at_time, connections=1
    ).matrix
    uniform = measure_simultaneous(
        topology, weather, at_time, connections=8
    ).matrix
    return single.min_bw(), uniform.min_bw()


def run(fast: bool = True, at_time: float = common.EVAL_TIME) -> dict:
    """Measure the three ablations."""
    # ``unittest.mock`` costs ~8 MB; ``python -m repro list`` and every
    # other experiment import this module without running it.
    from unittest import mock

    # Baseline (full model).
    single_min, uniform_min = _uniform_vs_single(at_time)

    # (a) no congestion RTT bias.
    with mock.patch.object(simulator_mod, "CONGESTION_RTT_BIAS", 0.0):
        _, uniform_min_nobias = _uniform_vs_single(at_time)

    # (b) RTT-only weights (1/RTT instead of cap-proportional).  The
    # simulator reads the weight off the topology profile's TcpModel,
    # so the patch goes on the class method.
    def rtt_only_weight(self, rtt_ms, connections, knee=tcp.DEFAULT_KNEE):
        return tcp.parallel_efficiency(connections, knee) / rtt_ms

    with mock.patch.object(tcp.TcpModel, "rtt_weight", rtt_only_weight):
        _, uniform_min_rttonly = _uniform_vs_single(at_time)

    # (c) no per-VM stream budget (NIC efficiency never degrades).
    with mock.patch.object(
        tcp, "vm_efficiency", lambda total, knee=0: 1.0
    ):
        _, uniform_min_nobudget = _uniform_vs_single(at_time)

    return {
        "single_min": single_min,
        "uniform_min": uniform_min,
        "uniform_min_no_bias": uniform_min_nobias,
        "uniform_min_rtt_only_weights": uniform_min_rttonly,
        "uniform_min_no_vm_budget": uniform_min_nobudget,
        # The full model keeps uniform-8 closest to the single-conn
        # minimum (the paper's 120.5 ≈ 121 observation); each ablation
        # should inflate it.
        "uniform_to_single_ratio": uniform_min / single_min,
        "no_bias_ratio": uniform_min_nobias / single_min,
        "rtt_only_ratio": uniform_min_rttonly / single_min,
    }


def render(results: dict) -> str:
    """Print the ablation readout."""
    return "\n".join(
        [
            "Substrate ablation: uniform-8 min BW vs single-conn min BW",
            f"single-connection min BW:        {results['single_min']:8.1f} Mbps",
            f"uniform-8, full model:           {results['uniform_min']:8.1f} "
            f"({results['uniform_to_single_ratio']:.2f}× single; paper ≈1×)",
            f"uniform-8, no congestion bias:   "
            f"{results['uniform_min_no_bias']:8.1f} "
            f"({results['no_bias_ratio']:.2f}×)",
            f"uniform-8, 1/RTT weights:        "
            f"{results['uniform_min_rtt_only_weights']:8.1f} "
            f"({results['rtt_only_ratio']:.2f}×)",
            f"uniform-8, no per-VM budget:     "
            f"{results['uniform_min_no_vm_budget']:8.1f}",
        ]
    )


if __name__ == "__main__":
    print(render(run()))
