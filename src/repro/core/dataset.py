"""Training-set construction for the WAN Prediction Model.

The paper's Bandwidth Analyzer ran "at different times over a week" and,
"for various cluster sizes", collected 600 datasets each pairing
(1) short-duration snapshot BWs (plus the Table 3 features) with
(2) dynamically measured (stable runtime) BWs (§5.1).  Each *dataset*
here is one (time, cluster-subset) combination; each ordered DC pair in
it contributes one row.

Serialization is plain ``npz`` + a JSON sidecar of pair labels, so the
collected data can be shipped like the paper's open-sourced datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.checks import check_datasets
from repro.core.features import FEATURE_NAMES, report_feature_rows
from repro.net.dynamics import FluctuationModel
from repro.net.measurement import snapshot, stable_runtime
from repro.net.topology import Topology

#: A simulated week, the paper's collection horizon.
WEEK_S = 7 * 24 * 3600.0


@dataclass
class TrainingSet:
    """Feature matrix ``X`` (n × 6), targets ``y`` (stable runtime Mbps),
    and per-row bookkeeping for later analysis."""

    X: np.ndarray
    y: np.ndarray
    pair_labels: list[tuple[str, str]] = field(default_factory=list)
    sample_times: list[float] = field(default_factory=list)
    cluster_sizes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if len(self.X) != len(self.y):
            raise ValueError(
                f"X has {len(self.X)} rows but y has {len(self.y)}"
            )

    def __len__(self) -> int:
        return len(self.y)

    def merge(self, other: "TrainingSet") -> "TrainingSet":
        """Concatenate two training sets (used for retraining)."""
        return TrainingSet(
            np.vstack([self.X, other.X]),
            np.concatenate([self.y, other.y]),
            self.pair_labels + other.pair_labels,
            self.sample_times + other.sample_times,
            self.cluster_sizes + other.cluster_sizes,
        )

    def target_std(self) -> float:
        """SD of the stable runtime BWs (paper reports ~184 Mbps)."""
        return float(self.y.std())

    def save(self, path: str | Path) -> None:
        """Write to ``path`` (.npz) with a JSON sidecar of labels."""
        path = Path(path)
        np.savez_compressed(
            path,
            X=self.X,
            y=self.y,
            sample_times=np.array(self.sample_times),
            cluster_sizes=np.array(self.cluster_sizes),
        )
        sidecar = path.with_suffix(".labels.json")
        sidecar.write_text(json.dumps(self.pair_labels))

    @classmethod
    def load(cls, path: str | Path) -> "TrainingSet":
        """Read a training set written by :meth:`save`."""
        path = Path(path)
        data = np.load(path if path.suffix else path.with_suffix(".npz"))
        sidecar = path.with_suffix(".labels.json")
        labels = [
            (a, b) for a, b in json.loads(sidecar.read_text())
        ] if sidecar.exists() else []
        return cls(
            data["X"],
            data["y"],
            labels,
            list(map(float, data["sample_times"])),
            list(map(int, data["cluster_sizes"])),
        )

    def to_csv(self, path: str | Path) -> None:
        """Write the set as one flat CSV (the interchange format of the
        paper's open-sourced datasets [5]).

        Columns: ``src, dst, sample_time_s, <Table 3 features>,
        runtime_bw_mbps``.  Row order is preserved, so
        :meth:`from_csv` round-trips exactly (modulo float formatting).
        """
        path = Path(path)
        header = ["src", "dst", "sample_time_s", *FEATURE_NAMES,
                  "runtime_bw_mbps"]
        lines = [",".join(header)]
        labels = self.pair_labels or [("", "")] * len(self)
        times = self.sample_times or [0.0] * len(self)
        for (src, dst), t, x, target in zip(labels, times, self.X, self.y):
            cells = [src, dst, repr(float(t))]
            cells.extend(repr(float(v)) for v in x)
            cells.append(repr(float(target)))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrainingSet":
        """Read a CSV written by :meth:`to_csv` (or hand-collected data
        in the same column layout)."""
        path = Path(path)
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise ValueError(f"{path} is empty")
        header = lines[0].split(",")
        expected = ["src", "dst", "sample_time_s", *FEATURE_NAMES,
                    "runtime_bw_mbps"]
        if header != expected:
            raise ValueError(
                f"unexpected CSV header {header}; expected {expected}"
            )
        labels: list[tuple[str, str]] = []
        times: list[float] = []
        xs: list[list[float]] = []
        ys: list[float] = []
        sizes: list[int] = []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(expected):
                raise ValueError(
                    f"{path}:{lineno}: {len(cells)} cells, "
                    f"expected {len(expected)}"
                )
            labels.append((cells[0], cells[1]))
            times.append(float(cells[2]))
            features = [float(c) for c in cells[3:-1]]
            xs.append(features)
            ys.append(float(cells[-1]))
            sizes.append(int(features[0]))  # N is the first feature
        return cls(np.array(xs), np.array(ys), labels, times, sizes)


def build_training_set(
    topology: Topology,
    fluctuation: FluctuationModel,
    n_datasets: int = 120,
    cluster_sizes: tuple[int, ...] | None = None,
    seed: int = 11,
    horizon_s: float = WEEK_S,
) -> TrainingSet:
    """Collect ``n_datasets`` (time, cluster) samples as the paper did.

    Cluster subsets are drawn uniformly from ``cluster_sizes`` (default
    ``[2, Nmax]``, §3.3.2) over ``topology``'s DCs; times uniformly over
    a simulated week.  Snapshot features are inputs; stable runtime BWs
    are targets.
    """
    check_datasets(n_datasets)
    if cluster_sizes is None:
        cluster_sizes = tuple(range(2, topology.n + 1))
    bad = [c for c in cluster_sizes if c < 2 or c > topology.n]
    if bad:
        raise ValueError(
            f"cluster sizes {bad} outside [2, {topology.n}]"
        )
    rng = np.random.default_rng(seed)
    all_keys = list(topology.keys)

    xs, ys = [], []
    labels: list[tuple[str, str]] = []
    times: list[float] = []
    sizes: list[int] = []
    for _ in range(n_datasets):
        size = int(rng.choice(cluster_sizes))
        keys = list(rng.choice(all_keys, size=size, replace=False))
        sub = topology.subset(keys)
        at_time = float(rng.uniform(0.0, horizon_s))
        snap = snapshot(sub, fluctuation, at_time)
        stable = stable_runtime(sub, fluctuation, at_time)
        pairs, rows = report_feature_rows(snap, sub)
        targets = np.array([stable.matrix.get(s, d) for s, d in pairs])
        xs.append(rows)
        ys.append(targets)
        labels.extend(pairs)
        times.extend([at_time] * len(pairs))
        sizes.extend([size] * len(pairs))

    X = np.vstack(xs)
    y = np.concatenate(ys)
    assert X.shape[1] == len(FEATURE_NAMES)
    return TrainingSet(X, y, labels, times, sizes)
