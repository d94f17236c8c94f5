"""HDFS-like block store with placement and skew.

The paper stores input in S3-mounted HDFS with data nodes on the worker
VMs (§5.1) and controls skew by "moving HDFS blocks from other DCs to
US East, US West, AP South, and AP SE" with a 64 MB block size (§5.8.1).
This module provides exactly those operations: uniform placement,
weighted (skewed) placement, and block moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Block:
    """One HDFS block resident in a DC."""

    dc: str
    size_mb: float


@dataclass
class HdfsStore:
    """A set of blocks placed across DCs."""

    block_size_mb: float = 128.0
    blocks: list[Block] = field(default_factory=list)

    @classmethod
    def uniform(
        cls,
        keys: tuple[str, ...] | list[str],
        total_mb: float,
        block_size_mb: float = 128.0,
    ) -> "HdfsStore":
        """Spread ``total_mb`` evenly across DCs in whole blocks."""
        return cls.weighted(
            keys, total_mb, {k: 1.0 for k in keys}, block_size_mb
        )

    @classmethod
    def weighted(
        cls,
        keys: tuple[str, ...] | list[str],
        total_mb: float,
        weights: dict[str, float],
        block_size_mb: float = 128.0,
    ) -> "HdfsStore":
        """Place data proportionally to per-DC weights (skew setup)."""
        if total_mb <= 0:
            raise ValueError(f"total_mb must be positive: {total_mb}")
        if block_size_mb <= 0:
            raise ValueError(f"block size must be positive: {block_size_mb}")
        wsum = sum(max(0.0, weights.get(k, 0.0)) for k in keys)
        if wsum <= 0:
            raise ValueError(f"weights sum to zero over {keys}")
        store = cls(block_size_mb=block_size_mb)
        for key in keys:
            share_mb = total_mb * max(0.0, weights.get(key, 0.0)) / wsum
            n_full = int(share_mb // block_size_mb)
            store.blocks.extend(
                Block(key, block_size_mb) for _ in range(n_full)
            )
            tail = share_mb - n_full * block_size_mb
            if tail > 1e-9:
                store.blocks.append(Block(key, tail))
        return store

    def data_by_dc(self) -> dict[str, float]:
        """MB of input per DC."""
        out: dict[str, float] = {}
        for block in self.blocks:
            out[block.dc] = out.get(block.dc, 0.0) + block.size_mb
        return out

    @property
    def total_mb(self) -> float:
        """Total stored volume."""
        return sum(b.size_mb for b in self.blocks)

    def move(self, src: str, dst: str, mb: float) -> float:
        """Relocate up to ``mb`` of blocks from ``src`` to ``dst``.

        Moves whole blocks (splitting the last one if needed) and
        returns the volume actually moved.
        """
        if mb <= 0:
            return 0.0
        moved = 0.0
        kept: list[Block] = []
        for block in self.blocks:
            if block.dc != src or moved >= mb - 1e-9:
                kept.append(block)
                continue
            room = mb - moved
            if block.size_mb <= room + 1e-9:
                kept.append(Block(dst, block.size_mb))
                moved += block.size_mb
            else:
                kept.append(Block(dst, room))
                kept.append(Block(src, block.size_mb - room))
                moved += room
        self.blocks = kept
        return moved

    def skew_to(
        self, targets: list[str], fraction: float = 0.8
    ) -> dict[str, float]:
        """Concentrate ``fraction`` of all data onto ``targets`` evenly
        (the §5.8.1 skew construction).  Returns the new distribution."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        if not targets:
            raise ValueError("no target DCs")
        data = self.data_by_dc()
        total = self.total_mb
        goal_each = total * fraction / len(targets)
        donors = [dc for dc in data if dc not in targets]
        for target in targets:
            need = goal_each - data.get(target, 0.0)
            for donor in donors:
                if need <= 1e-6:
                    break
                available = self.data_by_dc().get(donor, 0.0)
                surplus = available - total * (1 - fraction) / max(
                    1, len(donors)
                )
                if surplus <= 0:
                    continue
                moved = self.move(donor, target, min(need, surplus))
                need -= moved
        return self.data_by_dc()
