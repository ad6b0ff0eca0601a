"""Lightweight arithmetic-operation counters.

Detection and adaptive-update routines accept an optional :class:`OpCounter`
and report how many complex multiplications and additions the underlying
algorithm performs per processed vector.  Counts are *logical* (what a
straightforward scalar implementation would execute), independent of how the
numpy calls batch the work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tally of complex multiplies and adds."""

    mults: int = 0
    adds: int = 0

    def add(self, mults: int = 0, adds: int = 0) -> None:
        self.mults += int(mults)
        self.adds += int(adds)

    def merge(self, other: "OpCounter") -> None:
        self.mults += other.mults
        self.adds += other.adds

    def reset(self) -> None:
        self.mults = 0
        self.adds = 0
