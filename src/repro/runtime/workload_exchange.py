"""Periodic, hierarchical exchange of per-unit workload counters.

Section 5.2: every unit maintains ``W_u`` — the summed workloads of the
tasks sitting in its queue.  The hybrid scheduler needs everyone else's
``W_u`` too, so the units exchange their counters hierarchically
(collect within a stack, then one representative per stack broadcasts)
every ``exchange_interval_cycles``.  Remote values are therefore *stale*
between exchanges, which Figure 18 shows is harmless across a 32x range
of intervals.

The simulator keeps the true ``W`` vector and hands schedulers a
snapshot that is refreshed when simulated scheduling time crosses an
exchange boundary.  It also counts the exchange messages so their
(tiny) interconnect energy can be charged.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.arch.topology import Topology


@dataclass
class ExchangeStats:
    rounds: int = 0
    intra_messages: int = 0
    inter_messages: int = 0


class WorkloadExchange:
    """Staleness-aware view of the per-unit workload counters."""

    def __init__(
        self,
        topology: Topology,
        interval_cycles: float,
    ):
        if interval_cycles <= 0:
            raise ValueError("interval must be positive")
        self.topology = topology
        self.interval_cycles = float(interval_cycles)
        n = topology.num_units
        # The true counters live in a plain Python list: they are
        # read-modify-written a few times per task, where list item
        # access beats ndarray item access several-fold.  Consumers of
        # whole vectors get ndarray views/copies built from the same
        # float values.
        self._true = [0.0] * n
        self._snapshot = np.zeros(n, dtype=np.float64)
        self._last_exchange = 0.0
        self.stats = ExchangeStats()
        #: bumped on every snapshot write; memo key for consumers that
        #: cache values derived from the (stale) snapshot.
        self.generation: int = 0

    # ------------------------------------------------------------------
    # true counter maintenance (enqueue/dequeue bookkeeping)
    # ------------------------------------------------------------------
    def on_enqueue(self, unit: int, workload: float) -> None:
        self._true[unit] += workload

    def on_dequeue(self, unit: int, workload: float) -> None:
        left = self._true[unit] - workload
        self._true[unit] = left if left > 0.0 else 0.0

    def move(self, src: int, dst: int, workload: float) -> None:
        """A task migrated between queues (e.g. stolen)."""
        self.on_dequeue(src, workload)
        self.on_enqueue(dst, workload)

    @property
    def true_workloads(self) -> np.ndarray:
        v = np.array(self._true)
        v.flags.writeable = False
        return v

    def visible_workloads(self, observer: int) -> np.ndarray:
        """The W vector as ``observer``'s scheduler sees it.

        Every entry is the last exchanged snapshot — the same staleness
        for every unit, including the observer's own queue.  Mixing in
        fresher information for *some* entries (the observer's own
        counter, or its own sends since the snapshot) systematically
        biases the comparison: each scheduler then sees the units it
        knows best as the most loaded and pushes its own tasks away, a
        machine-wide scatter that grows with snapshot staleness.  The
        ``observer`` argument is kept for interface stability (and for
        subclasses modelling fresher views).
        """
        v = self._snapshot.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def advance(self, now_cycles: float) -> bool:
        """Refresh the snapshot if an exchange boundary was crossed.

        Returns True when an exchange happened.  Multiple missed
        boundaries collapse into one refresh (only the newest data
        matters).
        """
        if now_cycles - self._last_exchange < self.interval_cycles:
            return False
        self._snapshot[:] = self._true
        self.generation += 1
        self._last_exchange = (
            now_cycles - (now_cycles - self._last_exchange) % self.interval_cycles
        )
        self._account_round()
        return True

    def force_exchange(self, now_cycles: float = 0.0) -> None:
        """Unconditional refresh (used at timestamp boundaries)."""
        self._snapshot[:] = self._true
        self.generation += 1
        self._last_exchange = now_cycles
        self._account_round()

    def _account_round(self) -> None:
        topo = self.topology
        self.stats.rounds += 1
        # Within each stack: every unit sends its counter to one collector.
        self.stats.intra_messages += topo.num_stacks * (topo.units_per_stack - 1)
        # Across stacks: each stack representative broadcasts to the rest.
        self.stats.inter_messages += topo.num_stacks * (topo.num_stacks - 1)

    @property
    def snapshot(self) -> np.ndarray:
        """The stale W vector visible to all schedulers."""
        v = self._snapshot.view()
        v.flags.writeable = False
        return v

    def skew(self) -> float:
        """W_max / W_mean of the *true* counters (1.0 = balanced).

        This is the queue-imbalance signal the hybrid policy's
        cost_load term acts on (Equation 3), sampled by the telemetry
        subsystem to show imbalance evolving over a run.
        """
        true = np.array(self._true)
        mean = float(true.mean())
        if mean <= 0.0:
            return 1.0
        return float(true.max()) / mean

    def reset(self) -> None:
        self._true = [0.0] * len(self._true)
        self._snapshot[:] = 0.0
        self.generation += 1
        self._last_exchange = 0.0
