"""Interconnect model: intra-stack crossbar + inter-stack 2D mesh.

Provides the three-way access classification used everywhere in the
paper (local / intra-stack / inter-stack, Equation 2), the latency and
energy of moving a cacheline between two NDP units, and the one place
that prices a pair of units for scheduling: :meth:`Interconnect.unit_costs`
over the (N, S) table :attr:`Interconnect.unit_stack_costs`.

Hop accounting: Figure 8 reports remote accesses as the total number of
inter-stack mesh hops.  :class:`TrafficMeter` counts the hops of every
path segment a request/response travels so that benchmarks can report
the same metric.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.arch.topology import Topology, xy_route
from repro.config import MemoryConfig, NocConfig


def _norm_link(link: Tuple[int, int]) -> Tuple[int, int]:
    """Canonical (a, b) form of an undirected mesh link."""
    a, b = int(link[0]), int(link[1])
    return (a, b) if a <= b else (b, a)


class AccessClass(enum.Enum):
    """Where the target of an access lives relative to the requester."""

    LOCAL = "local"
    INTRA_STACK = "intra"
    INTER_STACK = "inter"


@dataclass
class TrafficMeter:
    """Accumulates interconnect traffic for one simulation run."""

    inter_hops: int = 0
    intra_transfers: int = 0
    local_accesses: int = 0
    inter_bits: int = 0
    intra_bits: int = 0
    messages: int = 0

    def merge(self, other: "TrafficMeter") -> None:
        self.inter_hops += other.inter_hops
        self.intra_transfers += other.intra_transfers
        self.local_accesses += other.local_accesses
        self.inter_bits += other.inter_bits
        self.intra_bits += other.intra_bits
        self.messages += other.messages

    def reset(self) -> None:
        self.inter_hops = 0
        self.intra_transfers = 0
        self.local_accesses = 0
        self.inter_bits = 0
        self.intra_bits = 0
        self.messages = 0


class LinkMeter:
    """Per-link traffic attribution for the telemetry heatmaps.

    Two granularities accumulate on every metered message:

    * ``unit_matrix`` / ``unit_bits`` — an (N, N) matrix of message
      counts / payload bits per (source unit, destination unit) pair:
      the all-to-all heatmap behind ``analysis.plotting.heatmap``;
    * ``link_flits`` — flit counts per *directed physical mesh link*,
      attributing each inter-stack message to the links its dimension-
      ordered (XY: columns first, then rows) route traverses.  This is
      the per-link congestion view the aggregate hop counter cannot
      give: two meshes with identical total hops can differ wildly in
      their hottest link.

    The meter is optional and attached by
    :meth:`Interconnect.enable_link_metering`; without it the traffic
    hot path pays a single ``is None`` test.
    """

    #: one flit carries a control message; a cacheline is several.
    FLIT_BITS = 128

    def __init__(self, topology: Topology):
        self.topology = topology
        n = topology.num_units
        self.unit_matrix = np.zeros((n, n), dtype=np.int64)
        self.unit_bits = np.zeros((n, n), dtype=np.int64)
        #: (src_stack, dst_stack) adjacent pair -> flits carried.
        self.link_flits: Dict[Tuple[int, int], int] = {}
        #: fault-aware route provider, set by the interconnect while
        #: link faults are active: ``router(s_src, s_dst)`` returns the
        #: stack sequence (endpoints included) or None when the pair is
        #: unreachable.  With no router, routes are dimension-ordered XY.
        self.router: Optional[
            Callable[[int, int], Optional[Tuple[int, ...]]]
        ] = None

    # ------------------------------------------------------------------
    def record(self, src: int, dst: int, bits: int) -> None:
        self.unit_matrix[src, dst] += 1
        self.unit_bits[src, dst] += bits
        topo = self.topology
        s_src, s_dst = topo.stack_of(src), topo.stack_of(dst)
        if s_src == s_dst:
            return
        flits = max(1, -(-bits // self.FLIT_BITS))  # ceil division
        if self.router is not None:
            # Faulted mesh: attribute along the actual (rerouted) path,
            # so dead links never accumulate flits.
            path = self.router(s_src, s_dst)
            if path is None:
                return  # unreachable: no flits travelled
            for here, nxt in zip(path, path[1:]):
                key = (here, nxt)
                self.link_flits[key] = self.link_flits.get(key, 0) + flits
            return
        for key in xy_route(s_src, s_dst, topo.config.mesh_cols):
            self.link_flits[key] = self.link_flits.get(key, 0) + flits

    # ------------------------------------------------------------------
    def stack_matrix(self) -> np.ndarray:
        """(num_stacks, num_stacks) flit counts over the metered links.

        Only adjacent pairs are non-zero — the matrix is a rendering-
        friendly view of :attr:`link_flits`.
        """
        m = np.zeros(
            (self.topology.num_stacks, self.topology.num_stacks),
            dtype=np.int64,
        )
        for (a, b), flits in self.link_flits.items():
            m[a, b] = flits
        return m

    def total_link_flits(self) -> int:
        return sum(self.link_flits.values())


class Interconnect:
    """Latency/energy/cost model of the two-level memory network.

    Every NoC quantity depends only on the stack pair, whether the two
    units share a stack, and whether they are the same unit (Equation
    2).  The model therefore holds one pair of (S, S) stack tables —
    :attr:`stack_hops` and :attr:`stack_mesh_ns` — and derives the rest
    from them, the unit-to-stack map and unit identity: reachability,
    hops, latencies, traffic and the scheduling cost of a unit pair.
    That cost is read only through :meth:`unit_costs` (and, per stack,
    :attr:`unit_stack_costs`), which :meth:`set_link_faults` rebuilds,
    so every reader sees the current links; no (N, N) table is built.
    """

    def __init__(self, topology: Topology, noc: NocConfig, memory: MemoryConfig):
        self.topology = topology
        self.noc = noc
        self.memory = memory
        #: per-link meter, attached only when telemetry wants it.
        self.link_meter: Optional[LinkMeter] = None
        # Link-fault state (see set_link_faults); empty on a healthy mesh.
        self._dead_links: frozenset = frozenset()
        self._link_scale: Dict[Tuple[int, int], float] = {}
        self._stack_hops, self._stack_ns = self._solve_stack_tables()
        self._routes: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}
        self._stack_of_unit = topology.stack_of_unit
        self._unit_table = self._build_unit_table()
        #: bumped on every link-fault set/clear so engines holding
        #: derived per-line memos know to drop them.
        self.fault_epoch: int = 0

    def _build_unit_table(self) -> np.ndarray:
        """``(N, S)`` contiguous: ``[u, s]`` is the scheduling cost
        (Equation 2) from every unit of stack ``s`` other than ``u``
        itself to unit ``u`` — the stack pair's mesh cost off ``u``'s
        own stack, ``d_intra`` on it, or ``d_local`` when the stack has
        no other unit.  Built from the current stack table."""
        topo = self.topology
        sou = self._stack_of_unit
        table = self._stack_ns.T[sou]
        table[np.arange(topo.num_units), sou] = (
            self.noc.d_intra if topo.units_per_stack > 1 else self.noc.d_local)
        return table

    @property
    def unit_stack_costs(self) -> np.ndarray:
        """Read-only ``(N, S)`` table of :meth:`_build_unit_table`: the
        cost from each stack's units (other than the target) to a unit,
        under the current link faults; inf where a pair is unreachable."""
        v = self._unit_table.view()
        v.flags.writeable = False
        return v

    def unit_costs(self, src, dst) -> np.ndarray:
        """Scheduling cost (Equation 2) from each ``src`` unit to each
        ``dst`` unit, over broadcastable unit-id arrays (at least one of
        them an array): ``d_local`` where ``src == dst``, else
        ``unit_stack_costs[dst, stack of src]``.  A fresh array in the
        broadcast shape, C-contiguous, so a reduction over it keeps
        NumPy's summation order for that shape."""
        costs = self._unit_table[dst, self._stack_of_unit[src]]
        costs[np.equal(src, dst)] = self.noc.d_local
        return costs

    @property
    def stack_hops(self) -> np.ndarray:
        """Read-only (S, S) mesh hops between stacks under the current
        link faults; -1 where a pair is unreachable."""
        v = self._stack_hops.view()
        v.flags.writeable = False
        return v

    @property
    def stack_mesh_ns(self) -> np.ndarray:
        """Read-only (S, S) mesh traversal latency (ns) between stacks
        under the current link faults; inf where a pair is unreachable.
        Doubles as the inter-stack scheduling cost."""
        v = self._stack_ns.view()
        v.flags.writeable = False
        return v

    def enable_link_metering(self) -> LinkMeter:
        """Attach (or return the existing) per-link traffic meter."""
        if self.link_meter is None:
            self.link_meter = LinkMeter(self.topology)
            if self.has_link_faults:
                self.link_meter.router = self.route_stacks
        return self.link_meter

    # ------------------------------------------------------------------
    # link faults (fault-injection subsystem)
    # ------------------------------------------------------------------
    @property
    def has_link_faults(self) -> bool:
        return bool(self._dead_links or self._link_scale)

    def set_link_faults(
        self,
        dead_links: Iterable[Tuple[int, int]],
        degraded: Optional[Mapping[Tuple[int, int], float]] = None,
    ) -> None:
        """Route around failed mesh links and degrade slow ones.

        ``dead_links`` are undirected adjacent stack pairs removed from
        the mesh; ``degraded`` maps surviving links to a per-hop latency
        multiplier.  Routes become minimal paths over the surviving
        links (the hardware's fallback to non-XY detours), and the
        cost table behind :meth:`unit_costs` is rebuilt, so every later
        scheduling read sees the new distances.
        Unreachable pairs get infinite cost / -1 hops — callers must
        check :meth:`is_reachable` before paying latency.  No dead and
        no degraded link restores the healthy mesh.
        """
        self._dead_links = frozenset(_norm_link(lk) for lk in dead_links)
        self._link_scale = {
            _norm_link(lk): float(f)
            for lk, f in (degraded or {}).items()
            if float(f) != 1.0
        }
        self._stack_hops, self._stack_ns = self._solve_stack_tables()
        self._routes.clear()
        self.fault_epoch += 1
        self._unit_table = self._build_unit_table()
        if self.link_meter is not None:
            self.link_meter.router = (
                self.route_stacks if self.has_link_faults else None)

    def clear_link_faults(self) -> None:
        """Restore the healthy mesh (all links up, unit multipliers)."""
        self.set_link_faults(())

    def _link_weight_ns(self, a: int, b: int) -> float:
        """Latency of one mesh hop over the (surviving) link (a, b)."""
        return self.noc.inter_hop_ns * self._link_scale.get(
            _norm_link((a, b)), 1.0
        )

    def _solve_stack_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(hops, mesh_ns)`` stack tables for the current links.

        A healthy mesh routes XY: Manhattan hops at ``inter_hop_ns``
        each.  Under link faults, all-pairs shortest paths over the
        surviving weighted links; meshes are tiny (S <= a few hundred),
        so a per-source Dijkstra is plenty.
        """
        topo = self.topology
        if not self.has_link_faults:
            hops = topo.mesh_hops
            return hops, hops * self.noc.inter_hop_ns
        S = topo.num_stacks
        # (neighbour, hop latency) over each stack's surviving links,
        # in adjacency order; the heap loop runs on plain lists.
        edges: List[List[Tuple[int, float]]] = [
            [
                (n, self._link_weight_ns(s, n))
                for n in topo.adjacent_stacks(s)
                if _norm_link((s, n)) not in self._dead_links
            ]
            for s in range(S)
        ]
        inf = float("inf")
        hops, mesh_ns = [], []
        for src in range(S):
            dist = [inf] * S
            nhops = [-1] * S
            dist[src] = 0.0
            nhops[src] = 0
            heap = [(0.0, src)]
            while heap:
                d, here = heapq.heappop(heap)
                if d > dist[here]:
                    continue
                for nxt, weight in edges[here]:
                    nd = d + weight
                    if nd < dist[nxt] - 1e-12:
                        dist[nxt] = nd
                        nhops[nxt] = nhops[here] + 1
                        heapq.heappush(heap, (nd, nxt))
            hops.append(nhops)
            mesh_ns.append(dist)
        return (np.array(hops, dtype=np.int64),
                np.array(mesh_ns, dtype=np.float64))

    def route_stacks(self, s_src: int, s_dst: int) -> Optional[Tuple[int, ...]]:
        """The stack sequence a message follows under the current faults
        (endpoints included), or None when ``s_dst`` is unreachable.

        Only meaningful while link faults are active; the healthy mesh
        routes XY and callers (the link meter) use the XY walk directly.
        """
        if s_src == s_dst:
            return (s_src,)
        key = (s_src, s_dst)
        cached = self._routes.get(key, False)
        if cached is not False:
            return cached
        mesh_ns = self._stack_ns
        route: Optional[Tuple[int, ...]] = None
        if np.isfinite(mesh_ns[s_src, s_dst]):
            # Walk greedily from dst back to src along optimal-distance
            # predecessors (dist[src, prev] + w(prev, here) == dist[src, here]).
            topo = self.topology
            path = [s_dst]
            here = s_dst
            while here != s_src:
                for prev in topo.adjacent_stacks(here):
                    if _norm_link((prev, here)) in self._dead_links:
                        continue
                    if abs(
                        mesh_ns[s_src, prev]
                        + self._link_weight_ns(prev, here)
                        - mesh_ns[s_src, here]
                    ) < 1e-9:
                        path.append(prev)
                        here = prev
                        break
                else:  # pragma: no cover - dijkstra guarantees a predecessor
                    path = None
                    break
            if path is not None:
                route = tuple(reversed(path))
        self._routes[key] = route
        return route

    def is_reachable(self, src: int, dst: int) -> bool:
        """Whether a message can currently travel between two units."""
        sou = self.topology.stack_of_unit
        return bool(self._stack_hops[sou[src], sou[dst]] >= 0)

    def effective_hops(self, src: int, dst: int) -> int:
        """Mesh hops between units under the current link faults (-1
        when unreachable, 0 inside a stack)."""
        sou = self.topology.stack_of_unit
        return int(self._stack_hops[sou[src], sou[dst]])

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify(self, src: int, dst: int) -> AccessClass:
        if src == dst:
            return AccessClass.LOCAL
        if self.topology.is_intra_stack(src, dst):
            return AccessClass.INTRA_STACK
        return AccessClass.INTER_STACK

    def distance_cost(self, src: int, dst: int) -> float:
        """Scheduling cost of the (src, dst) pair (Equation 2)."""
        return float(self.unit_costs(src, [dst])[0])

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------
    def one_way_latency_ns(self, src: int, dst: int) -> float:
        """Time for one message to travel from ``src`` to ``dst``.

        An inter-stack message first crosses the source crossbar to the
        stack router, rides the mesh, then crosses the destination
        crossbar; an intra-stack message pays a single crossbar hop.
        Unreachable pairs take infinitely long: callers must guard with
        :meth:`is_reachable` before paying latency.
        """
        if src == dst:
            return 0.0
        if self.topology.is_intra_stack(src, dst):
            return self.noc.intra_hop_ns
        sou = self.topology.stack_of_unit
        return (2 * self.noc.intra_hop_ns
                + float(self._stack_ns[sou[src], sou[dst]]))

    def round_trip_latency_ns(self, src: int, dst: int) -> float:
        """Request + response latency between two units."""
        return 2.0 * self.one_way_latency_ns(src, dst)

    # ------------------------------------------------------------------
    # traffic accounting
    # ------------------------------------------------------------------
    def record_transfer(
        self, meter: TrafficMeter, src: int, dst: int, bits: int | None = None
    ) -> None:
        """Account one message of ``bits`` payload travelling src -> dst.

        ``bits`` defaults to one cacheline.  Local "transfers" are counted
        but move no interconnect bits.
        """
        if bits is None:
            bits = self.memory.line_bits
        meter.messages += 1
        if self.link_meter is not None:
            self.link_meter.record(src, dst, bits)
        if src == dst:
            meter.local_accesses += 1
            return
        if self.topology.is_intra_stack(src, dst):
            meter.intra_transfers += 1
            meter.intra_bits += bits
            return
        hops = self.effective_hops(src, dst)
        if hops < 0:
            # Unreachable under the current link faults: the message is
            # never delivered, so no mesh traffic accrues.  Callers
            # short-circuit such accesses before simulating latency.
            return
        meter.inter_hops += hops
        meter.inter_bits += bits * hops
        # Mesh endpoints also cross the two stack crossbars.
        meter.intra_transfers += 2
        meter.intra_bits += 2 * bits

    def record_round_trip(
        self,
        meter: TrafficMeter,
        src: int,
        dst: int,
        request_bits: int = 128,
        response_bits: int | None = None,
    ) -> None:
        """Account a request message plus a cacheline-sized response."""
        self.record_transfer(meter, src, dst, request_bits)
        self.record_transfer(meter, dst, src, response_bits)

    # ------------------------------------------------------------------
    # energy
    # ------------------------------------------------------------------
    def energy_pj(self, meter: TrafficMeter) -> float:
        """Dynamic interconnect energy for the accumulated traffic."""
        return (
            meter.inter_bits * self.noc.inter_pj_per_bit
            + meter.intra_bits * self.noc.intra_pj_per_bit
        )
