"""Memory-network topology: stacks in a 2D mesh, units behind crossbars.

This module owns the *geometry* of the NDP system (Figure 1/5 in the
paper): where every NDP unit sits, how many mesh hops separate any two
stacks, and how the units are numbered into ``C + 1`` localized
*camp groups* (Section 4.2).

Unit numbering follows the paper: units are numbered consecutively,
"first in each stack, then in each group, and finally across groups".
Groups are spatially localized blocks of stacks; we order stacks along a
Morton (Z-order) curve and chunk that order into equal groups, which for
the default 4x4 mesh with four groups yields exactly the 2x2-stack
quadrants shown in Figure 5.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.config import TopologyConfig


def xy_route(src: int, dst: int, cols: int) -> Iterator[Tuple[int, int]]:
    """Directed links ``(here, next)`` of the dimension-ordered XY route
    (columns first, then rows) between two stacks numbered row-major
    on a mesh ``cols`` stacks wide."""
    r, c = divmod(src, cols)
    r_dst, c_dst = divmod(dst, cols)
    here = src
    while (r, c) != (r_dst, c_dst):
        if c != c_dst:
            c += 1 if c_dst > c else -1
        else:
            r += 1 if r_dst > r else -1
        nxt = r * cols + c
        yield here, nxt
        here = nxt


def _morton_key(row: int, col: int, bits: int = 8) -> int:
    """Interleave the bits of (row, col) into a Z-order curve index."""
    key = 0
    for i in range(bits):
        key |= ((row >> i) & 1) << (2 * i + 1)
        key |= ((col >> i) & 1) << (2 * i)
    return key


class Topology:
    """Geometry and numbering of the NDP units.

    Parameters
    ----------
    config:
        The mesh shape and per-stack unit count.
    num_groups:
        Number of camp groups (``C + 1``).  Must divide the total number
        of NDP units.  Pass ``1`` when camp grouping is irrelevant (e.g.
        cacheless designs); every unit then lands in group 0.
    """

    def __init__(self, config: TopologyConfig, num_groups: int = 4):
        config.validate()
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if config.num_units % num_groups:
            raise ValueError(
                f"{config.num_units} units are not divisible into "
                f"{num_groups} equal groups"
            )
        self.config = config
        self.num_groups = num_groups
        self.num_stacks = config.num_stacks
        self.num_units = config.num_units
        self.units_per_stack = config.units_per_stack
        self.units_per_group = self.num_units // num_groups

        # Stack coordinates in row-major mesh order: stack s at (r, c).
        self._stack_coords = np.array(
            [(s // config.mesh_cols, s % config.mesh_cols)
             for s in range(self.num_stacks)],
            dtype=np.int64,
        )
        # (row, col) -> stack id, for neighbour lookups.
        self._stack_at: Dict[Tuple[int, int], int] = {
            (int(r), int(c)): s
            for s, (r, c) in enumerate(self._stack_coords)
        }

        # Morton-ordered stack sequence -> localized group chunks.
        order = sorted(
            range(self.num_stacks),
            key=lambda s: _morton_key(*map(int, self._stack_coords[s])),
        )
        self._stack_order: List[int] = order

        # unit id -> mesh stack id, walking stacks in Morton order.
        stack_of_unit = np.empty(self.num_units, dtype=np.int64)
        for pos, stack in enumerate(order):
            base = pos * self.units_per_stack
            stack_of_unit[base:base + self.units_per_stack] = stack
        self._stack_of_unit = stack_of_unit

        # unit id -> camp group (consecutive chunks of the numbering).
        self._group_of_unit = (
            np.arange(self.num_units) // self.units_per_group
        ).astype(np.int64)

        # (S, S) Manhattan mesh hops between stacks.
        rc = self._stack_coords
        self._mesh_hops = np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2)

    # ------------------------------------------------------------------
    # basic lookups
    # ------------------------------------------------------------------
    def stack_of(self, unit: int) -> int:
        """Mesh stack id hosting ``unit``."""
        return int(self._stack_of_unit[unit])

    def group_of(self, unit: int) -> int:
        """Camp group id of ``unit``."""
        return int(self._group_of_unit[unit])

    def units_in_group(self, group: int) -> np.ndarray:
        """Unit ids belonging to ``group`` (a contiguous id range)."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range")
        base = group * self.units_per_group
        return np.arange(base, base + self.units_per_group)

    def units_in_stack(self, stack: int) -> np.ndarray:
        """Unit ids hosted by mesh stack ``stack``."""
        return np.nonzero(self._stack_of_unit == stack)[0]

    def stack_coords(self, stack: int) -> Tuple[int, int]:
        """(row, col) mesh coordinates of ``stack``."""
        r, c = self._stack_coords[stack]
        return int(r), int(c)

    def adjacent_stacks(self, stack: int) -> List[int]:
        """Mesh neighbours of ``stack`` (one hop away), in N/S/W/E order."""
        r, c = self.stack_coords(stack)
        out: List[int] = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            s = self._stack_at.get((r + dr, c + dc))
            if s is not None:
                out.append(s)
        return out

    def mesh_links(self) -> List[Tuple[int, int]]:
        """All physical mesh links as undirected ``(a, b)`` stack pairs
        with ``a < b`` — the targets a link-fault schedule may name."""
        links: List[Tuple[int, int]] = []
        for s in range(self.num_stacks):
            for n in self.adjacent_stacks(s):
                if s < n:
                    links.append((s, n))
        return links

    @property
    def stack_of_unit(self) -> np.ndarray:
        """Vector mapping unit id -> stack id (read-only view)."""
        v = self._stack_of_unit.view()
        v.flags.writeable = False
        return v

    @property
    def group_of_unit(self) -> np.ndarray:
        """Vector mapping unit id -> group id (read-only view)."""
        v = self._group_of_unit.view()
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    @property
    def mesh_hops(self) -> np.ndarray:
        """(S, S) matrix of mesh hops between stacks (read-only view).

        Units in one stack are zero hops apart: their traffic rides the
        crossbar, not the mesh.
        """
        v = self._mesh_hops.view()
        v.flags.writeable = False
        return v

    def hops_between(self, a: int, b: int) -> int:
        """Inter-stack mesh hops between units ``a`` and ``b``."""
        sou = self._stack_of_unit
        return int(self._mesh_hops[sou[a], sou[b]])

    def is_local(self, a: int, b: int) -> bool:
        return a == b

    def is_intra_stack(self, a: int, b: int) -> bool:
        return a != b and self.stack_of(a) == self.stack_of(b)

    @property
    def diameter(self) -> int:
        return self.config.diameter

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable map of groups to stacks."""
        lines = [
            f"{self.config.mesh_rows}x{self.config.mesh_cols} mesh, "
            f"{self.units_per_stack} units/stack, "
            f"{self.num_groups} camp groups "
            f"({self.units_per_group} units each)"
        ]
        for g in range(self.num_groups):
            units = self.units_in_group(g)
            stacks = sorted({self.stack_of(int(u)) for u in units})
            lines.append(
                f"  group {g}: units {units[0]}-{units[-1]}, stacks {stacks}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(mesh={self.config.mesh_rows}x{self.config.mesh_cols}, "
            f"units={self.num_units}, groups={self.num_groups})"
        )
