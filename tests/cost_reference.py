"""The (N, N) Equation 2 cost matrix, built independently for the oracles.

The simulator prices unit pairs only through
``Interconnect.unit_costs``.  The reference placements, access flows and
camp tables compare against this matrix instead, built the textbook way
from the interconnect's (S, S) stack table: the stack pair's mesh cost
between stacks, ``d_intra`` inside a stack, ``d_local`` on the diagonal.
"""

import numpy as np


def unit_cost_matrix(noc) -> np.ndarray:
    """``[src, dst]``: the scheduling cost from unit ``src`` to ``dst``
    under the interconnect's current link faults."""
    sou = noc.topology.stack_of_unit
    cost = noc.stack_mesh_ns[np.ix_(sou, sou)]
    cost[sou[:, None] == sou[None, :]] = noc.noc.d_intra
    np.fill_diagonal(cost, noc.noc.d_local)
    return cost
