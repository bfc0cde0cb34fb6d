"""Reference isometry check by building the induced subgraph.

The library decides isometry from slices of the ambient distance matrix
(`qec.classify.non_qe_witness`); the tests use this direct construction to
check witnesses and subsets.
"""

from __future__ import annotations

import numpy as np

from constructions import is_connected
from qec.errors import DisconnectedSubgraphError
from qec.graphs import Graph, distance_matrix, induced_subgraph


def is_isometric_subgraph(g: Graph, subset) -> bool:
    """Do distances inside the induced subgraph match the ambient distances?

    Induced subgraphs of diameter <= 2 are always isometric, which settles
    most cases without comparing distance matrices.
    """
    s = sorted(set(subset))
    h = induced_subgraph(g, s)
    if not is_connected(h):
        raise DisconnectedSubgraphError(f"subset {s} induces a disconnected subgraph")
    dh = distance_matrix(h)
    if dh.max() <= 2:
        return True
    idx = np.array(s, dtype=np.int64)
    return bool(np.array_equal(dh, distance_matrix(g)[np.ix_(idx, idx)]))
