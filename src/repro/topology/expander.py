"""Random regular (expander-like) topology.

Jellyfish-style datacenter fabrics wire ToR switches into a random regular
graph, which is an expander with high probability and therefore has a very
small diameter.  The paper's related work discusses such static expanders
(Xpander, Jellyfish, Flexspander) as the main alternative to reconfigurable
designs; this topology lets the benchmarks quantify how much a demand-aware
matching still helps when the static fabric is already short-diameter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TopologyError
from .base import Topology

__all__ = ["ExpanderTopology"]


class ExpanderTopology(Topology):
    """Random ``degree``-regular graph over the racks.

    Parameters
    ----------
    n_racks:
        Number of racks.
    degree:
        Degree of the random regular graph (default 4).  ``n_racks * degree``
        must be even and ``degree < n_racks``.
    seed:
        Seed controlling the random wiring, so experiments are reproducible.
    """

    def __init__(self, n_racks: int, degree: int = 4, seed: Optional[int] = None):
        if n_racks < 3:
            raise TopologyError(f"need at least 3 racks, got {n_racks}")
        if degree < 2 or degree >= n_racks:
            raise TopologyError(f"degree must satisfy 2 <= degree < n_racks, got {degree}")
        if (n_racks * degree) % 2 != 0:
            raise TopologyError(
                f"n_racks * degree must be even for a regular graph, got {n_racks}*{degree}"
            )
        import networkx as nx

        rng = np.random.default_rng(seed)
        # Retry until the sampled regular graph is connected (overwhelmingly
        # likely on the first attempt for degree >= 3).
        for attempt in range(100):
            g = nx.random_regular_graph(degree, n_racks, seed=int(rng.integers(2**31 - 1)))
            if nx.is_connected(g):
                break
        else:  # pragma: no cover - practically unreachable
            raise TopologyError("failed to sample a connected regular graph")
        self._degree = degree
        super().__init__(
            g, list(range(n_racks)), name=f"expander(racks={n_racks}, degree={degree})"
        )

    @property
    def degree(self) -> int:
        """Degree of the regular graph."""
        return self._degree
