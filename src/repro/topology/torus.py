"""2-D torus topology.

Racks are arranged on a ``rows x cols`` grid with wrap-around links, as in
several HPC interconnects.  Distances are Manhattan distances with
wrap-around.  Included as an alternative fixed network for ablations on
distance heterogeneity.
"""

from __future__ import annotations

from ..errors import TopologyError
from .base import EdgeList, Topology

__all__ = ["TorusTopology"]


class TorusTopology(Topology):
    """2-D torus of ``rows * cols`` racks.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; both must be at least 2 (otherwise wrap-around
        links would duplicate grid links).
    """

    def __init__(self, rows: int, cols: int):
        if rows < 2 or cols < 2:
            raise TopologyError(f"torus dimensions must be >= 2, got {rows}x{cols}")
        nodes = [(r, c) for r in range(rows) for c in range(cols)]
        edges = [
            link
            for r, c in nodes
            for link in (((r, c), ((r + 1) % rows, c)), ((r, c), (r, (c + 1) % cols)))
        ]
        g = EdgeList(nodes, edges)
        self._rows = rows
        self._cols = cols
        super().__init__(g, nodes, name=f"torus({rows}x{cols})")

    @property
    def rows(self) -> int:
        """Number of grid rows."""
        return self._rows

    @property
    def cols(self) -> int:
        """Number of grid columns."""
        return self._cols

    def coordinates(self, rack: int) -> tuple[int, int]:
        """Grid coordinates of a rack id."""
        return self.rack_nodes[rack]
