"""Greedy geographic routing over a sensor network.

Geographic routing protocols forward a packet to the neighbour whose
*believed* location is closest to the destination.  When nodes' derived
locations are corrupted (the attacks LAD is designed to detect), greedy
forwarding loops, detours or dead-ends.  This module implements plain greedy
forwarding (the common core of GPSR-style protocols, without perimeter
recovery) so the ``geographic_routing`` example can measure delivery rate
and path stretch with honest locations, with attacked locations, and with
attacked locations filtered by the LAD check (Diff-metric scores against
the trained threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.network.neighbors import NeighborIndex
from repro.network.network import SensorNetwork
from repro.types import as_point
from repro.utils.validation import check_int

__all__ = ["RouteResult", "RoutingStats", "GreedyGeographicRouter", "evaluate_routing"]


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing a single packet.

    Attributes
    ----------
    delivered:
        Whether the packet reached a node within one radio range of the
        destination point.
    hops:
        The sequence of node indices traversed (including the source).
    path_length:
        Total geographic distance travelled along the true node positions.
    """

    delivered: bool
    hops: List[int]
    path_length: float

    @property
    def hop_count(self) -> int:
        """Number of forwarding steps."""
        return max(len(self.hops) - 1, 0)


@dataclass
class RoutingStats:
    """Aggregate statistics over many routed packets."""

    attempted: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_path_length: float = 0.0

    def record(self, result: RouteResult) -> None:
        """Fold one route outcome into the statistics."""
        self.attempted += 1
        if result.delivered:
            self.delivered += 1
            self.total_hops += result.hop_count
            self.total_path_length += result.path_length

    @property
    def delivery_rate(self) -> float:
        """Fraction of packets that reached their destination region."""
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def mean_hops(self) -> float:
        """Mean hop count of the delivered packets."""
        return self.total_hops / self.delivered if self.delivered else float("nan")

    @property
    def mean_path_length(self) -> float:
        """Mean geographic path length of the delivered packets."""
        return (
            self.total_path_length / self.delivered if self.delivered else float("nan")
        )


class GreedyGeographicRouter:
    """Greedy geographic forwarding using per-node *believed* locations.

    Parameters
    ----------
    network:
        The deployed network (true positions define connectivity).
    believed_positions:
        What each node *thinks* its position is — the output of a
        localization scheme, possibly corrupted.  Defaults to the true
        positions.
    max_hops:
        Abort threshold against forwarding loops.
    """

    def __init__(
        self,
        network: SensorNetwork,
        believed_positions: Optional[np.ndarray] = None,
        *,
        max_hops: int = 256,
    ):
        self._network = network
        self._index = NeighborIndex(network)
        if believed_positions is None:
            believed_positions = network.positions.copy()
        believed_positions = np.asarray(believed_positions, dtype=np.float64)
        if believed_positions.shape != network.positions.shape:
            raise ValueError("believed_positions must match the network size")
        self._believed = believed_positions
        self._max_hops = check_int("max_hops", max_hops, minimum=1)

    @property
    def believed_positions(self) -> np.ndarray:
        """The per-node believed locations used for forwarding decisions."""
        return self._believed

    def route(self, source: int, destination) -> RouteResult:
        """Route a packet from node *source* toward the *destination* point.

        Forwarding rule: hand the packet to the neighbour whose believed
        position is strictly closer to the destination than the current
        node's believed position; stop when a node is physically within one
        radio range of the destination (delivered), when no neighbour makes
        progress (stuck), or when the hop budget is exhausted.
        """
        dest = as_point(destination)
        radio_range = self._network.radio.nominal_range
        current = int(source)
        hops = [current]
        path_length = 0.0

        for _ in range(self._max_hops):
            true_pos = self._network.positions[current]
            if float(np.hypot(*(true_pos - dest))) <= radio_range:
                return RouteResult(delivered=True, hops=hops, path_length=path_length)

            neighbors = self._index.neighbors_of_node(current)
            if neighbors.size == 0:
                break
            believed_current = self._believed[current]
            current_dist = float(np.hypot(*(believed_current - dest)))
            neighbor_believed = self._believed[neighbors]
            dists = np.hypot(
                neighbor_believed[:, 0] - dest[0], neighbor_believed[:, 1] - dest[1]
            )
            best = int(np.argmin(dists))
            if dists[best] >= current_dist:
                break  # no neighbour believed closer: greedy forwarding is stuck
            next_hop = int(neighbors[best])
            path_length += float(
                np.hypot(*(self._network.positions[next_hop] - true_pos))
            )
            current = next_hop
            hops.append(current)

        return RouteResult(delivered=False, hops=hops, path_length=path_length)


def evaluate_routing(
    network: SensorNetwork,
    believed_positions: np.ndarray,
    flows: Sequence[tuple[int, np.ndarray]],
    *,
    max_hops: int = 256,
) -> RoutingStats:
    """Route every ``(source, destination)`` flow and aggregate statistics."""
    router = GreedyGeographicRouter(
        network, believed_positions, max_hops=max_hops
    )
    stats = RoutingStats()
    for source, destination in flows:
        stats.record(router.route(int(source), destination))
    return stats
