"""Grid placement, 3x3-block connectivity, lazy random-walk mobility and
hop distances.

Two nodes are connected when their cells lie in the same 3x3 block centered
on either node's cell (the block truncates at grid borders); nodes sharing a
cell always connect. Mobility is a lazy random walk: with probability
``p_move`` per step a node hops to a uniformly chosen in-bounds 4-adjacent
cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator

from ecsim.core import NodeId


@dataclass(frozen=True)
class Position:
    x: int
    y: int


# Fixed scan order for candidate steps keeps trajectories reproducible.
_STEP_OFFSETS = ((0, -1), (0, 1), (-1, 0), (1, 0))


class Grid:
    """Rectangular cell grid with node occupancy; cells may hold many nodes."""

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self._where: dict[NodeId, Position] = {}
        self._cells: dict[Position, set[NodeId]] = {}

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def place(self, node: NodeId, pos: Position) -> None:
        if node in self._where:
            raise ValueError(f"node {node} already placed")
        if not self.in_bounds(pos.x, pos.y):
            raise ValueError(f"position {pos} outside {self.width}x{self.height} grid")
        self._where[node] = pos
        self._cells.setdefault(pos, set()).add(node)

    def remove(self, node: NodeId) -> None:
        pos = self.position_of(node)
        cell = self._cells[pos]
        cell.discard(node)
        if not cell:
            del self._cells[pos]
        del self._where[node]

    def move(self, node: NodeId, pos: Position) -> None:
        self.remove(node)
        self.place(node, pos)

    def position_of(self, node: NodeId) -> Position:
        try:
            return self._where[node]
        except KeyError:
            raise LookupError(f"node {node} is not placed") from None

    def nodes(self) -> list[NodeId]:
        return sorted(self._where)

    def block(self, pos: Position) -> Iterator[Position]:
        """Cells of the 3x3 block centered on ``pos``, truncated at borders."""
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                x, y = pos.x + dx, pos.y + dy
                if self.in_bounds(x, y):
                    yield Position(x, y)

    def neighbors(self, node: NodeId) -> set[NodeId]:
        """All other nodes whose cell lies in the 3x3 block around ``node``."""
        pos = self.position_of(node)
        out: set[NodeId] = set()
        for cell in self.block(pos):
            out |= self._cells.get(cell, set())
        out.discard(node)
        return out


def move_step(grid: Grid, node: NodeId, rng: random.Random, p_move: float) -> Position:
    """One mobility step; returns the node's position. A node that stays
    gets its current ``Position`` object back, so ``is`` tells a move apart.

    Draws from ``rng`` only when p_move > 0 so disabled mobility leaves the
    stream untouched.
    """
    if not 0.0 <= p_move <= 1.0:
        raise ValueError(f"p_move must lie in [0, 1], got {p_move}")
    pos = grid.position_of(node)
    if p_move == 0.0:
        return pos
    if rng.random() >= p_move:
        return pos
    candidates = [
        Position(pos.x + dx, pos.y + dy)
        for dx, dy in _STEP_OFFSETS
        if grid.in_bounds(pos.x + dx, pos.y + dy)
    ]
    if not candidates:
        return pos
    new_pos = candidates[rng.randrange(len(candidates))]
    grid.move(node, new_pos)
    return new_pos


class ConnectivityGraph:
    """Undirected adjacency over placed nodes (no self-loops)."""

    def __init__(self) -> None:
        self._adj: dict[NodeId, set[NodeId]] = {}

    def add_node(self, node: NodeId) -> None:
        self._adj.setdefault(node, set())

    def remove_node(self, node: NodeId) -> AbstractSet[NodeId]:
        """Remove ``node`` and its edges; returns its former neighbours."""
        former = self._adj.pop(node, frozenset())
        for other in former:
            self._adj[other].discard(node)
        return former

    def add_edge(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            return
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def remove_edge(self, a: NodeId, b: NodeId) -> None:
        self._adj.get(a, set()).discard(b)
        self._adj.get(b, set()).discard(a)

    def nodes(self) -> list[NodeId]:
        return sorted(self._adj)

    def neighbors_of(self, node: NodeId) -> AbstractSet[NodeId]:
        """The live adjacency set of ``node``: read it, never mutate it."""
        return self._adj.get(node, frozenset())

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        return b in self._adj.get(a, set())


def build_connectivity(grid: Grid) -> ConnectivityGraph:
    """Full rebuild of the connectivity graph from current positions."""
    graph = ConnectivityGraph()
    for node in grid.nodes():
        graph.add_node(node)
        for other in grid.neighbors(node):
            graph.add_edge(node, other)
    return graph


def refresh_node(graph: ConnectivityGraph, grid: Grid, node: NodeId) -> tuple[set, set]:
    """Re-derive one node's edges after it moved; returns (lost, gained) neighbours."""
    current = set(graph.neighbors_of(node))
    # The grid and the graph hold the same nodes: a death leaves both.
    fresh = grid.neighbors(node)
    removed, added = current - fresh, fresh - current
    for gone in removed:
        graph.remove_edge(node, gone)
    for new in added:
        graph.add_edge(node, new)
    return removed, added


def connected_components(graph: ConnectivityGraph) -> list[set[NodeId]]:
    """Connected components, ordered by their smallest member id."""
    seen: set[NodeId] = set()
    components: list[set[NodeId]] = []
    for root in graph.nodes():
        if root not in seen:
            comp = set(hop_distances(graph, root))
            seen |= comp
            components.append(comp)
    return components


def hop_distances(graph: ConnectivityGraph, root: NodeId) -> dict[NodeId, int]:
    """Minimum hop count from ``root`` to every node it can reach, itself
    included at 0; unreachable nodes are absent."""
    dist = {root: 0}
    frontier, level = [root], 0
    while frontier:
        level += 1
        reached = []
        for cur in frontier:
            for nxt in graph._adj.get(cur, ()):
                if nxt not in dist:
                    dist[nxt] = level
                    reached.append(nxt)
        frontier = reached
    return dist


def distances_kept(graph: ConnectivityGraph, dist: dict[NodeId, int], lost: Iterable[NodeId],
                   added: Iterable[tuple[NodeId, NodeId]]) -> bool:
    """Whether ``dist``, exact before an edge change that added the ``added``
    pairs and took edges only from ``lost`` nodes, is exact after it: no added
    edge spans two levels or reaches into ``dist``, and every non-root node that
    lost an edge still has a neighbour one level closer."""
    for a, b in added:
        # An absent node counts as level -2, at least two from any present one.
        if abs(dist.get(a, -2) - dist.get(b, -2)) > 1:
            return False
    for node in lost:
        level = dist.get(node)
        if level and not any(dist.get(other) == level - 1 for other in graph._adj[node]):
            return False
    return True
