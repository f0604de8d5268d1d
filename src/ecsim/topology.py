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


def move_step(grid: Grid, nodes: Iterable[NodeId], rng: random.Random,
              p_move: float) -> Iterator[NodeId]:
    """One mobility step of ``nodes``, in the given order; yields each node
    that moved, right after moving it, so the caller can react before the
    next node draws. Each node draws one ``rng.random()``, and a mover one
    ``randrange`` for its cell.

    Draws from ``rng`` only when p_move > 0 so disabled mobility leaves the
    stream untouched. A bad ``p_move`` raises on the first iteration.
    """
    if not 0.0 <= p_move <= 1.0:
        raise ValueError(f"p_move must lie in [0, 1], got {p_move}")
    if p_move == 0.0:
        return
    draw = rng.random
    for node in nodes:
        if draw() >= p_move:
            continue
        pos = grid.position_of(node)
        candidates = [
            Position(pos.x + dx, pos.y + dy)
            for dx, dy in _STEP_OFFSETS
            if grid.in_bounds(pos.x + dx, pos.y + dy)
        ]
        if candidates:
            grid.move(node, candidates[rng.randrange(len(candidates))])
            yield node


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


def repair_distances(graph: ConnectivityGraph, dist: dict[NodeId, int], lost: Iterable[NodeId],
                     added: Iterable[tuple[NodeId, NodeId]]) -> None:
    """Repair ``dist`` in place: it was exact before an edge change that added
    the ``added`` pairs and took edges only from ``lost`` nodes, and is exact
    after it (Ramalingam and Reps, J. Algorithms 1996). A dead node leaves
    ``dist`` before the call.

    A node whose distance grows is one that lost its last neighbour one level
    closer, or, level by level, one whose closer neighbours all grow. These
    nodes leave the map and re-settle from their other neighbours; a node no
    neighbour reaches stays out. Decreases then spread, in level order, from
    the re-settled nodes and across every added edge that spans two levels or
    reaches into the map."""
    adj = graph._adj
    grown: set[NodeId] = set()
    pending: dict[int, set[NodeId]] = {}
    for node in lost:
        level = dist.get(node)
        if level:  # the root and nodes outside the map keep their distance
            pending.setdefault(level, set()).add(node)
    level = min(pending, default=0)
    while pending:
        # Every node one level closer is settled: grown or keeping its distance.
        for node in pending.pop(level, ()):
            if not any(dist.get(other) == level - 1 and other not in grown for other in adj[node]):
                grown.add(node)
                for other in adj[node]:
                    if dist.get(other) == level + 1:
                        pending.setdefault(level + 1, set()).add(other)
        level += 1
    for node in grown:
        del dist[node]
    # Level -> nodes that reach it or lower; each entry relaxes its neighbours.
    frontier: dict[int, list[NodeId]] = {}
    for node in grown:
        closest = min((dist[other] for other in adj[node] if other in dist), default=None)
        if closest is not None:
            frontier.setdefault(closest + 1, []).append(node)
    for a, b in added:
        for near, far in ((a, b), (b, a)):
            level = dist.get(near)
            if level is not None and dist.get(far, level + 2) > level + 1:
                frontier.setdefault(level, []).append(near)
    level = min(frontier, default=0)
    while frontier:
        for node in frontier.pop(level, ()):
            if dist.get(node, level) < level:
                continue  # reached closer in the meantime
            dist[node] = level
            for other in adj[node]:
                if dist.get(other, level + 2) > level + 1:
                    dist[other] = level + 1
                    frontier.setdefault(level + 1, []).append(other)
        level += 1
