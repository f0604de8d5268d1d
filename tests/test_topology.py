import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ecsim.topology import (
    ConnectivityGraph,
    Grid,
    Position,
    build_connectivity,
    connected_components,
    hop_distances,
    move_step,
    refresh_node,
)


def full_3x3_grid():
    grid = Grid(3, 3)
    nid = 0
    for y in range(3):
        for x in range(3):
            grid.place(nid, Position(x, y))
            nid += 1
    return grid


def test_center_node_sees_all_eight():
    grid = full_3x3_grid()
    center = 4  # placed at (1, 1)
    assert grid.neighbors(center) == {0, 1, 2, 3, 5, 6, 7, 8}


def test_corner_truncation():
    grid = full_3x3_grid()
    corner = 0  # at (0, 0); block covers (0..1, 0..1)
    assert grid.neighbors(corner) == {1, 3, 4}


def test_lone_node_has_no_neighbors():
    grid = Grid(5, 5)
    grid.place(0, Position(2, 2))
    assert grid.neighbors(0) == set()


def test_same_cell_nodes_connect():
    grid = Grid(4, 4)
    grid.place(0, Position(1, 1))
    grid.place(1, Position(1, 1))
    assert grid.neighbors(0) == {1}


def test_unplaced_node_lookup_fails():
    grid = Grid(2, 2)
    with pytest.raises(LookupError):
        grid.neighbors(7)


def test_move_step_zero_probability_keeps_position():
    grid = Grid(3, 3)
    grid.place(0, Position(1, 1))
    rng = random.Random(7)
    assert move_step(grid, 0, rng, 0.0) == Position(1, 1)


def test_move_step_forced_move_goes_4_adjacent():
    grid = Grid(5, 5)
    grid.place(0, Position(2, 2))
    rng = random.Random(3)
    new = move_step(grid, 0, rng, 1.0)
    assert abs(new.x - 2) + abs(new.y - 2) == 1
    assert grid.position_of(0) == new


def test_move_step_trajectory_deterministic():
    def trajectory(seed):
        grid = Grid(6, 6)
        grid.place(0, Position(3, 3))
        rng = random.Random(seed)
        return [move_step(grid, 0, rng, 0.5) for _ in range(200)]

    assert trajectory(11) == trajectory(11)
    assert trajectory(11) != trajectory(12)


def test_move_step_stays_in_bounds():
    grid = Grid(2, 2)
    grid.place(0, Position(0, 0))
    rng = random.Random(1)
    for _ in range(100):
        pos = move_step(grid, 0, rng, 1.0)
        assert grid.in_bounds(pos.x, pos.y)


def line_graph(n):
    graph = ConnectivityGraph()
    for i in range(1, n + 1):
        graph.add_node(i)
    for i in range(1, n):
        graph.add_edge(i, i + 1)
    return graph


# Minimum-hop path lengths, as hop_distances gives them.


def test_path_on_line_graph():
    graph = line_graph(3)
    assert hop_distances(graph, 3) == {3: 0, 2: 1, 1: 2}


def test_path_disconnected_is_none():
    graph = ConnectivityGraph()
    graph.add_node(1)
    graph.add_node(2)
    assert hop_distances(graph, 2).get(1) is None


def test_path_degenerate_same_node():
    graph = line_graph(2)
    assert hop_distances(graph, 1)[1] == 0


def oracle_bfs_length(graph, src, dst):
    """Independent plain BFS used as the path-length oracle."""
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, depth = frontier.popleft()
        for nxt in graph.neighbors_of(node):
            if nxt == dst:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_path_length_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 25)
    graph = ConnectivityGraph()
    for i in range(n):
        graph.add_node(i)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.2:
                graph.add_edge(a, b)
    dst = rng.randrange(n)
    dist = hop_distances(graph, dst)
    for src in range(n):
        assert dist.get(src) == oracle_bfs_length(graph, src, dst)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_connectivity_symmetry_random_placements(seed):
    rng = random.Random(seed)
    grid = Grid(rng.randrange(1, 7), rng.randrange(1, 7))
    n = rng.randrange(1, 15)
    for i in range(n):
        grid.place(i, Position(rng.randrange(grid.width), rng.randrange(grid.height)))
    graph = build_connectivity(grid)
    for a in graph.nodes():
        for b in graph.neighbors_of(a):
            assert graph.has_edge(b, a)
            assert not graph.has_edge(a, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_incremental_refresh_matches_full_rebuild(seed):
    rng = random.Random(seed)
    grid = Grid(5, 5)
    n = 10
    for i in range(n):
        grid.place(i, Position(rng.randrange(5), rng.randrange(5)))
    graph = build_connectivity(grid)
    for _ in range(30):
        node = rng.randrange(n)
        moved = move_step(grid, node, rng, 1.0)
        assert grid.position_of(node) == moved
        refresh_node(graph, grid, node)
        fresh = build_connectivity(grid)
        assert {a: fresh.neighbors_of(a) for a in fresh.nodes()} == {
            a: graph.neighbors_of(a) for a in graph.nodes()
        }


def union_find_components(graph):
    parent = {n: n for n in graph.nodes()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in graph.nodes():
        for b in graph.neighbors_of(a):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for n in graph.nodes():
        groups.setdefault(find(n), set()).add(n)
    return sorted(groups.values(), key=min)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_components_match_union_find(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 20)
    graph = ConnectivityGraph()
    for i in range(n):
        graph.add_node(i)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.1:
                graph.add_edge(a, b)
    assert connected_components(graph) == union_find_components(graph)
