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
    repair_distances,
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
    state = rng.getstate()
    assert list(move_step(grid, [0], rng, 0.0)) == []
    assert grid.position_of(0) == Position(1, 1)
    assert rng.getstate() == state  # disabled mobility draws nothing


def test_move_step_rejects_a_bad_probability():
    grid = Grid(3, 3)
    grid.place(0, Position(1, 1))
    with pytest.raises(ValueError):
        list(move_step(grid, [0], random.Random(7), 1.5))


def test_move_step_forced_move_goes_4_adjacent():
    grid = Grid(5, 5)
    grid.place(0, Position(2, 2))
    rng = random.Random(3)
    assert list(move_step(grid, [0], rng, 1.0)) == [0]
    new = grid.position_of(0)
    assert abs(new.x - 2) + abs(new.y - 2) == 1


def test_move_step_trajectory_deterministic():
    def trajectory(seed):
        grid = Grid(6, 6)
        grid.place(0, Position(3, 3))
        rng = random.Random(seed)
        out = []
        for _ in range(200):
            list(move_step(grid, [0], rng, 0.5))
            out.append(grid.position_of(0))
        return out

    assert trajectory(11) == trajectory(11)
    assert trajectory(11) != trajectory(12)


def test_move_step_stays_in_bounds():
    grid = Grid(2, 2)
    grid.place(0, Position(0, 0))
    rng = random.Random(1)
    for _ in range(100):
        list(move_step(grid, [0], rng, 1.0))
        pos = grid.position_of(0)
        assert grid.in_bounds(pos.x, pos.y)


def test_move_step_draws_in_node_order_and_yields_each_mover_after_its_move():
    grid = Grid(8, 8)
    for nid in range(6):
        grid.place(nid, Position(nid, nid))
    rng, replay = random.Random(10), random.Random(10)  # 0 (a corner) and 2 move
    seen = [(nid, grid.position_of(nid), rng.getstate())
            for nid in move_step(grid, [4, 0, 2, 5], rng, 0.5)]
    # One random() per node in the given order, randrange only for a mover,
    # and each mover yielded before the next node draws.
    expected = []
    for nid in [4, 0, 2, 5]:
        if replay.random() < 0.5:
            cells = [Position(nid + dx, nid + dy)
                     for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0))
                     if 0 <= nid + dx < 8 and 0 <= nid + dy < 8]
            expected.append((nid, cells[replay.randrange(len(cells))], replay.getstate()))
    assert seen == expected
    assert 0 < len(seen) < 4
    assert rng.getstate() == replay.getstate()


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
        assert list(move_step(grid, [node], rng, 1.0)) == [node]
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


def test_refresh_node_returns_lost_and_gained_neighbors():
    grid = Grid(5, 1)
    for nid, x in enumerate((0, 1, 3)):
        grid.place(nid, Position(x, 0))
    graph = build_connectivity(grid)
    grid.move(1, Position(2, 0))
    assert refresh_node(graph, grid, 1) == ({0}, {2})
    assert graph.neighbors_of(1) == {2} and graph.neighbors_of(0) == set()
    assert refresh_node(graph, grid, 1) == (set(), set())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_carried_maps_stay_exact_across_moves_and_deaths(seed):
    # Every root's map is built once and repaired in place through all the
    # changes, so an error carried over from one change shows at a later one.
    rng = random.Random(seed)
    grid = Grid(5, 5)
    alive = list(range(12))
    for i in alive:
        grid.place(i, Position(rng.randrange(5), rng.randrange(5)))
    graph = build_connectivity(grid)
    maps = {root: hop_distances(graph, root) for root in alive}
    for _ in range(40):
        node = rng.choice(alive)
        if rng.random() < 0.1 and len(alive) > 2:
            # A death as the engine handles it: the node leaves the graph and
            # every map, then its former neighbours are checked.
            alive.remove(node)
            grid.remove(node)
            lost, added = graph.remove_node(node), ()
            del maps[node]
            for dist in maps.values():
                dist.pop(node, None)
        else:
            list(move_step(grid, [node], rng, 1.0))
            removed, gained = refresh_node(graph, grid, node)
            lost = (node, *removed)
            added = [(node, v) for v in gained]
        for root, dist in maps.items():
            repair_distances(graph, dist, lost, added)
            assert dist == hop_distances(graph, root)


def graph_of(nodes, edges):
    graph = ConnectivityGraph()
    for n in nodes:
        graph.add_node(n)
    for a, b in edges:
        graph.add_edge(a, b)
    return graph


def repaired(graph, root, change):
    """``root``'s map repaired across ``change``, which edits ``graph`` and
    returns (lost, added); checked against a fresh BFS."""
    dist = hop_distances(graph, root)
    lost, added = change(dist)
    repair_distances(graph, dist, lost, added)
    assert dist == hop_distances(graph, root)
    return dist


def test_map_kept_across_an_edge_within_one_level():
    # 0 - 1 - 2 and 0 - 3 - 4: the edge 2-3 joins levels 2 and 1.
    graph = graph_of(range(5), [(0, 1), (1, 2), (0, 3), (3, 4)])

    def change(dist):
        graph.add_edge(2, 3)
        return (), [(2, 3)]

    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}


def test_map_repaired_for_an_edge_across_two_levels():
    graph = graph_of(range(4), [(0, 1), (1, 2), (2, 3)])

    def change(dist):
        graph.add_edge(0, 2)
        return (), [(0, 2)]

    # 2 moves up a level, and 3 behind it too.
    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 1, 3: 2}


def test_map_repaired_for_an_edge_that_joins_it():
    graph = graph_of(range(4), [(0, 1), (2, 3)])

    def change(dist):
        graph.add_edge(1, 2)
        return (), [(1, 2)]

    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_map_kept_while_another_parent_remains():
    # 3 hangs off both 1 and 2, both one hop from 0.
    graph = graph_of(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])

    def change(dist):
        graph.remove_edge(1, 3)
        return (1, 3), ()

    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 1, 3: 2}


def test_map_repaired_when_the_last_parent_is_lost():
    # 3's only parent is 1; over the sideways edge 3 - 4 it ends one level further.
    graph = graph_of(range(5), [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])

    def change(dist):
        graph.remove_edge(1, 3)
        return (1, 3), ()

    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 1, 3: 3, 4: 2}


def test_map_repaired_when_the_component_splits():
    graph = graph_of(range(3), [(0, 1), (1, 2)])

    def change(dist):
        graph.remove_edge(1, 2)
        return (1, 2), ()

    # 2 is out of reach and leaves the map.
    assert repaired(graph, 0, change) == {0: 0, 1: 1}


def relay_death(graph, relay):
    """A relay's death as the engine handles it: leave the graph and the map,
    then check the former neighbours."""

    def change(dist):
        del dist[relay]
        return graph.remove_node(relay), ()

    return change


def test_map_repaired_when_the_only_relay_dies():
    graph = graph_of(range(4), [(0, 1), (1, 2), (0, 3)])
    assert repaired(graph, 0, relay_death(graph, 1)) == {0: 0, 3: 1}


def test_map_kept_when_a_relay_with_a_twin_dies():
    graph = graph_of(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert repaired(graph, 0, relay_death(graph, 1)) == {0: 0, 2: 1, 3: 2}


def test_a_resettled_node_passes_its_decrease_on():
    # The line 0 - 1 - 2 - 3 - 4 - 5 - 6, and 7 hanging off 2. 7 moves from 2
    # to 0 and 6: it re-settles at level 1, and 6 and then 5 come closer
    # through it.
    graph = graph_of(range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])

    def change(dist):
        graph.remove_edge(2, 7)
        graph.add_edge(7, 0)
        graph.add_edge(7, 6)
        return (7, 2), [(7, 0), (7, 6)]

    assert repaired(graph, 0, change) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 3, 6: 2, 7: 1}
