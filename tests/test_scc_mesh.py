"""Tests for mesh geometry, X-Y routing and distances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scc import Mesh, SccChip, SccConfig


@pytest.fixture(scope="module")
def chip():
    return SccChip(SccConfig())


def test_tile_of_core_layout(chip):
    mesh = chip.mesh
    assert mesh.tile_of_core(0) == (0, 0)
    assert mesh.tile_of_core(1) == (0, 0)
    assert mesh.tile_of_core(2) == (1, 0)
    assert mesh.tile_of_core(12) == (0, 1)
    assert mesh.tile_of_core(47) == (5, 3)


def test_cores_of_tile_inverts_tile_of_core(chip):
    mesh = chip.mesh
    for tile in mesh.tiles():
        for core in mesh.cores_of_tile(tile):
            assert mesh.tile_of_core(core) == tile


def test_same_tile_distance_is_one(chip):
    assert chip.mesh.core_distance(0, 1) == 1
    # Local MPB also goes through the router: d >= 1 always.
    assert chip.mesh.core_distance(5, 5) == 1


def test_max_distance_on_scc_is_nine(chip):
    mesh = chip.mesh
    dists = {
        mesh.core_distance(a, b)
        for a in range(chip.num_cores)
        for b in range(chip.num_cores)
    }
    assert max(dists) == 9  # 5 + 3 Manhattan + 1, as in Figure 3
    assert min(dists) == 1


def test_distance_is_symmetric(chip):
    mesh = chip.mesh
    for a in range(0, chip.num_cores, 7):
        for b in range(0, chip.num_cores, 5):
            assert mesh.core_distance(a, b) == mesh.core_distance(b, a)


def test_mem_distance_range_matches_figure3(chip):
    dists = {chip.mesh.mem_distance(c) for c in range(chip.num_cores)}
    assert dists == {1, 2, 3, 4}  # Figure 3's memory panels sweep 1..4


def test_mc_tiles_are_the_corners(chip):
    assert set(chip.mesh.mc_tiles) == {(0, 0), (5, 0), (0, 3), (5, 3)}


def test_mc_assignment_is_nearest_corner(chip):
    mesh = chip.mesh
    for c in range(chip.num_cores):
        x, y = mesh.tile_of_core(c)
        best = min(abs(x - mx) + abs(y - my) for mx, my in mesh.mc_tiles)
        assert mesh.mem_distance(c) == best + 1  # + the local router


def test_route_is_x_then_y(chip):
    path = chip.mesh.route((1, 1), (4, 3))
    assert path == [(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3)]


def test_route_handles_negative_directions(chip):
    path = chip.mesh.route((4, 3), (1, 1))
    assert path == [(4, 3), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]


def test_route_self_is_single_tile(chip):
    assert chip.mesh.route((2, 2), (2, 2)) == [(2, 2)]


def test_path_links_count_equals_manhattan(chip):
    mesh = chip.mesh
    links = mesh.path_links((0, 0), (5, 3))
    assert len(links) == 8
    # Consecutive links chain up.
    for (a, b), (c, _) in zip(links, links[1:]):
        assert b == c


def test_core_validation(chip):
    with pytest.raises(ValueError):
        chip.mesh.tile_of_core(48)
    with pytest.raises(ValueError):
        chip.mesh.tile_of_core(-1)
    with pytest.raises(ValueError):
        chip.mesh.route((6, 0), (0, 0))


def test_link_lookup_requires_model_links(chip):
    with pytest.raises(KeyError):
        chip.mesh.link((0, 0), (1, 0))


def test_links_exist_when_enabled():
    chip = SccChip(SccConfig(model_links=True))
    link = chip.mesh.link((0, 0), (1, 0))
    assert link.capacity == 1
    # 2*(cols-1)*rows + 2*(rows-1)*cols directed links
    expected = 2 * 5 * 4 + 2 * 3 * 6
    assert len(chip.mesh._links) == expected


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=47),
    b=st.integers(min_value=0, max_value=47),
)
def test_property_distance_is_manhattan_plus_one(a, b):
    mesh = SccChip(SccConfig()).mesh
    ta, tb = mesh.tile_of_core(a), mesh.tile_of_core(b)
    assert mesh.core_distance(a, b) == abs(ta[0] - tb[0]) + abs(ta[1] - tb[1]) + 1


@settings(max_examples=30, deadline=None)
@given(
    ax=st.integers(0, 5), ay=st.integers(0, 3),
    bx=st.integers(0, 5), by=st.integers(0, 3),
)
def test_property_route_length_and_endpoints(ax, ay, bx, by):
    mesh = SccChip(SccConfig()).mesh
    path = mesh.route((ax, ay), (bx, by))
    assert path[0] == (ax, ay)
    assert path[-1] == (bx, by)
    assert len(path) == abs(ax - bx) + abs(ay - by) + 1
    # Every step moves to a mesh neighbour.
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_bigger_mesh_geometry():
    chip = SccChip(SccConfig(mesh_cols=16, mesh_rows=16))
    assert chip.num_cores == 512
    mesh = chip.mesh
    assert mesh.core_distance(0, chip.num_cores - 1) == 15 + 15 + 1
    assert set(mesh.mc_tiles) == {(0, 0), (15, 0), (0, 15), (15, 15)}
