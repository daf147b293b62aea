"""The 2D-mesh network-on-chip: coordinates, X-Y routing, distances, links.

Distance convention (matches the paper's Figure 3 x-axes): the hop count
``d`` between a core and a target MPB or memory controller is the number
of routers a packet traverses, i.e. ``manhattan(src_tile, dst_tile) + 1``.
Accessing the MPB of the *other core on the same tile* therefore has
``d = 1`` (through the local router), and the maximum on the 6x4 SCC mesh
is ``5 + 3 + 1 = 9``.

Memory controllers sit at the four mesh corners; each core uses the
controller of its quadrant, which bounds the memory distance to 4 on the
SCC -- again matching Figure 3.
"""

from __future__ import annotations

from typing import Iterator

from ..sim import Resource, Simulator
from .config import SccConfig

Coord = tuple[int, int]


class Mesh:
    """Geometry and (optionally) link-occupancy model of the NoC."""

    def __init__(self, sim: Simulator, config: SccConfig) -> None:
        self.sim = sim
        self.config = config
        self.cols = config.mesh_cols
        self.rows = config.mesh_rows
        self._links: dict[tuple[Coord, Coord], Resource] = {}
        if config.model_links:
            for src in self.tiles():
                for dst in self._neighbours(src):
                    self._links[(src, dst)] = Resource(
                        sim, capacity=1, name=f"link{src}->{dst}"
                    )
        # Memory controllers at the four corners (two per vertical edge on
        # the real chip; corners give the same quadrant distances).
        self.mc_tiles: tuple[Coord, ...] = tuple(
            sorted({
                (0, 0),
                (self.cols - 1, 0),
                (0, self.rows - 1),
                (self.cols - 1, self.rows - 1),
            })
        )
        # The mesh is static after construction: precompute per-core
        # geometry so the hot paths (core_distance per MPB transaction,
        # mem_distance per memory op) are table lookups, not arithmetic
        # plus validation.
        cpt = config.cores_per_tile
        self._core_tiles: tuple[Coord, ...] = tuple(
            ((cid // cpt) % self.cols, (cid // cpt) // self.cols)
            for cid in range(config.num_cores)
        )
        self._mc_tile_of_core: tuple[Coord, ...] = tuple(
            min(
                self.mc_tiles,
                key=lambda mc, t=tile: (abs(t[0] - mc[0]) + abs(t[1] - mc[1]), mc),
            )
            for tile in self._core_tiles
        )
        self._mem_dist: tuple[int, ...] = tuple(
            abs(t[0] - mc[0]) + abs(t[1] - mc[1]) + 1
            for t, mc in zip(self._core_tiles, self._mc_tile_of_core)
        )
        # Lazy caches for X-Y routes (tile-pair keyed; filled on demand so
        # large scaled-up meshes never pay a quadratic precompute).
        self._route_cache: dict[tuple[Coord, Coord], list[Coord]] = {}
        self._path_links_cache: dict[tuple[Coord, Coord], list[tuple[Coord, Coord]]] = {}
        self._path_resources: dict[tuple[Coord, Coord], tuple[Resource, ...]] = {}

    # -- geometry -----------------------------------------------------------

    def tiles(self) -> Iterator[Coord]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield (x, y)

    def tile_of_core(self, core_id: int) -> Coord:
        """Tile coordinate of a core (cores are numbered tile-major)."""
        self._check_core(core_id)
        return self._core_tiles[core_id]

    def cores_of_tile(self, tile: Coord) -> tuple[int, ...]:
        x, y = tile
        base = (y * self.cols + x) * self.config.cores_per_tile
        return tuple(range(base, base + self.config.cores_per_tile))

    def core_distance(self, src_core: int, dst_core: int) -> int:
        """Routers traversed by a packet from ``src_core`` to the MPB of
        ``dst_core`` (>= 1 even on the same tile: the local router is used
        because direct local-MPB access is buggy on real silicon)."""
        tiles = self._core_tiles
        n = len(tiles)
        if not (0 <= src_core < n and 0 <= dst_core < n):
            self._check_core(src_core)
            self._check_core(dst_core)
        a = tiles[src_core]
        b = tiles[dst_core]
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) + 1

    def mem_distance(self, core_id: int) -> int:
        """Routers traversed to reach the core's memory controller."""
        self._check_core(core_id)
        return self._mem_dist[core_id]

    # -- X-Y routing ---------------------------------------------------------

    def route(self, src: Coord, dst: Coord) -> list[Coord]:
        """Tiles visited from ``src`` to ``dst`` under X-Y routing,
        inclusive of both endpoints (cached: the mesh is static)."""
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return list(cached)
        self._check_tile(src)
        self._check_tile(dst)
        path = [src]
        x, y = src
        step = 1 if dst[0] > x else -1
        while x != dst[0]:
            x += step
            path.append((x, y))
        step = 1 if dst[1] > y else -1
        while y != dst[1]:
            y += step
            path.append((x, y))
        self._route_cache[(src, dst)] = path
        return list(path)

    def path_links(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        """Directed links crossed on the X-Y route from src to dst."""
        cached = self._path_links_cache.get((src, dst))
        if cached is None:
            path = self.route(src, dst)
            cached = list(zip(path, path[1:]))
            self._path_links_cache[(src, dst)] = cached
        return list(cached)

    def links(self) -> tuple[Resource, ...]:
        """All directed-link resources (empty unless ``model_links``), in
        deterministic construction order."""
        return tuple(self._links.values())

    def link_items(self) -> tuple[tuple[tuple[Coord, Coord], Resource], ...]:
        """(directed link key, resource) pairs for metrics harvesting."""
        return tuple(self._links.items())

    def link(self, src: Coord, dst: Coord) -> Resource:
        """The :class:`Resource` modeling a directed link (requires
        ``config.model_links``)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(
                f"no link {src}->{dst} (adjacent tiles only; "
                f"model_links={self.config.model_links})"
            ) from None

    def transfer_packet(self, src: Coord, dst: Coord):
        """Sub-generator: move one cache-line packet, occupying each link on
        the X-Y path for ``t_link``.  Only meaningful with link modeling on;
        hop *latency* is charged separately by the caller."""
        resources = self._path_resources.get((src, dst))
        if resources is None:
            links = self._links
            resources = tuple(links[ab] for ab in self.path_links(src, dst))
            self._path_resources[(src, dst)] = resources
        t_link = self.config.t_link
        for link in resources:
            yield from link.serve(t_link)

    # -- validation -----------------------------------------------------------

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.config.num_cores:
            raise ValueError(
                f"core id {core_id} out of range 0..{self.config.num_cores - 1}"
            )

    def _check_tile(self, tile: Coord) -> None:
        x, y = tile
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise ValueError(f"tile {tile} outside {self.cols}x{self.rows} mesh")

    def _neighbours(self, tile: Coord) -> Iterator[Coord]:
        x, y = tile
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.cols and 0 <= ny < self.rows:
                yield (nx, ny)
