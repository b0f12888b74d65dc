"""2D-mesh geometry and deterministic X-Y routing.

Tiles are numbered row-major on a ``width x height`` mesh.  Square tile
counts keep the historical ``side x side`` layout; non-square counts
(the scaling probe's 8- or 32-tile configurations) fold onto the most
nearly square ``width x height`` factorization with ``width >= height``,
so 8 tiles form a 4x2 mesh.  Routing is dimension-ordered (X first,
then Y), which is deadlock-free and, crucially for this paper,
**unordered across different source-destination pairs**: two messages
between different endpoints may arrive in any relative order.
"""

from __future__ import annotations

from typing import List, Tuple

from ..common.errors import ConfigError
from ..common.params import mesh_dims

Link = Tuple[int, int]  # directed link (from_tile, to_tile)


class MeshTopology:
    """Geometry helper: coordinates, hop counts, and X-Y routes."""

    def __init__(self, num_tiles: int) -> None:
        width, height = mesh_dims(num_tiles)
        self.num_tiles = num_tiles
        self.width = width
        self.height = height
        #: Historical alias from the square-only era; row length.
        self.side = width
        # Routes are static per (src, dst) pair; memoize them — the mesh
        # asks for one on every single message.
        self._route_cache: dict = {}

    # Fixed geometry plus a pure memo: a deep copy is the object itself
    # (explorer forks share one topology, route memo included).
    def __deepcopy__(self, memo) -> "MeshTopology":
        return self

    def coords(self, tile: int) -> Tuple[int, int]:
        """(x, y) coordinates of *tile*."""
        if not 0 <= tile < self.num_tiles:
            raise ConfigError(f"tile {tile} out of range 0..{self.num_tiles - 1}")
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        return y * self.width + x

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[Link]:
        """Directed links on the X-then-Y route from *src* to *dst*.

        The returned list is cached and shared — callers must not
        mutate it.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        route = self._compute_route(src, dst)
        self._route_cache[(src, dst)] = route
        return route

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        links: List[Link] = []
        x, y = sx, sy
        step = 1 if dx > x else -1
        while x != dx:
            nxt = x + step
            links.append((self.tile_at(x, y), self.tile_at(nxt, y)))
            x = nxt
        step = 1 if dy > y else -1
        while y != dy:
            nxt = y + step
            links.append((self.tile_at(x, y), self.tile_at(x, nxt)))
            y = nxt
        return links
