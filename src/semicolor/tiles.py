"""Tile layouts putting pattern pieces in bijection with group elements.

Every tile is the image of a base tile under the isometry realizing its
group element, so left multiplication on labels matches the geometric
action on tiles.  Float coordinates are acceptable here; everything
algebraic stays exact elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidParameterError, UnsupportedPatternError
from .groups import SQUARE_POINT_GROUP, FiniteGroup, p4m_point_and_translation

Point = tuple[float, float]
Polygon = tuple[Point, ...]


@dataclass(frozen=True)
class TileMap:
    """Pattern tiles keyed by group-element label."""

    pattern: str
    group: FiniteGroup
    domains: dict[str, Polygon]
    base_label: str = "e"
    cell: tuple[float, float] | None = None  # lattice periods for repeating patterns

    def to_json(self) -> dict:
        return {
            label: [[x, y] for x, y in poly]
            for label, poly in sorted(self.domains.items())
        }


def _rot(theta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    c, s = math.cos(theta), math.sin(theta)
    return ((c, -s), (s, c))


def _apply(mat, mirror_first: bool, p: Point) -> Point:
    x, y = p
    if mirror_first:
        y = -y
    return (mat[0][0] * x + mat[0][1] * y, mat[1][0] * x + mat[1][1] * y)


def hexagon_tile_map(group: FiniteGroup) -> TileMap:
    """Twelve tiles of a regular hexagon under the full hexagon symmetry.

    The base tile is the half-wedge between a vertex direction and the
    adjacent edge midpoint; the rotation generator advances wedges by 60
    degrees counterclockwise and the reflection generator mirrors across
    the horizontal axis.
    """
    if group.descriptor != {"kind": "dihedral", "n": 6}:
        raise UnsupportedPatternError("the hexagon layout requires the dihedral:6 group")
    base: Polygon = ((0.0, 0.0), (1.0, 0.0), (0.75, math.sqrt(3) / 4))
    return TileMap(pattern="hexagon", group=group, domains=_placed_tiles(group, base))


def p4m_tile_map(group: FiniteGroup) -> TileMap:
    """One repeat block of the square pattern: 8*N^2 triangular tiles.

    The base tile is the triangle with vertices (0,0), (1/2,0), (1/2,1/2);
    each element (M, t) places the tile at M*base + t.
    """
    if group.descriptor.get("kind") != "p4m_quotient":
        raise UnsupportedPatternError("the square layout requires a p4m_quotient group")
    N = group.descriptor["N"]
    base: Polygon = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))
    domains = _placed_tiles(group, base)
    return TileMap(pattern="p4m", group=group, domains=domains, cell=(float(N), float(N)))


def _placed_tiles(group: FiniteGroup, base: Polygon) -> dict[str, Polygon]:
    """The base tile moved by each element's rendering transform."""
    domains: dict[str, Polygon] = {}
    for g in group.elements:
        place = transform_of(group, g)
        domains[group.labels[g]] = tuple(place(p) for p in base)
    return domains


def tile_map_for(group: FiniteGroup) -> TileMap:
    """The layout of the group's pattern: square for p4m quotients, else hexagon."""
    if group.descriptor.get("kind") == "p4m_quotient":
        return p4m_tile_map(group)
    return hexagon_tile_map(group)


def transform_of(group: FiniteGroup, g: int):
    """The rendering transform of a group element, as a point map."""
    kind = group.descriptor.get("kind")
    if kind == "dihedral":
        n = group.descriptor["n"]
        i = g % n
        j = g >= n
        mat = _rot(2 * math.pi * i / n)
        return lambda p: _apply(mat, j, p)
    if kind == "p4m_quotient":
        mi, t = p4m_point_and_translation(group, g)
        m = SQUARE_POINT_GROUP[mi]
        return lambda p: (m[0][0] * p[0] + m[0][1] * p[1] + t[0],
                          m[1][0] * p[0] + m[1][1] * p[1] + t[1])
    raise UnsupportedPatternError(f"no rendering transform for group kind {kind!r}")


# -- recoloring along an ambient symmetry ----------------------------------------


def transfer_coloring(
    tile_map: TileMap,
    coloring: Mapping[str, object],
    domain_permutation: Mapping[str, str],
) -> dict[str, object]:
    """Transport a coloring along a permutation of the fundamental domains.

    The permutation must fix the base domain.  Each domain's color is handed
    to the image domain, so the new color of a domain is the old color of
    its preimage.
    """
    if domain_permutation.get(tile_map.base_label) != tile_map.base_label:
        raise InvalidParameterError("the domain permutation must fix the base domain")
    missing = [lab for lab in tile_map.domains if lab not in coloring]
    if missing:
        raise InvalidParameterError(f"coloring misses domains: {missing[:4]}")
    inverse = {img: src for src, img in domain_permutation.items()}
    if len(inverse) != len(domain_permutation):
        raise InvalidParameterError("domain permutation is not a bijection")
    return {lab: coloring[inverse[lab]] for lab in tile_map.domains}


@dataclass(frozen=True)
class TransferRow:
    domain: str
    original: object
    image: str
    new: object


def transfer_table(
    tile_map: TileMap,
    coloring: Mapping[str, object],
    domain_permutation: Mapping[str, str],
) -> list[TransferRow]:
    """Per-domain record of a transfer: original color, image, new color."""
    new_coloring = transfer_coloring(tile_map, coloring, domain_permutation)
    return [
        TransferRow(
            domain=lab,
            original=coloring[lab],
            image=domain_permutation[lab],
            new=new_coloring[lab],
        )
        for lab in (tile_map.group.labels[g] for g in tile_map.group.elements)
    ]
