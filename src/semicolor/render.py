"""Deterministic SVG rendering of colored tile maps.

Output is byte-stable for fixed inputs: tiles are emitted in group-element
order, coordinates use fixed-precision formatting, and palettes are frozen
lookup tables.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InvalidParameterError, ResourceLimitError
from .tiles import TileMap

PALETTES: dict[str, tuple[str, ...]] = {
    # Twelve visually distinct fills, assigned by block index.
    "default": (
        "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
        "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    ),
    # Four-color palette in canonical block order for the classic
    # hexagon example: yellow, red, blue, green.
    "quad": ("#f2d43d", "#c0392b", "#2e86c1", "#27ae60"),
}


#: SVG user units per unit of pattern length.
SCALE = 100.0

#: Most repeat blocks one SVG draws: 64x64, 4,096 cells.
MAX_CELLS = 64 * 64


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def palette_fill(palette: str, block: int) -> str:
    table = PALETTES[palette]
    return table[block % len(table)]


def render_svg(
    tile_map: TileMap,
    block_of: Mapping[str, int],
    palette: str = "default",
    cells: tuple[int, int] = (1, 1),
) -> str:
    """Render a coloring (label -> block index) of a tile map as SVG.

    For repeating patterns ``cells`` draws an m-by-n array of repeat
    blocks, at most ``MAX_CELLS`` of them; more raise ResourceLimitError
    before anything is drawn.  Block boundaries and the pattern outline
    are stroked; edges interior to a block are not.
    """
    missing = [lab for lab in tile_map.domains if lab not in block_of]
    if missing:
        raise InvalidParameterError(f"no block assigned to tiles: {missing[:4]}")
    if palette not in PALETTES:
        raise InvalidParameterError(f"unknown palette {palette!r}; known: {sorted(PALETTES)}")

    if min(cells) < 1:
        raise InvalidParameterError(f"cells must be at least 1x1, got {cells[0]}x{cells[1]}")
    shifts = [(0.0, 0.0)]
    if tile_map.cell is not None:
        if cells[0] * cells[1] > MAX_CELLS:
            raise ResourceLimitError(
                f"{cells[0]}x{cells[1]} cells exceed the bound of {MAX_CELLS} repeat blocks"
            )
        cx, cy = tile_map.cell
        shifts = [(i * cx, j * cy) for i in range(cells[0]) for j in range(cells[1])]
    elif cells != (1, 1):
        raise InvalidParameterError("this pattern does not repeat; use cells=(1,1)")

    labels_in_order = [tile_map.group.labels[g] for g in tile_map.group.elements]
    polys = []
    for shift in shifts:
        for lab in labels_in_order:
            poly = tuple(
                (x + shift[0], (y + shift[1])) for x, y in tile_map.domains[lab]
            )
            polys.append((lab, block_of[lab], poly))

    xs = [x for _, _, poly in polys for x, _ in poly]
    ys = [y for _, _, poly in polys for _, y in poly]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, y0 = min(xs) - margin, min(ys) - margin
    x1, y1 = max(xs) + margin, max(ys) + margin

    # SVG y grows downward; flip so counterclockwise stays counterclockwise.
    def pt(p):
        return f"{_fmt(SCALE * p[0])},{_fmt(-SCALE * p[1])}"

    view = (
        f"{_fmt(SCALE * x0)} {_fmt(-SCALE * y1)} "
        f"{_fmt(SCALE * (x1 - x0))} {_fmt(SCALE * (y1 - y0))}"
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    for i, (lab, block, poly) in enumerate(polys):
        fill = palette_fill(palette, block)
        points = " ".join(pt(p) for p in poly)
        lines.append(
            f'<polygon id="tile-{i}" data-label="{lab}" data-block="{block}" '
            f'points="{points}" fill="{fill}" stroke="none"/>'
        )
    for seg in _boundary_segments(polys):
        (p, q) = seg
        lines.append(
            f'<line x1="{_fmt(SCALE * p[0])}" y1="{_fmt(-SCALE * p[1])}" '
            f'x2="{_fmt(SCALE * q[0])}" y2="{_fmt(-SCALE * q[1])}" '
            'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _boundary_segments(polys):
    """Edges that separate different blocks or lie on the outer boundary."""

    def key_point(p):
        return (round(p[0], 6), round(p[1], 6))

    edges: dict[tuple, list[int]] = {}
    coords: dict[tuple, tuple] = {}
    for _, block, poly in polys:
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            kp, kq = key_point(p), key_point(q)
            key = (kp, kq) if kp <= kq else (kq, kp)
            edges.setdefault(key, []).append(block)
            coords.setdefault(key, (p, q) if kp <= kq else (q, p))
    out = []
    for key in sorted(edges):
        blocks = edges[key]
        if len(blocks) == 1 or len(set(blocks)) > 1:
            out.append(coords[key])
    return out
