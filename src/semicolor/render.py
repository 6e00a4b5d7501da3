"""Deterministic SVG rendering of colored tile maps.

Output is byte-stable for fixed inputs: tiles are emitted in group-element
order, coordinates use fixed-precision formatting, and palettes are frozen
lookup tables.

A render of many repeat blocks holds thousands of points but only a few
dozen distinct x and y values, so each distinct coordinate is formatted
once per call and every polygon and boundary line is written from those
strings.  The lookup is keyed by float value, under which 0.0 and -0.0 are
one key although they format differently; no drawn coordinate is -0.0,
because each is a tile coordinate plus a shift i*period with i >= 0 and a
positive period, and -0.0 + 0.0 == 0.0.
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
    for sx, sy in shifts:
        for lab in labels_in_order:
            poly = tuple((x + sx, y + sy) for x, y in tile_map.domains[lab])
            polys.append((lab, block_of[lab], poly))

    # Each distinct coordinate is formatted once (see the module docstring).
    # SVG y grows downward; flip so counterclockwise stays counterclockwise.
    points = {p for _, _, poly in polys for p in poly}
    xs = {x for x, _ in points}
    ys = {y for _, y in points}
    fx = {x: _fmt(SCALE * x) for x in xs}
    fy = {y: _fmt(-SCALE * y) for y in ys}
    text = {p: f"{fx[p[0]]},{fy[p[1]]}" for p in points}

    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, y0 = min(xs) - margin, min(ys) - margin
    x1, y1 = max(xs) + margin, max(ys) + margin
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
        coords = " ".join(map(text.__getitem__, poly))
        lines.append(
            f'<polygon id="tile-{i}" data-label="{lab}" data-block="{block}" '
            f'points="{coords}" fill="{fill}" stroke="none"/>'
        )
    for p, q in _boundary_segments(polys):
        lines.append(
            f'<line x1="{fx[p[0]]}" y1="{fy[p[1]]}" x2="{fx[q[0]]}" y2="{fy[q[1]]}" '
            'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _boundary_segments(polys):
    """Edges that separate different blocks or lie on the outer boundary.

    An edge is keyed by its two end points rounded to 6 places, each
    distinct point rounded once.  Its slot holds the first-seen end points,
    the first block drawn on it and how it was seen since: 0 not again,
    1 again with that block only, 2 again with another block.  Edges seen
    once or with two blocks are kept, in key order.
    """
    rounded: dict[tuple, tuple] = {}
    for _, _, poly in polys:
        for p in poly:
            if p not in rounded:
                rounded[p] = (round(p[0], 6), round(p[1], 6))
    edges: dict[tuple, list] = {}
    for _, block, poly in polys:
        for p, q in zip(poly, poly[1:] + poly[:1]):
            kp, kq = rounded[p], rounded[q]
            if kq < kp:
                kp, kq, p, q = kq, kp, q, p
            slot = edges.get((kp, kq))
            if slot is None:
                edges[kp, kq] = [(p, q), block, 0]
            elif block != slot[1]:
                slot[2] = 2
            elif not slot[2]:
                slot[2] = 1
    return [slot[0] for _, slot in sorted(edges.items()) if slot[2] != 1]
