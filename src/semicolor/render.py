"""Deterministic SVG rendering of colored tile maps.

Output is byte-stable for fixed inputs: tiles are emitted in group-element
order, coordinates use fixed-precision formatting, and palettes are frozen
lookup tables.

Every drawn x is a tile x plus i times the x period (likewise for y), so
each axis has few distinct values.  Each axis sorts them once per call and
formats each once, and a point is a pair of indices into them.  Edges are
matched on points rounded to 6 places: each value is rounded once and ranked
among the distinct rounded values, a point's key is x rank * (number of y
ranks) + y rank, and an edge's key is built the same way from its ends'
keys, smaller first.  Ranks strictly increase with the rounded value, so the
keys are equal, and sort, exactly as the rounded (x, y) tuples would.
Values are keyed by float, under which 0.0 and -0.0 are one key although
they format differently; no drawn coordinate is -0.0, because each is a tile
coordinate plus a shift i*period with i >= 0 and a positive period, and
-0.0 + 0.0 == 0.0.

Every repeat block draws the same tiles, so the polygons of one block are
one %-template, built once per call: each tile's label, block number and
fill are written into it (any % doubled), and each tile id and coordinate
is a %s.  A cell fills the template once, from one tuple that
``itemgetter`` gathers out of the cell's tile-id strings and its x-text and
y-text rows.

Every block carries the same coloring, so which edges a block strokes
depends only on which neighbouring blocks exist: they are classified on the
first min(m,3) x min(n,3) blocks, and each block strokes, at its own
coordinates, those of its class block (0 if first in its row or column, the
last if last, else 1).  That is exact when rounding commutes with
translation by the periods and tiles meet only tiles of adjacent blocks, as
for p4m: every coordinate is a multiple of 1/2 plus an integer shift, and
the tiles of a block span one period.  The hexagon never repeats.  Where the
tiles span two periods or more on an axis (the drawn extent reaches count + 1
periods), tiles can meet two blocks away, and every block on that axis is
its own class.
"""

from __future__ import annotations

from operator import add, itemgetter
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
    """The fill of a block: fills repeat modulo the palette size."""
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
    (m, n), (cx, cy) = (1, 1), (0.0, 0.0)
    if tile_map.cell is not None:
        if cells[0] * cells[1] > MAX_CELLS:
            raise ResourceLimitError(
                f"{cells[0]}x{cells[1]} cells exceed the bound of {MAX_CELLS} repeat blocks"
            )
        (m, n), (cx, cy) = cells, tile_map.cell
    elif cells != (1, 1):
        raise InvalidParameterError("this pattern does not repeat; use cells=(1,1)")

    labels = [tile_map.group.labels[g] for g in tile_map.group.elements]
    polys = [tile_map.domains[lab] for lab in labels]
    xs, x_rank, x_rows = _axis([x for poly in polys for x, _ in poly], m, cx)
    ys, y_rank, y_rows = _axis([y for poly in polys for _, y in poly], n, cy)
    ny = y_rank[-1] + 1
    size = (x_rank[-1] + 1) * ny

    margin = 0.05 * max(xs[-1] - xs[0], ys[-1] - ys[0], 1.0)
    x0, y0 = xs[0] - margin, ys[0] - margin
    x1, y1 = xs[-1] + margin, ys[-1] + margin
    view = (
        f"{_fmt(SCALE * x0)} {_fmt(-SCALE * y1)} "
        f"{_fmt(SCALE * (x1 - x0))} {_fmt(SCALE * (y1 - y0))}"
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    spans, nxt = [], []  # each tile's slice of a row, each point's successor
    for poly in polys:
        a = len(nxt)
        spans.append((a, a + len(poly)))
        nxt += [*range(a + 1, a + len(poly)), a]
    blocks = [block_of[lab] for lab in labels]
    # The block's template, and for each %s in it an index into a cell's
    # [tile ids..., x texts..., y texts...].
    count, total = len(polys), len(nxt)
    polygons, order = [], []
    for t, ((a, b), lab, block) in enumerate(zip(spans, labels, blocks)):
        label, fill = lab.replace("%", "%%"), palette_fill(palette, block).replace("%", "%%")
        points = " ".join(["%s,%s"] * (b - a))
        polygons.append(
            f'<polygon id="tile-%s" data-label="{label}" data-block="{block}" '
            f'points="{points}" fill="{fill}" stroke="none"/>'
        )
        order.append(t)
        for p in range(count + a, count + b):
            order += (p, p + total)
    template, gather = "\n".join(polygons), itemgetter(*order)
    # SVG y grows downward; flip so counterclockwise stays counterclockwise.
    fx, fy = [_fmt(SCALE * x) for x in xs], [_fmt(-SCALE * y) for y in ys]
    x_text = [[fx[i] for i in row] for row in x_rows]
    x_key = [[x_rank[i] * ny for i in row] for row in x_rows]
    y_text = [[fy[i] for i in row] for row in y_rows]
    y_key = [[y_rank[i] for i in row] for row in y_rows]
    # Tiles spanning two periods on an axis meet tiles two blocks away
    # there, so every block on that axis is its own class.
    mc = m if xs[-1] - xs[0] >= (m + 1) * cx else min(m, 3)
    nc = n if ys[-1] - ys[0] >= (n + 1) * cy else min(n, 3)
    # Edge slots on the class blocks: the first block drawn, then 0 not seen
    # again, 1 again with that block only, 2 with another; and the class
    # block first drawing it, with its start and is it the larger end.  Edges
    # seen once or with two blocks are stroked by that class's blocks.
    edges: dict[int, list] = {}
    for ci, xk in enumerate(x_key[:mc]):
        for cj, yk in enumerate(y_key[:nc]):
            for (a, b), block in zip(spans, blocks):
                keys = list(map(add, xk[a:b], yk[a:b]))
                for p, kp in enumerate(keys, a):
                    kq = keys[p + 1 - b]
                    key = kq * size + kp if kq < kp else kp * size + kq
                    slot = edges.get(key)
                    if slot is None:
                        edges[key] = [block, 0, (ci, cj), p, kq < kp]
                    elif block != slot[0]:
                        slot[1] = 2
                    elif not slot[1]:
                        slot[1] = 1
    owned, drawn, k = {}, [], 0  # class block -> stroked (p, q); (key, line); next tile id
    for _, seen, c, p, swapped in edges.values():
        if seen != 1:  # its ends (p, q), smaller key first
            owned.setdefault(c, []).append((nxt[p], p) if swapped else (p, nxt[p]))
    for i, (xr, xt, xk) in enumerate(zip(x_rows, x_text, x_key)):
        ci = mc - 1 if i == m - 1 else min(i, mc - 2)
        for j, (yr, yt, yk) in enumerate(zip(y_rows, y_text, y_key)):
            lines.append(template % gather([*map(str, range(k, k + count)), *xt, *yt]))
            k += count
            drawn += [
                ((xk[p] + yk[p]) * size + xk[q] + yk[q],
                 f'<line x1="{fx[xr[p]]}" y1="{fy[yr[p]]}" x2="{fx[xr[q]]}" y2="{fy[yr[q]]}" '
                 'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>')
                for p, q in owned.get((ci, nc - 1 if j == n - 1 else min(j, nc - 2)), ())
            ]
    lines += [line for _, line in sorted(drawn)]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _axis(values, count, period):
    """One axis of a render, from every tile coordinate on it in drawing order.

    Returns the distinct drawn values (a coordinate plus i*period for i in
    range(count)) in order, the rank of each one's 6-place rounding, and per
    shift i the coordinates as indices into the drawn values.
    """
    shifted = [{v: v + i * period for v in set(values)} for i in range(count)]
    drawn = sorted({v for row in shifted for v in row.values()})
    index = {v: i for i, v in enumerate(drawn)}
    rounded = [round(v, 6) for v in drawn]
    rank = {r: i for i, r in enumerate(sorted(set(rounded)))}
    return drawn, [rank[r] for r in rounded], [[index[row[v]] for v in values] for row in shifted]
