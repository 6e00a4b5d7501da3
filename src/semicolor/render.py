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
one list of constant pieces, built once per call: each tile's label, block
number and fill are written into them as they are.  Between each two pieces
goes a tile id or a coordinate text: a cell writes them into the odd slots
of the list, as one tuple that ``itemgetter`` gathers out of the cell's
tile-id strings and its x-text and y-text rows, and joins the list once.

Every block carries the same coloring, so which edges a block strokes
depends only on which neighbouring blocks exist: they are classified on the
first min(m,3) x min(n,3) blocks, and each block strokes, at its own
coordinates, those of its class block (0 if first in its row or column, the
last if last, else 1).  That is exact when rounding commutes with
translation by the periods and tiles meet only tiles of adjacent blocks, as
for p4m: every coordinate is a multiple of 1/2 plus an integer shift, and
the tiles of a block span one period.  The hexagon never repeats.  Every
block on an axis is its own class where either fails there: where the tiles
span two periods or more (the drawn extent reaches count + 1 periods), or
where the rounded ranks are not periodic (a value's rank in shift i is not
its rank in shift 0 plus i times one step D).

Where both axes are tiled (neither fails), every edge key moves by the
same s * (size + 1) from block (0, 0) to the block i, j blocks away, where
size is the number of point keys and s = i*dx + j*dy for the point-key
steps dx and dy of one block along each axis.  So most edges are
classified once, on block (0, 0): an edge that two or more of its tiles
draw lies inside every block when no neighbouring block draws it, that is
when its key less s * (size + 1) is no edge key of block (0, 0) for the s
of any neighbour (i, j in -1..1, not both 0, and 0 on an axis of one
block).  Every class block strokes such an edge, exactly when its tiles'
blocks differ.  Only the other edges go through the class blocks.
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
    xs, x_rank, x_rows, x_tiled = _axis([x for poly in polys for x, _ in poly], m, cx)
    ys, y_rank, y_rows, y_tiled = _axis([y for poly in polys for _, y in poly], n, cy)
    mc, nc = min(m, 3) if x_tiled else m, min(n, 3) if y_tiled else n
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
    # The block's text: constant pieces at the even indices, a cell's values
    # at the odd ones, indexed by order in its [tile ids..., x texts...,
    # y texts...].
    count, total = len(polys), len(nxt)
    text, order = [""], []
    for t, ((a, b), lab, block) in enumerate(zip(spans, labels, blocks)):
        text[-1] += '\n<polygon id="tile-' if t else '<polygon id="tile-'
        text += [None, f'" data-label="{lab}" data-block="{block}" points="',
                 *[None, ",", None, " "] * (b - a)]
        text[-1] = f'" fill="{palette_fill(palette, block)}" stroke="none"/>'
        order.append(t)
        for p in range(count + a, count + b):
            order += (p, p + total)
    gather = itemgetter(*order)
    # SVG y grows downward; flip so counterclockwise stays counterclockwise.
    fx, fy = [_fmt(SCALE * x) for x in xs], [_fmt(-SCALE * y) for y in ys]
    x_text = [[fx[i] for i in row] for row in x_rows]
    x_key = [[x_rank[i] * ny for i in row] for row in x_rows]
    y_text = [[fy[i] for i in row] for row in y_rows]
    y_key = [[y_rank[i] for i in row] for row in y_rows]
    # The edges left to the class blocks as (p, q, its tile's block): all,
    # or on tiled axes those not inside a block.  inside: the interior edges
    # every class block strokes, as their ends (p, q), smaller key first.
    rest = [
        (p, q, block)
        for (a, b), block in zip(spans, blocks) for p, q in zip(range(a, b), nxt[a:b])
    ]
    inside = []
    if x_tiled and y_tiled:
        keys = list(map(add, x_key[0], y_key[0]))
        at: dict[int, list] = {}  # edge key -> its points in block (0, 0)
        for p, q, _ in rest:
            kp, kq = keys[p], keys[q]
            at.setdefault(kq * size + kp if kq < kp else kp * size + kq, []).append(p)
        dx = x_key[1][0] - x_key[0][0] if m > 1 else 0
        dy = y_key[1][0] - y_key[0][0] if n > 1 else 0
        # The keys a neighbouring block draws: those of block (0, 0) moved
        # by s * (size + 1), where s = i*dx + j*dy moves each end's key.
        shifts = [
            (i * dx + j * dy) * (size + 1)
            for i in ((-1, 0, 1) if m > 1 else (0,)) for j in ((-1, 0, 1) if n > 1 else (0,))
            if i or j
        ]
        near = {key + s for s in shifts for key in at}
        outer = []
        for key, ps in at.items():
            if len(ps) < 2 or key in near:
                outer += ps
            elif len({rest[p][2] for p in ps}) > 1:
                p = ps[0]
                inside.append((nxt[p], p) if keys[nxt[p]] < keys[p] else (p, nxt[p]))
        rest = [rest[p] for p in sorted(outer)]
    # Edge slots on the class blocks: the first block drawn, then 0 not seen
    # again, 1 again with that block only, 2 with another; and the class
    # block first drawing it, with its ends smaller key first.  Edges seen
    # once or with two blocks are stroked by that class's blocks.
    edges: dict[int, list] = {}
    for ci, xk in enumerate(x_key[:mc]):
        for cj, yk in enumerate(y_key[:nc]):
            keys = list(map(add, xk, yk))
            for p, q, block in rest:
                kp, kq = keys[p], keys[q]
                key = kq * size + kp if kq < kp else kp * size + kq
                slot = edges.get(key)
                if slot is None:
                    edges[key] = [block, 0, (ci, cj), (q, p) if kq < kp else (p, q)]
                elif block != slot[0]:
                    slot[1] = 2
                elif not slot[1]:
                    slot[1] = 1
    # Class block -> stroked (p, q); (key, line); next tile id.
    owned = {(ci, cj): list(inside) for ci in range(mc) for cj in range(nc)}
    drawn, k = [], 0
    for _, seen, c, ends in edges.values():
        if seen != 1:
            owned[c].append(ends)
    for i, (xr, xt, xk) in enumerate(zip(x_rows, x_text, x_key)):
        ci = mc - 1 if i == m - 1 else min(i, mc - 2)
        for j, (yr, yt, yk) in enumerate(zip(y_rows, y_text, y_key)):
            text[1::2] = gather([*map(str, range(k, k + count)), *xt, *yt])
            lines.append("".join(text))
            k += count
            drawn += [
                ((xk[p] + yk[p]) * size + xk[q] + yk[q],
                 f'<line x1="{fx[xr[p]]}" y1="{fy[yr[p]]}" x2="{fx[xr[q]]}" y2="{fy[yr[q]]}" '
                 'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>')
                for p, q in owned[ci, nc - 1 if j == n - 1 else min(j, nc - 2)]
            ]
    drawn.sort(key=itemgetter(0))  # keys are distinct: one block strokes an edge
    lines += [line for _, line in drawn]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _axis(values, count, period):
    """One axis of a render, from every tile coordinate on it in drawing order.

    Returns the distinct drawn values (a coordinate plus i*period for i in
    range(count)) in order, the rank of each one's 6-place rounding, per
    shift i the coordinates as indices into the drawn values, and whether
    the axis is tiled: the ranks are periodic and tiles meet only tiles of
    adjacent blocks (the drawn extent is under count + 1 periods).
    """
    distinct = list(set(values))
    shifted = [{v: v + i * period for v in distinct} for i in range(count)]
    drawn = sorted({v for row in shifted for v in row.values()})
    index = {v: i for i, v in enumerate(drawn)}
    rounded = [round(v, 6) for v in drawn]
    rank = {r: i for i, r in enumerate(sorted(set(rounded)))}
    ranks = [rank[r] for r in rounded]
    base, *rest = [[ranks[index[row[v]]] for v in distinct] for row in shifted]
    d = rest[0][0] - base[0] if rest else 0
    periodic = all(
        r == r0 + i * d for i, row in enumerate(rest, 1) for r, r0 in zip(row, base)
    )
    tiled = periodic and drawn[-1] - drawn[0] < (count + 1) * period
    return drawn, ranks, [[index[row[v]] for v in values] for row in shifted], tiled
