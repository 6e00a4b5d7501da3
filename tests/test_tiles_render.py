import random
import re
from operator import add, itemgetter

import pytest

from semicolor.census import (
    ColoringSpec,
    GroupAutomorphism,
    enumerate_all_semiperfect,
    standard_color_groups,
)
from semicolor.errors import InvalidParameterError, UnsupportedPatternError
from semicolor.groups import FiniteGroup, build_dihedral, build_p4m_quotient, subgroup_from_words
from semicolor.render import PALETTES, SCALE, _axis, _fmt, palette_fill, render_svg
from semicolor.tiles import (
    TileMap,
    hexagon_tile_map,
    p4m_tile_map,
    tile_map_for,
    transfer_coloring,
    transfer_table,
    transform_of,
)

TOL = 1e-9


def _spec_blocks(spec):
    group = spec.group
    return {group.labels[g]: spec.partition.block_of[g] for g in group.elements}


@pytest.fixture
def four_color_spec(d6, hexH):
    return ColoringSpec.type2(
        hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
    )


@pytest.fixture
def mirror_swap(d6):
    return GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})


class TestTileMaps:
    def test_hexagon_has_twelve_tiles(self, d6):
        assert len(hexagon_tile_map(d6).domains) == 12

    def test_hexagon_equivariance(self, d6):
        tm = hexagon_tile_map(d6)
        for g in d6.elements:
            move = transform_of(d6, g)
            for h in d6.elements:
                expect = [move(p) for p in tm.domains[d6.labels[h]]]
                got = tm.domains[d6.labels[d6.mul(g, h)]]
                for (ex, ey), (gx, gy) in zip(expect, got):
                    assert abs(ex - gx) < TOL and abs(ey - gy) < TOL

    def test_square_has_eight_n_squared_tiles(self, g2):
        assert len(p4m_tile_map(g2).domains) == 32

    def test_square_equivariance_modulo_cell(self, g2):
        tm = p4m_tile_map(g2)
        N = 2
        for g in list(g2.elements)[:8]:
            move = transform_of(g2, g)
            for h in g2.elements:
                expect = [move(p) for p in tm.domains[g2.labels[h]]]
                got = tm.domains[g2.labels[g2.mul(g, h)]]
                for (ex, ey), (gx, gy) in zip(expect, got):
                    assert abs((ex - gx) % N) % N < TOL or abs((ex - gx) % N - N) < TOL
                    assert abs((ey - gy) % N) % N < TOL or abs((ey - gy) % N - N) < TOL

    def test_pattern_dispatch(self, d6, g2):
        assert tile_map_for(d6).pattern == "hexagon"
        assert tile_map_for(g2).pattern == "p4m"
        with pytest.raises(UnsupportedPatternError):
            tile_map_for(build_dihedral(4))


class TestRenderer:
    def test_shared_block_shares_fill(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        svg = render_svg(tm, _spec_blocks(four_color_spec), palette="quad")
        fills = dict(
            re.findall(r'data-label="([^"]+)" data-block="\d+"[^/]*fill="([^"]+)"', svg)
        )
        assert fills["e"] == fills["a^2b"]
        assert len(set(fills.values())) == 4

    def test_single_block_single_fill(self, d6, hexH):
        tm = hexagon_tile_map(d6)
        spec = ColoringSpec.type1(hexH, hexH, d6.element("a"))
        svg = render_svg(tm, _spec_blocks(spec))
        fills = set(re.findall(r'fill="([^"]+)"', svg))
        assert len(fills) == 1

    def test_three_color_example(self, d6, hexH):
        tm = hexagon_tile_map(d6)
        spec = ColoringSpec.type1(hexH, subgroup_from_words(d6, "b"), d6.element("a3"))
        svg = render_svg(tm, _spec_blocks(spec))
        fills = set(
            re.findall(r'data-block="\d+"[^/]*fill="([^"]+)"', svg)
        )
        assert len(fills) == 3

    def test_byte_determinism(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        blocks = _spec_blocks(four_color_spec)
        assert render_svg(tm, blocks) == render_svg(tm, blocks)

    def test_missing_tile_rejected(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        blocks = _spec_blocks(four_color_spec)
        del blocks["a^3"]
        with pytest.raises(InvalidParameterError):
            render_svg(tm, blocks)

    def test_unknown_palette_rejected(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        with pytest.raises(InvalidParameterError):
            render_svg(tm, _spec_blocks(four_color_spec), palette="nope")

    def test_square_repeats(self, g2, pmmH):
        tm = p4m_tile_map(g2)
        spec = ColoringSpec.type2(pmmH, pmmH, pmmH)
        svg = render_svg(tm, _spec_blocks(spec), cells=(2, 2))
        assert svg.count("<polygon") == 32 * 4


def _reference_svg(tile_map, block_of, palette, cells):
    """The renderer formatting every coordinate on its own: the oracle."""
    shifts = [(0.0, 0.0)]
    if tile_map.cell is not None:
        cx, cy = tile_map.cell
        shifts = [(i * cx, j * cy) for i in range(cells[0]) for j in range(cells[1])]
    labels_in_order = [tile_map.group.labels[g] for g in tile_map.group.elements]
    polys = []
    for shift in shifts:
        for lab in labels_in_order:
            poly = tuple((x + shift[0], (y + shift[1])) for x, y in tile_map.domains[lab])
            polys.append((lab, block_of[lab], poly))
    xs = [x for _, _, poly in polys for x, _ in poly]
    ys = [y for _, _, poly in polys for _, y in poly]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, y0 = min(xs) - margin, min(ys) - margin
    x1, y1 = max(xs) + margin, max(ys) + margin

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
    for p, q in _reference_segments(polys):
        lines.append(
            f'<line x1="{_fmt(SCALE * p[0])}" y1="{_fmt(-SCALE * p[1])}" '
            f'x2="{_fmt(SCALE * q[0])}" y2="{_fmt(-SCALE * q[1])}" '
            'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _reference_segments(polys):
    def key_point(p):
        return (round(p[0], 6), round(p[1], 6))

    edges, coords = {}, {}
    for _, block, poly in polys:
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            kp, kq = key_point(p), key_point(q)
            key = (kp, kq) if kp <= kq else (kq, kp)
            edges.setdefault(key, []).append(block)
            coords.setdefault(key, (p, q) if kp <= kq else (q, p))
    return [
        coords[key] for key in sorted(edges)
        if len(edges[key]) == 1 or len(set(edges[key])) > 1
    ]


def reference_render_svg(tile_map, block_of, palette="default", cells=(1, 1)):
    """The renderer classifying edges over every repeat block: the reference.

    ``render_svg`` classifies them on at most 3x3 blocks and must give the
    same bytes for valid input.
    """
    (m, n), (cx, cy) = (1, 1), (0.0, 0.0)
    if tile_map.cell is not None:
        (m, n), (cx, cy) = cells, tile_map.cell
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
    spans, nxt = [], []
    for poly in polys:
        a = len(nxt)
        spans.append((a, a + len(poly)))
        nxt += [*range(a + 1, a + len(poly)), a]
    blocks = [block_of[lab] for lab in labels]
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
    fx, fy = [_fmt(SCALE * x) for x in xs], [_fmt(-SCALE * y) for y in ys]
    x_text = [[fx[i] for i in row] for row in x_rows]
    x_key = [[x_rank[i] * ny for i in row] for row in x_rows]
    y_text = [[fy[i] for i in row] for row in y_rows]
    y_key = [[y_rank[i] for i in row] for row in y_rows]
    edges: dict[int, list] = {}
    k = 0
    for xr, xt, xk in zip(x_rows, x_text, x_key):
        for yr, yt, yk in zip(y_rows, y_text, y_key):
            lines.append(template % gather([*map(str, range(k, k + count)), *xt, *yt]))
            k += count
            for (a, b), block in zip(spans, blocks):
                keys = list(map(add, xk[a:b], yk[a:b]))
                for p, kp in enumerate(keys, a):
                    kq = keys[p + 1 - b]
                    key = kq * size + kp if kq < kp else kp * size + kq
                    slot = edges.get(key)
                    if slot is None:
                        edges[key] = [block, 0, xr, yr, p, kq < kp]
                    elif block != slot[0]:
                        slot[1] = 2
                    elif not slot[1]:
                        slot[1] = 1
    for key in sorted(edges):
        _, seen, xr, yr, p, swapped = edges[key]
        if seen != 1:
            p, q = (nxt[p], p) if swapped else (p, nxt[p])
            lines.append(
                f'<line x1="{fx[xr[p]]}" y1="{fy[yr[p]]}" x2="{fx[xr[q]]}" y2="{fy[yr[q]]}" '
                'stroke="#1a1a1a" stroke-width="2" stroke-linecap="round"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class TestRendererOracle:
    """The renderer against the per-point reference above, byte for byte."""

    @pytest.mark.parametrize("palette", sorted(PALETTES))
    @pytest.mark.parametrize("pattern", ["hexagon", "p4m1", "p4m2", "p4m3", "p4m4"])
    def test_random_block_maps(self, d6, pattern, palette):
        if pattern == "hexagon":
            tm, all_cells = hexagon_tile_map(d6), [(1, 1)]
        else:
            tm = p4m_tile_map(build_p4m_quotient(int(pattern[-1])))
            all_cells = [(2, 2)] if pattern == "p4m4" else [(1, 1), (2, 3), (3, 2), (1, 7)]
        rng = random.Random(f"{pattern}-{palette}")
        for cells in all_cells:
            for _ in range(3):
                k = rng.randint(1, 13)
                blocks = {lab: rng.randrange(k) for lab in tm.domains}
                assert render_svg(tm, blocks, palette, cells) == _reference_svg(
                    tm, blocks, palette, cells
                )

    @pytest.mark.parametrize("cell", [None, (1.0, 1.0)])
    @pytest.mark.parametrize("blocks", [(0, 0), (0, 1)])
    def test_signed_zero_and_rounding_merge(self, cell, blocks):
        # The tiles share the edge from the origin to (1, 0), but "b" writes
        # its end points as (1 + 4e-7, -0.0) and (-4e-7, 0.0), which round
        # onto "e"'s (1.0, 0.0) and (-0.0, 0.0).
        group = build_dihedral(1)
        domains = {
            "e": ((-0.0, 0.0), (1.0, 0.0), (0.5, 1.0)),
            "b": ((1.0000004, -0.0), (-0.0000004, 0.0), (0.5, -1.0)),
        }
        tm = TileMap(pattern="test", group=group, domains=domains, cell=cell)
        block_of = dict(zip(("e", "b"), blocks))
        for cells in [(1, 1)] if cell is None else [(1, 1), (2, 3)]:
            svg = render_svg(tm, block_of, "default", cells)
            assert svg == _reference_svg(tm, block_of, "default", cells)
            assert "-0.000000," not in svg

    def test_gallery_census_specs(self):
        # Every type-1 census spec of p4m_quotient:2 at 4x4, as the gallery
        # benchmark draws them.
        g = build_p4m_quotient(2)
        tm = p4m_tile_map(g)
        census = enumerate_all_semiperfect(
            g, H_filter=standard_color_groups(g), kinds=("type1",)
        )
        assert len(census.entries) == 108
        for entry in census.entries:
            blocks = _spec_blocks(entry.spec)
            assert render_svg(tm, blocks, "default", (4, 4)) == _reference_svg(
                tm, blocks, "default", (4, 4)
            )

    @pytest.mark.parametrize(
        "cells",
        [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 3), (4, 4), (2, 5), (5, 3), (7, 1),
         (4, 1), (5, 1)],
        ids=lambda cells: "%dx%d" % cells,
    )
    def test_census_specs_against_every_block_reference(self, cells):
        # Edges classified on at most 3x3 blocks stroke exactly what the
        # loop over every block strokes: every p4m_quotient:1 census entry
        # and every type-1 entry of p4m_quotient:2.
        for group, kinds in [(build_p4m_quotient(1), ("type1", "type2")),
                             (build_p4m_quotient(2), ("type1",))]:
            tm = p4m_tile_map(group)
            census = enumerate_all_semiperfect(
                group, H_filter=standard_color_groups(group), kinds=kinds
            )
            for entry in census.entries:
                blocks = _spec_blocks(entry.spec)
                assert render_svg(tm, blocks, "default", cells) == reference_render_svg(
                    tm, blocks, "default", cells
                )
        # Tile "b" spans two periods and meets "e" two blocks away, so no
        # 3x3 classification holds: every block is its own class there.
        domains = {
            "e": ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0)),
            "b": ((3.0, 0.0), (2.0, 0.0), (2.5, -1.0)),
        }
        tm = TileMap(pattern="test", group=build_dihedral(1), domains=domains, cell=(1.0, 1.0))
        for blocks in [(0, 0), (0, 1)]:
            block_of = dict(zip(("e", "b"), blocks))
            assert render_svg(tm, block_of, "default", cells) == reference_render_svg(
                tm, block_of, "default", cells
            )

    def test_hexagon_specs_against_every_block_reference(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        census = enumerate_all_semiperfect(d6, H_filter=standard_color_groups(d6))
        assert len(census.entries) == 25
        for entry in census.entries:
            blocks = _spec_blocks(entry.spec)
            assert render_svg(tm, blocks) == reference_render_svg(tm, blocks)
        blocks = _spec_blocks(four_color_spec)
        assert render_svg(tm, blocks, "quad") == reference_render_svg(tm, blocks, "quad")

    @pytest.mark.parametrize("cells", [(1, 1), (2, 3)])
    def test_percent_signs_in_labels_and_fills(self, monkeypatch, cells):
        # Labels and fills are baked into a %-template of the repeat block;
        # a % in them must come out as written.
        monkeypatch.setitem(PALETTES, "percent", ("50%", "%s"))
        group = FiniteGroup(("%s", "50%"), [[0, 1], [1, 0]], {"t": 1}, {"kind": "test"})
        domains = {
            "%s": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
            "50%": ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        }
        tm = TileMap(pattern="test", group=group, domains=domains, cell=(1.0, 1.0))
        for palette in ["default", "percent"]:
            for blocks in [(0, 0), (0, 1)]:
                block_of = dict(zip(("%s", "50%"), blocks))
                svg = render_svg(tm, block_of, palette, cells)
                assert svg == _reference_svg(tm, block_of, palette, cells)
                assert 'data-label="%s"' in svg and 'data-label="50%"' in svg

    @pytest.mark.parametrize("cells", [(3, 5), (7, 2), (10, 10)])
    @pytest.mark.parametrize("cell", [(0.1, 0.7), (1 / 3, 0.2)])
    def test_non_integer_periods(self, cell, cells):
        # Shifted coordinates carry float noise (0.1 + 0.5 != 6 * 0.1) that
        # the 6-place rounding must merge exactly as the reference does.
        cx, cy = cell
        domains = {
            "e": ((0.0, 0.0), (cx, 0.0), (cx, cy)),
            "b": ((0.0, 0.0), (cx, cy), (0.0, cy)),
        }
        tm = TileMap(pattern="test", group=build_dihedral(1), domains=domains, cell=cell)
        if cells == (10, 10):
            xs = {x + i * cx for x in (0.0, cx) for i in range(10)}
            assert len(xs) > len({round(x, 6) for x in xs})
        for blocks in [(0, 0), (0, 1)]:
            block_of = dict(zip(("e", "b"), blocks))
            assert render_svg(tm, block_of, "default", cells) == _reference_svg(
                tm, block_of, "default", cells
            )


class TestTransfer:
    def test_recoloring_table(self, d6, four_color_spec, mirror_swap):
        tm = hexagon_tile_map(d6)
        names = ["yellow", "red", "blue", "green"]
        coloring = {lab: names[b] for lab, b in _spec_blocks(four_color_spec).items()}
        perm = {d6.labels[g]: d6.labels[mirror_swap(g)] for g in d6.elements}
        rows = {r.domain: r for r in transfer_table(tm, coloring, perm)}
        expected = {
            "e": ("yellow", "e", "yellow"),
            "ab": ("red", "b", "green"),
            "a": ("red", "a^5", "red"),
            "a^2b": ("yellow", "a^5b", "red"),
            "a^2": ("blue", "a^4", "green"),
            "a^3b": ("red", "a^4b", "blue"),
            "a^3": ("red", "a^3", "red"),
            "a^4b": ("blue", "a^3b", "red"),
            "a^4": ("green", "a^2", "blue"),
            "a^5b": ("red", "a^2b", "yellow"),
            "a^5": ("red", "a", "red"),
            "b": ("green", "ab", "red"),
        }
        assert len(rows) == 12
        for domain, (orig, image, new) in expected.items():
            row = rows[domain]
            assert (row.original, row.image, row.new) == (orig, image, new)

    def test_identity_transfer_is_noop(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        coloring = _spec_blocks(four_color_spec)
        ident = {lab: lab for lab in coloring}
        assert transfer_coloring(tm, coloring, ident) == coloring

    def test_transfer_matches_conjugated_spec(self, d6, four_color_spec, mirror_swap):
        from semicolor.census import conjugate_spec

        tm = hexagon_tile_map(d6)
        coloring = _spec_blocks(four_color_spec)
        perm = {d6.labels[g]: d6.labels[mirror_swap(g)] for g in d6.elements}
        moved = transfer_coloring(tm, coloring, perm)
        conj = conjugate_spec(four_color_spec, mirror_swap)
        conj_blocks = _spec_blocks(conj)
        # Same partition of the tiles, up to renaming of block indices.
        pairing = {}
        for lab in moved:
            pairing.setdefault(moved[lab], set()).add(conj_blocks[lab])
        assert all(len(v) == 1 for v in pairing.values())

    def test_base_domain_must_stay_fixed(self, d6, four_color_spec):
        tm = hexagon_tile_map(d6)
        coloring = _spec_blocks(four_color_spec)
        bad = {d6.labels[g]: d6.labels[d6.mul(g, d6.element("a"))] for g in d6.elements}
        with pytest.raises(InvalidParameterError):
            transfer_coloring(tm, coloring, bad)


class TestPalettes:
    def test_palettes_are_frozen(self):
        assert len(PALETTES["default"]) == 12
        assert len(PALETTES["quad"]) == 4
        assert all(c.startswith("#") for cols in PALETTES.values() for c in cols)
