import re

import pytest

from semicolor.census import ColoringSpec, GroupAutomorphism
from semicolor.errors import InvalidParameterError, UnsupportedPatternError
from semicolor.groups import build_dihedral, subgroup_from_words
from semicolor.render import PALETTES, render_svg
from semicolor.tiles import (
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


class TestTileMapJson:
    def test_label_to_polygon_mapping(self, d6):
        data = hexagon_tile_map(d6).to_json()
        assert set(data) == set(d6.labels)
        assert data["e"][0] == [0.0, 0.0]
        assert all(len(p) == 2 for poly in data.values() for p in poly)
