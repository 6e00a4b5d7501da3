"""Acceptance suite: one test per gate, each printing its own status line.

Every count, table cell and verdict asserted here is either trivially
forced, taken from the worked hexagonal/square-pattern examples, or
recomputed by an independent brute-force oracle inside the test.
"""

import csv
import io
import time
from collections import Counter
from contextlib import contextmanager

from semicolor.census import (
    ColorGroupTables,
    ColoringSpec,
    GroupAutomorphism,
    conjugate_spec,
    enumerate_all_semiperfect,
    enumerate_type1,
    enumerate_type2,
    find_conjugating_automorphism,
    reference_grid_csv,
    type1_cells,
)
from semicolor.geometry import (
    classify_by_diagram,
    diagram_agrees_with_classifier,
    lift_quotient_element,
    symmetry_diagram,
)
from semicolor.groups import (
    all_subgroups,
    build_p4m_quotient,
    normalizer,
    subgroup_from_words,
    subgroups_of_index,
    subgroups_of_index_at_most,
    whole_group,
)
from semicolor.partitions import (
    PERFECT,
    SEMIPERFECT,
    classify_type1,
    classify_type2,
    equivalence_class,
    equivalence_key,
    partition_stabilizer,
    type1_partition,
    type2_partition,
)
from semicolor.presentations import builtin_presentation, low_index_subgroup_count
from semicolor.tiles import hexagon_tile_map, transfer_table


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.2f}s)")


def test_01_reference_grid_reproduction(d6, hexH):
    with criterion(1, "18-row reference grid", 1.0):
        rows = list(csv.reader(io.StringIO(reference_grid_csv(d6, hexH))))
        assert rows[0] == ["J", "l", "r^l", "Resulting Coloring"]
        body = rows[1:]
        assert len(body) == 18
        expected = [
            ("<a^2,b>", "e", "a", "perfect"),
            ("<a^2>", "e", "a", "perfect"),
            ("<a^2>", "e", "ab", "perfect"),
            ("<b>", "e", "a", "(1) semiperfect"),
            ("<b>", "e", "a^3", "perfect"),
            ("<b>", "e", "a^5", "(2) semiperfect"),
            ("<b>", "a^2", "a", "(3) semiperfect"),
            ("<b>", "a^2", "a^3", "perfect"),
            ("<b>", "a^2", "a^5", "equivalent to (1)"),
            ("<b>", "a^4", "a", "equivalent to (2)"),
            ("<b>", "a^4", "a^3", "perfect"),
            ("<b>", "a^4", "a^5", "equivalent to (3)"),
            ("{e}", "e", "a", "(4) semiperfect"),
            ("{e}", "e", "a^3", "perfect"),
            ("{e}", "e", "a^5", "equivalent to (4)"),
            ("{e}", "e", "ab", "perfect"),
            ("{e}", "e", "a^3b", "perfect"),
            ("{e}", "e", "a^5b", "perfect"),
        ]
        assert [tuple(row) for row in body] == list(expected)


def test_02_hexagon_two_orbit_count(d6, hexH):
    with criterion(2, "hexagon two-orbit census = 15", 1.0):
        entries = enumerate_type2(ColorGroupTables(d6, hexH))
        assert len(entries) == 15
        assert len({e.key for e in entries}) == 15
        assert all(e.classification.verdict == SEMIPERFECT for e in entries)


def test_03_hexagon_full_census(d6, hexH, hexH_rot):
    with criterion(3, "hexagon census = 25 (15+4+6+0)", 1.0):
        census = enumerate_all_semiperfect(d6, H_filter=[hexH, hexH_rot])
        assert census.total == 25
        assert census.by_part[("<a^2,b>", "type2")] == 15
        assert census.by_part[("<a^2,b>", "type1")] == 4
        assert census.by_part[("<a>", "type2")] == 6
        assert census.by_part[("<a>", "type1")] == 0


def test_04_square_pattern_two_orbit_count(g4):
    with criterion(4, "square-lattice halvings 7/0 and census = 28", 60.0):
        pres = builtin_presentation("p4m_sub")
        assert low_index_subgroup_count(pres, 2) == 7
        assert low_index_subgroup_count(pres, 3) == 0
        H = subgroup_from_words(g4, "a,ab,xy,Xy")
        assert len(subgroups_of_index(H, 2)) == 7  # finite-quotient route
        entries = enumerate_type2(ColorGroupTables(g4, H, 4))
        assert len(entries) == 28
        assert all(e.classification.verdict == SEMIPERFECT for e in entries)
        assert all(e.classification.num_colors <= 4 for e in entries)


def test_05_one_orbit_classifier_vs_oracle(d6, hexH, g2, pmmH):
    with criterion(5, "one-orbit classifier equals stabilizer oracle", 120.0):
        failures = 0
        # Hexagon: the full (J, l, r) grid explicitly.
        for J in all_subgroups(hexH):
            for l in hexH.members:
                Jl = J.conjugated_by(l)
                for r in hexH.complement():
                    rl = d6.conj(r, l)
                    fast = classify_type1(Jl, rl, hexH).perfect
                    oracle = partition_stabilizer(
                        d6, type1_partition(hexH, Jl, rl)
                    ).is_whole_group()
                    failures += fast != oracle
        # Square quotient: every conjugated cell (J^l, r^l) is again a pair
        # (subgroup of H, element outside H), so sweeping all such pairs
        # covers every (J, l, r) triple.
        for J in all_subgroups(pmmH):
            for r in pmmH.complement():
                fast = classify_type1(J, r, pmmH).perfect
                oracle = partition_stabilizer(
                    g2, type1_partition(pmmH, J, r)
                ).is_whole_group()
                failures += fast != oracle
        assert failures == 0


def test_06_two_orbit_classifier_vs_oracle(d6, hexH, g2, pmmH):
    with criterion(6, "two-orbit classifier equals stabilizer oracle", 120.0):
        failures = 0
        for G, H in ((d6, hexH), (g2, pmmH)):
            subs = all_subgroups(H)
            for i, J1 in enumerate(subs):
                for J2 in subs[i:]:
                    fast = classify_type2(J1, J2, H) == PERFECT
                    oracle = partition_stabilizer(
                        G, type2_partition(H, J1, J2)
                    ).is_whole_group()
                    failures += fast != oracle
        assert failures == 0


def test_07_orbit_size_two_with_shared_stabilizer(d6, hexH, hexH_rot):
    with criterion(7, "semiperfect orbits have size 2 and one stabilizer", 60.0):
        census = enumerate_all_semiperfect(d6, H_filter=[hexH, hexH_rot])
        for entry in census.entries:
            orbit = equivalence_class(entry.spec.partition, d6)
            assert len(orbit) == 2
            stabs = {partition_stabilizer(d6, P).members for P in orbit}
            assert len(stabs) == 1
            assert stabs.pop() == entry.spec.H.members


def test_08_grid_pairing_structure(d6, hexH, g2):
    with criterion(8, "coset-grid pairing of equivalent cells", 60.0):
        # Hexagon, J = <b>: nine cells, three perfect, three equivalent pairs.
        Jb = subgroup_from_words(d6, "b")
        cells = [
            (l, r, verdict)
            for J, l, r, verdict in type1_cells(ColorGroupTables(d6, hexH))
            if J.members == Jb.members
        ]
        assert len(cells) == 9
        perfect = {(d6.labels[l], d6.labels[r]) for l, r, v in cells if v.perfect}
        assert perfect == {("e", "a^3"), ("a^2", "a^3"), ("a^4", "a^3")}
        pairs = {}
        for l, r, v in cells:
            if v.perfect:
                continue
            P = type1_partition(hexH, Jb.conjugated_by(l), r)
            pairs.setdefault(equivalence_key(P, hexH), set()).add(
                (d6.labels[l], d6.labels[r])
            )
        assert {frozenset(v) for v in pairs.values()} == {
            frozenset({("e", "a"), ("a^2", "a^5")}),
            frozenset({("e", "a^5"), ("a^4", "a")}),
            frozenset({("a^2", "a"), ("a^4", "a^5")}),
        }
        # Square quotient: some class whose normalizer stays inside H has a
        # grid with no equivalent cells at all.
        found = False
        for H in subgroups_of_index(g2, 2):
            grid = {}
            for J, l, r, verdict in type1_cells(ColorGroupTables(g2, H)):
                grid.setdefault(J.members, []).append((J, l, r, verdict))
            for members, cls_cells in grid.items():
                J = cls_cells[0][0]
                if normalizer(whole_group(g2), J).order != normalizer(H, J).order:
                    continue
                if not cls_cells:
                    continue
                found = True
                assert all(not v.perfect for _, _, _, v in cls_cells)
                keys = Counter(
                    equivalence_key(type1_partition(H, J.conjugated_by(l), r), H)
                    for _, l, r, _ in cls_cells
                )
                assert set(keys.values()) == {1}
        assert found


def test_09_normalizer_transfer(d6, hexH):
    with criterion(9, "transported spec, recoloring and action tables", 60.0):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        spec = ColoringSpec.type2(
            hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
        )
        moved = conjugate_spec(spec, alpha)
        assert {tuple(b) for b in moved.partition.labels_json()} == {
            ("e", "a^5b"),
            ("a^2", "ab"),
            ("a^4", "a^3b"),
            ("a", "a^3", "a^5", "b", "a^2b", "a^4b"),
        }
        # Recoloring table: twelve exact rows.
        names = ["yellow", "red", "blue", "green"]
        coloring = {
            d6.labels[g]: names[spec.partition.block_of[g]] for g in d6.elements
        }
        perm = {d6.labels[g]: d6.labels[alpha(g)] for g in d6.elements}
        rows = {r.domain: r for r in transfer_table(hexagon_tile_map(d6), coloring, perm)}
        expected_rows = {
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
        for dom, (orig, img, new) in expected_rows.items():
            assert (rows[dom].original, rows[dom].image, rows[dom].new) == (
                orig, img, new,
            )
        # Action table: numbered colors 1=blue 2=green 3=red 4=yellow and
        # their primed counterparts under the transport bijection.
        number_of = {}
        for i, block in enumerate(spec.partition.labels_json()):
            content = tuple(block)
            number_of[i] = {
                ("e", "a^2b"): 4,
                ("a", "a^3", "a^5", "ab", "a^3b", "a^5b"): 3,
                ("a^2", "a^4b"): 1,
                ("a^4", "b"): 2,
            }[content]
        primed_number = {}
        for i, block in enumerate(spec.partition.blocks):
            image = tuple(sorted(alpha(e) for e in block))
            primed_number[moved.partition.blocks.index(image)] = number_of[i]

        def mapping(partition, h, numbers):
            perm = partition.permutation_induced_by(h)
            return {numbers[i]: numbers[perm[i]] for i in range(len(perm))}

        table = {
            "e": ("e", {}),
            "a^2": ("a^4", {1: 2, 2: 4, 4: 1}),
            "a^4": ("a^2", {1: 4, 4: 2, 2: 1}),
            "b": ("ab", {2: 4, 4: 2}),
            "a^2b": ("a^5b", {1: 2, 2: 1}),
            "a^4b": ("a^3b", {1: 4, 4: 1}),
        }
        for h_word, (image_word, cycle) in table.items():
            h = d6.element(h_word)
            assert alpha(h) == d6.element(image_word)
            full = {n: n for n in (1, 2, 3, 4)}
            full.update(cycle)
            assert mapping(spec.partition, h, number_of) == full
            assert mapping(moved.partition, alpha(h), primed_number) == full
        # The searched automorphism is also a valid carrier.
        target = subgroup_from_words(d6, "a2,ab")
        found = find_conjugating_automorphism(d6, hexH, target)
        assert found is not None
        assert found.apply_subgroup(hexH).members == target.members


def test_10_diagram_certificate(g2):
    with criterion(10, "moved-diagram certificate and its soundness", 120.0):
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        r = g2.element("a2b")
        assert classify_by_diagram(J, r) == SEMIPERFECT
        H = subgroup_from_words(g2, "xa,ab,xy,Xy")
        assert J.is_subset_of(H) and r not in H
        assert classify_type1(J, r, H).verdict == SEMIPERFECT
        # Soundness across the whole modulus-2 search space: a moved diagram
        # always witnesses a broken normalizer, and never contradicts the
        # algebraic classifier where one applies.
        for S in all_subgroups(g2):
            D = symmetry_diagram(S)
            for g in g2.elements:
                if D.transformed(lift_quotient_element(g2, g)) != D:
                    left = {g2.mul(g, j) for j in S.members}
                    right = {g2.mul(j, g) for j in S.members}
                    assert left != right
        for H2 in subgroups_of_index(g2, 2):
            for S in all_subgroups(H2):
                for g in H2.complement():
                    assert diagram_agrees_with_classifier(S, g, H2)


def test_11_square_lattice_worked_verdict(g2, pmmH):
    with criterion(11, "worked square-lattice one-orbit verdict", 10.0):
        J = subgroup_from_words(g2, "xa2b,xy,xY")
        verdict = classify_type1(J, g2.element("a"), pmmH)
        assert verdict.verdict == SEMIPERFECT
        assert not verdict.square_in_core  # J has no rotations, so a^2 is missing


def test_12_stretch_one_orbit_four_color_report(g4):
    with criterion(12, "four-color one-orbit square census report", 600.0):
        from semicolor.groups import conjugacy_classes_of_subgroups

        per_h = {}
        for words in ("a,ab,xy,Xy", "xa,ab,xy,Xy"):
            H = subgroup_from_words(g4, words)
            entries = enumerate_type1(ColorGroupTables(g4, H, 4))
            by_colors = Counter(e.classification.num_colors for e in entries)
            per_h[words] = (len(entries), dict(by_colors))
        combined = sum(n for n, _ in per_h.values())
        for words, (n, by_colors) in per_h.items():
            print(f"  color group <{words}>: {n} one-orbit colorings {by_colors}")
        print(f"  combined over both color groups: {combined}")
        # Confirm the modulus-4 run already sees every admissible subgroup:
        # the modulus-8 quotient reports identical numbers.
        g8 = build_p4m_quotient(8)
        H8 = subgroup_from_words(g8, "a,ab,xy,Xy")
        entries8 = enumerate_type1(ColorGroupTables(g8, H8, 4))
        assert len(entries8) == per_h["a,ab,xy,Xy"][0]
        print("  modulus-8 cross-check: identical count, census is saturated")
        # Split the per-group census by whether some element outside H
        # normalizes the class representative (the paired-grid classes).
        H = subgroup_from_words(g4, "a,ab,xy,Xy")
        full = whole_group(g4)
        pool = subgroups_of_index_at_most(H, 4)
        unpaired = paired = 0
        for cls in conjugacy_classes_of_subgroups(pool, full):
            J = cls[0]
            from semicolor.census import count_semiperfect_type1

            c = count_semiperfect_type1(g4, H, J)
            if normalizer(full, J).order == normalizer(H, J).order:
                unpaired += c
            else:
                paired += c
        assert unpaired + paired == per_h["a,ab,xy,Xy"][0]
        cited = 44
        print(
            f"  per-group split: {unpaired} from classes with no outside "
            f"normalizer (unpaired grids), {paired} from paired grids"
        )
        if unpaired == cited:
            print(
                f"  cited catalog figure {cited} equals the unpaired-grid part "
                f"exactly; the full inequivalent census is {per_h['a,ab,xy,Xy'][0]} "
                f"per color group ({combined} combined), so the catalog appears "
                "to drop the paired-grid classes instead of keeping one "
                "representative per equivalent pair"
            )
        else:
            print(
                f"  cited catalog figure {cited} not reproduced: per-group "
                f"{[n for n, _ in per_h.values()]}, combined {combined}"
            )
        # Structural sanity for the run itself.
        assert per_h["a,ab,xy,Xy"] == per_h["xa,ab,xy,Xy"]
        assert combined == 2 * per_h["a,ab,xy,Xy"][0]
