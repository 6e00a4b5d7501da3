import json
from collections import Counter

import pytest

from semicolor import census, partitions
from semicolor.census import (
    P4M_COLOR_GROUPS,
    CensusEntry,
    ColorGroupTables,
    ColoringSpec,
    GroupAutomorphism,
    conjugate_spec,
    count_semiperfect_type1,
    enumerate_all_semiperfect,
    enumerate_type1,
    enumerate_type2,
    find_conjugating_automorphism,
    reference_grid_csv,
    standard_color_groups,
    type1_cells,
    type1_reference_grid,
)
from semicolor.cli import _census_csv
from semicolor.errors import InvalidParameterError
from semicolor.groups import (
    all_subgroups,
    conjugacy_classes_of_subgroups,
    generating_words,
    group_from_descriptor,
    parse_group_arg,
    right_coset_reps_outside,
    subgroup_from_words,
    subgroups_of_index,
    whole_group,
)
from semicolor.partitions import (
    SEMIPERFECT,
    GroupPartition,
    classify_type1,
    color_action,
    equivalence_class,
    equivalence_key,
    orbit_table,
    partition_stabilizer,
    smallest_outside,
    type1_partition,
)
from semicolor.verify import action_equivalence_check


class TestTypeTwoCensus:
    def test_hexagon_count(self, d6, hexH):
        entries = enumerate_type2(ColorGroupTables(d6, hexH))
        assert len(entries) == 15

    def test_rotation_group_count(self, d6, hexH_rot):
        # C6 has 4 subgroups, so 4 choose 2 unordered pairs.
        assert len(all_subgroups(hexH_rot)) == 4
        assert len(enumerate_type2(ColorGroupTables(d6, hexH_rot))) == 6

    def test_all_entries_semiperfect_and_inequivalent(self, d6, hexH):
        entries = enumerate_type2(ColorGroupTables(d6, hexH))
        assert all(e.classification.verdict == SEMIPERFECT for e in entries)
        for i, e1 in enumerate(entries):
            orbit = equivalence_class(e1.spec.partition, d6)
            for e2 in entries[i + 1 :]:
                assert e2.spec.partition not in orbit

    def test_two_orbits_each(self, d6, hexH):
        for e in enumerate_type2(ColorGroupTables(d6, hexH)):
            assert e.classification.num_color_orbits == 2

    def test_max_colors_filter(self, d6, hexH):
        capped = enumerate_type2(ColorGroupTables(d6, hexH, 4))
        assert all(e.classification.num_colors <= 4 for e in capped)
        full = enumerate_type2(ColorGroupTables(d6, hexH))
        assert len(capped) == sum(1 for e in full if e.classification.num_colors <= 4)

    def test_square_quotient_28(self, g4):
        H = subgroup_from_words(g4, "a,ab,xy,Xy")
        entries = enumerate_type2(ColorGroupTables(g4, H, 4))
        assert len(entries) == 28
        assert Counter(e.classification.num_colors for e in entries) == {4: 21, 3: 7}


class TestTypeOneCensus:
    def test_hexagon_entries_match_reference_grid(self, d6, hexH):
        entries = enumerate_type1(ColorGroupTables(d6, hexH))
        assert len(entries) == 4
        got = {
            (generating_words(e.spec.J), d6.labels[e.spec.l], d6.labels[e.spec.r])
            for e in entries
        }
        assert got == {
            ("<b>", "e", "a"),
            ("<b>", "e", "a^5"),
            ("<b>", "a^2", "a"),
            ("{e}", "e", "a"),
        }

    def test_rotation_group_has_none(self, d6, hexH_rot):
        assert enumerate_type1(ColorGroupTables(d6, hexH_rot)) == []

    def test_counts_match_closed_form(self, d6, hexH):
        by_class = {}
        classes = conjugacy_classes_of_subgroups(all_subgroups(hexH), whole_group(d6))
        for J in [c[0] for c in classes]:
            by_class[generating_words(J)] = count_semiperfect_type1(d6, hexH, J)
        assert by_class == {"<a^2,b>": 0, "<a^2>": 0, "<b>": 3, "{e}": 1}
        assert sum(by_class.values()) == len(enumerate_type1(ColorGroupTables(d6, hexH)))

    def test_entries_inequivalent_by_oracle(self, d6, hexH):
        entries = enumerate_type1(ColorGroupTables(d6, hexH))
        for i, e1 in enumerate(entries):
            orbit = equivalence_class(e1.spec.partition, d6)
            for e2 in entries[i + 1 :]:
                assert e2.spec.partition not in orbit

    def test_one_orbit_each(self, d6, hexH):
        for e in enumerate_type1(ColorGroupTables(d6, hexH)):
            assert e.classification.num_color_orbits == 1


class TestReferenceGrid:
    def test_eighteen_rows(self, d6, hexH):
        rows = type1_reference_grid(d6, hexH)
        assert len(rows) == 18

    def test_full_csv(self, d6, hexH):
        expected = "\n".join(
            [
                "J,l,r^l,Resulting Coloring",
                '"<a^2,b>",e,a,perfect',
                "<a^2>,e,a,perfect",
                "<a^2>,e,ab,perfect",
                "<b>,e,a,(1) semiperfect",
                "<b>,e,a^3,perfect",
                "<b>,e,a^5,(2) semiperfect",
                "<b>,a^2,a,(3) semiperfect",
                "<b>,a^2,a^3,perfect",
                "<b>,a^2,a^5,equivalent to (1)",
                "<b>,a^4,a,equivalent to (2)",
                "<b>,a^4,a^3,perfect",
                "<b>,a^4,a^5,equivalent to (3)",
                "{e},e,a,(4) semiperfect",
                "{e},e,a^3,perfect",
                "{e},e,a^5,equivalent to (4)",
                "{e},e,ab,perfect",
                "{e},e,a^3b,perfect",
                "{e},e,a^5b,perfect",
            ]
        ) + "\n"
        assert reference_grid_csv(d6, hexH) == expected

    def test_pairing_structure_for_split_normalizer(self, g2):
        # Find a color group and class representative whose normalizer does
        # not grow outside H; its grid must contain no equivalent pair.
        from semicolor.groups import normalizer, subgroups_of_index
        from semicolor.partitions import equivalence_key, type1_partition
        from semicolor.census import type1_cells

        found = None
        for H in subgroups_of_index(g2, 2):
            per_class = {}
            for J, l, r, verdict in type1_cells(ColorGroupTables(g2, H)):
                per_class.setdefault(J.members, []).append((J, l, r, verdict))
            for members, cells in per_class.items():
                J = cells[0][0]
                ng = normalizer(whole_group(g2), J)
                nh = normalizer(H, J)
                if ng.order == nh.order and any(not c[3].perfect for c in cells):
                    found = (H, cells)
                    break
            if found:
                break
        assert found is not None, "no split-normalizer class in the search space"
        H, cells = found
        keys = Counter()
        for J, l, r, verdict in cells:
            assert not verdict.perfect  # no perfect cell can exist here
            P = type1_partition(H, J.conjugated_by(l), r)
            keys[equivalence_key(P, H)] += 1
        assert set(keys.values()) == {1}


class TestFullCensus:
    def test_hexagon_total_count(self, d6, hexH, hexH_rot):
        census = enumerate_all_semiperfect(d6, H_filter=[hexH, hexH_rot])
        assert census.total == 25
        assert census.by_part == {
            ("<a^2,b>", "type1"): 4,
            ("<a^2,b>", "type2"): 15,
            ("<a>", "type1"): 0,
            ("<a>", "type2"): 6,
        }

    def test_single_color_group(self, d6, hexH):
        census = enumerate_all_semiperfect(d6, H_filter=[hexH])
        assert census.total == 19

    def test_max_colors_one_is_empty(self, d6, hexH):
        census = enumerate_all_semiperfect(d6, H_filter=[hexH], max_colors=1)
        assert census.total == 0

    def test_orbit_filter(self, d6, hexH):
        one = enumerate_all_semiperfect(d6, H_filter=[hexH], kinds=("type1",))
        two = enumerate_all_semiperfect(d6, H_filter=[hexH], kinds=("type2",))
        assert one.total == 4
        assert two.total == 15

    @pytest.mark.parametrize("kinds", [("type3",), ("type1", "type1")])
    def test_unknown_or_repeated_kind_rejected(self, d6, monkeypatch, kinds):
        def refuse(*args, **kwargs):
            raise AssertionError("census work started before the kinds were checked")

        monkeypatch.setattr(census, "subgroups_of_index", refuse)
        monkeypatch.setattr(census, "ColorGroupTables", refuse)
        with pytest.raises(InvalidParameterError, match="kinds"):
            enumerate_all_semiperfect(d6, kinds=kinds)

    def test_each_pipeline_runs_once_per_color_group(self, monkeypatch):
        # The census reaches its pipelines through the public names, so the
        # code that the tests and the tracer see is the code the census runs.
        G = group_from_descriptor(parse_group_arg("dihedral:8"))
        calls = Counter()
        for name in ("enumerate_type1", "enumerate_type2", "type1_cells"):
            plain = getattr(census, name)

            def counting(tables, name=name, plain=plain):
                calls[name, tables.H.members] += 1
                return plain(tables)

            monkeypatch.setattr(census, name, counting)
        assert enumerate_all_semiperfect(G).total == 122
        color_groups = [H.members for H in subgroups_of_index(G, 2)]
        assert len(color_groups) == 3
        assert calls == Counter(
            {
                (name, H): 1
                for name in ("enumerate_type1", "enumerate_type2", "type1_cells")
                for H in color_groups
            }
        )

    def test_standard_color_groups(self, d6, g2):
        assert [generating_words(H) for H in standard_color_groups(d6)] == [
            "<a^2,b>", "<a>",
        ]
        assert all(2 * H.order == g2.order for H in standard_color_groups(g2))

    def test_serialization_is_deterministic(self, d6, hexH):
        a = enumerate_all_semiperfect(d6, H_filter=[hexH]).serialize()
        b = enumerate_all_semiperfect(d6, H_filter=[hexH]).serialize()
        assert a == b

    def test_reduced_census_matches_direct(self, d6, hexH):
        # The automorphism carrying <a2,b> onto <a2,ab> maps its census one
        # to one onto the direct census of <a2,ab>.
        other = subgroup_from_words(d6, "a2,ab")
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        source = enumerate_all_semiperfect(d6, H_filter=[hexH])
        direct = enumerate_all_semiperfect(d6, H_filter=[other])
        moved = [conjugate_spec(e.spec, alpha) for e in source.entries]
        assert all(spec.H.members == other.members for spec in moved)
        assert direct.total == source.total == 19
        assert sorted(equivalence_key(spec.partition, other) for spec in moved) == sorted(
            e.key for e in direct.entries
        )


# Every index-2 color group of these groups is swept by the closed-form tests.
SWEEP = ("dihedral:6", "dihedral:8", "dihedral:12", "p4m_quotient:1", "p4m_quotient:2")


def _color_group_sweep():
    for descriptor in SWEEP:
        G = group_from_descriptor(parse_group_arg(descriptor))
        for H in subgroups_of_index(G, 2):
            yield descriptor, G, H


def test_closed_form_classification_matches_color_action():
    # Every census entry of every index-2 color group.  D6 alone would not
    # notice a type-2 kernel that forgets to conjugate J2 by y0; D8 and
    # p4m_quotient:2 do.
    checked = 0
    for descriptor, G, H in _color_group_sweep():
        for entry in enumerate_type1(ColorGroupTables(G, H)) + enumerate_type2(ColorGroupTables(G, H)):
            oracle = color_action(H, orbit_table(entry.spec.partition, G)).classification
            assert entry.classification == oracle, (descriptor, entry.key_string())
            checked += 1
    assert checked == 5617


def test_tables_hold_each_core_and_the_pool_classes():
    # core_H(J) from one conjugate per left coset equals the intersection
    # over every member of H; the classes are those of the whole group.
    for descriptor, G, H in _color_group_sweep():
        tables = ColorGroupTables(G, H)
        assert set(tables.cores) == {J.members for J in tables.pool}
        for J in tables.pool:
            core = set(J.members)
            for t in H.members:
                core &= set(J.conjugated_by(t).members)
            assert tables.cores[J.members] == sum(1 << g for g in core), (descriptor, J)
        assert tables.classes == conjugacy_classes_of_subgroups(tables.pool, whole_group(G))


@pytest.mark.parametrize(
    "descriptor", ["dihedral:8", "dihedral:12", "p4m_quotient:1", "p4m_quotient:2"]
)
def test_cores_match_the_conjugate_subgroup_masks(descriptor):
    # The tables take each conjugate as a bit mask; the reference builds
    # the conjugate Subgroup for every t in H and intersects their masks,
    # for every pool, the capped ones included.
    G = group_from_descriptor(parse_group_arg(descriptor))
    for H in subgroups_of_index(G, 2):
        for cap in (None, 2, 4):
            tables = ColorGroupTables(G, H, cap)
            for J in tables.pool:
                mask = J.mask
                for t in H.members:
                    mask &= J.conjugated_by(t).mask
                assert tables.cores[J.members] == mask, (descriptor, J, cap)


def test_tables_hold_normalizers_of_class_representatives():
    # Held once per class representative, computed by normalizer itself;
    # the tables' count reads them and agrees with the free function.
    for descriptor, G, H in _color_group_sweep():
        tables = ColorGroupTables(G, H)
        reps = [cls[0] for cls in tables.classes]
        keys = {J.members for J in reps}
        assert set(tables.h_normalizers) == set(tables.g_normalizers) == keys
        for J in reps:
            nh = {h for h in H.members if J.is_normalized_by(h)}
            ng = {g for g in G.elements if J.is_normalized_by(g)}
            assert set(tables.h_normalizers[J.members].members) == nh, (descriptor, J)
            assert set(tables.g_normalizers[J.members].members) == ng, (descriptor, J)
            assert tables.count_semiperfect_type1(J) == count_semiperfect_type1(G, H, J)


@pytest.mark.parametrize(
    "descriptor, words", [("p4m_quotient:2", "a,ab,xy,Xy"), ("dihedral:6", "a2,b")]
)
def test_tables_reject_a_color_cap_below_one(descriptor, words):
    # Both pool paths reject it: the index-2 descent (a color group of order
    # 16) and the lattice filter (order 6).
    G = group_from_descriptor(parse_group_arg(descriptor))
    with pytest.raises(InvalidParameterError, match="index bound"):
        ColorGroupTables(G, subgroup_from_words(G, words), 0)


def test_type2_keys_match_equivalence_key():
    # The type-2 pipeline takes the orbit key in closed form, without
    # translating the partition; equivalence_key translates it.
    for descriptor, G, H in _color_group_sweep():
        for entry in enumerate_type2(ColorGroupTables(G, H)):
            assert entry.key == equivalence_key(entry.spec.partition, H), (
                descriptor, entry.key_string()
            )


def test_type1_keys_match_equivalence_key():
    # An element y outside H sends P(J, r) to P(r^-1*J*r, r^-1), so the
    # type-1 orbit key is the smaller of the two; equivalence_key translates.
    cells = entries = 0
    for descriptor, G, H in _color_group_sweep():
        y = smallest_outside(H)
        for J in all_subgroups(H):
            for r in H.complement():
                ri = G.inv(r)
                moved = type1_partition(H, J.conjugated_by(ri), ri).blocks
                P = type1_partition(H, J, r)
                assert P.translated(y).blocks == P.translated(ri).blocks == moved, (
                    descriptor, J, G.labels[r]
                )
                cells += 1
        for entry in enumerate_type1(ColorGroupTables(G, H)):
            assert entry.key == equivalence_key(entry.spec.partition, H), (
                descriptor, entry.key_string()
            )
            entries += 1
    assert (cells, entries) == (4652, 452)


@pytest.mark.parametrize(
    "descriptor", [f"dihedral:{n}" for n in range(3, 9)] + ["p4m_quotient:1", "p4m_quotient:2"]
)
def test_type1_cells_verdicts_match_classify_type1(descriptor):
    # type1_cells skips classify_type1's checks, not its verdict.
    G = group_from_descriptor(parse_group_arg(descriptor))
    cells = 0
    for H in subgroups_of_index(G, 2):
        for J, l, r, verdict in type1_cells(ColorGroupTables(G, H)):
            assert verdict == classify_type1(J.conjugated_by(l), r, H), (H, J, l, r)
            cells += 1
    assert cells > 0


RECORD_GROUPS = [f"dihedral:{n}" for n in range(3, 9)] + ["p4m_quotient:1", "p4m_quotient:2"]


@pytest.mark.parametrize("descriptor", RECORD_GROUPS)
def test_type1_cells_make_one_verdict_per_coset(monkeypatch, descriptor):
    # Conjugation by l is an automorphism, so the verdict of (J, r) serves
    # every l: the grid makes one per (J, r), with r a right coset
    # representative of J outside H, and none per l.
    made = Counter()
    plain = census._type1_verdict

    def counted(J, r):
        made[J.members, r] += 1
        return plain(J, r)

    monkeypatch.setattr(census, "_type1_verdict", counted)
    G = group_from_descriptor(parse_group_arg(descriptor))
    for H in subgroups_of_index(G, 2):
        tables = ColorGroupTables(G, H)
        made.clear()
        cells = sum(1 for _ in type1_cells(tables))
        want = Counter(
            (cls[0].members, r)
            for cls in tables.classes
            for r in right_coset_reps_outside(cls[0], G, H)
        )
        assert made == want and set(made.values()) == {1}, (descriptor, H)
        assert sum(want.values()) == sum(H.order // cls[0].order for cls in tables.classes)
        assert cells >= sum(want.values())


RECIPE = ("H", "kind", "J", "l", "r", "J1", "J2", "y")


@pytest.mark.parametrize("descriptor", RECORD_GROUPS)
def test_census_entries_are_recipe_records(monkeypatch, descriptor):
    G = group_from_descriptor(parse_group_arg(descriptor))
    result = enumerate_all_semiperfect(G)
    assert result.entries
    # The writers read the recipe fields: they build no spec and no partition.
    with monkeypatch.context() as m:
        built = []
        m.setattr(ColoringSpec, "__init__", lambda self, *args, **kw: built.append(args))
        m.setattr(census, "type1_partition", lambda *args: built.append(args))
        m.setattr(census, "type2_partition", lambda *args: built.append(args))
        "".join(result.chunks())
        "".join(_census_csv(result))
        result.to_json()
        assert built == []
    # One recipe constructor, and no record keeps a partition.
    assert "__init__" not in CensusEntry.__dict__
    assert "_partition" not in ColoringSpec.__slots__ + CensusEntry.__slots__
    for entry in result.entries:
        assert isinstance(entry, ColoringSpec) and not hasattr(entry, "__dict__")
        assert entry.spec is entry
        if entry.kind == "type1":
            assert (entry.J1, entry.J2, entry.y) == (None, None, None)
            want = ColoringSpec.type1(entry.H, entry.J, entry.r, entry.l)
        else:
            assert (entry.J, entry.l, entry.r) == (None, None, None)
            want = ColoringSpec.type2(entry.H, entry.J1, entry.J2, entry.y)
        assert [getattr(want, f) for f in RECIPE] == [getattr(entry, f) for f in RECIPE]
        assert entry.partition.blocks == want.partition.blocks
        assert entry.verdict() == want.verdict()
        spec_json = entry.to_json()["spec"]
        assert spec_json == want.to_json()
        back = ColoringSpec.from_json(G, spec_json)
        assert [getattr(back, f) for f in RECIPE] == [getattr(entry, f) for f in RECIPE]


def test_editing_a_returned_json_leaves_the_group_unchanged():
    # Each JSON holds a copy of the group descriptor, not the group's own.
    G = group_from_descriptor(parse_group_arg("dihedral:6"))
    result = enumerate_all_semiperfect(G)
    entry = next(e for e in result.entries if e.kind == "type1")
    spec = ColoringSpec.type1(entry.H, entry.J, entry.r, entry.l)
    for data in (entry.to_json()["spec"], spec.to_json(), result.to_json()):
        data["group"]["n"] = 7
    assert G.descriptor == {"kind": "dihedral", "n": 6}


@pytest.mark.parametrize("pipeline, kind", [(enumerate_type1, "type1"), (enumerate_type2, "type2")])
def test_a_duplicated_key_raises_in_either_pipeline(monkeypatch, d6, hexH, pipeline, kind):
    # Each pipeline checks its own part and the census adds no check of its
    # own, so a forced duplicate raises through enumerate_all_semiperfect too.
    plain = ColorGroupTables.entry

    def one_key(self, kind, recipe, key, colors, orbits, kernel):
        return plain(self, kind, recipe, ((d6.identity,),), colors, orbits, kernel)

    monkeypatch.setattr(ColorGroupTables, "entry", one_key)
    message = "census produced a duplicated equivalence class"
    with pytest.raises(InvalidParameterError, match=message):
        pipeline(ColorGroupTables(d6, hexH))
    with pytest.raises(InvalidParameterError, match=message):
        enumerate_all_semiperfect(d6, H_filter=[hexH], kinds=(kind,))


def test_key_strings_match_partition_text():
    # key_string joins shared block texts; GroupPartition builds its own.
    checked = 0
    for descriptor, G, H in _color_group_sweep():
        for entry in enumerate_all_semiperfect(G, H_filter=[H]).entries:
            assert entry.key_string() == GroupPartition(G, entry.key).key_string(), (
                descriptor, entry.key
            )
            checked += 1
    assert checked == 5617


def _oracle_text(result):
    return json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"


def test_serialize_matches_json_dumps():
    # serialize joins stored fragments; json.dumps of to_json is the oracle.
    checked = 0
    for descriptor, G, H in _color_group_sweep():
        result = enumerate_all_semiperfect(G, H_filter=[H])
        assert result.serialize() == _oracle_text(result), descriptor
        checked += result.total
    assert checked == 5617


@pytest.mark.parametrize(
    "descriptor, options, by_part, notes",
    [
        # No parts and no entries, one note.
        ("dihedral:6", {"max_colors": 1}, {}, 1),
        (
            "dihedral:8",
            {"kinds": ("type1",)},
            {"<a>|type1": 0, "<a^2,ab>|type1": 13, "<a^2,b>|type1": 13},
            0,
        ),
        (
            "dihedral:8",
            {"kinds": ("type2",)},
            {"<a>|type2": 6, "<a^2,ab>|type2": 45, "<a^2,b>|type2": 45},
            0,
        ),
        # A part with no entries beside nonempty ones.
        (
            "dihedral:6",
            {},
            {"<a>|type1": 0, "<a>|type2": 6, "<a^2,b>|type1": 4, "<a^2,b>|type2": 15},
            0,
        ),
        # A color cap on a quotient adds the quotient note.
        (
            "p4m_quotient:2",
            {"max_colors": 4},
            {
                "<xy,a,b>|type1": 22,
                "<xy,a,b>|type2": 28,
                "<xy,ya,yb>|type1": 22,
                "<xy,ya,yb>|type2": 28,
            },
            1,
        ),
    ],
    ids=["no-entries", "type1-only", "type2-only", "empty-part", "quotient-note"],
)
def test_serialize_matches_json_dumps_edge_cases(descriptor, options, by_part, notes):
    G = group_from_descriptor(parse_group_arg(descriptor))
    result = enumerate_all_semiperfect(G, H_filter=standard_color_groups(G), **options)
    assert (result.to_json()["byPart"], len(result.notes)) == (by_part, notes)
    assert result.serialize() == _oracle_text(result)
    assert "".join(result.chunks()) == _oracle_text(result)


def test_census_builds_no_partition(monkeypatch):
    # Census keys and their text, and the numbering of table1, come from
    # block tables and identity blocks; the partition builders and the
    # translating orbit key are left to verify and ColoringSpec.partition.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("equivalence_key", "type1_partition", "type2_partition"):
        wrapper = counted(name, getattr(partitions, name))
        for module in (partitions, census):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(
        GroupPartition, "translated", counted("translated", GroupPartition.translated)
    )
    entries = 0
    for descriptor, G, H in _color_group_sweep():
        result = enumerate_all_semiperfect(G, H_filter=[H])
        result.serialize()
        "".join(_census_csv(result))
        entries += result.total
    assert entries == 5617
    d6 = group_from_descriptor(parse_group_arg("dihedral:6"))
    grids = [(d6, subgroup_from_words(d6, "a2,b"))]
    g2 = group_from_descriptor(parse_group_arg("p4m_quotient:2"))
    grids += [(g2, H) for H in subgroups_of_index(g2, 2)]
    assert len(grids) == 8
    for G, H in grids:
        reference_grid_csv(G, H)
    assert calls == Counter()

    # The counters see the builders when something does call them.
    d6, H = grids[0]
    spec = ColoringSpec.type1(H, subgroup_from_words(d6, "b"), d6.element("a"))
    partitions.equivalence_key(spec.partition, H)
    ColoringSpec.type2(H, H, subgroup_from_words(d6, "b")).partition
    assert set(calls) == {"equivalence_key", "type1_partition", "type2_partition", "translated"}


def test_reference_grid_matches_equivalence_key_numbering():
    # type1_reference_grid numbers cells by their type-1 identity block; the
    # oracle numbers them by the translated orbit key of the built partition.
    rows = 0
    for descriptor, G, H in _color_group_sweep():
        expected, first_seen = [], {}
        for J, l, r, verdict in type1_cells(ColorGroupTables(G, H)):
            if verdict.perfect:
                expected.append((J, l, r, "perfect", "perfect"))
                continue
            key = equivalence_key(type1_partition(H, J.conjugated_by(l), r), H)
            if key in first_seen:
                note = f"equivalent to ({first_seen[key]})"
            else:
                first_seen[key] = len(first_seen) + 1
                note = f"({first_seen[key]}) semiperfect"
            expected.append((J, l, r, SEMIPERFECT, note))
        got = [(g.J, g.l, g.r, g.verdict, g.note) for g in type1_reference_grid(G, H)]
        assert got == expected, (descriptor, generating_words(H))
        rows += len(got)
    assert rows == 1287


@pytest.mark.parametrize(
    "descriptor", [f"dihedral:{n}" for n in range(1, 9)] + ["p4m_quotient:1", "p4m_quotient:2"]
)
def test_reference_grid_numbers_the_kept_cells(descriptor):
    # One walk of the grid serves both: the numbered rows of table1 are, in
    # row order, the cells enumerate_type1 keeps, taken in grid order.
    G = group_from_descriptor(parse_group_arg(descriptor))
    for H in subgroups_of_index(G, 2):
        tables = ColorGroupTables(G, H)
        where = {(J.members, l, r): i for i, (J, l, r, _) in enumerate(type1_cells(tables))}
        entries = enumerate_type1(tables)
        kept = sorted(((e.J.members, e.l, e.r) for e in entries), key=where.__getitem__)
        rows = [row for row in type1_reference_grid(G, H) if row.note.endswith(") semiperfect")]
        notes = [f"({k}) semiperfect" for k in range(1, len(rows) + 1)]
        assert [row.note for row in rows] == notes
        # As many numbered rows as entries, and in grid order the same cells.
        assert [(row.J.members, row.l, row.r) for row in rows] == kept, (descriptor, H)


class TestSpecSerialization:
    def test_round_trip_type2(self, d6, hexH):
        spec = ColoringSpec.type2(
            hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
        )
        data = json.loads(json.dumps(spec.to_json()))
        again = ColoringSpec.from_json(d6, data)
        assert again.partition.blocks == spec.partition.blocks

    def test_round_trip_type1(self, d6, hexH):
        spec = ColoringSpec.type1(
            hexH, subgroup_from_words(d6, "b"), d6.element("a3")
        )
        again = ColoringSpec.from_json(d6, spec.to_json())
        assert again.partition.blocks == spec.partition.blocks
        assert again.verdict() == "perfect"

    def test_bad_kind_rejected(self, d6):
        with pytest.raises(InvalidParameterError):
            ColoringSpec.from_json(d6, {"H": ["e"], "kind": "type3"})


class TestAutomorphisms:
    def test_generator_image_constructor_validates(self, d6):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        assert d6.labels[alpha(d6.element("a2"))] == "a^4"
        with pytest.raises(InvalidParameterError):
            GroupAutomorphism.from_generator_images(d6, {"a": "a2", "b": "b"})

    @pytest.mark.parametrize("n, count", [(6, 12), (8, 32), (12, 48)])
    def test_generator_images_accept_exactly_the_automorphisms(self, n, count):
        # Aut(D_n) has n*phi(n) elements, one per image pair of a and b.
        G = group_from_descriptor(parse_group_arg(f"dihedral:{n}"))
        accepted = 0
        for img_a in G.elements:
            for img_b in G.elements:
                images = {"a": img_a, "b": img_b}
                try:
                    alpha = GroupAutomorphism.from_generator_images(G, images)
                except InvalidParameterError:
                    continue
                accepted += 1
                assert sorted(alpha.images) == list(G.elements)
                for g in G.elements:
                    for h in G.elements:
                        assert alpha(G.table[g][h]) == G.table[alpha(g)][alpha(h)]
                assert {name: alpha(G.generators[name]) for name in images} == images
        assert accepted == count

    @pytest.mark.parametrize(
        "images",
        [{"a": "b", "b": "b"}, {"a": "e", "b": "b", "c": "e"}, {"b": "b"}],
        ids=["identity-generator-moved", "unknown-name", "missing-name"],
    )
    def test_generator_images_that_would_be_dropped_raise(self, images):
        # In D_1 the declared generator a is the identity, so its image must
        # be e; every given image names a declared generator, and every
        # declared generator needs one.
        G = group_from_descriptor(parse_group_arg("dihedral:1"))
        assert G.generators["a"] == G.identity
        with pytest.raises(InvalidParameterError):
            GroupAutomorphism.from_generator_images(G, images)

    def test_transported_worked_example(self, d6, hexH):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        spec = ColoringSpec.type2(
            hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
        )
        moved = conjugate_spec(spec, alpha)
        assert moved.partition.labels_json() == [
            ["e", "a^5b"],
            ["a", "a^3", "a^5", "b", "a^2b", "a^4b"],
            ["a^2", "ab"],
            ["a^4", "a^3b"],
        ]
        assert generating_words(moved.H) == "<a^2,ab>"
        assert moved.verdict() == SEMIPERFECT

    def test_identity_transport(self, d6, hexH):
        spec = ColoringSpec.type1(hexH, subgroup_from_words(d6, "b"), d6.element("a"))
        identity = GroupAutomorphism.from_generator_images(d6, {"a": "a", "b": "b"})
        moved = conjugate_spec(spec, identity)
        assert moved.partition.blocks == spec.partition.blocks

    def test_transport_maps_partition_and_keeps_verdict(self, d6):
        # conjugate_spec only maps the recipe; the partition it realizes is
        # the blockwise image of the original under every automorphism of
        # D6, and the verdict is unchanged, on both hexagon censuses.
        autos = []
        for img_a in d6.elements:
            for img_b in d6.elements:
                try:
                    autos.append(
                        GroupAutomorphism.from_generator_images(d6, {"a": img_a, "b": img_b})
                    )
                except InvalidParameterError:
                    continue
        assert len(autos) == 12
        entries = enumerate_all_semiperfect(d6, H_filter=standard_color_groups(d6)).entries
        assert len(entries) == 25
        for alpha in autos:
            for entry in entries:
                moved = conjugate_spec(entry.spec, alpha)
                image = sorted(
                    tuple(sorted(alpha(e) for e in block)) for block in entry.spec.partition.blocks
                )
                assert moved.partition.blocks == tuple(image)
                assert moved.verdict() == entry.spec.verdict() == SEMIPERFECT

    def test_action_equivalence_check_rejects_non_images(self, d6, hexH, hexH_rot):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        spec = ColoringSpec.type2(hexH, subgroup_from_words(d6, "a2b"), hexH)
        moved = conjugate_spec(spec, alpha)
        P, H2, P2 = spec.partition, moved.H, moved.partition
        assert action_equivalence_check(hexH, P, H2, P2, alpha)
        with pytest.raises(InvalidParameterError, match="H2 is not the alpha-image of H"):
            action_equivalence_check(hexH, P, hexH_rot, P2, alpha)
        # A partition some alpha-image block splits, and a coarser one that
        # every alpha-image block maps into: H2 and its complement.
        split = conjugate_spec(ColoringSpec.type2(hexH, hexH, subgroup_from_words(d6, "b")), alpha)
        coarser = GroupPartition.from_blocks(d6, [H2.members, H2.complement()])
        assert P._block_image(alpha.images, split.partition) is None
        assert P._block_image(alpha.images, coarser) is not None
        for wrong in (split.partition, coarser):
            with pytest.raises(InvalidParameterError, match="P2 is not the alpha-image of P"):
                action_equivalence_check(hexH, P, H2, wrong, alpha)

    def test_verdicts_preserved_across_census(self, d6, hexH):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        for entry in enumerate_type2(ColorGroupTables(d6, hexH)) + enumerate_type1(ColorGroupTables(d6, hexH)):
            moved = conjugate_spec(entry.spec, alpha)
            oracle = partition_stabilizer(d6, moved.partition)
            assert not oracle.is_whole_group()

    def test_action_equivalence_table(self, d6, hexH):
        alpha = GroupAutomorphism.from_generator_images(d6, {"a": "a5", "b": "ab"})
        spec = ColoringSpec.type2(
            hexH, subgroup_from_words(d6, "a2b"), hexH, d6.element("a3")
        )
        moved = conjugate_spec(spec, alpha)
        assert action_equivalence_check(hexH, spec.partition, moved.H, moved.partition, alpha)
        # Every element pairs with its image: same cycle structure on blocks.
        for h in hexH.members:
            perm = spec.partition.permutation_induced_by(h)
            perm2 = moved.partition.permutation_induced_by(alpha(h))
            assert sorted(Counter(_cycle_lengths(perm)).items()) == sorted(
                Counter(_cycle_lengths(perm2)).items()
            )

    def test_search_finds_carrier(self, d6, hexH):
        target = subgroup_from_words(d6, "a2,ab")
        alpha = find_conjugating_automorphism(d6, hexH, target)
        assert alpha is not None
        assert alpha.apply_subgroup(hexH).members == target.members

    def test_search_identity_case(self, d6, hexH):
        alpha = find_conjugating_automorphism(d6, hexH, hexH)
        assert alpha is not None
        assert alpha.apply_subgroup(hexH).members == hexH.members

    def test_search_on_square_quotient(self, g2):
        H = subgroup_from_words(g2, "a,ab,xy,Xy")
        H2 = subgroup_from_words(g2, "xa,ab,xy,Xy")
        assert H.order == H2.order == 16
        alpha = find_conjugating_automorphism(g2, H, H2)
        assert alpha is not None
        assert alpha.apply_subgroup(H).members == H2.members

    def test_search_rejects_impossible(self, d6, hexH, hexH_rot):
        assert find_conjugating_automorphism(d6, hexH, hexH_rot) is None

    def test_search_requires_index_two(self, d6):
        # Membership is tested on generator images only, which is exact at
        # index 2 alone; equal orders do not let a smaller H through.
        with pytest.raises(InvalidParameterError, match="index 2"):
            find_conjugating_automorphism(
                d6, subgroup_from_words(d6, "b"), subgroup_from_words(d6, "a2b")
            )

    # bool is a subclass of int: True would otherwise be element 1 (a).
    @pytest.mark.parametrize("image", [12, -1, 5.0, True, False])
    def test_generator_image_index_out_of_range_rejected(self, d6, image):
        with pytest.raises(InvalidParameterError, match="unknown element index"):
            GroupAutomorphism.from_generator_images(d6, {"a": image, "b": "ab"})


# -- reference automorphism construction ---------------------------------------
# The all-pairs product closure and the backtracking that copied it per
# trial, which ``census._extend`` replaced; kept as the oracle for both of
# its callers, as ``saturating_subgroups`` is kept for the subgroup lattice.


def _close_map(table, pmap, rmap, fresh, compatible):
    """Close the partial map ``pmap`` (inverse ``rmap``) under products in
    place after the points ``fresh`` were added; False on a conflicting
    product, an image taken twice, or a point failing ``compatible``."""
    queue = list(fresh)
    while queue:
        g = queue.pop()
        img_g = pmap[g]
        for h in list(pmap):
            img_h = pmap[h]
            for p, q in ((table[g][h], table[img_g][img_h]),
                         (table[h][g], table[img_h][img_g])):
                known = pmap.get(p)
                if known is not None:
                    if known != q:
                        return False
                    continue
                if q in rmap or not compatible(p, q):
                    return False
                pmap[p] = q
                rmap[q] = p
                queue.append(p)
    return True


def reference_generator_images(group, images):
    """Pointwise images of the automorphism, closing after each generator."""
    e = group.identity
    pmap, rmap = {e: e}, {e: e}
    for name, g in group.generators.items():
        img = images[name]
        img = group.element(img) if isinstance(img, str) else img
        if (
            pmap.setdefault(g, img) != img
            or rmap.setdefault(img, g) != g
            or not _close_map(group.table, pmap, rmap, [g], lambda p, q: True)
        ):
            raise InvalidParameterError(
                f"generator images do not extend to an automorphism (at {name})"
            )
    if len(pmap) != group.order:
        raise InvalidParameterError("declared generators do not generate the group")
    return tuple(pmap[g] for g in range(group.order))


def reference_search(G, H, H2):
    """Pointwise images of the first automorphism carrying H onto H2, or
    None; every point of each trial closure is tested for membership."""
    gen_names = list(G.generators)
    orders = G.element_orders

    def compatible(g, img):
        return (g in H.member_set) == (img in H2.member_set)

    def search(i, pmap, rmap):
        if i == len(gen_names):
            return tuple(pmap[g] for g in range(G.order)) if len(pmap) == G.order else None
        g = G.generators[gen_names[i]]
        if g in pmap:
            return search(i + 1, pmap, rmap)
        for img in range(G.order):
            if orders[img] != orders[g] or img in rmap or not compatible(g, img):
                continue
            trial, rtrial = dict(pmap), dict(rmap)
            trial[g], rtrial[img] = img, g
            if _close_map(G.table, trial, rtrial, [g], compatible):
                found = search(i + 1, trial, rtrial)
                if found is not None:
                    return found
        return None

    e = G.identity
    return search(0, {e: e}, {e: e})


@pytest.mark.parametrize(
    "descriptor",
    ["dihedral:4", "dihedral:6", "dihedral:8", "dihedral:12"]
    + [f"p4m_quotient:{n}" for n in range(1, 4)],
)
def test_search_matches_reference(descriptor):
    G = group_from_descriptor(parse_group_arg(descriptor))
    color_groups = subgroups_of_index(G, 2)
    for H in color_groups:
        for H2 in color_groups:
            alpha = find_conjugating_automorphism(G, H, H2)
            got = None if alpha is None else alpha.images
            assert got == reference_search(G, H, H2), (generating_words(H), generating_words(H2))


def test_search_matches_reference_on_the_gallery_pair(g4):
    H, H2 = (subgroup_from_words(g4, words) for words in P4M_COLOR_GROUPS)
    alpha = find_conjugating_automorphism(g4, H, H2)
    assert alpha is not None
    assert alpha.images == reference_search(g4, H, H2)


@pytest.mark.parametrize("descriptor", ["dihedral:6", "dihedral:8"])
def test_generator_images_match_reference(descriptor):
    # Every image pair of a and b: the same images or the same message.
    G = group_from_descriptor(parse_group_arg(descriptor))
    for img_a in G.elements:
        for img_b in G.elements:
            images = {"a": img_a, "b": img_b}
            try:
                want = reference_generator_images(G, images)
            except InvalidParameterError as exc:
                with pytest.raises(InvalidParameterError) as raised:
                    GroupAutomorphism.from_generator_images(G, images)
                assert str(raised.value) == str(exc), images
            else:
                assert GroupAutomorphism.from_generator_images(G, images).images == want


def _cycle_lengths(perm):
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        n, p = 0, start
        while p not in seen:
            seen.add(p)
            p = perm[p]
            n += 1
        out.append(n)
    return out
