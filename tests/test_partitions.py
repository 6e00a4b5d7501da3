import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from semicolor.census import ColoringSpec, enumerate_all_semiperfect
from semicolor.errors import InvalidParameterError, NotAPartitionError
from semicolor.groups import (
    all_subgroups,
    build_dihedral,
    build_p4m_quotient,
    subgroup_from_words,
    subgroup_generated,
    subgroups_of_index,
    whole_group,
)
from semicolor.partitions import (
    PERFECT,
    SEMIPERFECT,
    GroupPartition,
    canonical_blocks,
    classify_type1,
    classify_type2,
    color_action,
    equivalence_class,
    equivalence_key,
    general_partition,
    orbit_table,
    partition_stabilizer,
    smallest_outside,
    stabilized_by_whole_group,
    type1_partition,
    type2_partition,
    _translates,
)


def blocks_by_labels(group, partition):
    return [tuple(labels) for labels in partition.labels_json()]


@pytest.fixture
def four_color(d6, hexH):
    """The worked two-orbit example: J1 = <a^2b>, J2 = H."""
    return type2_partition(hexH, subgroup_from_words(d6, "a2b"), hexH)


@pytest.fixture
def three_color(d6, hexH):
    """The worked one-orbit example: J = <b>, r = a^3 (a perfect coloring)."""
    return type1_partition(hexH, subgroup_from_words(d6, "b"), d6.element("a3"))


class TestTypeTwoConstruction:
    def test_worked_example_blocks(self, d6, four_color):
        assert blocks_by_labels(d6, four_color) == [
            ("e", "a^2b"),
            ("a", "a^3", "a^5", "ab", "a^3b", "a^5b"),
            ("a^2", "a^4b"),
            ("a^4", "b"),
        ]

    def test_trivial_pair_gives_two_halves(self, d6, hexH):
        P = type2_partition(hexH, hexH, hexH)
        assert P.num_blocks == 2
        assert set(P.blocks[0]) == set(hexH.members)

    def test_representative_choice_is_immaterial(self, d6, hexH):
        J1 = subgroup_from_words(d6, "a2b")
        assert (
            ColoringSpec.type2(hexH, J1, hexH, d6.element("a")).partition.blocks
            == ColoringSpec.type2(hexH, J1, hexH, d6.element("a3")).partition.blocks
        )

    def test_block_count_is_sum_of_indices(self, d6, hexH):
        for J1 in all_subgroups(hexH):
            for J2 in all_subgroups(hexH):
                P = type2_partition(hexH, J1, J2)
                assert P.num_blocks == hexH.order // J1.order + hexH.order // J2.order

    def test_rejects_representative_inside_H(self, d6, hexH):
        with pytest.raises(InvalidParameterError):
            ColoringSpec.type2(hexH, hexH, hexH, d6.element("a2"))

    def test_rejects_subgroup_outside_H(self, d6, hexH):
        with pytest.raises(InvalidParameterError):
            type2_partition(hexH, subgroup_from_words(d6, "a"), hexH)


class TestTypeOneConstruction:
    def test_worked_example_blocks(self, d6, three_color):
        assert blocks_by_labels(d6, three_color) == [
            ("e", "a^3", "b", "a^3b"),
            ("a", "a^4", "ab", "a^4b"),
            ("a^2", "a^5", "a^2b", "a^5b"),
        ]

    def test_full_subgroup_gives_single_block(self, d6, hexH):
        P = type1_partition(hexH, hexH, d6.element("a"))
        assert P.num_blocks == 1

    def test_trivial_subgroup_gives_pair_blocks(self, d6, hexH):
        triv = subgroup_generated(d6, [])
        P = type1_partition(hexH, triv, d6.element("a"))
        assert P.num_blocks == 6
        for block in P.blocks:
            assert len(block) == 2
            g, h = block
            assert d6.mul(g, d6.element("a")) == h or d6.mul(h, d6.element("a")) == g

    def test_block_shape(self, d6, hexH):
        for J in all_subgroups(hexH):
            P = type1_partition(hexH, J, d6.element("a"))
            assert P.num_blocks == hexH.order // J.order
            assert all(len(b) == 2 * J.order for b in P.blocks)

    def test_stabilized_by_H(self, d6, hexH):
        for J in all_subgroups(hexH):
            for r in hexH.complement():
                P = type1_partition(hexH, J, r)
                assert all(P.is_stabilized_by(h) for h in hexH.members)


class TestGeneralPartition:
    def test_matches_type2(self, d6, hexH, four_color):
        J1 = subgroup_from_words(d6, "a2b")
        P = general_partition(hexH, [(J1, [d6.identity]), (hexH, [d6.element("a3")])])
        assert P.blocks == four_color.blocks

    def test_single_part_covering_both_cosets(self, d6, hexH):
        P = general_partition(hexH, [(hexH, [d6.identity, d6.element("a3")])])
        assert P.num_blocks == 1

    def test_matches_type1(self, d6, hexH, three_color):
        Jb = subgroup_from_words(d6, "b")
        P = general_partition(hexH, [(Jb, [d6.identity, d6.element("a3")])])
        assert P.blocks == three_color.blocks

    def test_non_coverage_rejected(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        with pytest.raises(NotAPartitionError):
            general_partition(hexH, [(Jb, [d6.identity])])

    def test_overlapping_translates_rejected(self, d6, hexH):
        # Both representatives lie in H, so the H-translates of {e, a^2}
        # overlap; only building every translate shows it.
        trivial = subgroup_generated(d6, [])
        with pytest.raises(NotAPartitionError) as err:
            general_partition(hexH, [(trivial, [d6.identity, d6.element("a2")])])
        assert err.value.colliding is not None

    def test_overlap_rejected_with_collision_report(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        with pytest.raises(NotAPartitionError) as err:
            general_partition(
                hexH, [(Jb, [d6.identity]), (Jb, [d6.element("a2")])]
            )
        assert err.value.colliding is not None


class TestFromBlocks:
    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0, 1], [], [2, 3]], "empty block"),
            ([[0, 1], [1, 2, 3]], "blocks overlap at a"),
            ([[0, 1], [2]], r"blocks do not cover the group; missing \['ab'\]"),
        ],
        ids=["empty", "overlap", "missing"],
    )
    def test_faults_are_named(self, blocks, message):
        with pytest.raises(NotAPartitionError, match=f"^{message}$"):
            GroupPartition.from_blocks(build_dihedral(2), blocks)

    @pytest.mark.parametrize("stray", [99, -1, 4, 1.0, True])
    def test_members_outside_the_group_rejected(self, stray):
        # D_2 has the elements 0-3.  With 4 the block sizes sum to the
        # order; with -1 the member would index the last element's label.
        # 1.0 and True equal the element 1 but are no element index.
        with pytest.raises(NotAPartitionError, match=f"^block member {stray} is not an element"):
            GroupPartition.from_blocks(build_dihedral(2), [[0, 1], [2, stray]])


class TestStabilizerOracle:
    def test_two_orbit_example_stabilizer_is_H(self, d6, hexH, four_color):
        assert partition_stabilizer(d6, four_color).members == hexH.members

    def test_single_block_stabilizer_is_whole_group(self, d6, hexH):
        P = type1_partition(hexH, hexH, d6.element("a"))
        assert partition_stabilizer(d6, P).is_whole_group()

    def test_perfect_example_stabilizer_is_whole_group(self, d6, three_color):
        assert partition_stabilizer(d6, three_color).is_whole_group()


class TestClassifyTypeOne:
    def test_perfect_example(self, d6, hexH):
        v = classify_type1(subgroup_from_words(d6, "b"), d6.element("a3"), hexH)
        assert v.verdict == PERFECT
        assert v.rep_normalizes and v.square_in_core

    def test_semiperfect_example(self, d6, hexH):
        v = classify_type1(subgroup_from_words(d6, "b"), d6.element("a"), hexH)
        assert v.verdict == SEMIPERFECT

    def test_square_lattice_semiperfect_example(self, g2, pmmH):
        J = subgroup_from_words(g2, "xa2b,xy,xY")
        v = classify_type1(J, g2.element("a"), pmmH)
        assert v.verdict == SEMIPERFECT
        assert not v.square_in_core  # the square of the quarter turn misses J

    def test_agrees_with_oracle_exhaustively_on_hexagon(self, d6, hexH):
        for J in all_subgroups(hexH):
            for r in hexH.complement():
                fast = classify_type1(J, r, hexH).perfect
                oracle = partition_stabilizer(
                    d6, type1_partition(hexH, J, r)
                ).is_whole_group()
                assert fast == oracle

    def test_conjugation_symmetry(self, d6, hexH):
        for J in all_subgroups(hexH):
            for r in hexH.complement():
                base = classify_type1(J, r, hexH).verdict
                for l in hexH.members:
                    assert (
                        classify_type1(J.conjugated_by(l), d6.conj(r, l), hexH).verdict
                        == base
                    )


class TestClassifyTypeTwo:
    def test_worked_example_is_semiperfect(self, d6, hexH):
        assert classify_type2(subgroup_from_words(d6, "a2b"), hexH, hexH) == SEMIPERFECT

    def test_equal_subgroups_are_perfect(self, d6, hexH):
        for J in all_subgroups(hexH):
            assert classify_type2(J, J, hexH) == PERFECT

    def test_representative_form_uses_conjugate(self, d6, hexH):
        J1 = subgroup_from_words(d6, "a2b")
        conj = J1.conjugated_by(d6.element("a3"))
        assert conj.members == J1.members  # so the pair (J1, H) stays semiperfect
        # The family {h*J1} u {h*J2*y} is the coset-family form with J2
        # replaced by its y-inverse conjugate.
        y_inv = d6.inverse[d6.element("a3")]
        assert classify_type2(J1, hexH.conjugated_by(y_inv), hexH) == SEMIPERFECT
        assert classify_type2(J1, conj.conjugated_by(y_inv), hexH) == PERFECT

    def test_agrees_with_oracle_exhaustively_on_hexagon(self, d6, hexH):
        subs = all_subgroups(hexH)
        for J1 in subs:
            for J2 in subs:
                fast = classify_type2(J1, J2, hexH) == PERFECT
                oracle = partition_stabilizer(
                    d6, type2_partition(hexH, J1, J2)
                ).is_whole_group()
                assert fast == oracle


class TestEquivalence:
    def test_semiperfect_orbit_has_two_members_with_equal_stabilizers(
        self, d6, four_color
    ):
        orbit = equivalence_class(four_color, d6)
        assert len(orbit) == 2
        stabs = {partition_stabilizer(d6, P).members for P in orbit}
        assert len(stabs) == 1

    def test_perfect_orbit_is_singleton(self, d6, three_color):
        assert len(equivalence_class(three_color, d6)) == 1

    def test_grid_pairing_example(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        P1 = type1_partition(hexH, Jb.conjugated_by(d6.element("a2")), d6.element("a5"))
        P2 = type1_partition(hexH, Jb, d6.element("a"))
        assert P2 in equivalence_class(P1, d6)

    def test_inequivalent_examples(self, d6, four_color, three_color):
        assert three_color not in equivalence_class(four_color, d6)

    def test_rejects_partition_of_another_group(self, d6, four_color):
        # D4 is smaller than D6 and D8 larger; neither may be mistaken for
        # the group the partition lives in.
        for other in (build_dihedral(4), build_dihedral(8)):
            with pytest.raises(InvalidParameterError):
                equivalence_class(four_color, other)

    def test_square_pattern_mirror_witness(self, g2):
        H = subgroup_from_words(g2, "ab,a3b,x,y")
        P = general_partition(
            H, [(subgroup_from_words(g2, "ab,x,y"), [g2.identity, g2.element("a")])]
        )
        Q = general_partition(
            H, [(subgroup_from_words(g2, "a3b,x,y"), [g2.identity, g2.element("b")])]
        )
        assert P.translated(g2.element("b")).blocks == Q.blocks
        assert Q in equivalence_class(P, g2)


class TestColorAction:
    def test_worked_example_table(self, d6, hexH, four_color):
        action = color_action(hexH, orbit_table(four_color, d6))
        # Fixed color names keyed by block content.
        by_content = {
            ("e", "a^2b"): "yellow",
            ("a", "a^3", "a^5", "ab", "a^3b", "a^5b"): "red",
            ("a^2", "a^4b"): "blue",
            ("a^4", "b"): "green",
        }
        names = [by_content[tuple(b)] for b in four_color.labels_json()]

        def cycle_image(h):
            perm = action.permutations[hexH.members.index(d6.element(h))]
            return {names[i]: names[perm[i]] for i in range(4)}

        assert cycle_image("b") == {
            "yellow": "green", "green": "yellow", "red": "red", "blue": "blue",
        }
        assert cycle_image("a^2") == {
            "blue": "green", "green": "yellow", "yellow": "blue", "red": "red",
        }
        assert cycle_image("e") == {n: n for n in names}

    def test_worked_example_classification(self, d6, hexH, four_color):
        cls = color_action(hexH, orbit_table(four_color, d6)).classification
        assert cls.verdict == SEMIPERFECT
        assert cls.num_colors == 4
        assert cls.num_color_orbits == 2
        assert cls.kernel_order == 1
        assert cls.color_perm_group_order == 6

    def test_rejects_non_invariant_subgroup(self, d6, four_color):
        with pytest.raises(InvalidParameterError):
            color_action(whole_group(d6), orbit_table(four_color, d6))

    def test_kernel_product_law(self, d6, hexH):
        for J in all_subgroups(hexH):
            for r in list(hexH.complement())[:3]:
                cls = color_action(hexH, orbit_table(type1_partition(hexH, J, r), d6)).classification
                assert cls.kernel_order * cls.color_perm_group_order == hexH.order

    def test_one_orbit_for_type1_partitions(self, d6, hexH):
        for J in all_subgroups(hexH):
            P = type1_partition(hexH, J, d6.element("a"))
            assert color_action(hexH, orbit_table(P, d6)).classification.num_color_orbits == 1

    def test_verdict_matches_stabilizer_oracle(self, d6, g2):
        cases = [
            (G, H)
            for G in (d6, build_dihedral(8), build_p4m_quotient(1))
            for H in subgroups_of_index(G, 2)
        ]
        cases += [(g2, subgroup_from_words(g2, w)) for w in ("a,ab,xy,Xy", "xa,ab,xy,Xy")]
        for G, H in cases:
            subs = all_subgroups(H)
            partitions = [type1_partition(H, J, r) for J in subs for r in H.complement()]
            partitions += [
                type2_partition(H, J1, J2) for J1, J2 in combinations_with_replacement(subs, 2)
            ]
            for P in partitions:
                perfect = partition_stabilizer(G, P).is_whole_group()
                verdict = color_action(H, orbit_table(P, G)).classification.verdict
                assert verdict == (PERFECT if perfect else SEMIPERFECT)


def normalize_type1(H, J, g, Y):
    """The paper's rewriting of ``{h * (g J g^-1) * Y : h in H}`` as a
    translate ``leading * P(J', y')`` of a plain type-1 partition.

    Pull the conjugating element out front, shift by the H-member x of
    ``g^-1 Y`` so the representative pair becomes ``{e, y}``, then replace
    y by the smallest member of its right J'-coset.  Returns
    ``(leading, J', y')`` after checking that the rewrite reproduces the
    input family exactly.
    """
    group = H.group
    table, inv = group.table, group.inverse
    shifted = [table[inv[g]][u] for u in Y]
    inside = [u for u in shifted if u in H]
    outside = [u for u in shifted if u not in H]
    if len(inside) != 1 or len(outside) != 1:
        raise InvalidParameterError("Y must represent both cosets of H exactly once")
    (x,), (y,) = inside, outside
    J_prime = J.conjugated_by(inv[x])
    y_prime = min(table[j][table[inv[x]][y]] for j in J_prime.members)
    leading = table[g][x]
    original = general_partition(H, [(J.conjugated_by(g), Y)])
    rewritten = type1_partition(H, J_prime, y_prime).translated(leading)
    assert original.blocks == rewritten.blocks
    return leading, J_prime, y_prime


class TestNormalizeTypeOne:
    def test_shifted_pair_normalizes(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        leading, J, y = normalize_type1(
            hexH, Jb, d6.identity, (d6.element("a2"), d6.element("a3"))
        )
        assert d6.labels[leading] == "a^2"
        assert J.label_list() == ["e", "a^2b"]
        assert d6.labels[y] == "a"

    def test_identity_rewrite(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        leading, J, y = normalize_type1(hexH, Jb, d6.identity, (d6.identity, d6.element("a3")))
        assert leading == d6.identity
        assert J.members == Jb.members
        assert d6.labels[y] == "a^3"

    def test_coset_members_give_equal_partitions(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        base = type1_partition(hexH, Jb, d6.element("a3"))
        for j in Jb.members:
            y2 = d6.mul(j, d6.element("a3"))
            assert type1_partition(hexH, Jb, y2).blocks == base.blocks

    def test_nontrivial_leading_conjugator(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        _, J, y = normalize_type1(
            hexH, Jb, d6.element("a"), (d6.element("a2"), d6.element("a3"))
        )
        # The rewrite reproduced the input family (checked internally);
        # the canonical pair must satisfy the plain preconditions.
        assert J.is_subset_of(hexH)
        assert y not in hexH

    def test_bad_representative_pair_rejected(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        with pytest.raises(InvalidParameterError):
            normalize_type1(hexH, Jb, d6.identity, (d6.identity, d6.element("a2")))


class TestEquivalenceKey:
    def test_key_identifies_orbit(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        P = type1_partition(hexH, Jb, d6.element("a"))
        for Q in equivalence_class(P, d6):
            assert equivalence_key(Q, hexH) == equivalence_key(P, hexH)

    def test_canonical_form_round_trip(self, d6, four_color):
        rebuilt = GroupPartition.from_blocks(
            d6, [list(b) for b in four_color.blocks]
        )
        assert rebuilt.blocks == four_color.blocks


# -- coset-indexed blocks and the closed-form type-2 key ------------------------


@pytest.fixture(scope="module")
def color_group_sweep():
    """Every index-2 color group of D6, D8, D12 and p4m_quotient:1/2."""
    groups = [build_dihedral(n) for n in (6, 8, 12)]
    groups += [build_p4m_quotient(N) for N in (1, 2)]
    return [(G, H, all_subgroups(H)) for G in groups for H in subgroups_of_index(G, 2)]


def naive_blocks(H, base):
    """Independent oracle: the translate ``h * base`` for every h in H."""
    table = H.group.table
    return canonical_blocks([table[h][e] for e in base] for h in H.members)


class TestCosetIndexedBlocks:
    def test_type1_blocks_match_every_translate(self, color_group_sweep):
        for G, H, subs in color_group_sweep:
            for J in subs:
                for r in H.complement():
                    base = J.members + tuple(G.mul(j, r) for j in J.members)
                    assert type1_partition(H, J, r).blocks == naive_blocks(H, base)

    def test_type2_blocks_match_every_translate(self, color_group_sweep):
        for G, H, subs in color_group_sweep:
            y = H.complement()[-1]  # any element outside H gives the same blocks
            for J1, J2 in product(subs, repeat=2):
                outside = [G.mul(y, j) for j in J2.members]
                expected = canonical_blocks(
                    naive_blocks(H, J1.members) + naive_blocks(H, outside)
                )
                assert type2_partition(H, J1, J2).blocks == expected

    def test_outside_element_swaps_type2_halves(self, color_group_sweep):
        for G, H, subs in color_group_sweep:
            y = H.complement()[-1]
            for J1, J2 in product(subs, repeat=2):
                P = type2_partition(H, J1, J2)
                assert P.translated(y).blocks == type2_partition(H, J2, J1).blocks
                lo, hi = sorted((J1, J2), key=lambda s: s.members)
                assert equivalence_key(P, H) == type2_partition(H, lo, hi).blocks

    def test_translates_of_a_one_element_base(self, color_group_sweep):
        # The trivial J: an itemgetter of one index returns the element
        # itself, so _translates builds the one-member blocks on its own.
        for G, H, subs in color_group_sweep:
            trivial = subs[0]
            assert trivial.members == (G.identity,)
            assert _translates(G, H.members, trivial.members) == [(h,) for h in H.members]
            y = smallest_outside(H)
            assert _translates(G, H.members, [y]) == [(G.mul(h, y),) for h in H.members]

    def test_translates_of_random_bases(self, color_group_sweep):
        rng = random.Random(28)
        for G, H, subs in color_group_sweep:
            for _ in range(20):
                base = rng.sample(range(G.order), rng.randint(1, G.order))
                reps = rng.sample(H.members, rng.randint(1, H.order))
                want = [tuple(sorted(G.table[h][e] for e in base)) for h in reps]
                assert _translates(G, reps, base) == want

    def test_smallest_outside_is_first_of_complement(self, color_group_sweep):
        for G, H, subs in color_group_sweep:
            assert smallest_outside(H) == H.complement()[0]


# -- the label-array oracles against the plain translate-and-compare ones -------


def reference_translated(P, g):
    table = P.group.table
    return canonical_blocks([table[g][e] for e in block] for block in P.blocks)


def reference_equivalence_class(P, G):
    """Every translate gP, sorted into canonical form; the first g that
    gives each distinct translate, keyed by its blocks."""
    first = {}
    for g in G.elements:
        first.setdefault(reference_translated(P, g), g)
    return dict(sorted(first.items()))


def reference_block_image(P, g):
    """Where g sends each block index, element by element; None when g
    splits a block."""
    row = P.group.table[g]
    bid = P.block_of
    image = [-1] * P.num_blocks
    for e in range(P.group.order):
        src, dst = bid[e], bid[row[e]]
        if image[src] < 0:
            image[src] = dst
        elif image[src] != dst:
            return None
    return image


def reference_partition_stabilizer(G, P):
    return tuple(g for g in G.elements if reference_block_image(P, g) is not None)


def assert_oracles_match_reference(G, P):
    first = reference_equivalence_class(P, G)
    orbit = equivalence_class(P, G)
    assert [Q.blocks for Q in orbit] == list(first)
    # The orbit table: every g names the translate equal to gP, each
    # translate's first g is the smallest one, and the stabilizer read from
    # the table is that of the translate itself.
    table = orbit_table(P, G)
    assert len(table.translates) == len(table.first) == len(first)
    assert table.translates[0] is P
    for g in G.elements:
        Q = table.translates[table.index[g]]
        assert Q.blocks == reference_translated(P, g)
        # The block map sends block i to the block of gP holding g*B_i.
        assert table.maps[g] == [Q.block_of[G.table[g][B[0]]] for B in P.blocks]
    for i, Q in enumerate(table.translates):
        assert table.first[i] == first[Q.blocks]
        assert table.stabilizer(i).members == reference_partition_stabilizer(G, Q)
    stabilizer = reference_partition_stabilizer(G, P)
    assert partition_stabilizer(G, P).members == stabilizer
    assert stabilized_by_whole_group(G, P) == partition_stabilizer(G, P).is_whole_group()
    for g in stabilizer:
        assert P.permutation_induced_by(g) == tuple(reference_block_image(P, g))
    splitting = next((g for g in G.elements if g not in stabilizer), None)
    if splitting is not None:
        with pytest.raises(InvalidParameterError):
            P.permutation_induced_by(splitting)


def reference_color_action(H, P):
    """The color action of H on P, one block-image walk per member of H and
    one for the smallest element outside H: the oracle that
    ``color_action`` reads from an orbit table instead."""
    perms = [P.permutation_induced_by(h) for h in H.members]
    identity_perm = tuple(range(P.num_blocks))
    kernel = tuple(h for h, perm in zip(H.members, perms) if perm == identity_perm)
    perfect = P.is_stabilized_by(smallest_outside(H))
    seen, orbits = set(), 0
    for start in range(P.num_blocks):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        stack = [start]
        while stack:
            b = stack.pop()
            for perm in perms:
                if perm[b] not in seen:
                    seen.add(perm[b])
                    stack.append(perm[b])
    return tuple(perms), kernel, (
        PERFECT if perfect else SEMIPERFECT,
        P.num_blocks,
        orbits,
        len(kernel),
        H.order // len(kernel),
    )


@pytest.mark.parametrize(
    "name", [f"dihedral:{n}" for n in range(3, 9)] + ["p4m_quotient:1", "p4m_quotient:2"]
)
def test_color_action_matches_reference_walk_on_census(name):
    kind, n = name.split(":")
    G = build_dihedral(int(n)) if kind == "dihedral" else build_p4m_quotient(int(n))
    entries = enumerate_all_semiperfect(G).entries
    assert entries
    for entry in entries:
        H, P = entry.H, entry.spec.partition
        action = color_action(H, orbit_table(P, G))
        perms, kernel, cls = reference_color_action(H, P)
        assert action.partition is P
        assert action.permutations == perms
        assert action.kernel.members == kernel
        c = action.classification
        assert (
            c.verdict, c.num_colors, c.num_color_orbits, c.kernel_order, c.color_perm_group_order
        ) == cls


def test_color_action_matches_reference_walk_on_perfect_partitions(d6, hexH):
    # Census entries are all semiperfect; a perfect one reads its verdict
    # from the translate of the element outside H, which is P itself.
    for J in all_subgroups(hexH):
        P = type2_partition(hexH, J, J)
        action = color_action(hexH, orbit_table(P, d6))
        perms, kernel, cls = reference_color_action(hexH, P)
        assert (action.permutations, action.kernel.members) == (perms, kernel)
        assert action.classification.verdict == cls[0] == PERFECT


def test_translated_matches_reference():
    G = build_dihedral(12)
    for entry in enumerate_all_semiperfect(G).entries:
        P = entry.spec.partition
        for g in G.elements:
            assert P.translated(g).blocks == reference_translated(P, g)


CENSUS_GROUPS = [f"dihedral:{n}" for n in range(3, 13)] + ["p4m_quotient:1", "p4m_quotient:2"]


@pytest.mark.parametrize("name", CENSUS_GROUPS)
def test_oracles_match_reference_on_census(name):
    kind, n = name.split(":")
    G = build_dihedral(int(n)) if kind == "dihedral" else build_p4m_quotient(int(n))
    entries = enumerate_all_semiperfect(G).entries
    assert entries
    for entry in entries:
        assert_oracles_match_reference(G, entry.spec.partition)


def random_partitions():
    """Sixty random partitions into one to six blocks of each of D_6, D_10
    and ``p4m_quotient:1``, as (group, partitions) pairs."""
    rng = random.Random(13)
    for G in (build_dihedral(6), build_dihedral(10), build_p4m_quotient(1)):
        partitions = []
        for _ in range(60):
            k = rng.randint(1, 6)
            labels = [rng.randrange(k) for _ in G.elements]
            blocks = [[g for g in G.elements if labels[g] == b] for b in set(labels)]
            partitions.append(GroupPartition.from_blocks(G, blocks))
        yield G, partitions


def test_oracles_match_reference_on_random_partitions():
    for G, partitions in random_partitions():
        H = subgroups_of_index(G, 2)[0]
        invariant = 0
        for P in partitions:
            invariant += all(P.is_stabilized_by(h) for h in H.members)
            assert_oracles_match_reference(G, P)
        assert invariant < 60  # mostly not H-invariant


def test_orbit_table_walks_blocks_once_per_element(monkeypatch):
    # One block-image walk per g, against P itself: the stabilizer's cosets
    # give every other translate and block map without a walk.
    calls = []
    plain = GroupPartition._block_image

    def counting(self, images, onto=None):
        calls.append(onto)
        return plain(self, images, onto)

    monkeypatch.setattr(GroupPartition, "_block_image", counting)
    orbit_sizes = Counter()
    for G, partitions in random_partitions():
        for P in partitions:
            calls.clear()
            table = orbit_table(P, G)
            assert calls == [None] * G.order
            orbit_sizes[len(table.translates)] += 1
    assert max(orbit_sizes) > 2 and len(orbit_sizes) > 2


def test_oracles_match_reference_on_unequal_blocks():
    for G in (build_dihedral(8), build_dihedral(12), build_p4m_quotient(1)):
        for H in subgroups_of_index(G, 2):
            y = smallest_outside(H)
            subs = all_subgroups(H)
            for J1, J2 in product(subs, repeat=2):
                if J1.order == J2.order:
                    continue
                P = general_partition(
                    H, [(J1, [G.identity]), (J2.conjugated_by(y), [y])]
                )
                assert len({len(b) for b in P.blocks}) == 2
                assert_oracles_match_reference(G, P)


def test_oracles_match_reference_on_perfect_partitions():
    # The census holds no perfect partition: these are the ones whose
    # whole-group verdict is True, with an orbit of one translate.
    for G in (build_dihedral(6), build_dihedral(8), build_p4m_quotient(1)):
        perfect = 0
        for H in subgroups_of_index(G, 2):
            for J in all_subgroups(H):
                candidates = [type2_partition(H, J, J)]
                candidates += [
                    type1_partition(H, J, r)
                    for r in H.complement()
                    if classify_type1(J, r, H).perfect
                ]
                for P in candidates:
                    assert stabilized_by_whole_group(G, P)
                    assert len(orbit_table(P, G).translates) == 1
                    assert_oracles_match_reference(G, P)
                    perfect += 1
        assert perfect > len(subgroups_of_index(G, 2))
