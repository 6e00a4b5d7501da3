import hashlib
from itertools import combinations, product

import pytest

from semicolor import groups
from semicolor.errors import InvalidParameterError, ResourceLimitError
from semicolor.groups import (
    build_dihedral,
    build_p4m_quotient,
    conjugacy_classes_of_subgroups,
    generating_words,
    group_from_descriptor,
    index_two_subgroups,
    left_coset_reps,
    normalizer,
    parse_group_arg,
    perfect_coset_count,
    right_coset_reps_outside,
    subgroup_from_words,
    subgroup_generated,
    subgroups_of_index,
    subgroups_of_index_at_most,
    whole_group,
    all_subgroups,
    Subgroup,
)
from semicolor.partitions import classify_type1


def brute_force_subgroups(group):
    """Independent oracle: every closed subset found by subset sweep."""
    elems = [g for g in group.elements if g != group.identity]
    found = []
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            members = set(combo) | {group.identity}
            if group.order % len(members):
                continue
            closed = all(
                group.mul(a, b) in members and group.inv(a) in members
                for a in members
                for b in members
            )
            if closed:
                found.append(tuple(sorted(members)))
    return sorted(found)


class TestDihedral:
    def test_order_and_labels(self, d6):
        assert d6.order == 12
        assert d6.labels == (
            "e", "a", "a^2", "a^3", "a^4", "a^5",
            "b", "ab", "a^2b", "a^3b", "a^4b", "a^5b",
        )

    def test_reflection_relation(self, d6):
        ab = d6.element("ab")
        assert d6.mul(ab, ab) == d6.identity

    def test_axioms_exhaustive(self, d6):
        assert d6.check_associativity()
        for g in d6.elements:
            assert d6.mul(g, d6.inv(g)) == d6.identity

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            build_dihedral(0)

    def test_deterministic_reconstruction(self, d6):
        again = build_dihedral(6)
        assert again.labels == d6.labels
        assert again.table == d6.table

    def test_word_parsing(self, d6):
        assert d6.element("a^2b") == d6.element("a2b")
        assert d6.element("e") == d6.identity
        assert d6.element("A") == d6.element("a5")
        with pytest.raises(InvalidParameterError):
            d6.element("q2")

    def test_element_orders(self, d6):
        assert d6.element_orders[d6.element("a")] == 6
        assert d6.element_orders[d6.element("a3")] == 2
        assert d6.element_orders[d6.element("b")] == 2


class TestP4mQuotient:
    def test_orders(self, g2):
        assert g2.order == 32
        assert build_p4m_quotient(1).order == 8

    def test_point_group_is_closed(self):
        from semicolor.groups import SQUARE_POINT_GROUP, _mat_mul

        mats = set(SQUARE_POINT_GROUP)
        assert len(mats) == 8
        for m1 in mats:
            for m2 in mats:
                assert _mat_mul(m1, m2) in mats

    def test_translations_collapse_at_modulus_one(self):
        g1 = build_p4m_quotient(1)
        assert g1.element("x") == g1.identity
        assert g1.element("y") == g1.identity

    def test_quarter_turn_conjugates_translations(self, g2):
        a, x, y = g2.element("a"), g2.element("x"), g2.element("y")
        assert g2.conj(x, a) == y
        assert g2.conj(y, a) == g2.inv(x)

    def test_mirror_conjugates_translations(self, g2):
        b, x, y = g2.element("b"), g2.element("x"), g2.element("y")
        assert g2.conj(x, b) == x
        assert g2.conj(y, b) == g2.inv(y)

    def test_axioms(self, g2):
        assert g2.check_associativity()

    def test_pmm_color_group_has_index_two(self, g2, pmmH):
        assert pmmH.order == 16
        assert pmmH.index == 2

    # sha256 of the space-joined labels, recorded before the table was
    # built by slices.
    LABEL_DIGESTS = {
        1: "08746eaeb30df83ff486511f4156e272cd30acc185605fe33b0ac42317626b04",
        2: "90c8369f1106ef1ab4ba2ff7e96b371ff58993b0f11ec41d22035ab9ff1aef3a",
        3: "1d71574a50e62b205d1d1d8283ece6917d3863ba13534604c26d7f655203933c",
        4: "7bb626b1cad1738940a04247e357bd0c58a3091bb81a47121b755f648bd494a0",
        5: "d2e63ab0ad7415a737fd09264c1b87dce7d047ba4cca225f45110b922243cb7f",
    }

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_table_is_the_semidirect_product(self, N):
        # (M1,t1)(M2,t2) = (M1*M2, t1 + M1*t2 mod N), element by element.
        from semicolor.groups import SQUARE_POINT_GROUP as mats

        g = build_p4m_quotient(N)
        elements = [(mi, (t1, t2)) for mi in range(8) for t1 in range(N) for t2 in range(N)]
        index = {el: k for k, el in enumerate(elements)}
        for (m1, t), row in zip(elements, g.table):
            for (m2, u), product_ in zip(elements, row):
                a, b = mats[m1], mats[m2]
                ab = tuple(
                    tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                    for i in range(2)
                )
                moved = tuple((t[i] + a[i][0] * u[0] + a[i][1] * u[1]) % N for i in range(2))
                assert product_ == index[mats.index(ab), moved]
        assert g.generators == {
            "a": index[1, (0, 0)], "b": index[4, (0, 0)],
            "x": index[0, (1 % N, 0)], "y": index[0, (0, 1 % N)],
        }
        assert hashlib.sha256(" ".join(g.labels).encode()).hexdigest() == self.LABEL_DIGESTS[N]

    def test_uppercase_words_are_inverses(self, g4):
        assert g4.element("xY") == g4.mul(g4.element("x"), g4.inv(g4.element("y")))


def naive_closure(group, seed):
    """Independent oracle: multiply all pairs until nothing new appears."""
    members = set(seed) | {group.identity}
    while True:
        new = {group.mul(a, b) for a in members for b in members} - members
        if not new:
            return tuple(sorted(members))
        members |= new


class TestClosure:
    @pytest.mark.parametrize("descriptor, n_subgroups", [
        ("dihedral:12", 34), ("p4m_quotient:2", 106),
    ])
    def test_every_element_pair(self, descriptor, n_subgroups):
        group = group_from_descriptor(parse_group_arg(descriptor))
        for seed in product(group.elements, repeat=2):
            assert subgroup_generated(group, seed).members == naive_closure(group, seed)
        assert len(all_subgroups(group)) == n_subgroups

    def test_every_seed_of_the_lattice_search(self, g2, monkeypatch):
        H = subgroup_from_words(g2, "a,ab,xy,Xy")
        seeds = []
        close = groups._close_under_products

        def recording(group, seed):
            seed = tuple(seed)
            seeds.append(seed)
            return close(group, seed)

        monkeypatch.setattr(groups, "_close_under_products", recording)
        subs = groups._cyclic_extension(H)
        monkeypatch.undo()
        assert len(subs) == 35
        # One closure per right coset outside each subgroup of the lattice.
        assert len(seeds) == sum(H.order // K.order - 1 for K in subs)
        for seed in seeds:
            assert close(g2, seed) == naive_closure(g2, seed)


def saturating_subgroups(universe):
    """Reference search: adjoin every element outside each found subgroup
    and close all of its members with it, until nothing new appears."""
    group = universe.group
    found = {(group.identity,)}
    frontier = [(group.identity,)]
    while frontier:
        nxt = []
        for members in frontier:
            mem = set(members)
            for g in universe.members:
                if g not in mem:
                    bigger = groups._close_under_products(group, members + (g,))
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


@pytest.mark.parametrize(
    "descriptor",
    [f"dihedral:{n}" for n in (*range(1, 13), 16, 24)]
    + [f"p4m_quotient:{n}" for n in range(1, 5)],
)
def test_all_subgroups_matches_saturating_search(descriptor):
    group = group_from_descriptor(parse_group_arg(descriptor))
    universes = [whole_group(group), subgroup_generated(group, [])]
    universes += subgroups_of_index(group, 2)
    for universe in universes:
        want = saturating_subgroups(universe)
        got = [s.members for s in all_subgroups(universe)]
        assert got == want, generating_words(universe)
        # The 2-groups among these descend, so cyclic extension is held
        # against the reference here too.
        extended = sorted(s.members for s in groups._cyclic_extension(universe))
        assert extended == sorted(want), generating_words(universe)


def test_descent_matches_cyclic_extension_on_large_color_groups():
    # The two standard color groups of p4m_quotient:8 have order 256 and
    # 1,103 subgroups each: the largest 2-group lattices of a census.
    G = build_p4m_quotient(8)
    for words in ("a,ab,xy,Xy", "xa,ab,xy,Xy"):
        H = subgroup_from_words(G, words)
        descended = [s.members for s in all_subgroups(H)]
        assert len(descended) == 1103
        assert descended == sorted(
            (s.members for s in groups._cyclic_extension(H)), key=lambda m: (len(m), m)
        )


@pytest.fixture(scope="module")
def above_search_bound():
    # Orders 1024 (a 2-group) and 514 (not one); the first takes about 1 s to build.
    return {n: whole_group(build_dihedral(n)) for n in (512, 257)}


@pytest.mark.parametrize("n, bound, refused, count", [
    (512, None, True, None),  # the whole lattice
    (257, 2, True, None),
    (512, 4, False, 9),  # a capped descent
])
def test_lattice_walk_refusal(above_search_bound, n, bound, refused, count):
    U = above_search_bound[n]
    bound = U.order if bound is None else bound
    if refused:
        with pytest.raises(ResourceLimitError, match=str(groups.MAX_SEARCH_ORDER)):
            subgroups_of_index_at_most(U, bound)
    else:
        assert len(subgroups_of_index_at_most(U, bound)) == count


class TestSubgroupMachinery:
    def test_generated_subgroup_of_index_two(self, d6, hexH):
        assert hexH.order == 6
        assert hexH.index == 2
        assert hexH.label_list() == ["e", "a^2", "a^4", "b", "a^2b", "a^4b"]

    def test_empty_generators_give_trivial(self, d6):
        triv = subgroup_generated(d6, [])
        assert triv.members == (d6.identity,)

    def test_unknown_element_rejected(self, d6):
        with pytest.raises(InvalidParameterError):
            subgroup_generated(d6, [99])

    def test_closure_idempotent(self, d6, hexH):
        assert subgroup_generated(d6, hexH.members).members == hexH.members

    def test_all_subgroups_against_subset_oracle(self, d6):
        expected = brute_force_subgroups(d6)
        got = [s.members for s in all_subgroups(d6)]
        assert sorted(got) == expected
        assert len(got) == 16

    def test_subgroups_of_subgroup(self, d6, hexH):
        subs = all_subgroups(hexH)
        assert len(subs) == 6
        trivial = all_subgroups(subgroup_generated(d6, []))
        assert len(trivial) == 1

    def test_index_two_fast_path_matches_filter(self, d6, g2):
        for group in (d6, g2):
            full = {
                s.members
                for s in all_subgroups(group)
                if s.order * 2 == group.order
            }
            fast = {s.members for s in index_two_subgroups(group)}
            assert fast == full

    def test_subgroups_of_index(self, d6):
        idx2 = subgroups_of_index(d6, 2)
        assert [generating_words(s) for s in idx2] == ["<a>", "<a^2,b>", "<a^2,ab>"]
        assert subgroups_of_index(d6, 1) == [whole_group(d6)]
        assert len(subgroups_of_index(d6, 12)) == 1
        # The order-32 groups are 2-groups, which descend only to index k.
        for G in (d6, build_p4m_quotient(2), build_dihedral(16)):
            lattice = saturating_subgroups(whole_group(G))
            for k in range(1, G.order + 1):
                if G.order % k == 0:
                    want = sorted(m for m in lattice if len(m) * k == G.order)
                    assert [s.members for s in subgroups_of_index(G, k)] == want, k

    def test_resource_bound(self):
        # dihedral:257 has order 514, above the search bound, and is no 2-group.
        with pytest.raises(ResourceLimitError) as err:
            all_subgroups(build_dihedral(257))
        assert str(groups.MAX_SEARCH_ORDER) in str(err.value)

    @pytest.mark.parametrize("build, param", [(build_dihedral, 1025), (build_p4m_quotient, 17)])
    def test_table_bound(self, build, param):
        # Orders 2050 and 2312: refused before any table is allocated.
        with pytest.raises(ResourceLimitError) as err:
            build(param)
        assert str(groups.MAX_TABLE_ORDER) in str(err.value)

    def test_p4m_quotient_has_seven_index_two_subgroups(self, g4):
        H = subgroup_from_words(g4, "a,ab,xy,Xy")
        assert H.order == 64
        assert len(subgroups_of_index(H, 2)) == 7
        assert len(subgroups_of_index(g4, 2)) == 7


class TestIndexBoundedPools:
    # <a,ab,xy,Xy> has order 16 and takes the index-2 descent; <a^2,b> has
    # order 6 and takes the lattice filter.  Both paths agree on every bound.
    POOLS = [("p4m_quotient:2", "a,ab,xy,Xy"), ("dihedral:6", "a2,b")]

    @pytest.mark.parametrize("descriptor, words", POOLS)
    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, descriptor, words, bound):
        U = subgroup_from_words(group_from_descriptor(parse_group_arg(descriptor)), words)
        with pytest.raises(InvalidParameterError, match="index bound"):
            subgroups_of_index_at_most(U, bound)

    @pytest.mark.parametrize("descriptor, words", POOLS)
    def test_bound_one_is_the_universe(self, descriptor, words):
        U = subgroup_from_words(group_from_descriptor(parse_group_arg(descriptor)), words)
        assert subgroups_of_index_at_most(U, 1) == [U]


class TestCosetsAndNormalizers:
    def test_normalizer_inside_group_and_subgroup(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        assert normalizer(whole_group(d6), Jb).label_list() == ["e", "a^3", "b", "a^3b"]
        assert normalizer(hexH, Jb).label_list() == ["e", "b"]

    def test_normalizer_of_normal_subgroup(self, d6):
        J = subgroup_from_words(d6, "a2")
        assert normalizer(whole_group(d6), J).order == 12

    def test_left_coset_reps(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        reps = left_coset_reps(hexH, subgroup_from_words(d6, "b"))
        assert [d6.labels[r] for r in reps] == ["e", "a^2", "a^4"]
        assert left_coset_reps(hexH, hexH) == [d6.identity]
        with pytest.raises(InvalidParameterError):
            left_coset_reps(Jb, hexH)

    def test_left_coset_reps_partition_overgroup(self, d6, hexH):
        for K in all_subgroups(hexH):
            reps = left_coset_reps(hexH, K)
            assert len(reps) * K.order == hexH.order
            covered = set()
            for rep in reps:
                coset = {d6.mul(rep, k) for k in K.members}
                assert not (coset & covered)
                covered |= coset
            assert covered == set(hexH.members)

    def test_right_coset_reps_outside(self, d6, hexH):
        Jb = subgroup_from_words(d6, "b")
        assert [d6.labels[r] for r in right_coset_reps_outside(Jb, d6, hexH)] == [
            "a", "a^3", "a^5",
        ]
        assert [d6.labels[r] for r in right_coset_reps_outside(hexH, d6, hexH)] == ["a"]
        triv = subgroup_generated(d6, [])
        assert len(right_coset_reps_outside(triv, d6, hexH)) == 6

    def test_right_coset_reps_need_index_two(self, d6):
        Jb = subgroup_from_words(d6, "b")
        with pytest.raises(InvalidParameterError):
            right_coset_reps_outside(Jb, d6, Jb)


class TestConjugacyClasses:
    def test_class_representatives(self, d6, hexH):
        classes = conjugacy_classes_of_subgroups(all_subgroups(hexH), whole_group(d6))
        reps = [c[0] for c in classes]
        assert [generating_words(r) for r in reps] == ["<a^2,b>", "<a^2>", "<b>", "{e}"]

    def test_reflection_subgroups_fuse(self, d6, hexH):
        classes = conjugacy_classes_of_subgroups(all_subgroups(hexH), whole_group(d6))
        by_rep = {generating_words(c[0]): len(c) for c in classes}
        assert by_rep == {"<a^2,b>": 1, "<a^2>": 1, "<b>": 3, "{e}": 1}

    def test_class_sizes_match_normalizer_indices(self, d6, hexH):
        classes = conjugacy_classes_of_subgroups(all_subgroups(hexH), whole_group(d6))
        assert sum(len(c) for c in classes) == 6
        for cls in classes:
            ng = normalizer(whole_group(d6), cls[0])
            assert len(cls) * ng.order == d6.order


def naive_conjugacy_classes(subgroups, conjugators):
    """Independent oracle: each orbit conjugated by every member at once."""
    pool = {s.members for s in subgroups}
    classes = []
    while pool:
        rep = min(pool)
        orbit = {rep}
        for t in conjugators.members:
            orbit.add(Subgroup(conjugators.group, rep).conjugated_by(t).members)
        pool -= orbit
        classes.append(sorted(orbit))
    return sorted(classes, key=lambda c: (-len(c[0]), c[0]))


class TestConjugacyOrbitsUnderGenerators:
    @pytest.mark.parametrize("descriptor", [
        "dihedral:6", "dihedral:8", "dihedral:12", "p4m_quotient:1", "p4m_quotient:2",
    ])
    def test_matches_all_member_search(self, descriptor):
        G = group_from_descriptor(parse_group_arg(descriptor))
        for H in subgroups_of_index(G, 2):
            subs = all_subgroups(H)
            for conjugators in (whole_group(G), H):
                classes = conjugacy_classes_of_subgroups(subs, conjugators)
                assert [[s.members for s in c] for c in classes] == (
                    naive_conjugacy_classes(subs, conjugators)
                )

    def test_family_not_closed_under_conjugation_rejected(self, d6, hexH):
        with pytest.raises(InvalidParameterError, match="leaves the given subgroup family"):
            conjugacy_classes_of_subgroups([subgroup_from_words(d6, "b")], whole_group(d6))


def exhaustive_generating_words(sub):
    """The display word by closing every 1-, 2- and 3-element subset in
    lexicographic order; generating_words must return the same word."""
    group = sub.group
    if sub.order == 1:
        return "{e}"
    non_identity = [m for m in sub.members if m != group.identity]
    sizes = (1, 2) if len(non_identity) > 24 else (1, 2, 3)
    for size in sizes:
        for gens in combinations(non_identity, size):
            if groups._close_under_products(group, gens) == sub.members:
                return "<" + ",".join(group.labels[g] for g in gens) + ">"
    return "<" + ",".join(group.labels[g] for g in groups._greedy_generators(sub)) + ">"


def test_generating_words_matches_exhaustive_search():
    subs = []
    for descriptor in (
        "dihedral:6", "dihedral:8", "dihedral:12", "dihedral:16", "dihedral:24",
        "p4m_quotient:1", "p4m_quotient:2", "p4m_quotient:3",
    ):
        subs += all_subgroups(whole_group(group_from_descriptor(parse_group_arg(descriptor))))
    # Order-64 subgroups hold more than 24 non-identity members, so these
    # take the 1- and 2-element search and the greedy fallback.
    subs += subgroups_of_index_at_most(whole_group(build_p4m_quotient(4)), 8)
    for sub in subs:
        assert generating_words(sub) == exhaustive_generating_words(sub), sub.members
    assert len(subs) == 551


def set_based_normalizes(J, g):
    """Reference test: g normalizes J exactly when the sets g*J and J*g are
    equal.  ``Subgroup.is_normalized_by`` replaced it in the library."""
    G = J.group
    return {G.mul(g, j) for j in J.members} == {G.mul(j, g) for j in J.members}


@pytest.mark.parametrize(
    "descriptor", [f"dihedral:{n}" for n in range(1, 13)] + ["p4m_quotient:1", "p4m_quotient:2"]
)
def test_every_normalizing_test_agrees_with_the_set_based_one(descriptor):
    # is_normalized_by is the one normalizing test; normalizer,
    # classify_type1 and perfect_coset_count all read it.
    G = group_from_descriptor(parse_group_arg(descriptor))
    full = whole_group(G)
    for J in all_subgroups(G):
        members = normalizer(full, J).member_set
        for g in G.elements:
            expected = set_based_normalizes(J, g)
            assert J.is_normalized_by(g) == expected == (g in members), (J, g)
    for H in subgroups_of_index(G, 2):
        for J in all_subgroups(H):
            perfect_cosets = set()
            for r in H.complement():
                expected = set_based_normalizes(J, r)
                assert classify_type1(J, r, H).rep_normalizes == expected, (H, J, r)
                if expected and G.mul(r, r) in J:
                    perfect_cosets.add(frozenset(G.mul(j, r) for j in J.members))
            assert perfect_coset_count(G, H, J) == len(perfect_cosets), (H, J)


class TestPerfectCosetCount:
    def test_worked_values(self, d6, hexH):
        assert perfect_coset_count(d6, hexH, subgroup_from_words(d6, "b")) == 1
        assert perfect_coset_count(d6, hexH, subgroup_generated(d6, [])) == 4
        assert perfect_coset_count(d6, hexH, hexH) == 1

    def test_trivial_case_counts_outside_involutions(self, d6, hexH):
        # Independent oracle: involutions of the reflection coset.
        outside = [g for g in d6.elements if g not in hexH]
        involutions = [g for g in outside if d6.mul(g, g) == d6.identity]
        assert sorted(d6.labels[g] for g in involutions) == ["a^3", "a^3b", "a^5b", "ab"]
        assert perfect_coset_count(d6, hexH, subgroup_generated(d6, [])) == len(involutions)

    def test_bridge_identity(self, d6, hexH):
        for J in all_subgroups(hexH):
            jset = J.member_set
            cosets = set()
            for r in d6.elements:
                if r in hexH:
                    continue
                left = frozenset(d6.mul(r, j) for j in J.members)
                right = frozenset(d6.mul(j, r) for j in J.members)
                if left == right and d6.mul(r, r) in jset:
                    cosets.add(left)
            assert perfect_coset_count(d6, hexH, J) == len(cosets)

    def test_preconditions(self, d6, hexH):
        with pytest.raises(InvalidParameterError):
            perfect_coset_count(d6, hexH, subgroup_from_words(d6, "a"))


class TestDescriptors:
    def test_round_trip(self, d6):
        again = group_from_descriptor(d6.descriptor)
        assert again.labels == d6.labels

    def test_parse_group_arg(self):
        assert parse_group_arg("dihedral:6") == {"kind": "dihedral", "n": 6}
        assert parse_group_arg("p4m_quotient:2") == {"kind": "p4m_quotient", "N": 2}
        for bad in ("dihedral", "dihedral:x", "nope:3"):
            with pytest.raises(InvalidParameterError):
                parse_group_arg(bad)

    def test_subgroup_serialization_is_labels(self, d6, hexH):
        assert Subgroup.from_members(
            d6, [d6.element(w) for w in hexH.label_list()]
        ).members == hexH.members
