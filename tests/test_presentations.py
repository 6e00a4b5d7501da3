import string
import time
from itertools import permutations

import pytest

from semicolor.census import GroupAutomorphism
from semicolor.errors import InvalidParameterError, ResourceLimitError
from semicolor.groups import (
    build_dihedral,
    build_p4m_quotient,
    subgroup_from_words,
    subgroups_of_index,
)
from semicolor.presentations import (
    BUILTIN_EMBEDDINGS,
    MAX_INDEX,
    Presentation,
    builtin_presentation,
    low_index_subgroup_count,
)

D6_PRESENTATION = Presentation(("a", "b"), ("aaaaaa", "bb", "abab"))
FREE4 = Presentation(tuple("abcd"), ())
P4M_SUB_COUNTS = [1, 7, 0, 31, 0, 12, 0, 111]  # index 1 to 8


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _relator_holds(steps, images) -> bool:
    k = len(images[0])
    acc = tuple(range(k))
    for gi, inverted in steps:
        p = images[gi]
        if inverted:
            p = _perm_inv(p)
        acc = _perm_mul(acc, p)
    return acc == tuple(range(k))


def _canonical_table(images, k):
    """Renumber points by first visit from the marked point 0, walking the
    generator images and their inverses; None when the walk misses a point,
    that is when the action is not transitive.

    Assignments sharing the stabilizer of 0 agree after this renumbering,
    and conversely.
    """
    steps = list(images) + [_perm_inv(p) for p in images]
    order = [0]
    pos = {0: 0}
    i = 0
    while i < len(order):
        p = order[i]
        i += 1
        for perm in steps:
            q = perm[p]
            if q not in pos:
                pos[q] = len(order)
                order.append(q)
    if len(order) < k:
        return None
    return tuple(tuple(pos[perm[order[i]]] for i in range(k)) for perm in images)


def reference_low_index_count(P: Presentation, k: int) -> int:
    """Brute-force reference for ``low_index_subgroup_count``.

    Index-k subgroups are the point stabilizers of transitive actions on k
    points with a marked point: backtrack over generator images in S_k,
    checking each relator once its highest generator has an image, and
    identify two assignments that agree after ``_canonical_table``.
    """
    ngen = len(P.generators)
    checkable_at = [[] for _ in range(ngen)]
    for steps in P.relator_symbols():
        if steps:
            checkable_at[max(gi for gi, _ in steps)].append(steps)
    perms = list(permutations(range(k)))
    found = set()
    images = []

    def assign(i):
        if i == ngen:
            found.add(_canonical_table(images, k))
            return
        for perm in perms:
            images.append(perm)
            if all(_relator_holds(steps, images) for steps in checkable_at[i]):
                assign(i + 1)
            images.pop()

    assign(0)
    return len(found - {None})


class TestPresentationValidation:
    def test_undeclared_generator_rejected(self):
        with pytest.raises(InvalidParameterError):
            Presentation(("a",), ("ab",))

    def test_generator_names_must_be_single_letters(self):
        with pytest.raises(InvalidParameterError):
            Presentation(("ab",), ())

    def test_unknown_builtin(self):
        with pytest.raises(InvalidParameterError):
            builtin_presentation("p6m")


class TestBuiltinEmbeddings:
    @pytest.mark.parametrize("name", ["p4m", "p4m_sub", "p4m_sub_alt"])
    @pytest.mark.parametrize("N", [2, 4])
    def test_relators_die_in_quotients(self, name, N):
        group = build_p4m_quotient(N)
        P = builtin_presentation(name)
        values = P.evaluate_in(group, BUILTIN_EMBEDDINGS[name])
        assert all(v == group.identity for v in values)

    def test_sub_embeddings_generate_index_two_subgroups(self, g4):
        for name in ("p4m_sub", "p4m_sub_alt"):
            words = ",".join(BUILTIN_EMBEDDINGS[name][g] for g in "abxy")
            H = subgroup_from_words(g4, words)
            assert H.order * 2 == g4.order

    @pytest.mark.parametrize(
        "change",
        [{"a": -1}, {"a": 999}, {"a": True}, {"z": 0}],
        ids=["negative", "out-of-range", "bool", "not-a-generator"],
    )
    def test_evaluate_in_rejects_bad_images(self, g2, change):
        images = {**BUILTIN_EMBEDDINGS["p4m"], **change}
        with pytest.raises(InvalidParameterError):
            builtin_presentation("p4m").evaluate_in(g2, images)

    def test_evaluate_in_takes_element_indices(self, g2):
        images = {name: g2.element(word) for name, word in BUILTIN_EMBEDDINGS["p4m"].items()}
        values = builtin_presentation("p4m").evaluate_in(g2, images)
        assert values == [g2.identity] * len(values)


def _resolver_errors(images):
    """The error texts of the two callers of ``FiniteGroup.generator_images``
    on the same D_6 images."""
    d6 = build_dihedral(6)
    errors = []
    for resolve in (GroupAutomorphism.from_generator_images, D6_PRESENTATION.evaluate_in):
        with pytest.raises(InvalidParameterError) as caught:
            resolve(d6, images)
        errors.append(str(caught.value))
    return errors


@pytest.mark.parametrize(
    "image, error",
    [
        (True, "unknown element index True"),
        (-1, "unknown element index -1"),
        (12, "unknown element index 12"),
        (1.5, "unknown element index 1.5"),
        ("zz", "unknown generator 'z' in word 'zz'; known: ['a', 'b']"),
    ],
    ids=["bool", "negative", "group-order", "float", "unknown-word"],
)
def test_both_resolvers_reject_a_bad_image_alike(image, error):
    assert _resolver_errors({"a": image, "b": "ab"}) == [error, error]


def test_both_resolvers_check_the_names_alike():
    error = "generator images must name exactly the generators ['a', 'b']"
    assert _resolver_errors({"a": "a"}) == [error, error]
    assert _resolver_errors({"a": "a", "b": "b", "c": "e"}) == [error, error]


def test_each_image_is_resolved_when_it_is_reached():
    # a -> a^2 extends to no automorphism, which the automorphism finds
    # before it reads b's image; evaluate_in reads every image first.
    assert _resolver_errors({"a": "a2", "b": 99}) == [
        "generator images do not extend to an automorphism (at a)",
        "unknown element index 99",
    ]


class TestLowIndexCounts:
    def test_whole_group_counts_once(self):
        assert low_index_subgroup_count(builtin_presentation("p4m"), 1) == 1

    @pytest.mark.parametrize("name", ["p4m", "p4m_sub", "p4m_sub_alt"])
    def test_square_lattice_group_has_seven_halvings_and_no_thirds(self, name):
        P = builtin_presentation(name)
        assert low_index_subgroup_count(P, 2) == 7
        assert low_index_subgroup_count(P, 3) == 0

    @pytest.mark.parametrize("name", ["p4m", "p4m_sub"])
    def test_square_lattice_counts_up_to_index_eight(self, name):
        P = builtin_presentation(name)
        assert [low_index_subgroup_count(P, k) for k in range(1, 9)] == P4M_SUB_COUNTS

    @pytest.mark.parametrize(
        "P, top",
        [
            (D6_PRESENTATION, 4),
            (builtin_presentation("p4m"), 4),
            (builtin_presentation("p4m_sub"), 4),
            (builtin_presentation("p4m_sub_alt"), 4),
            (Presentation(("a", "b"), ("aa", "bb")), 4),
            (FREE4, 3),
        ],
        ids=["dihedral:6", "p4m", "p4m_sub", "p4m_sub_alt", "infinite-dihedral", "free4"],
    )
    def test_matches_brute_force_reference(self, P, top):
        for k in range(1, top + 1):
            assert low_index_subgroup_count(P, k) == reference_low_index_count(P, k), k

    def test_matches_finite_quotient_at_modulus_four(self, g4):
        # Index-2 subgroups contain every square, so they all survive in the
        # modulus-4 quotient and the two routes must agree.
        assert low_index_subgroup_count(builtin_presentation("p4m"), 2) == len(
            subgroups_of_index(g4, 2)
        )
        H = subgroup_from_words(g4, "a,ab,xy,Xy")
        assert low_index_subgroup_count(builtin_presentation("p4m_sub"), 2) == len(
            subgroups_of_index(H, 2)
        )

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_quotient_never_sees_more_than_the_presentation(self, N):
        # Index-k subgroups of H / N Z^2 are the index-k subgroups of H that
        # contain N Z^2, so a quotient count never exceeds the presentation's
        # and equals it where the quotient sees every index-k subgroup.
        H = subgroup_from_words(build_p4m_quotient(N), "a,ab,xy,Xy")
        seen = [len(subgroups_of_index(H, k)) for k in range(1, 9)]
        assert all(q <= c for q, c in zip(seen, P4M_SUB_COUNTS))
        full = {4: [4], 6: [6], 8: [4, 8]}.get(N, [])
        assert all(seen[k - 1] == P4M_SUB_COUNTS[k - 1] for k in full)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dihedral_cross_check(self, d6, k):
        assert low_index_subgroup_count(D6_PRESENTATION, k) == len(
            subgroups_of_index(d6, k)
        )

    def test_resource_limits(self):
        # An index above MAX_INDEX is refused before any search.
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            low_index_subgroup_count(Presentation(("a",), ("a",)), MAX_INDEX + 1)
        assert time.perf_counter() - started < 0.1
        # The free group on four generators has 8,563,601 subgroups of index
        # 5. The table budget refuses it in about 2 s on a 2-vCPU host, and
        # 26 free generators at MAX_INDEX, whose search fills entries 26 *
        # MAX_INDEX deep, in about 4 s: never RecursionError, never a hang.
        free26 = Presentation(tuple(string.ascii_lowercase), ())
        for P, k in [(FREE4, 5), (free26, MAX_INDEX)]:
            started = time.perf_counter()
            with pytest.raises(ResourceLimitError):
                low_index_subgroup_count(P, k)
            assert time.perf_counter() - started < 20
        with pytest.raises(InvalidParameterError):
            low_index_subgroup_count(D6_PRESENTATION, 0)

    def test_free_product_style_counts(self):
        # Independent sanity case with known answer: the infinite dihedral
        # group has three index-2 subgroups, like any quotient of it.
        P = Presentation(("a", "b"), ("aa", "bb"))
        assert low_index_subgroup_count(P, 2) == 3
