import pytest

from semicolor.errors import InvalidParameterError, ResourceLimitError
from semicolor.groups import build_p4m_quotient, subgroup_from_words, subgroups_of_index
from semicolor.presentations import (
    BUILTIN_EMBEDDINGS,
    Presentation,
    builtin_presentation,
    low_index_subgroup_count,
)

D6_PRESENTATION = Presentation(("a", "b"), ("aaaaaa", "bb", "abab"))


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


class TestLowIndexCounts:
    def test_whole_group_counts_once(self):
        assert low_index_subgroup_count(builtin_presentation("p4m"), 1) == 1

    @pytest.mark.parametrize("name", ["p4m", "p4m_sub", "p4m_sub_alt"])
    def test_square_lattice_group_has_seven_halvings_and_no_thirds(self, name):
        P = builtin_presentation(name)
        assert low_index_subgroup_count(P, 2) == 7
        assert low_index_subgroup_count(P, 3) == 0

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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dihedral_cross_check(self, d6, k):
        assert low_index_subgroup_count(D6_PRESENTATION, k) == len(
            subgroups_of_index(d6, k)
        )

    def test_resource_limits(self):
        with pytest.raises(ResourceLimitError):
            low_index_subgroup_count(builtin_presentation("p4m"), 5)
        with pytest.raises(ResourceLimitError):
            low_index_subgroup_count(D6_PRESENTATION, 6)
        with pytest.raises(InvalidParameterError):
            low_index_subgroup_count(D6_PRESENTATION, 0)

    def test_free_product_style_counts(self):
        # Independent sanity case with known answer: the infinite dihedral
        # group has three index-2 subgroups, like any quotient of it.
        P = Presentation(("a", "b"), ("aa", "bb"))
        assert low_index_subgroup_count(P, 2) == 3
