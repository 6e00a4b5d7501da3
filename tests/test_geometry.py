from fractions import Fraction

import pytest

from semicolor.errors import UnsupportedPatternError
from semicolor.geometry import (
    PlanarIsometry,
    classify_by_diagram,
    diagram_agrees_with_classifier,
    lift_quotient_element,
    symmetry_diagram,
)
from semicolor.groups import all_subgroups, subgroup_from_words, subgroups_of_index
from semicolor.partitions import classify_type1


class TestPlanarIsometry:
    def test_compose_and_inverse_are_exact(self):
        quarter = PlanarIsometry.of(((0, -1), (1, 0)), (Fraction(1, 2), Fraction(1, 3)))
        mirror = PlanarIsometry.of(((1, 0), (0, -1)), (0, 1))
        both = quarter.compose(mirror)
        p = (Fraction(3, 7), Fraction(5, 11))
        assert both.apply(p) == quarter.apply(mirror.apply(p))
        roundtrip = both.compose(both.inverse())
        assert roundtrip.apply(p) == p

    def test_rejects_non_point_group_matrix(self):
        with pytest.raises(Exception):
            PlanarIsometry.of(((2, 0), (0, 1)), (0, 0))


class TestSymmetryDiagram:
    def test_translation_subgroup_has_empty_diagram(self, g2):
        D = symmetry_diagram(subgroup_from_words(g2, "x,y"))
        assert D.mirrors == D.glides == D.centers == frozenset()

    def test_diagonal_mirror_family(self, g2):
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        D = symmetry_diagram(J)
        assert D.mirrors == frozenset(
            {((1, 1), Fraction(0)), ((1, 1), Fraction(1))}
        )
        assert D.glides == frozenset()
        assert D.centers == frozenset()

    def test_mirror_family_moves_to_other_diagonal(self, g2):
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        D = symmetry_diagram(J)
        moved = D.transformed(lift_quotient_element(g2, g2.element("a2b")))
        assert moved.mirrors == frozenset(
            {((1, -1), Fraction(0)), ((1, -1), Fraction(1))}
        )
        assert moved != D

    def test_rectangular_group_diagram(self, g2, pmmH):
        D = symmetry_diagram(pmmH)
        # Perpendicular mirror families every half unit, twofold turns at
        # their meeting points, no essential glides.
        offsets = {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)}
        assert D.mirrors == frozenset(
            {((1, 0), c) for c in offsets} | {((0, 1), c) for c in offsets}
        )
        assert D.glides == frozenset()
        assert {p for p, order in D.centers} == {
            (x, y) for x in offsets for y in offsets
        }
        assert all(order == 2 for _, order in D.centers)

    def test_diagonal_mirror_with_essential_glides(self, g2):
        D = symmetry_diagram(subgroup_from_words(g2, "ab,x,y"))
        assert D.mirrors == frozenset(
            {((1, -1), Fraction(0)), ((1, -1), Fraction(1))}
        )
        assert D.glides == frozenset(
            {((1, -1), Fraction(1, 2)), ((1, -1), Fraction(3, 2))}
        )

    def test_fourfold_centers(self, g2):
        D = symmetry_diagram(subgroup_from_words(g2, "a,x,y"))
        by_order = {}
        for p, order in D.centers:
            by_order.setdefault(order, set()).add(p)
        assert (Fraction(0), Fraction(0)) in by_order[4]
        assert (Fraction(1, 2), Fraction(1, 2)) in by_order[4]
        assert (Fraction(1, 2), Fraction(0)) in by_order[2]

    def test_lattice_periodicity(self, g2):
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        D = symmetry_diagram(J)
        shift = PlanarIsometry.of(((1, 0), (0, 1)), (2, 0))
        assert D.transformed(shift) == D

    def test_conjugation_identity_everywhere(self, g2):
        for J in all_subgroups(g2):
            D = symmetry_diagram(J)
            for r in g2.elements:
                moved = D.transformed(lift_quotient_element(g2, r))
                assert moved == symmetry_diagram(J.conjugated_by(r))

    def test_requires_quotient_group(self, d6, hexH):
        with pytest.raises(UnsupportedPatternError):
            symmetry_diagram(hexH)


class TestDiagramClassifier:
    def test_worked_example_is_semiperfect(self, g2):
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        assert classify_by_diagram(J, g2.element("a2b")) == "semiperfect"

    def test_worked_example_agrees_with_algebra(self, g2):
        H = subgroup_from_words(g2, "xa,ab,xy,Xy")
        J = subgroup_from_words(g2, "a3b,xy,Xy")
        r = g2.element("a2b")
        assert J.is_subset_of(H) and r not in H
        assert classify_type1(J, r, H).verdict == "semiperfect"
        # The square of the mirror lands in J; only the moved mirror family
        # reveals the verdict.
        assert classify_type1(J, r, H).square_in_core

    def test_translation_group_is_inconclusive(self, g2):
        J = subgroup_from_words(g2, "x,y")
        for r in list(g2.elements)[:8]:
            assert classify_by_diagram(J, r) == "inconclusive"

    def test_soundness_even_without_color_group(self, g2):
        # A moved diagram must always witness a broken normalizer.
        for J in all_subgroups(g2):
            D = symmetry_diagram(J)
            for r in g2.elements:
                if D.transformed(lift_quotient_element(g2, r)) != D:
                    left = {g2.mul(r, j) for j in J.members}
                    right = {g2.mul(j, r) for j in J.members}
                    assert left != right

    def test_soundness_against_classifier_over_color_groups(self, g2):
        for H in subgroups_of_index(g2, 2):
            for J in all_subgroups(H):
                for r in H.complement():
                    assert diagram_agrees_with_classifier(J, r, H)
