"""Symmetry-element diagrams of square-lattice isometry groups, exactly.

A subgroup of a p4m quotient lifts to a set of planar isometries that is
invariant under the modulus-N translation lattice.  Its diagram collects
the mirror axes, essential glide axes and rotation centers of those
isometries, reduced modulo that lattice, with all coordinates kept as exact
rationals.  Because the diagram of a conjugated group is the transformed
diagram, an element that moves the diagram cannot normalize the group;
this yields a purely geometric semiperfectness certificate for one-orbit
colorings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidParameterError, UnsupportedPatternError
from .groups import (
    SQUARE_POINT_GROUP,
    FiniteGroup,
    Subgroup,
    _mat_mul,
    _mat_vec,
    p4m_point_and_translation,
)
from .partitions import SEMIPERFECT, classify_type1

Vec = tuple[Fraction, Fraction]
Mat = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MAT: Mat = ((1, 0), (0, 1))

#: Canonical line normals for the four p4m axis directions.
CANONICAL_NORMALS = ((1, 0), (0, 1), (1, 1), (1, -1))


@dataclass(frozen=True)
class PlanarIsometry:
    """v -> linear*v + translation with a square point-group linear part."""

    linear: Mat
    translation: Vec

    def __post_init__(self):
        if self.linear not in SQUARE_POINT_GROUP:
            raise InvalidParameterError("linear part must belong to the square point group")

    @classmethod
    def of(cls, linear: Mat, translation) -> "PlanarIsometry":
        t = (Fraction(translation[0]), Fraction(translation[1]))
        return cls(linear, t)

    def apply(self, p: Vec) -> Vec:
        m, t = self.linear, self.translation
        return (m[0][0] * p[0] + m[0][1] * p[1] + t[0], m[1][0] * p[0] + m[1][1] * p[1] + t[1])

    def compose(self, other: "PlanarIsometry") -> "PlanarIsometry":
        m = _mat_mul(self.linear, other.linear)
        mt = _mat_vec(self.linear, other.translation)
        return PlanarIsometry(m, (mt[0] + self.translation[0], mt[1] + self.translation[1]))

    def inverse(self) -> "PlanarIsometry":
        mi = _mat_inverse(self.linear)
        mt = _mat_vec(mi, self.translation)
        return PlanarIsometry(mi, (-mt[0], -mt[1]))


def _mat_inverse(m: Mat) -> Mat:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise InvalidParameterError("point-group matrix must have determinant +-1")
    return (
        (m[1][1] * det, -m[0][1] * det),
        (-m[1][0] * det, m[0][0] * det),
    )


def lift_quotient_element(group: FiniteGroup, g: int) -> PlanarIsometry:
    """The representative isometry with translation in the fundamental cell."""
    mi, t = p4m_point_and_translation(group, g)
    return PlanarIsometry.of(SQUARE_POINT_GROUP[mi], t)


# Symmetry elements: ("mirror", normal, offset), ("glide", normal, offset),
# ("rotation", point, order).  Lines are {v : normal . v = offset}.


@dataclass(frozen=True)
class SymmetryDiagram:
    """Mirror axes, essential glide axes and rotation centers mod the lattice."""

    modulus: int
    mirrors: frozenset[tuple[tuple[int, int], Fraction]]
    glides: frozenset[tuple[tuple[int, int], Fraction]]
    centers: frozenset[tuple[Vec, int]]

    def is_empty(self) -> bool:
        return not (self.mirrors or self.glides or self.centers)

    def transformed(self, iso: PlanarIsometry) -> "SymmetryDiagram":
        """The diagram of the transformed isometry set: apply iso pointwise."""
        N = self.modulus
        mirrors = frozenset(_map_line(line, iso, N) for line in self.mirrors)
        glides = frozenset(_map_line(line, iso, N) for line in self.glides)
        centers = frozenset(
            (_reduce_point(iso.apply(p), N), order) for p, order in self.centers
        )
        return SymmetryDiagram(N, mirrors, glides, centers)

    def to_json(self) -> dict:
        def line_json(line):
            (n, c) = line
            return {"normal": list(n), "offset": str(c)}

        return {
            "modulus": self.modulus,
            "mirrors": [line_json(l) for l in sorted(self.mirrors, key=_line_sort_key)],
            "glides": [line_json(l) for l in sorted(self.glides, key=_line_sort_key)],
            "centers": [
                {"point": [str(p[0]), str(p[1])], "order": k}
                for (p, k) in sorted(self.centers, key=lambda c: (c[0], c[1]))
            ],
        }


def _line_sort_key(line):
    (n, c) = line
    return (n, c)


def _reduce_point(p: Vec, N: int) -> Vec:
    return (p[0] % N, p[1] % N)


def _map_line(line, iso: PlanarIsometry, N: int):
    (n, c) = line
    m, t = iso.linear, iso.translation
    n2 = _mat_vec(m, n)
    c2 = c + n2[0] * t[0] + n2[1] * t[1]
    if n2 not in CANONICAL_NORMALS:
        n2 = (-n2[0], -n2[1])
        c2 = -c2
    if n2 not in CANONICAL_NORMALS:
        raise InvalidParameterError("line direction left the square axis system")
    return (n2, c2 % N)


_MIRROR_DATA = {
    # matrix index in SQUARE_POINT_GROUP -> (axis direction, normal)
    4: ((1, 0), (0, 1)),  # mirror across the horizontal axis
    5: ((1, 1), (1, -1)),  # mirror across the main diagonal
    6: ((0, 1), (1, 0)),  # mirror across the vertical axis
    7: ((1, -1), (1, 1)),  # mirror across the anti-diagonal
}

_ROTATION_ORDER = {1: 4, 2: 2, 3: 4}


def symmetry_diagram(J: Subgroup) -> SymmetryDiagram:
    """Diagram of the lift of a p4m-quotient subgroup.

    Translations and the identity contribute nothing (their symmetry
    element is the whole plane).  Axes carrying a pure mirror are mirrors;
    axes carrying only glide reflections are glide lines.  Rotation centers
    keep the highest rotation order present at the point.
    """
    group = J.group
    if group.descriptor.get("kind") != "p4m_quotient":
        raise UnsupportedPatternError(
            "symmetry diagrams are computed for p4m quotient groups only"
        )
    N = group.descriptor["N"]
    mirrors: set[tuple[tuple[int, int], Fraction]] = set()
    glide_candidates: set[tuple[tuple[int, int], Fraction]] = set()
    center_orders: dict[Vec, int] = {}
    for g in J.members:
        mi, t_raw = p4m_point_and_translation(group, g)
        t = (Fraction(t_raw[0]), Fraction(t_raw[1]))
        if mi == 0:
            continue  # identity or translation
        if mi in _ROTATION_ORDER:
            order = _ROTATION_ORDER[mi]
            for p in _center_images(SQUARE_POINT_GROUP[mi], t, N):
                if center_orders.get(p, 0) < order:
                    center_orders[p] = order
            continue
        d, n = _MIRROR_DATA[mi]
        nn = n[0] * n[0] + n[1] * n[1]
        # Lattice shifts move the axis offset by multiples of N/2 and the
        # glide component by correlated multiples of N.
        base_offset = Fraction(n[0] * t[0] + n[1] * t[1], 2)
        glide_units = Fraction(d[0] * t[0] + d[1] * t[1], nn)  # in units of d
        for parity in (0, 1):
            offset = (base_offset + Fraction(N * parity, 2)) % N
            if _has_pure_mirror(nn, glide_units, N, parity):
                mirrors.add((n, offset))
            else:
                glide_candidates.add((n, offset))
    glides = frozenset(glide_candidates - mirrors)
    centers = frozenset((p, k) for p, k in center_orders.items())
    return SymmetryDiagram(N, frozenset(mirrors), glides, centers)


def _has_pure_mirror(nn: int, glide_units: Fraction, N: int, parity: int) -> bool:
    """Can a lattice shift in this offset class cancel the glide component?

    For axis-parallel mirrors (nn == 1) the shift along the axis is free;
    for diagonal mirrors it is tied to the offset parity.
    """
    if nn == 1:
        return (glide_units % N) == 0
    # Diagonal: glide changes by (N/2)*k where k has the parity of the
    # offset shift; cancellation needs glide_units + (N/2)*k == 0.
    k = -glide_units / Fraction(N, 2)
    return k.denominator == 1 and (k.numerator - parity) % 2 == 0


def _center_images(m: Mat, t: Vec, N: int) -> Iterable[Vec]:
    """All distinct centers of the rotation v -> m*v + t composed with
    lattice shifts; each center solves (1 - m) * c = translation."""
    a = ((1 - m[0][0], -m[0][1]), (-m[1][0], 1 - m[1][1]))
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def solve(v):
        return (
            Fraction(a[1][1] * v[0] - a[0][1] * v[1], det),
            Fraction(-a[1][0] * v[0] + a[0][0] * v[1], det),
        )

    base = solve(t)
    shifts = [solve((N, 0)), solve((0, N))]
    out = set()
    for k1 in (0, 1):
        for k2 in (0, 1):
            p = (
                base[0] + k1 * shifts[0][0] + k2 * shifts[1][0],
                base[1] + k1 * shifts[0][1] + k2 * shifts[1][1],
            )
            out.add(_reduce_point(p, N))
    return out


def classify_by_diagram(J: Subgroup, r: int) -> str:
    """Geometric one-sided test: a moved diagram certifies semiperfect.

    Returns "semiperfect" when r maps the diagram of J off itself, and
    "inconclusive" otherwise (a fixed diagram decides nothing).
    """
    D = symmetry_diagram(J)
    rD = D.transformed(lift_quotient_element(J.group, r))
    return SEMIPERFECT if rD != D else "inconclusive"


def diagram_agrees_with_classifier(J: Subgroup, r: int, H: Subgroup) -> bool:
    """Soundness of the geometric test against the algebraic classifier."""
    if classify_by_diagram(J, r) != SEMIPERFECT:
        return True
    return classify_type1(J, r, H).verdict == SEMIPERFECT
