"""Exact arithmetic for small finite groups given by multiplication tables.

Elements are integers ``0..order-1`` in a canonical order fixed by each
construction, so identical descriptors yield identical labels, tables and
coset representatives across runs.  Human-readable labels ("a^2b", "xya^3")
are the single source of element identity in serialized form.

Conjugation acts on the left throughout: the conjugate of ``g`` by ``t`` is
``t*g*t^-1``, and the conjugate of a subgroup ``J`` by ``t`` is ``t*J*t^-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidParameterError, ResourceLimitError

#: Largest ambient group of a whole-lattice or automorphism search (see
#: ``subgroups_of_index_at_most`` for the one walk allowed above it).
MAX_SEARCH_ORDER = 512
#: Largest group whose multiplication table is built: order^2 entries,
#: about 200 MiB at 2048.
MAX_TABLE_ORDER = 2048

#: The eight integer matrices of the square point group, rows-first.
#: Order: rotations by 0/90/180/270 degrees, then each rotation composed
#: with the horizontal mirror (x, y) -> (x, -y).
ROT90 = ((0, -1), (1, 0))
MIRROR_X_AXIS = ((1, 0), (0, -1))


def _mat_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _square_point_group():
    identity = ((1, 0), (0, 1))
    rots = [identity]
    for _ in range(3):
        rots.append(_mat_mul(ROT90, rots[-1]))
    return tuple(rots + [_mat_mul(r, MIRROR_X_AXIS) for r in rots])


SQUARE_POINT_GROUP = _square_point_group()


def _check_table_order(order: int) -> None:
    if order > MAX_TABLE_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds the multiplication-table bound {MAX_TABLE_ORDER}"
        )


def check_search_order(order: int, search: str) -> None:
    if order > MAX_SEARCH_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds the {search} bound {MAX_SEARCH_ORDER}"
        )


_WORD_TOKEN = re.compile(r"([A-Za-z])(\d*)")


class FiniteGroup:
    """A finite group with full multiplication and inverse lookup tables;
    construction checks every group axiom but associativity."""

    def __init__(
        self,
        labels: Sequence[str],
        mul_table: Sequence[Sequence[int]],
        generators: dict[str, int],
        descriptor: dict,
    ):
        n = len(labels)
        if n == 0:
            raise InvalidParameterError("a group needs at least one element")
        self.order = n
        self.labels = tuple(labels)
        self.table = tuple(tuple(row) for row in mul_table)
        self.generators = dict(generators)
        self.descriptor = dict(descriptor)
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != n:
            raise InvalidParameterError("duplicate element labels")
        self._validate_table()
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()

    # -- construction checks -------------------------------------------------

    def _validate_table(self):
        n = self.order
        if len(self.table) != n:
            raise InvalidParameterError(f"multiplication table has {len(self.table)} rows, not {n}")
        if any(g not in range(n) for g in self.generators.values()):
            raise InvalidParameterError(f"generators {self.generators} are not all element indices")
        full = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != full:
                raise InvalidParameterError(f"multiplication row {i} is not a permutation")
        for j in range(n):
            if {row[j] for row in self.table} != full:
                raise InvalidParameterError(f"multiplication column {j} is not a permutation")

    def _find_identity(self) -> int:
        ids = [i for i, row in enumerate(self.table) if list(row) == list(range(self.order))]
        ids = [i for i in ids if all(self.table[g][i] == g for g in range(self.order))]
        if len(ids) != 1:
            raise InvalidParameterError("group table does not have a unique identity")
        return ids[0]

    def _build_inverses(self) -> tuple[int, ...]:
        inv = tuple(row.index(self.identity) for row in self.table)
        for g, h in enumerate(inv):
            if self.table[h][g] != self.identity:
                raise InvalidParameterError(f"element {self.labels[g]} has no two-sided inverse")
        return inv

    def check_associativity(self) -> bool:
        """Light's test, exact at every order: ``(x*s)*y == x*(s*y)`` for all
        x, y and each s of a generating set S.  The s that pass are closed
        under products, as (x*(s*t))*y = ((x*s)*t)*y = (x*s)*(t*y) =
        x*(s*(t*y)) = x*((s*t)*y), so every element passes: order^2*|S| lookups."""
        table = self.table
        for s in _greedy_generators(whole_group(self)):
            s_row = table[s]
            for row in table:  # row of x: x*(s*y) against row of x*s at y
                if tuple(map(row.__getitem__, s_row)) != table[row[s]]:
                    return False
        return True

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, by: int) -> int:
        """Left conjugation: ``by * g * by^-1``."""
        return self.table[self.table[by][g]][self.inverse[by]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverse[g], -k
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][g]
        return acc

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for g in range(self.order):
            k, acc = 1, g
            while acc != self.identity:
                acc = self.table[acc][g]
                k += 1
            orders.append(k)
        return tuple(orders)

    @property
    def elements(self) -> range:
        return range(self.order)

    # -- words and labels ----------------------------------------------------

    def element(self, word: str) -> int:
        """Resolve a generator word to an element index.

        Accepts labels ("a^2b") and compact words ("a2b"); uppercase letters
        denote inverses ("xY" is x*y^-1), "e" is the identity.
        """
        if not isinstance(word, str):
            raise InvalidParameterError(f"element word must be a string, got {word!r}")
        s = word.replace("^", "").replace(" ", "")
        if s in ("", "e"):
            return self.identity
        acc = self.identity
        pos = 0
        for m in _WORD_TOKEN.finditer(s):
            if m.start() != pos:
                raise InvalidParameterError(f"cannot parse element word {word!r}")
            letter, digits = m.group(1), m.group(2)
            name = letter.lower()
            if name == "e" and not digits:
                pos = m.end()
                continue
            if name not in self.generators:
                raise InvalidParameterError(
                    f"unknown generator {letter!r} in word {word!r}; "
                    f"known: {sorted(self.generators)}"
                )
            g = self.generators[name]
            if letter.isupper():
                g = self.inverse[g]
            acc = self.table[acc][self.power(g, int(digits) if digits else 1)]
            pos = m.end()
        if pos != len(s):
            raise InvalidParameterError(f"cannot parse element word {word!r}")
        return acc

    def elements_from_words(self, words: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.element(w) for w in words)

    def generator_images(self, names: Collection[str], images: Mapping) -> Iterator[int]:
        """The image of each of ``names`` in turn: a word or an element index
        (an int in range, not a bool).  The names are checked at once, each
        image only when it is reached, so a caller's earlier fault wins."""
        if set(names) != set(images):
            raise InvalidParameterError(
                f"generator images must name exactly the generators {sorted(names)}"
            )
        return map(self._image_element, map(images.__getitem__, names))

    def _image_element(self, image: str | int) -> int:
        if isinstance(image, str):
            return self.element(image)
        if isinstance(image, bool) or not isinstance(image, int) or not 0 <= image < self.order:
            raise InvalidParameterError(f"unknown element index {image!r}")
        return image

    def __repr__(self):
        return f"FiniteGroup({self.descriptor}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A closed subset of a FiniteGroup, stored as a sorted member tuple."""

    group: FiniteGroup
    members: tuple[int, ...]

    @classmethod
    def from_members(cls, group: FiniteGroup, members: Iterable[int]) -> "Subgroup":
        """The subgroup of exactly ``members``, if the closure walk adds none."""
        elems = tuple(sorted(set(members)))
        sub = subgroup_generated(group, elems)
        if sub.members != elems:
            raise InvalidParameterError("member set is not closed under the group operation")
        return sub

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def mask(self) -> int:
        m = 0
        for g in self.members:
            m |= 1 << g
        return m

    @cached_property
    def _coset_reps(self) -> dict[tuple[int, ...], list[int]]:
        """``left_coset_reps(self, K)`` of each K asked for so far, keyed by
        ``K.members``."""
        return {}

    @property
    def order(self) -> int:
        return len(self.members)

    def is_subset_of(self, other: "Subgroup") -> bool:
        self._check_ambient(other)
        return self.mask & ~other.mask == 0

    def conjugated_by(self, t: int) -> "Subgroup":
        """The subgroup ``t * self * t^-1``."""
        g = self.group
        ti = g.inverse[t]
        return Subgroup(g, tuple(sorted(g.table[g.table[t][m]][ti] for m in self.members)))

    def is_normalized_by(self, g: int) -> bool:
        """Whether ``g * self * g^-1`` is ``self``.  Conjugation is injective,
        so it is once no member's conjugate leaves ``self``; the walk stops
        at the first member whose conjugate does."""
        group = self.group
        row, gi, mem = group.table[g], group.inverse[g], self.member_set
        return all(group.table[row[m]][gi] in mem for m in self.members)

    def is_whole_group(self) -> bool:
        return len(self.members) == self.group.order

    def complement(self) -> tuple[int, ...]:
        mem = self.member_set
        return tuple(g for g in self.group.elements if g not in mem)

    def label_list(self) -> list[str]:
        return [self.group.labels[m] for m in self.members]

    def _check_ambient(self, other: "Subgroup"):
        if other.group is not self.group:
            raise InvalidParameterError("subgroups live in different ambient groups")

    def __contains__(self, g: int) -> bool:
        return g in self.member_set

    def __repr__(self):
        return f"Subgroup({generating_words(self)}, order={self.order})"


def whole_group(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


# -- constructions ------------------------------------------------------------


def build_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: a rotation ``a`` and a reflection ``b``.

    Canonical element order e, a, ..., a^(n-1), b, ab, ..., a^(n-1)b; the
    relations are a^n = b^2 = (ab)^2 = e.
    """
    if n < 1:
        raise InvalidParameterError("dihedral parameter must be a positive integer")
    order = 2 * n
    _check_table_order(order)

    def idx(i, j):
        return i % n + (n if j else 0)

    labels = []
    for j in (0, 1):
        for i in range(n):
            word = ""
            if i == 1:
                word = "a"
            elif i > 1:
                word = f"a^{i}"
            if j:
                word += "b"
            labels.append(word or "e")
    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in (0, 1):
            for k in range(n):
                for l in (0, 1):
                    # (a^i b^j)(a^k b^l): move b^j across a^k.
                    i2 = (i + k) % n if not j else (i - k) % n
                    table[idx(i, j)][idx(k, l)] = idx(i2, (j + l) % 2)
    gens = {"a": idx(1, 0) if n > 1 else idx(0, 0), "b": idx(0, 1)}
    return FiniteGroup(labels, table, gens, {"kind": "dihedral", "n": n})


def build_p4m_quotient(N: int) -> FiniteGroup:
    """Square-lattice wallpaper group modulo the sublattice of index N^2.

    Elements are pairs (point matrix, translation mod N) with product
    ``(M1,t1)(M2,t2) = (M1*M2, t1 + M1*t2)``; order 8*N^2.  Generators:
    ``a`` (quarter turn), ``b`` (horizontal mirror), ``x``/``y`` (unit
    translations).
    """
    if N < 1:
        raise InvalidParameterError("quotient modulus must be a positive integer")
    order = 8 * N * N
    _check_table_order(order)
    nn = N * N

    def idx(mi, t):
        return mi * nn + (t[0] % N) * N + t[1] % N

    labels = []
    for mi in range(8):
        ri, has_b = mi % 4, mi >= 4
        for t1 in range(N):
            for t2 in range(N):
                word = ""
                for sym, k in (("x", t1), ("y", t2)):
                    if k == 1:
                        word += sym
                    elif k > 1:
                        word += f"{sym}^{k}"
                if ri == 1:
                    word += "a"
                elif ri > 1:
                    word += f"a^{ri}"
                if has_b:
                    word += "b"
                labels.append(word or "e")
    # (M1,t1)(M2,t2) = (M1*M2, t1 + M1*t2): the point part depends only on
    # (M1, M2) and the translation part only on (M1, t1, t2).  So the row
    # of g = (M1, t1) is eight slices, one per M2, each adding the base
    # index of M1*M2 to the shared translation indices of t1 + M1*t2.
    mats = SQUARE_POINT_GROUP
    mat_index = {m: i for i, m in enumerate(mats)}
    bases = [[mat_index[_mat_mul(m1, m2)] * nn for m2 in mats] for m1 in mats]
    translations = [divmod(u, N) for u in range(nn)]
    turned = [[idx(0, _mat_vec(m, u)) for u in translations] for m in mats]
    plus = [[idx(0, (t[0] + u[0], t[1] + u[1])) for u in translations] for t in translations]
    table = []
    for mi in range(8):
        for t in range(nn):
            moved = [plus[t][u] for u in turned[mi]]
            table.append([b + m for b in bases[mi] for m in moved])
    gens = {
        "a": idx(1, (0, 0)),
        "b": idx(4, (0, 0)),
        "x": idx(0, (1, 0)),
        "y": idx(0, (0, 1)),
    }
    return FiniteGroup(labels, table, gens, {"kind": "p4m_quotient", "N": N})


def p4m_point_and_translation(group: FiniteGroup, g: int) -> tuple[int, tuple[int, int]]:
    """Decode a p4m-quotient element into (point-matrix index, translation)."""
    if group.descriptor.get("kind") != "p4m_quotient":
        raise InvalidParameterError("element does not belong to a p4m quotient group")
    N = group.descriptor["N"]
    mi, rest = divmod(g, N * N)
    return mi, divmod(rest, N)


def group_from_descriptor(desc: dict) -> FiniteGroup:
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind not in ("dihedral", "p4m_quotient"):
        raise InvalidParameterError(f"unknown group descriptor {desc!r}")
    param = "n" if kind == "dihedral" else "N"
    value = desc.get(param)
    if isinstance(value, bool) or not isinstance(value, int):  # truncate no float or string
        raise InvalidParameterError(f"group descriptor {desc!r} needs an integer {param!r}")
    return build_dihedral(value) if kind == "dihedral" else build_p4m_quotient(value)


def parse_group_arg(text: str) -> dict:
    """Parse CLI group descriptors like ``dihedral:6`` or ``p4m_quotient:2``."""
    kind, sep, param = text.partition(":")
    if not sep:
        raise InvalidParameterError(f"group descriptor {text!r} must look like kind:parameter")
    try:
        value = int(param)
    except ValueError:
        raise InvalidParameterError(f"group parameter in {text!r} must be an integer") from None
    if kind == "dihedral":
        return {"kind": "dihedral", "n": value}
    if kind == "p4m_quotient":
        return {"kind": "p4m_quotient", "N": value}
    raise InvalidParameterError(f"unknown group kind {kind!r}")


# -- subgroup machinery -------------------------------------------------------


def _close_under_products(group: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Sorted members of the subgroup generated by ``seed``.

    Breadth-first search from the identity that multiplies on the right by
    the distinct seed elements only: in a finite group the monoid generated
    by a set S is already the subgroup <S>, so no inverses or two-sided
    products are needed.  Costs |<S>| * |S| table lookups, where closing
    under all pairwise products would cost |<S>|^2.
    """
    table = group.table
    gens = set(seed)
    gens.discard(group.identity)
    members = {group.identity}
    frontier = [group.identity]
    for g in frontier:  # grows while it is walked
        row = table[g]
        for s in gens:
            p = row[s]
            if p not in members:
                members.add(p)
                frontier.append(p)
    return tuple(sorted(members))


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    gens = tuple(gens)
    for g in gens:
        if not 0 <= g < group.order:
            raise InvalidParameterError(f"unknown element index {g}")
    return Subgroup(group, _close_under_products(group, gens))


def subgroup_from_words(group: FiniteGroup, words: Iterable[str] | str) -> Subgroup:
    if isinstance(words, str):
        words = [w for w in words.split(",") if w]
    return subgroup_generated(group, group.elements_from_words(words))


def _as_universe(group_or_subgroup: FiniteGroup | Subgroup) -> Subgroup:
    if isinstance(group_or_subgroup, FiniteGroup):
        return whole_group(group_or_subgroup)
    return group_or_subgroup


def _cyclic_extension(universe: Subgroup) -> list[Subgroup]:
    """Every subgroup of ``universe``, found by cyclic extension (Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 2005, section 3).

    Every subgroup is reached from the trivial one by adjoining one element
    at a time, so adjoining elements to already-found subgroups reaches all
    of them.  For a found K one element g per right coset K*g outside K
    suffices, because <K, k*g> = <K, g> for every k in K; and <K, g> is
    closed from the generators K was found from plus g.  That is [U:K] - 1
    closures for each K in the lattice of the universe U.
    """
    group = universe.group
    trivial = Subgroup(group, (group.identity,))
    found = {trivial.members: trivial}
    frontier = [(trivial, ())]  # (subgroup, generators found from)
    for K, gens in frontier:  # grows while it is walked
        for g in _first_per_coset(group.table, universe.members, K.members, right=True):
            if g in K.member_set:  # K's own coset adds nothing
                continue
            bigger = _close_under_products(group, gens + (g,))
            if bigger not in found:
                found[bigger] = Subgroup(group, bigger)
                frontier.append((found[bigger], gens + (g,)))
    return list(found.values())


def all_subgroups(group_or_subgroup: FiniteGroup | Subgroup) -> list[Subgroup]:
    """Every subgroup of the given group (or of the given subgroup): the
    ``subgroups_of_index_at_most`` walk down to the trivial subgroup.
    Deterministic order: by order, then by member tuple."""
    universe = _as_universe(group_or_subgroup)
    return sorted(
        subgroups_of_index_at_most(universe, universe.order),
        key=lambda s: (s.order, s.members),
    )


def index_two_subgroups(group_or_subgroup: FiniteGroup | Subgroup) -> list[Subgroup]:
    """All index-2 subgroups, via the subgroup generated by squares.

    Index-2 subgroups are exactly the preimages of hyperplanes in the
    elementary abelian quotient by <g^2 : g>, which also contains every
    commutator.
    """
    universe = _as_universe(group_or_subgroup)
    group = universe.group
    squares = _squares(universe)
    # Coset decomposition of the universe by the squares subgroup.
    cosets: list[tuple[int, ...]] = []
    coset_of: dict[int, int] = {}
    for g in universe.members:
        if g in coset_of:
            continue
        c = tuple(sorted(group.table[g][s] for s in squares))
        ci = len(cosets)
        cosets.append(c)
        for h in c:
            coset_of[h] = ci
    k = len(cosets)
    if k == 1:
        return []
    # GF(2) coordinates for each coset relative to a greedy basis.
    basis: list[int] = []
    span = {coset_of[group.identity]: 0}  # coset index -> vector
    for ci in range(k):
        if ci in span:
            continue
        basis.append(ci)
        bit = 1 << (len(basis) - 1)
        for known, v in list(span.items()):
            rep = group.table[cosets[ci][0]][cosets[known][0]]
            span[coset_of[rep]] = v | bit
    rank = len(basis)
    assert len(span) == k == 1 << rank
    subs = []
    for functional in range(1, 1 << rank):
        members: list[int] = []
        for ci, v in span.items():
            if bin(v & functional).count("1") % 2 == 0:
                members.extend(cosets[ci])
        subs.append(Subgroup(group, tuple(sorted(members))))
    return sorted(subs, key=lambda s: s.members)


def _squares(universe: Subgroup) -> tuple[int, ...]:
    """Members of the subgroup generated by the squares of ``universe``.
    The quotient by it is elementary abelian of order 2^r, and ``universe``
    has 2^r - 1 index-2 subgroups."""
    table = universe.group.table
    return _close_under_products(universe.group, (table[g][g] for g in universe.members))


def subgroups_of_index(group_or_subgroup: FiniteGroup | Subgroup, k: int) -> list[Subgroup]:
    """All subgroups of the given index, deterministically ordered: index 2
    without any lattice, a larger one from ``subgroups_of_index_at_most``."""
    universe = _as_universe(group_or_subgroup)
    if k < 1:
        raise InvalidParameterError("index must be a positive integer")
    if k == 1:
        return [universe]
    if universe.order % k != 0:
        return []
    if k == 2:
        return index_two_subgroups(universe)
    return [s for s in subgroups_of_index_at_most(universe, k) if universe.order == k * s.order]


def subgroups_of_index_at_most(universe: Subgroup, bound: int) -> list[Subgroup]:
    """Subgroups of index <= bound inside ``universe``, largest first, then
    by member tuple: the one walk of the subgroup lattice.

    A 2-group is descended by index-2 steps down to index ``bound``: every
    maximal subgroup of a p-group has index p.  Any other universe filters
    the lattice found by cyclic extension.  Above an ambient order of
    MAX_SEARCH_ORDER the walk is refused when it covers the whole lattice
    (bound >= the universe's order) or the universe is not a 2-group.
    """
    if bound < 1:
        raise InvalidParameterError("index bound must be a positive integer")
    group, n = universe.group, universe.order
    two_group = n & (n - 1) == 0
    if bound >= n or not two_group:
        check_search_order(group.order, "subgroup-enumeration")
    if two_group:
        found = {universe.members: universe}
        walk = [universe]
        for sub in walk:  # grows while it is walked
            if 2 * n <= bound * sub.order:  # its index-2 subgroups are within the bound
                for smaller in index_two_subgroups(sub):
                    if smaller.members not in found:
                        found[smaller.members] = smaller
                        walk.append(smaller)
        subs = found.values()
    else:
        subs = [s for s in _cyclic_extension(universe) if s.order * bound >= n]
    return sorted(subs, key=lambda s: (-s.order, s.members))


def _first_per_coset(table, elements: Iterable[int], K: Sequence[int], right=False) -> list[int]:
    """The first of ``elements`` in each left coset g*K (right coset K*g
    when ``right``) they meet, in order: each coset's smallest member among
    them when they ascend.  The one coset walk of both coset lists,
    ``normalizer`` and ``_cyclic_extension``."""
    seen: set[int] = set()
    reps = []
    for g in elements:
        if g in seen:
            continue
        reps.append(g)
        if right:
            seen.update(table[k][g] for k in K)
        else:
            seen.update(map(table[g].__getitem__, K))
    return reps


def normalizer(within: Subgroup, J: Subgroup) -> Subgroup:
    """Elements of ``within`` whose conjugation fixes J setwise.

    With W = ``within`` and K = J n W, w normalizes J exactly when every
    w*k (k in K) does, because K normalizes J.  So N_W(J) is a union of
    left cosets w*K, and one ``is_normalized_by`` test per coset decides
    the whole coset: [W:K] tests instead of |W|.
    """
    within._check_ambient(J)
    table, in_J = J.group.table, J.member_set
    K = [k for k in within.members if k in in_J]
    found: list[int] = []
    for w in _first_per_coset(table, within.members, K):
        if J.is_normalized_by(w):
            found.extend(map(table[w].__getitem__, K))
    return Subgroup(J.group, tuple(sorted(found)))


def left_coset_reps(H: Subgroup, K: Subgroup) -> list[int]:
    """Smallest representative of each left coset of K in H, ascending.

    The list is computed once per ``K.members`` and kept on H, so callers
    share it and must not change it.  K is checked against H on every call,
    before the kept list is read.
    """
    if not K.is_subset_of(H):
        raise InvalidParameterError("coset representatives need K contained in H")
    reps = H._coset_reps.get(K.members)
    if reps is None:
        reps = H._coset_reps[K.members] = _first_per_coset(H.group.table, H.members, K.members)
    return reps


def _require_index_two(H: Subgroup):
    if 2 * H.order != H.group.order:
        raise InvalidParameterError("the color group H must have index 2")


def right_coset_reps_outside(J: Subgroup, G: FiniteGroup, H: Subgroup) -> list[int]:
    """Smallest representative of each right coset of J inside G minus H."""
    if J.group is not G or H.group is not G:
        raise InvalidParameterError("subgroups live in different ambient groups")
    if not J.is_subset_of(H):
        raise InvalidParameterError("J must be contained in H")
    _require_index_two(H)
    return _first_per_coset(G.table, H.complement(), J.members, right=True)


def conjugacy_classes_of_subgroups(
    subgroups: Sequence[Subgroup], conjugators: Subgroup
) -> list[list[Subgroup]]:
    """Partition the given subgroups into conjugation orbits.

    Orbits are searched under a greedy generating set of ``conjugators``
    only: a family closed under conjugation by each generator is closed
    under every product of them, and in a finite group those products are
    the whole subgroup.  Each class is sorted, classes ordered by decreasing
    subgroup order then by the representative's member tuple.
    """
    gens = _greedy_generators(conjugators)
    pool = {s.members: s for s in subgroups}
    classes = []
    while pool:
        rep_key = min(pool)
        orbit = {rep_key: pool.pop(rep_key)}
        queue = [orbit[rep_key]]
        while queue:
            sub = queue.pop()
            for t in gens:
                conj = sub.conjugated_by(t)
                if conj.members not in orbit:
                    if conj.members not in pool:
                        raise InvalidParameterError(
                            "conjugation leaves the given subgroup family"
                        )
                    orbit[conj.members] = pool.pop(conj.members)
                    queue.append(conj)
        classes.append(sorted(orbit.values(), key=lambda s: s.members))
    return sorted(classes, key=lambda c: (-c[0].order, c[0].members))


def perfect_coset_count(G: FiniteGroup, H: Subgroup, J: Subgroup) -> int:
    """Number of right cosets of J outside H whose representatives normalize
    J and square into J.

    Equivalently: involutions of the normalizer-of-J quotient by J that do
    not come from H.  Cosets outside H can never be the identity coset, so
    only order-exactly-2 cosets are counted.  Both tests hold for every
    member of a coset J*r or for none: j*r normalizes J exactly when r
    does, and then (j*r)^2 = j*(r*j*r^-1)*r^2 lies in J exactly when r^2
    does.  So one representative per coset is tested.
    """
    return sum(
        1
        for r in right_coset_reps_outside(J, G, H)
        if G.table[r][r] in J and J.is_normalized_by(r)
    )


# -- display helpers ----------------------------------------------------------


def generating_words(sub: Subgroup) -> str:
    """Short display form like ``<a^2,b>``; trivial subgroup prints ``{e}``."""
    group = sub.group
    if sub.order == 1:
        return "{e}"
    non_identity = [m for m in sub.members if m != group.identity]
    n = len(non_identity)
    # The first 1-, 2- or 3-element subset in lexicographic order that
    # generates sub.  A generating set maps onto one of sub/<squares>, an
    # elementary abelian group of rank r, so it has at least r elements (the
    # bound of Burnside's basis theorem) and smaller sizes are not searched.
    # For a fixed prefix, a candidate inside <prefix, c> for a rejected c
    # generates a subgroup of that proper subgroup, so it is skipped
    # unclosed.
    rank = (sub.order // len(_squares(sub))).bit_length() - 1
    for size in range(max(rank, 1), 3 if n > 24 else 4):
        for prefix in combinations(range(n), size - 1):
            gens = [non_identity[i] for i in prefix]
            rejected: set[int] = set()
            for c in non_identity[prefix[-1] + 1 if prefix else 0:]:
                if c in rejected:
                    continue
                closed = _close_under_products(group, gens + [c])
                if closed == sub.members:
                    return "<" + ",".join(group.labels[g] for g in gens + [c]) + ">"
                rejected.update(closed)
    return "<" + ",".join(group.labels[g] for g in _greedy_generators(sub)) + ">"


def _greedy_generators(sub: Subgroup) -> list[int]:
    """Generators of ``sub``, deterministic but not necessarily minimal:
    each member, in ascending order, that the ones before it do not
    generate."""
    group = sub.group
    gens: list[int] = []
    closed = {group.identity}
    for m in sub.members:
        if len(closed) == sub.order:
            break
        if m not in closed:
            gens.append(m)
            closed = set(_close_under_products(group, gens))
    return gens
