"""Partitions of a finite group into color classes, and their classifiers.

A coloring of a pattern whose tiles correspond one-to-one with group
elements is modeled as a partition of the group; a symmetry permutes the
colors exactly when left translation by it maps blocks onto blocks.  One
constructor, ``general_partition``, builds the paper's partition
``{h * J_i * Y_i : i in I, h in H}`` for a color group H and validates it.
The two standard families for an index-2 color group H are its special
cases:

* type 1: the one part (J, {e, r}), blocks ``h * (J u J*r)`` for ``h in H``
  (one orbit of colors),
* type 2: the parts (J1, {e}) and (y0*J2*y0^-1, {y0}) for y0 outside H,
  the left cosets of J1 inside H plus the left cosets of J2 outside H
  (two orbits of colors).

Fast classifiers decide perfect versus semiperfect from (J, r) or (J1, J2)
alone; ``partition_stabilizer`` and ``stabilized_by_whole_group`` are the
brute-force oracles they are tested against.  Every oracle rests on one
early-exit test, ``GroupPartition._block_image(images, Q)``: does the
element map ``images`` send each block of P into one block of Q?  The map
is a table row ``table[g]`` for left translation by g, or the images of an
automorphism (``verify.action_equivalence_check``).  With Q = P and a
table row it decides whether g stabilizes P.  ``orbit_table`` runs that
test once per g, which gives Stab(P) and the block maps of its members;
by orbit-stabilizer gP depends only on the left coset g*Stab(P), so each
other coset builds its translate once and reads the block maps of its
members off that translate's ``block_of`` without a walk.  The table gives
``equivalence_class`` and the stabilizer of every translate without
building a translate per g.  ``color_action`` reads the permutations of
H's members from those block maps, so it walks no block itself.

No command calls the oracles or ``color_action``: only ``verify`` and the
tests do.  They stay in this module because ``perfbench/tracing.py`` looks
up its traced functions by module name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InvalidParameterError, NotAPartitionError
from .groups import FiniteGroup, Subgroup, _require_index_two, left_coset_reps

PERFECT = "perfect"
SEMIPERFECT = "semiperfect"


@dataclass(frozen=True)
class GroupPartition:
    """A partition of a group's element set, held in canonical form.

    Blocks are sorted tuples, listed in order of their smallest member, so
    two partitions are equal exactly when their canonical forms coincide.
    """

    group: FiniteGroup
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(
        cls, group: FiniteGroup, blocks: Iterable[Iterable[int]]
    ) -> "GroupPartition":
        canon = canonical_blocks(blocks)
        _validate_partition(group, canon)
        return cls(group, canon)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [-1] * self.group.order
        for i, block in enumerate(self.blocks):
            for g in block:
                out[g] = i
        return tuple(out)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def translated(self, g: int) -> "GroupPartition":
        """The left-translated partition ``{g*B : B in blocks}``.

        Translation is a bijection, so the translated blocks are distinct
        and only need sorting, each inside and then among themselves.
        """
        row = self.group.table[g]
        return GroupPartition(
            self.group, tuple(sorted([tuple(sorted([row[e] for e in b])) for b in self.blocks]))
        )

    def _block_image(
        self, images: Sequence[int], onto: "GroupPartition | None" = None
    ) -> list[int] | None:
        """Where the element map e -> ``images[e]`` (a table row ``table[g]``
        for left translation by g, or ``GroupAutomorphism.images``) sends
        each block index of this partition among the blocks of ``onto``
        (default: this partition), or None as soon as some block is split.

        Each block must land inside the block of ``onto`` that holds its
        first member's image.  For a bijection and equally many blocks, a
        full image proves that the mapped partition is ``onto``: the mapped
        blocks are then each inside one block of ``onto`` and cover the
        group, so they are its blocks.
        """
        bid = (self if onto is None else onto).block_of
        image = []
        for block in self.blocks:
            dst = bid[images[block[0]]]
            for e in block:
                if bid[images[e]] != dst:
                    return None
            image.append(dst)
        return image

    def is_stabilized_by(self, g: int) -> bool:
        return self._block_image(self.group.table[g]) is not None

    def permutation_induced_by(self, g: int) -> tuple[int, ...]:
        """Block-index permutation of left translation by g."""
        image = self._block_image(self.group.table[g])
        if image is None:
            raise InvalidParameterError(
                f"{self.group.labels[g]} does not map blocks onto blocks"
            )
        return tuple(image)

    def labels_json(self) -> list[list[str]]:
        labs = self.group.labels
        return [[labs[e] for e in block] for block in self.blocks]

    def key_string(self) -> str:
        labs = self.group.labels
        return "|".join(",".join(labs[e] for e in block) for block in self.blocks)


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    uniq = {tuple(sorted(block)) for block in blocks}
    return tuple(sorted(uniq))


def _validate_partition(group: FiniteGroup, blocks: Sequence[tuple[int, ...]]):
    seen: dict[int, tuple[int, ...]] = {}
    for block in blocks:
        if not block:
            raise NotAPartitionError("empty block")
        for e in block:
            if e in seen:
                raise NotAPartitionError(
                    f"blocks overlap at {group.labels[e]}",
                    colliding=(seen[e], block),
                )
            seen[e] = block
    if len(seen) != group.order:
        missing = [group.labels[e] for e in group.elements if e not in seen]
        raise NotAPartitionError(f"blocks do not cover the group; missing {missing}")


def _require_partition_of(G: FiniteGroup, P: GroupPartition):
    if P.group is not G:
        raise InvalidParameterError("partition belongs to a different group")


def _require_inside(J: Subgroup, H: Subgroup, name: str = "J"):
    if not J.is_subset_of(H):
        raise InvalidParameterError(f"{name} must be a subgroup of H")


# -- constructors --------------------------------------------------------------


def _translates(
    group: FiniteGroup, reps: Iterable[int], base: Sequence[int]
) -> list[tuple[int, ...]]:
    """The blocks ``h * base`` for h in ``reps``, each as a sorted tuple.

    With ``reps`` the left coset representatives in H of a subgroup K of H
    that fixes ``base`` under left translation, these are all the blocks
    ``h * base`` for h in H, because ``h * base`` depends only on the coset
    ``h*K``: [H:K] blocks, one sort of |base| members each.  They are
    pairwise distinct when K is the whole H-stabilizer of ``base``, and
    repeat otherwise.  One ``itemgetter`` reads ``base`` out of each row;
    for a one-element base it returns the element, not a tuple.
    """
    table = group.table
    if len(base) == 1:
        (b,) = base
        return [(table[h][b],) for h in reps]
    images = itemgetter(*base)
    return [tuple(sorted(images(table[h]))) for h in reps]


def general_partition(
    H: Subgroup, parts: Sequence[tuple[Subgroup, Iterable[int]]]
) -> GroupPartition:
    """The partition ``{h * J_i * Y_i : i in I, h in H}``; validated.

    ``h * J * Y`` depends only on the coset ``h*J``, so each part is
    translated by one representative per left coset of J in H.  The union
    of the Y_i must hit every coset of H exactly once, otherwise the blocks
    overlap or fail to cover and the construction is rejected.
    """
    group = H.group
    table = group.table
    blocks = set()
    for J, Y in parts:
        _require_inside(J, H, "each part's subgroup")
        base = tuple(sorted({table[j][y] for j in J.members for y in Y}))
        if not base:
            raise InvalidParameterError("each part needs at least one representative")
        blocks.update(_translates(group, left_coset_reps(H, J), base))
    return GroupPartition.from_blocks(group, blocks)


def type1_partition(H: Subgroup, J: Subgroup, r: int) -> GroupPartition:
    """Blocks ``h * (J u J*r)`` for h in H; one H-orbit of [H:J] blocks."""
    _require_index_two(H)
    _require_inside(J, H)
    group = H.group
    if r in H:
        raise InvalidParameterError("r must lie outside H")
    return general_partition(H, [(J, (group.identity, r))])


def type2_partition(H: Subgroup, J1: Subgroup, J2: Subgroup) -> GroupPartition:
    """Left cosets of J1 inside H together with left cosets of J2 outside H.

    The cosets of J2 outside H are the H-translates of ``y0 * J2`` for any
    one ``y0`` outside H, that is the part ``(y0*J2*y0^-1) * y0``; H
    contains that conjugate because it is normal.
    """
    _require_index_two(H)
    _require_inside(J1, H, "J1")
    _require_inside(J2, H, "J2")
    y0 = smallest_outside(H)
    parts = [(J1, (H.group.identity,)), (J2.conjugated_by(y0), (y0,))]
    return general_partition(H, parts)


# -- oracles -------------------------------------------------------------------


def partition_stabilizer(G: FiniteGroup, P: GroupPartition) -> Subgroup:
    """The color group of P: every g with gP = P, found by testing all g."""
    _require_partition_of(G, P)
    return Subgroup(G, tuple(g for g in G.elements if P.is_stabilized_by(g)))


def stabilized_by_whole_group(G: FiniteGroup, P: GroupPartition) -> bool:
    """Whether every g in G stabilizes P, i.e. P is perfect; the scan
    stops at the first g that splits a block."""
    _require_partition_of(G, P)
    return all(P.is_stabilized_by(g) for g in G.elements)


@dataclass(frozen=True)
class OrbitTable:
    """The G-orbit of a partition P, found by testing every g once.

    ``translates`` lists the distinct gP in order of first appearance, P
    itself first, ``first[i]`` is the smallest g with gP = ``translates[i]``,
    ``index[g]`` is the position of gP in ``translates``, and ``maps[g]`` is
    where left translation by g sends each block index of P among the
    blocks of gP: the block map of ``GroupPartition._block_image``.
    """

    translates: tuple[GroupPartition, ...]
    first: tuple[int, ...]
    index: tuple[int, ...]
    maps: tuple[list[int], ...]

    def stabilizer(self, i: int) -> Subgroup:
        """The stabilizer of ``translates[i]`` = hP, h = ``first[i]``: every
        g with ghP = hP, that is ``index[g*h] == i``."""
        group = self.translates[i].group
        h = self.first[i]
        index = self.index
        return Subgroup(group, tuple(g for g in group.elements if index[group.table[g][h]] == i))


def orbit_table(P: GroupPartition, G: FiniteGroup) -> OrbitTable:
    """The ``OrbitTable`` of P, from one block-image walk per g.

    Every g is tested once against P itself, which gives Stab(P) and the
    block map of each of its members.  By orbit-stabilizer, gP depends only
    on the left coset g*Stab(P): the smallest g not yet placed starts the
    translate Q = gP, and each g*s of its coset sends block B of P to the
    block of Q holding (g*s)*B[0], read off without a walk.
    """
    _require_partition_of(G, P)
    table = G.table
    stabilizer = []
    maps: list[list[int] | None] = [None] * G.order
    for g in G.elements:
        image = P._block_image(table[g])
        if image is not None:
            stabilizer.append(g)
            maps[g] = image
    translates: list[GroupPartition] = [P]
    first: list[int] = [G.identity]
    index = [0] * G.order
    heads = [block[0] for block in P.blocks]
    for g in G.elements:
        if maps[g] is not None:
            continue
        i = len(translates)
        Q = P.translated(g)
        translates.append(Q)
        first.append(g)
        bid, row = Q.block_of, table[g]
        for s in stabilizer:
            gs = row[s]
            index[gs] = i
            moved = table[gs]
            maps[gs] = [bid[moved[b]] for b in heads]
    return OrbitTable(tuple(translates), tuple(first), tuple(index), tuple(maps))


def equivalence_class(P: GroupPartition, G: FiniteGroup) -> list[GroupPartition]:
    """All distinct translates gP, in canonical order."""
    return sorted(orbit_table(P, G).translates, key=lambda q: q.blocks)


# -- fast classifiers ----------------------------------------------------------


@dataclass(frozen=True)
class TypeOneVerdict:
    """Classification of a type-1 pair (J, r) with the reasons recorded."""

    rep_normalizes: bool  # r*J == J*r
    square_in_core: bool  # r*r in J

    @property
    def perfect(self) -> bool:
        return self.rep_normalizes and self.square_in_core

    @property
    def verdict(self) -> str:
        return PERFECT if self.perfect else SEMIPERFECT


def classify_type1(J: Subgroup, r: int, H: Subgroup) -> TypeOneVerdict:
    """Perfect iff r normalizes J and r^2 lies in J."""
    _require_index_two(H)
    _require_inside(J, H)
    if r in H:
        raise InvalidParameterError("r must lie outside H")
    return _type1_verdict(J, r)


def _type1_verdict(J: Subgroup, r: int) -> TypeOneVerdict:
    """``classify_type1`` without its checks, for callers such as
    ``census.type1_cells`` whose grid holds J inside an index-2 H and r
    outside it by construction."""
    return TypeOneVerdict(J.is_normalized_by(r), J.group.table[r][r] in J.member_set)


def classify_type2(J1: Subgroup, J2: Subgroup, H: Subgroup) -> str:
    """Perfect iff J1 = J2 (for the coset-family form built here)."""
    _require_index_two(H)
    _require_inside(J1, H, "J1")
    _require_inside(J2, H, "J2")
    return PERFECT if J1.members == J2.members else SEMIPERFECT


# -- the induced action on colors ----------------------------------------------


@dataclass(frozen=True)
class Classification:
    verdict: str
    num_colors: int
    num_color_orbits: int
    kernel_order: int
    color_perm_group_order: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "numColors": self.num_colors,
            "numColorOrbits": self.num_color_orbits,
            "kernelOrder": self.kernel_order,
            "colorPermGroupOrder": self.color_perm_group_order,
        }


@dataclass(frozen=True)
class ColorAction:
    """The homomorphism from H into the permutations of the blocks."""

    H: Subgroup
    partition: GroupPartition
    permutations: tuple[tuple[int, ...], ...]  # aligned with H.members
    kernel: Subgroup
    classification: Classification


def color_action(H: Subgroup, table: OrbitTable) -> ColorAction:
    """Permutations of block indices induced by each element of the
    index-2 color group H on P = ``table.translates[0]``, read from the
    block maps of ``table`` (``orbit_table(P, G)``); no block is walked.

    Raises if some member of H fails to permute the blocks.  H then lies in
    the stabilizer of P and has index 2, so P is perfect exactly when one
    element outside H stabilizes it.
    """
    group = H.group
    P = table.translates[0]
    perms = []
    kernel_members = []
    identity_perm = tuple(range(P.num_blocks))
    for h in H.members:
        if table.index[h] != 0:
            raise InvalidParameterError(f"{group.labels[h]} does not map blocks onto blocks")
        perm = tuple(table.maps[h])
        perms.append(perm)
        if perm == identity_perm:
            kernel_members.append(h)
    verdict = PERFECT if table.index[smallest_outside(H)] == 0 else SEMIPERFECT
    # Orbits of H on blocks.
    seen: set[int] = set()
    orbits = 0
    for start in range(P.num_blocks):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        stack = [start]
        while stack:
            b = stack.pop()
            for perm in perms:
                c = perm[b]
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    kernel = Subgroup(group, tuple(kernel_members))
    cls = Classification(
        verdict=verdict,
        num_colors=P.num_blocks,
        num_color_orbits=orbits,
        kernel_order=kernel.order,
        color_perm_group_order=H.order // kernel.order,
    )
    return ColorAction(H, P, tuple(perms), kernel, cls)


def smallest_outside(H: Subgroup) -> int:
    """Canonical representative of the nontrivial coset of H: the lowest
    clear bit of ``H.mask``."""
    _require_index_two(H)
    mask = H.mask
    return (~mask & (mask + 1)).bit_length() - 1


def equivalence_key(P: GroupPartition, H: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Canonical form of the orbit {P, yP}: the smaller of the two.

    Any single element outside H produces the whole orbit, because P is
    H-invariant and the orbit of an index-2-stabilized partition has size
    at most 2.
    """
    y = smallest_outside(H)
    return min(P.blocks, P.translated(y).blocks)
