"""Partitions of a finite group into color classes, and their classifiers.

A coloring of a pattern whose tiles correspond one-to-one with group
elements is modeled as a partition of the group; a symmetry permutes the
colors exactly when left translation by it maps blocks onto blocks.  The
constructors here build the two standard families for an index-2 color
group H:

* type 1: blocks ``h * (J u J*r)`` for ``h in H`` (one orbit of colors),
* type 2: left cosets of J1 inside H plus left cosets of J2 outside H
  (two orbits of colors).

Fast classifiers decide perfect versus semiperfect from (J, r) or (J1, J2)
alone; ``partition_stabilizer`` is the brute-force oracle they are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidParameterError, NotAPartitionError
from .groups import FiniteGroup, Subgroup, left_coset_reps

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
        """The left-translated partition ``{g*B : B in blocks}``."""
        table = self.group.table
        return GroupPartition(
            self.group,
            canonical_blocks(tuple(table[g][e] for e in block) for block in self.blocks),
        )

    def _block_image(self, g: int) -> list[int] | None:
        """Where left translation by g sends each block index, or None
        when it splits some block."""
        row = self.group.table[g]
        bid = self.block_of
        image = [-1] * len(self.blocks)
        for e in range(self.group.order):
            src, dst = bid[e], bid[row[e]]
            if image[src] < 0:
                image[src] = dst
            elif image[src] != dst:
                return None
        return image

    def is_stabilized_by(self, g: int) -> bool:
        return self._block_image(g) is not None

    def permutation_induced_by(self, g: int) -> tuple[int, ...]:
        """Block-index permutation of left translation by g."""
        image = self._block_image(g)
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


def _require_index_two(H: Subgroup):
    if 2 * H.order != H.group.order:
        raise InvalidParameterError("the color group H must have index 2")


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
    ``h*K``: [H:K] blocks, one sort of |base| members each.  When K is the
    whole H-stabilizer of ``base`` the blocks are pairwise distinct; all of
    H as ``reps`` builds every translate, repeats included.
    """
    table = group.table
    return [tuple(sorted(table[h][e] for e in base)) for h in reps]


def type1_partition(H: Subgroup, J: Subgroup, r: int) -> GroupPartition:
    """Blocks ``h * (J u J*r)`` for h in H; one H-orbit of [H:J] blocks."""
    _require_index_two(H)
    _require_inside(J, H)
    group = H.group
    if r in H:
        raise InvalidParameterError("the second coset representative r must lie outside H")
    table = group.table
    base = J.members + tuple(table[j][r] for j in J.members)
    # h*(J u J*r) = J u J*r exactly when h*J = J, so J is the stabilizer.
    blocks = _translates(group, left_coset_reps(H, J), base)
    return GroupPartition(group, tuple(sorted(blocks)))


def type2_partition(H: Subgroup, J1: Subgroup, J2: Subgroup, y: int | None = None) -> GroupPartition:
    """Left cosets of J1 inside H together with left cosets of J2 outside H.

    Any admissible ``y`` outside H yields the same partition (the cosets of
    J2 outside H are the H-translates of ``y0 * J2`` for any one ``y0``
    outside H), so ``y`` is only validated, never used.
    """
    _require_index_two(H)
    _require_inside(J1, H, "J1")
    _require_inside(J2, H, "J2")
    group = H.group
    if y is not None and y in H:
        raise InvalidParameterError("y must lie outside H")
    table = group.table
    y0 = smallest_outside(H)
    # h*y0*J2 = y0*J2 exactly when h lies in y0*J2*y0^-1, which H contains
    # because it is normal.
    blocks = _translates(group, left_coset_reps(H, J1), J1.members)
    outside_reps = left_coset_reps(H, J2.conjugated_by(y0))
    blocks += _translates(group, outside_reps, [table[y0][j] for j in J2.members])
    return GroupPartition(group, tuple(sorted(blocks)))


def general_partition(
    H: Subgroup, parts: Sequence[tuple[Subgroup, Iterable[int]]]
) -> GroupPartition:
    """Blocks ``h * J_i * Y_i`` for each part; validated to be a partition.

    The union of the Y_i must hit every coset of H exactly once, otherwise
    the blocks overlap or fail to cover and the construction is rejected.
    """
    group = H.group
    table = group.table
    blocks = set()
    for J, Y in parts:
        _require_inside(J, H, "each part's subgroup")
        base = tuple(sorted({table[j][y] for j in J.members for y in Y}))
        if not base:
            raise InvalidParameterError("each part needs at least one representative")
        # Every translate, so that overlapping families reach the validation.
        blocks.update(_translates(group, H.members, base))
    return GroupPartition.from_blocks(group, blocks)


# -- oracles -------------------------------------------------------------------


def partition_stabilizer(G: FiniteGroup, P: GroupPartition) -> Subgroup:
    """The color group of P: every g with gP = P, found by testing all g."""
    if P.group is not G:
        raise InvalidParameterError("partition belongs to a different group")
    return Subgroup(G, tuple(g for g in G.elements if P.is_stabilized_by(g)))


def equivalence_class(P: GroupPartition, G: FiniteGroup) -> list[GroupPartition]:
    """All distinct translates gP, in canonical order."""
    seen: dict[tuple, GroupPartition] = {}
    for g in G.elements:
        q = P.translated(g)
        seen.setdefault(q.blocks, q)
    return [seen[k] for k in sorted(seen)]


def equivalent(P: GroupPartition, Q: GroupPartition, G: FiniteGroup) -> int | None:
    """Some g with gP = Q, or None; smallest witness wins."""
    for g in G.elements:
        if P.translated(g).blocks == Q.blocks:
            return g
    return None


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
    group = H.group
    if r in H:
        raise InvalidParameterError("r must lie outside H")
    table = group.table
    left = {table[r][j] for j in J.members}
    right = {table[j][r] for j in J.members}
    return TypeOneVerdict(
        rep_normalizes=left == right,
        square_in_core=table[r][r] in J,
    )


def classify_type2(J1: Subgroup, J2: Subgroup, H: Subgroup) -> str:
    """Perfect iff J1 = J2 (for the coset-family form built here)."""
    _require_index_two(H)
    _require_inside(J1, H, "J1")
    _require_inside(J2, H, "J2")
    if J1.group is not J2.group:
        raise InvalidParameterError("subgroups live in different ambient groups")
    return PERFECT if J1.members == J2.members else SEMIPERFECT


def classify_type2_with_reps(J1: Subgroup, J2: Subgroup, y: int, H: Subgroup) -> str:
    """Variant for the representative form ``{h*J1} u {h*J2*y}``.

    That family equals the coset-family form with J2 replaced by its
    y-inverse conjugate, so it is perfect iff J2 equals the conjugate of J1
    by y.
    """
    _require_index_two(H)
    _require_inside(J1, H, "J1")
    _require_inside(J2, H, "J2")
    if y in H:
        raise InvalidParameterError("y must lie outside H")
    return PERFECT if J1.conjugated_by(y).members == J2.members else SEMIPERFECT


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

    def permutation_of(self, h: int) -> tuple[int, ...]:
        return self.permutations[self.H.members.index(h)]


def color_action(H: Subgroup, P: GroupPartition) -> ColorAction:
    """Permutations of block indices induced by each element of the
    index-2 color group H.

    Raises if some member of H fails to permute the blocks.  H then lies in
    the stabilizer of P and has index 2, so P is perfect exactly when one
    element outside H stabilizes it.
    """
    group = H.group
    perms = []
    kernel_members = []
    identity_perm = tuple(range(P.num_blocks))
    for h in H.members:
        perm = P.permutation_induced_by(h)
        perms.append(perm)
        if perm == identity_perm:
            kernel_members.append(h)
    verdict = PERFECT if P.is_stabilized_by(smallest_outside(H)) else SEMIPERFECT
    # Orbits of H on blocks.
    seen: set[int] = set()
    orbits = 0
    for start in range(P.num_blocks):
        if start in seen:
            continue
        orbits += 1
        stack = [start]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(perm[b] for perm in perms)
    kernel = Subgroup(group, tuple(kernel_members))
    cls = Classification(
        verdict=verdict,
        num_colors=P.num_blocks,
        num_color_orbits=orbits,
        kernel_order=kernel.order,
        color_perm_group_order=H.order // kernel.order,
    )
    return ColorAction(H, P, tuple(perms), kernel, cls)


# -- canonical form for shifted one-orbit families -------------------------------


@dataclass(frozen=True)
class NormalizedTypeOne:
    """Canonical data for a family ``{h * J^g * Y}``: a leading translation
    and a plain (J', y') pair realizing the same partition."""

    leading: int
    J: Subgroup
    y: int


def normalize_type1(H: Subgroup, J: Subgroup, g: int, Y: tuple[int, int]) -> NormalizedTypeOne:
    """Rewrite ``{h * (g J g^-1) * Y : h in H}`` as a translate of a plain
    type-1 partition.

    Steps: pull the conjugating element out front, shift by the H-member of
    ``g^-1 Y`` so the representative pair becomes ``{e, y}``, then replace y
    by the smallest member of its right J'-coset.  The rewritten family is
    checked against the input exactly.
    """
    _require_index_two(H)
    _require_inside(J, H)
    group = H.group
    table, inv = group.table, group.inverse
    if len(set(Y)) != 2:
        raise InvalidParameterError("Y must contain two distinct coset representatives")
    shifted = [table[inv[g]][u] for u in Y]
    inside = [u for u in shifted if u in H]
    outside = [u for u in shifted if u not in H]
    if len(inside) != 1 or len(outside) != 1:
        raise InvalidParameterError("Y must represent both cosets of H exactly once")
    x, y = inside[0], outside[0]
    xi = inv[x]
    J_prime = J.conjugated_by(xi)
    target = table[xi][y]
    y_prime = min(table[j][target] for j in J_prime.members)
    leading = table[g][x]

    # The rewrite must reproduce the input family exactly.
    original = general_partition(H, [(J.conjugated_by(g), Y)])
    rewritten = type1_partition(H, J_prime, y_prime).translated(leading)
    if original.blocks != rewritten.blocks:
        raise InvalidParameterError("normalization failed to reproduce the input family")
    return NormalizedTypeOne(leading=leading, J=J_prime, y=y_prime)


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
