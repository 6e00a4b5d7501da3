"""Census pipelines: enumerate inequivalent semiperfect colorings.

For a fixed index-2 color group H the two-orbit colorings are indexed by
unordered pairs of subgroups of H, and the one-orbit colorings by a
conjugacy-class representative J together with a coset grid (l, r).  When
some element outside H normalizes J the grid double-counts: each
semiperfect partition appears exactly twice, and the pipeline collapses the
pair through a canonical orbit key, the smaller of P and y*P for any y
outside H.  Censuses for different H never overlap, because equivalent
partitions share their stabilizer.

Neither orbit key needs a translation.  Each partition below is the set of
H-translates of one block per H-orbit, the block holding the identity
(element 0 in every construction) comes first in canonical order, and every
block is a sorted tuple:

* type 2: y * P(J1, J2) = P(J2, J1) for every y outside H, and the first
  block of P(J1, J2) is J1 itself.  So the key of the pair is P(lo, hi),
  where lo is whichever of J1, J2 has the smaller member tuple.
* type 1: r^-1 * P(J, r) = P(r^-1*J*r, r^-1), because
  r^-1 * (J u J*r) = r^-1*J*r u (r^-1*J*r)*r^-1.  P(J, r) is the
  H-translates of its identity block B = J u J*r, whose H-stabilizer is
  B n H = J.  B holds r, so r^-1*B is the identity block of r^-1*P; for
  a semiperfect cell it differs from B (else r^-1 would stabilize P), so
  the key is the partition of the smaller of B and r^-1*B.

The census builds no partition for either.  Per color group H it computes
one subgroup pool and the left coset representatives of each J in it; the
blocks h*base are then one sort per representative (``_translates``).  A
type-2 key is ``sorted(inside[lo] + outside[hi])``, with ``inside[J]`` the
left cosets of J and ``outside[J]`` the H-translates of y0*J, both built
once per J.  The ``equivalenceKey`` text of a key joins one stored string
per block.  ``table1`` numbers its cells by the same type-1 identity block
(``_type1_base``), so it neither builds nor translates a partition.
``type1_partition`` and ``type2_partition`` are left to
``ColoringSpec.partition``, ``verify`` and the tests, and the translating
orbit key and ``GroupPartition.translated`` to ``verify`` and the tests.

The classification of each entry follows from H and the subgroups alone.
Every entry is semiperfect by construction (perfect one-orbit cells are
skipped, two-orbit pairs are distinct), and with core_H(K) the largest
subgroup of K normal in H and y0 the smallest element outside H:

* type 1, J' = l*J*l^-1: [H:J'] colors in one orbit, kernel core_H(J');
* type 2: [H:J1] + [H:J2] colors in two orbits, kernel the intersection
  of core_H(J1) and core_H(y0*J2*y0^-1).

``color_action`` and ``partition_stabilizer``, which permute blocks, are
the oracles that ``verify`` and the tests hold these closed forms against;
the census never calls them.

``Census.serialize`` writes the census JSON byte-identical to
``json.dumps(census.to_json(), indent=2, sort_keys=True)``, whose indenting
encoder is pure Python, without calling it on the entries.  Each entry is
a fixed frame, keys in sorted order, joining text encoded once per census:
every element label, the group descriptor, and the label list of each
distinct subgroup.  A value whose key sits d levels deep is the
``json.dumps`` text with every line break followed by d more indents; JSON
text holds no raw newline elsewhere, so escaping stays ``json``'s own.
``Census.to_json`` is kept as the oracle that ``verify`` and the tests hold
the writer against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    configured_max_order,
    conjugacy_classes_of_subgroups,
    generating_words,
    left_coset_reps,
    normalizer,
    perfect_coset_count,
    right_coset_reps_outside,
    subgroup_from_words,
    subgroups_of_index,
    subgroups_of_index_at_most,
    whole_group,
)
from .partitions import (
    PERFECT,
    SEMIPERFECT,
    Classification,
    GroupPartition,
    TypeOneVerdict,
    canonical_blocks,
    classify_type1,
    classify_type2,
    smallest_outside,
    type1_partition,
    type2_partition,
    _translates,
)


# -- coloring specifications ----------------------------------------------------


@dataclass(frozen=True)
class ColoringSpec:
    """Constructive recipe for a coloring plus its realized partition."""

    group: FiniteGroup
    H: Subgroup
    kind: str  # "type1" | "type2"
    J: Subgroup | None = None
    l: int | None = None
    r: int | None = None
    J1: Subgroup | None = None
    J2: Subgroup | None = None
    y: int | None = None

    @classmethod
    def type1(cls, H: Subgroup, J: Subgroup, r: int, l: int | None = None) -> "ColoringSpec":
        l = H.group.identity if l is None else l
        if l not in H:
            raise InvalidParameterError("the conjugating element l must lie in H")
        return cls(group=H.group, H=H, kind="type1", J=J, l=l, r=r)

    @classmethod
    def type2(cls, H: Subgroup, J1: Subgroup, J2: Subgroup, y: int | None = None) -> "ColoringSpec":
        y = smallest_outside(H) if y is None else y
        return cls(group=H.group, H=H, kind="type2", J1=J1, J2=J2, y=y)

    @cached_property
    def partition(self) -> GroupPartition:
        if self.kind == "type1":
            return type1_partition(self.H, self.J.conjugated_by(self.l), self.r)
        return type2_partition(self.H, self.J1, self.J2, self.y)

    def verdict(self) -> str:
        if self.kind == "type1":
            return classify_type1(self.J.conjugated_by(self.l), self.r, self.H).verdict
        return classify_type2(self.J1, self.J2, self.H)

    def to_json(self) -> dict:
        group = self.group
        out: dict = {
            "group": group.descriptor,
            "H": self.H.label_list(),
            "kind": self.kind,
        }
        if self.kind == "type1":
            out["J"] = self.J.label_list()
            out["l"] = group.labels[self.l]
            out["r"] = group.labels[self.r]
        else:
            out["J1"] = self.J1.label_list()
            out["J2"] = self.J2.label_list()
            out["y"] = group.labels[self.y]
        return out

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "ColoringSpec":
        H = subgroup_of_labels(group, _spec_field(data, "H"))
        kind = data.get("kind")
        if kind == "type1":
            return cls.type1(
                H,
                subgroup_of_labels(group, _spec_field(data, "J")),
                group.element(_spec_field(data, "r")),
                group.element(data.get("l", "e")),
            )
        if kind == "type2":
            y = data.get("y")
            return cls.type2(
                H,
                subgroup_of_labels(group, _spec_field(data, "J1")),
                subgroup_of_labels(group, _spec_field(data, "J2")),
                None if y is None else group.element(y),
            )
        raise InvalidParameterError(f"unknown coloring kind {kind!r}")


def _spec_field(data: dict, name: str):
    if name not in data:
        raise InvalidParameterError(f"coloring spec lacks the field {name!r}")
    return data[name]


def subgroup_of_labels(group: FiniteGroup, labels: Iterable[str]) -> Subgroup:
    return Subgroup.from_members(group, (group.element(w) for w in labels))


@dataclass(frozen=True)
class CensusEntry:
    spec: ColoringSpec
    classification: Classification
    key: tuple[tuple[int, ...], ...]
    block_text: Mapping[tuple[int, ...], str] = field(compare=False, repr=False)

    def key_string(self) -> str:
        """``GroupPartition.key_string`` of the key, joined from block texts
        shared with the other entries of the color group."""
        return "|".join(map(self.block_text.__getitem__, self.key))

    def to_json(self) -> dict:
        out = {"spec": self.spec.to_json()}
        out.update(self.classification.to_json())
        out["equivalenceKey"] = self.key_string()
        return out


class _BlockText(dict):
    """The text ``a,b,...`` of each block, built on first use."""

    def __init__(self, labels: Sequence[str]):
        super().__init__()
        self.labels = labels

    def __missing__(self, block: tuple[int, ...]) -> str:
        text = self[block] = ",".join(self.labels[e] for e in block)
        return text


class _BlockTables:
    """What both pipelines of one color group H read per subgroup J of its
    pool: the left coset representatives of J in H, from which every block
    and every core is built, and the text of each block."""

    def __init__(self, G: FiniteGroup, H: Subgroup, max_colors: int | None):
        if H.group is not G:
            raise InvalidParameterError("H belongs to a different group")
        if 2 * H.order != G.order:
            raise InvalidParameterError("H must have index 2")
        self.H = H
        self.max_colors = max_colors
        self.pool = _subgroup_pool(H, max_colors)
        self.reps = {J.members: left_coset_reps(H, J) for J in self.pool}
        self.text = _BlockText(G.labels)

    def core(self, J: Subgroup) -> int:
        """The ``Subgroup.mask`` of core_H(J), the intersection of the
        conjugates t*J*t^-1 for t in H.

        A conjugate depends only on the left coset t*J, so one t per coset
        suffices.
        """
        mask = J.mask
        for t in self.reps[J.members]:
            mask &= J.conjugated_by(t).mask
        return mask

    def entry(
        self, spec: ColoringSpec, key: tuple[tuple[int, ...], ...], kernel: int
    ) -> CensusEntry:
        """The census entry of ``spec``, classified in closed form.

        ``kernel`` is the ``Subgroup.mask`` of the color action's kernel:
        core_H(J') for type 1, the intersection of core_H(J1) and
        core_H(y0*J2*y0^-1) for type 2 (see the module docstring).  The
        verdict is semiperfect, because the pipelines emit no perfect
        coloring; ``color_action`` is the oracle for all of it.
        """
        H = self.H
        if spec.kind == "type1":
            colors, orbits = H.order // spec.J.order, 1
        else:
            colors, orbits = H.order // spec.J1.order + H.order // spec.J2.order, 2
        kernel_order = kernel.bit_count()
        classification = Classification(
            verdict=SEMIPERFECT,
            num_colors=colors,
            num_color_orbits=orbits,
            kernel_order=kernel_order,
            color_perm_group_order=H.order // kernel_order,
        )
        return CensusEntry(spec, classification, key, self.text)


# -- pipelines -------------------------------------------------------------------


def _subgroup_pool(H: Subgroup, max_index: int | None) -> list[Subgroup]:
    if max_index is None:
        return all_subgroups(H)
    return subgroups_of_index_at_most(H, max_index)


def enumerate_type2(
    G: FiniteGroup, H: Subgroup, max_colors: int | None = None
) -> list[CensusEntry]:
    """One census entry per unordered pair {J1, J2} of distinct subgroups of H.

    All entries are semiperfect and pairwise inequivalent; the only other
    partition equivalent to the (J1, J2) entry is its (J2, J1) swap.
    """
    return _type2_entries(_BlockTables(G, H, max_colors))


def _type2_entries(tables: _BlockTables) -> list[CensusEntry]:
    H, cap, reps = tables.H, tables.max_colors, tables.reps
    group = H.group
    # Two colors at least, so a subgroup of index cap belongs to no pair.
    pool = sorted(
        (J for J in tables.pool if cap is None or J.order * (cap - 1) >= H.order),
        key=lambda s: (s.order, s.members),
    )
    y0 = smallest_outside(H)
    cores = {J.members: tables.core(J) for J in pool}
    inside, outside, outside_core = [], [], []
    for J in pool:
        # h*y0*J = y0*J exactly when h lies in y0*J*y0^-1, which H contains
        # because it is normal; core_H(y0*J*y0^-1) is that subgroup's core.
        Jy = J.conjugated_by(y0).members
        base = [group.table[y0][j] for j in J.members]
        inside.append(_translates(group, reps[J.members], J.members))
        outside.append(sorted(_translates(group, reps[Jy], base)))
        outside_core.append(cores[Jy])
    entries = []
    for i, J1 in enumerate(pool):
        for j in range(i + 1, len(pool)):
            J2 = pool[j]
            if cap is not None and H.order // J1.order + H.order // J2.order > cap:
                continue
            # The orbit key P(lo, hi) in closed form (see the module docstring).
            lo, hi = (i, j) if J1.members < J2.members else (j, i)
            key = tuple(sorted(inside[lo] + outside[hi]))
            kernel = cores[J1.members] & outside_core[j]
            entries.append(tables.entry(ColoringSpec.type2(H, J1, J2, y0), key, kernel))
    entries.sort(key=lambda e: e.key)
    _assert_distinct_keys(entries)
    return entries


def enumerate_type1(
    G: FiniteGroup, H: Subgroup, max_colors: int | None = None
) -> list[CensusEntry]:
    """Semiperfect one-orbit colorings, one entry per equivalence class.

    Iterates conjugacy-class representatives J (under conjugation by all of
    G), left coset representatives l of the H-normalizer of J, and right
    coset representatives of the l-conjugate of J outside H; keeps the
    semiperfect cells and collapses equivalent pairs via the orbit key.
    """
    return _type1_entries(_BlockTables(G, H, max_colors))


def _type1_entries(tables: _BlockTables) -> list[CensusEntry]:
    H = tables.H
    group = H.group
    # One entry per identity block of a key (see the module docstring).
    entries: dict[tuple[int, ...], CensusEntry] = {}
    # l lies in H, so core_H(l*J*l^-1) = core_H(J): one core per class.
    cores: dict[tuple[int, ...], int] = {}
    for J, l, r, verdict in _type1_cells(group, H, tables.pool):
        if verdict.perfect:
            continue
        base = _type1_base(group, J.conjugated_by(l), r)
        if base in entries:
            continue
        stabilizer = tuple(e for e in base if e in H)
        key = tuple(sorted(_translates(group, tables.reps[stabilizer], base)))
        if J.members not in cores:
            cores[J.members] = tables.core(J)
        entries[base] = tables.entry(ColoringSpec.type1(H, J, r, l), key, cores[J.members])
    return sorted(entries.values(), key=lambda e: e.key)


def _type1_base(group: FiniteGroup, J: Subgroup, r: int) -> tuple[int, ...]:
    """The identity block of the type-1 orbit key of P(J, r): the smaller of
    B = J u J*r and r^-1*B (see the module docstring).  The key is the set of
    H-translates of this block, so two cells are equivalent exactly when
    their blocks are equal."""
    table = group.table
    block = tuple(sorted(J.members + tuple(table[j][r] for j in J.members)))
    moved = tuple(sorted(table[group.inverse[r]][e] for e in block))
    return min(block, moved)


def type1_cells(
    G: FiniteGroup, H: Subgroup, max_colors: int | None = None
) -> Iterable[tuple[Subgroup, int, int, "TypeOneVerdict"]]:
    """The (J, l, r) grid underlying the one-orbit enumeration.

    Yields base class representatives J with l running over coset
    representatives of the H-normalizer and r over the conjugated right
    coset representatives, in deterministic order.
    """
    return _type1_cells(G, H, _subgroup_pool(H, max_colors))


def _type1_cells(G: FiniteGroup, H: Subgroup, pool: Sequence[Subgroup]):
    classes = conjugacy_classes_of_subgroups(pool, whole_group(G))
    for cls in classes:
        J = cls[0]
        nh = normalizer(H, J)
        L = left_coset_reps(H, nh)
        R = right_coset_reps_outside(J, G, H)
        for l in L:
            Jl = J.conjugated_by(l)
            for r in R:
                rl = G.conj(r, l)
                yield J, l, rl, classify_type1(Jl, rl, H)


def count_semiperfect_type1(G: FiniteGroup, H: Subgroup, J: Subgroup) -> int:
    """Closed-form count of inequivalent semiperfect one-orbit colorings
    contributed by the conjugacy class of J.

    With no normalizing element outside H the whole grid survives; otherwise
    the semiperfect cells pair up and the count halves.
    """
    nh = normalizer(H, J)
    ng = normalizer(whole_group(G), J)
    cosets_l = H.order // nh.order
    cosets_r = H.order // J.order
    if ng.order == nh.order:
        return cosets_l * cosets_r
    return cosets_l * (cosets_r - perfect_coset_count(G, H, J)) // 2


@dataclass
class Census:
    group: FiniteGroup
    entries: list[CensusEntry]
    by_part: dict[tuple[str, str], int]  # (H key, kind) -> entry count
    notes: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        """The census as one JSON value: the oracle of ``serialize``."""
        return {
            "group": self.group.descriptor,
            "total": self.total,
            "byPart": self._by_part_json(),
            "entries": [e.to_json() for e in self.entries],
            "notes": list(self.notes),
        }

    def _by_part_json(self) -> dict[str, int]:
        return {f"{h}|{kind}": n for (h, kind), n in sorted(self.by_part.items())}

    def serialize(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True) + "\\n"``,
        joined from text encoded once per census (see the module docstring)."""
        labels = [json.dumps(label) for label in self.group.labels]
        group = _indented(self.group.descriptor, 4)
        lists: dict[tuple[int, ...], str] = {}  # one label list per subgroup

        def members(S: Subgroup) -> str:
            text = lists.get(S.members)
            if text is None:
                text = lists[S.members] = _indented(S.label_list(), 4)
            return text

        entries = []
        for e in self.entries:
            s, c = e.spec, e.classification
            if s.kind == "type1":
                head = f'"J": {members(s.J)}'
                tail = f'"l": {labels[s.l]},\n        "r": {labels[s.r]}'
            else:
                head = f'"J1": {members(s.J1)},\n        "J2": {members(s.J2)}'
                tail = f'"y": {labels[s.y]}'
            entries.append(
                _ENTRY.format(
                    c=c,
                    key=json.dumps(e.key_string()),
                    H=members(s.H),
                    head=head,
                    group=group,
                    kind=json.dumps(s.kind),
                    tail=tail,
                    verdict=json.dumps(c.verdict),
                )
            )
        listed = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        return (
            f'{{\n  "byPart": {_indented(self._by_part_json(), 1)},\n'
            f'  "entries": {listed},\n'
            f'  "group": {_indented(self.group.descriptor, 1)},\n'
            f'  "notes": {_indented(self.notes, 1)},\n'
            f'  "total": {json.dumps(self.total)}\n}}\n'
        )


# One census entry as ``json.dumps(indent=2, sort_keys=True)`` writes it inside
# the top-level "entries" list; the keys of both objects are in sorted order.
_ENTRY = """\
    {{
      "colorPermGroupOrder": {c.color_perm_group_order},
      "equivalenceKey": {key},
      "kernelOrder": {c.kernel_order},
      "numColorOrbits": {c.num_color_orbits},
      "numColors": {c.num_colors},
      "spec": {{
        "H": {H},
        {head},
        "group": {group},
        "kind": {kind},
        {tail}
      }},
      "verdict": {verdict}
    }}"""


def _indented(value, depth: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value whose key
    sits ``depth`` levels deep.  JSON text holds no raw newline outside its
    layout, so indenting every line break is exact."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def enumerate_all_semiperfect(
    G: FiniteGroup,
    H_filter: Sequence[Subgroup] | None = None,
    kinds: Sequence[str] = ("type1", "type2"),
    max_colors: int | None = None,
) -> Census:
    """Union of the one- and two-orbit censuses over index-2 color groups.

    Entries for distinct H are automatically inequivalent, so the union
    needs no cross-H deduplication.  ``type1`` entries have one color
    orbit and ``type2`` entries two.
    """
    if H_filter is None:
        H_filter = subgroups_of_index(G, 2)
    entries: list[CensusEntry] = []
    by_part: dict[tuple[str, str], int] = {}
    notes: list[str] = []
    if max_colors is not None and max_colors < 2:
        notes.append("no semiperfect coloring uses fewer than two colors")
        H_filter = []
    if G.descriptor.get("kind") == "p4m_quotient" and max_colors is not None:
        notes.append(
            "quotient realization: only color subgroups containing the "
            f"modulus-{G.descriptor['N']} translation lattice are visible"
        )
    for H in H_filter:
        h_key = generating_words(H)
        tables = _BlockTables(G, H, max_colors)  # one subgroup pool per color group
        for kind in kinds:
            pipeline = _type1_entries if kind == "type1" else _type2_entries
            part = pipeline(tables)
            by_part[(h_key, kind)] = len(part)
            entries.extend(part)
    _assert_distinct_keys(entries)
    return Census(group=G, entries=entries, by_part=by_part, notes=notes)


def _assert_distinct_keys(entries: Sequence[CensusEntry]):
    keys = [(id(e.spec.H.group), e.spec.H.members, e.key) for e in entries]
    if len(set(keys)) != len(keys):
        raise InvalidParameterError("census produced a duplicated equivalence class")


# -- the reference grid (one-orbit colorings of the hexagonal pattern) -----------


@dataclass(frozen=True)
class GridRow:
    J: Subgroup
    l: int
    r: int
    verdict: str
    note: str  # "perfect" | "(k) semiperfect" | "equivalent to (k)"


def type1_reference_grid(G: FiniteGroup, H: Subgroup) -> list[GridRow]:
    """Full (J, l, r) grid with verdicts and equivalence back-references.

    Semiperfect cells are numbered (1), (2), ... in grid order; a later cell
    equivalent to an earlier one is annotated instead of renumbered.
    """
    rows = []
    counter = 0
    first_seen: dict[tuple, int] = {}
    for J, l, r, verdict in type1_cells(G, H):
        if verdict.perfect:
            rows.append(GridRow(J, l, r, PERFECT, PERFECT))
            continue
        key = _type1_base(G, J.conjugated_by(l), r)
        if key in first_seen:
            note = f"equivalent to ({first_seen[key]})"
        else:
            counter += 1
            first_seen[key] = counter
            note = f"({counter}) semiperfect"
        rows.append(GridRow(J, l, r, SEMIPERFECT, note))
    return rows


def reference_grid_csv(G: FiniteGroup, H: Subgroup) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["J", "l", "r^l", "Resulting Coloring"])
    for row in type1_reference_grid(G, H):
        writer.writerow(
            [generating_words(row.J), G.labels[row.l], G.labels[row.r], row.note]
        )
    return buf.getvalue()


# -- automorphisms and transported colorings -------------------------------------


@dataclass(frozen=True)
class GroupAutomorphism:
    """A bijection of the group preserving products, stored pointwise."""

    group: FiniteGroup
    images: tuple[int, ...]

    @classmethod
    def identity(cls, group: FiniteGroup) -> "GroupAutomorphism":
        return cls(group, tuple(range(group.order)))

    @classmethod
    def from_generator_images(
        cls, group: FiniteGroup, images: dict[str, int | str]
    ) -> "GroupAutomorphism":
        """The automorphism sending each declared generator to its image.

        Starting from e -> e, each image is added and the map closed under
        products (``_close_map``); images that conflict there, a map that is
        not injective, or generators that do not reach the whole group raise.
        """
        names = set(group.generators)
        if names != set(images):
            raise InvalidParameterError(
                f"generator images must name exactly the generators {sorted(names)}"
            )
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
        return cls(group, tuple(pmap[g] for g in range(group.order)))

    def __call__(self, g: int) -> int:
        return self.images[g]

    def apply_subgroup(self, S: Subgroup) -> Subgroup:
        return Subgroup(self.group, tuple(sorted(self.images[m] for m in S.members)))

    def apply_partition(self, P: GroupPartition) -> GroupPartition:
        return GroupPartition(
            self.group,
            canonical_blocks(tuple(self.images[e] for e in block) for block in P.blocks),
        )

    def generator_map(self) -> dict[str, str]:
        labs = self.group.labels
        return {name: labs[self.images[g]] for name, g in self.group.generators.items()}


def conjugate_spec(spec: ColoringSpec, alpha: GroupAutomorphism) -> ColoringSpec:
    """Transport a coloring recipe along an automorphism.

    The realized partition of the result is the blockwise image of the
    original, and the perfect/semiperfect verdict is preserved; both facts
    are checked.
    """
    if alpha.group is not spec.group:
        raise InvalidParameterError("automorphism belongs to a different group")
    H2 = alpha.apply_subgroup(spec.H)
    if spec.kind == "type1":
        out = ColoringSpec.type1(
            H2, alpha.apply_subgroup(spec.J), alpha(spec.r), alpha(spec.l)
        )
    else:
        out = ColoringSpec.type2(
            H2, alpha.apply_subgroup(spec.J1), alpha.apply_subgroup(spec.J2), alpha(spec.y)
        )
    if out.partition.blocks != alpha.apply_partition(spec.partition).blocks:
        raise InvalidParameterError("conjugated spec does not realize the image partition")
    if out.verdict() != spec.verdict():
        raise InvalidParameterError("conjugation changed the verdict")
    return out


def action_equivalence_check(
    H: Subgroup,
    P: GroupPartition,
    H2: Subgroup,
    P2: GroupPartition,
    alpha: GroupAutomorphism,
) -> tuple[bool, tuple[int, ...]]:
    """Verify that the color action of H on P matches that of H2 on P2.

    The witness bijection sends block i of P to the block of P2 holding its
    alpha-image; compatibility means alpha(h) acts on P2-blocks exactly as h
    acts on P-blocks, for every h in H.
    """
    if alpha.apply_subgroup(H).members != H2.members:
        raise InvalidParameterError("H2 is not the alpha-image of H")
    imageP = alpha.apply_partition(P)
    if imageP.blocks != P2.blocks:
        raise InvalidParameterError("P2 is not the alpha-image of P")
    block_to_index = {block: i for i, block in enumerate(P2.blocks)}
    f = tuple(
        block_to_index[tuple(sorted(alpha(e) for e in block))] for block in P.blocks
    )
    for h in H.members:
        perm = P.permutation_induced_by(h)
        perm2 = P2.permutation_induced_by(alpha(h))
        for i in range(len(f)):
            if perm2[f[i]] != f[perm[i]]:
                return False, f
    return True, f


def _close_map(
    table: Sequence[Sequence[int]],
    pmap: dict[int, int],
    rmap: dict[int, int],
    fresh: list[int],
    compatible: Callable[[int, int], bool],
) -> bool:
    """Close the partial map ``pmap`` (inverse ``rmap``) under products, in
    place, after the points ``fresh`` were added.

    Every product g*h and h*g of a fresh point g with a mapped point h must
    go to the product of their images; a new point is mapped and queued.
    Returns False when a product already has another image, when an image
    is already taken, or when ``compatible(point, image)`` fails.
    """
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


def find_conjugating_automorphism(
    G: FiniteGroup, H: Subgroup, H2: Subgroup
) -> GroupAutomorphism | None:
    """Search for an automorphism of G carrying H onto H2.

    Backtracking over generator images (restricted to elements of equal
    order), growing a partial multiplication-respecting map; the first
    complete bijection in canonical candidate order wins.  Because H and H2
    have index 2, the partial map may additionally be pruned whenever a
    member of H would leave H2 or vice versa.
    """
    bound = configured_max_order()
    if G.order > bound:
        raise ResourceLimitError(
            f"group order {G.order} exceeds the automorphism-search bound {bound}"
        )
    if H.order != H2.order:
        return None
    gen_names = list(G.generators)
    orders = G.element_orders
    h_set, h2_set = H.member_set, H2.member_set
    table = G.table

    def compatible(g: int, img: int) -> bool:
        return (g in h_set) == (img in h2_set)

    def search(i: int, pmap: dict[int, int], rmap: dict[int, int]):
        if i == len(gen_names):
            if len(pmap) == G.order:
                return GroupAutomorphism(G, tuple(pmap[g] for g in range(G.order)))
            return None
        g = G.generators[gen_names[i]]
        if g in pmap:
            return search(i + 1, pmap, rmap)
        for img in range(G.order):
            if orders[img] != orders[g] or img in rmap or not compatible(g, img):
                continue
            trial = dict(pmap)
            rtrial = dict(rmap)
            trial[g] = img
            rtrial[img] = g
            if _close_map(table, trial, rtrial, [g], compatible):
                found = search(i + 1, trial, rtrial)
                if found is not None:
                    return found
        return None

    e = G.identity
    return search(0, {e: e}, {e: e})


# -- named subgroups of the built-in groups ---------------------------------------


HEXAGON_COLOR_GROUPS = ("a2,b", "a")
P4M_COLOR_GROUPS = ("a,ab,xy,Xy", "xa,ab,xy,Xy")


def standard_color_groups(G: FiniteGroup) -> list[Subgroup]:
    """The index-2 color groups treated by the worked censuses.

    For the hexagonal pattern these are the reflection-and-half-turn group
    and the rotation group (the remaining index-2 subgroup is carried onto
    the first by an ambient reflection).  For the square pattern they are
    the two square-lattice color groups of full point symmetry, except for
    N = 1, where both are the whole group.  Every other group gets all of
    its index-2 subgroups.
    """
    kind = G.descriptor.get("kind")
    if kind == "dihedral" and G.descriptor.get("n") == 6:
        return [subgroup_from_words(G, w) for w in HEXAGON_COLOR_GROUPS]
    if kind == "p4m_quotient":
        standard = [subgroup_from_words(G, w) for w in P4M_COLOR_GROUPS]
        if all(2 * H.order == G.order for H in standard):
            return standard
    return subgroups_of_index(G, 2)
