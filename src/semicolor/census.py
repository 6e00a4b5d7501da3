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

The census builds no partition for either.  Per color group H it builds
one ``ColorGroupTables``: one subgroup pool, the left coset representatives
and core of each J in it, the pool's conjugacy classes under G, and the
normalizers in H and in G of each class representative.
``enumerate_type1``, ``enumerate_type2`` and ``type1_cells`` take those
tables as their only argument, and the census, ``table1`` and ``verify``
all call them by these names.  The blocks h*base are then one sort per
representative (``_translates``).  A type-2 key is
``sorted(inside[lo] + outside[hi])``, with ``inside[J]`` the left cosets of
J and ``outside[J]`` the H-translates of y0*J, both built once per J.
The ``equivalenceKey`` text of a key joins one stored string per block.
``table1`` numbers its cells by the same type-1 identity block
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

This module defines no brute-force oracle.  ``color_action``,
``orbit_table`` and ``partition_stabilizer`` in ``partitions``, which
translate blocks, and ``verify.action_equivalence_check`` are the oracles
that ``verify`` and the tests hold these closed forms and the transport
against; the census never calls them.

``Census.serialize`` writes the census JSON byte-identical to
``json.dumps(census.to_json(), indent=2, sort_keys=True)``, whose indenting
encoder is pure Python, without calling it on the entries.  Each entry is
a fixed frame, keys in sorted order, joining text encoded once per census:
every element label, the group descriptor, and the label list of each
distinct subgroup.  A value whose key sits d levels deep is the
``json.dumps`` text with every line break followed by d more indents; JSON
text holds no raw newline elsewhere, so escaping stays ``json``'s own.
``Census.to_json`` is the plain structure whose ``json.dumps`` text
``verify`` and the tests hold the writer against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .groups import (
    FiniteGroup,
    Subgroup,
    MAX_SEARCH_ORDER,
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
    _require_index_two,
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
        if y in H:
            raise InvalidParameterError("y must lie outside H")
        return cls(group=H.group, H=H, kind="type2", J1=J1, J2=J2, y=y)

    @cached_property
    def partition(self) -> GroupPartition:
        if self.kind == "type1":
            return type1_partition(self.H, self.J.conjugated_by(self.l), self.r)
        return type2_partition(self.H, self.J1, self.J2)

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


def subgroup_of_labels(group: FiniteGroup, labels: list[str]) -> Subgroup:
    if not isinstance(labels, list):
        raise InvalidParameterError(f"a subgroup must be a JSON list of labels, got {labels!r}")
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


class ColorGroupTables:
    """What every pipeline of one index-2 color group H reads, built once:
    its subgroup pool under the color cap, the left coset representatives
    of each J in it, from which every block is built, the ``Subgroup.mask``
    of each core_H(J), the pool's conjugacy classes under G, N_H(J) and
    N_G(J) of each class representative J, and the text of each block.  It
    is the only argument of each pipeline.

    core_H(J) is the intersection of the conjugates t*J*t^-1 for t in H.  A
    conjugate depends only on the left coset t*J, so one t per coset
    suffices.
    """

    def __init__(self, G: FiniteGroup, H: Subgroup, max_colors: int | None = None):
        if H.group is not G:
            raise InvalidParameterError("H belongs to a different group")
        if 2 * H.order != G.order:
            raise InvalidParameterError("H must have index 2")
        self.H = H
        self.max_colors = max_colors
        self.pool = subgroups_of_index_at_most(H, H.order if max_colors is None else max_colors)
        self.reps: dict[tuple[int, ...], list[int]] = {}
        self.cores: dict[tuple[int, ...], int] = {}
        for J in self.pool:
            reps = self.reps[J.members] = left_coset_reps(H, J)
            mask = J.mask
            for t in reps:
                mask &= J.conjugated_by(t).mask
            self.cores[J.members] = mask
        self.text = _BlockText(G.labels)

    @cached_property
    def classes(self) -> list[list[Subgroup]]:
        """The pool's conjugacy classes under all of G, as
        ``conjugacy_classes_of_subgroups`` orders them."""
        return conjugacy_classes_of_subgroups(self.pool, whole_group(self.H.group))

    @cached_property
    def h_normalizers(self) -> dict[tuple[int, ...], Subgroup]:
        """N_H(J) for each class representative J, keyed by its members."""
        return {cls[0].members: normalizer(self.H, cls[0]) for cls in self.classes}

    @cached_property
    def g_normalizers(self) -> dict[tuple[int, ...], Subgroup]:
        """N_G(J) for each class representative J, keyed by its members."""
        full = whole_group(self.H.group)
        return {cls[0].members: normalizer(full, cls[0]) for cls in self.classes}

    def count_semiperfect_type1(self, J: Subgroup) -> int:
        """``count_semiperfect_type1`` of a class representative J, read
        from the held normalizers."""
        members = J.members
        return _count_type1(self.H, J, self.h_normalizers[members], self.g_normalizers[members])

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


def enumerate_type2(tables: ColorGroupTables) -> list[CensusEntry]:
    """One census entry per unordered pair {J1, J2} of distinct subgroups of H.

    All entries are semiperfect and pairwise inequivalent; the only other
    partition equivalent to the (J1, J2) entry is its (J2, J1) swap.
    """
    H, cap, reps, cores = tables.H, tables.max_colors, tables.reps, tables.cores
    group = H.group
    # Two colors at least, so a subgroup of index cap belongs to no pair.
    pool = sorted(
        (J for J in tables.pool if cap is None or J.order * (cap - 1) >= H.order),
        key=lambda s: (s.order, s.members),
    )
    y0 = smallest_outside(H)
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


def enumerate_type1(tables: ColorGroupTables) -> list[CensusEntry]:
    """Semiperfect one-orbit colorings, one entry per equivalence class.

    Walks the ``type1_cells`` grid, keeps the semiperfect cells and
    collapses equivalent pairs via the orbit key.
    """
    H = tables.H
    group = H.group
    # One entry per identity block of a key (see the module docstring).
    entries: dict[tuple[int, ...], CensusEntry] = {}
    for J, l, r, verdict in type1_cells(tables):
        if verdict.perfect:
            continue
        base = _type1_base(group, J.conjugated_by(l), r)
        if base in entries:
            continue
        stabilizer = tuple(e for e in base if e in H)
        key = tuple(sorted(_translates(group, tables.reps[stabilizer], base)))
        # l lies in H, so core_H(l*J*l^-1) = core_H(J).
        entries[base] = tables.entry(ColoringSpec.type1(H, J, r, l), key, tables.cores[J.members])
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


def type1_cells(tables: ColorGroupTables) -> Iterable[tuple[Subgroup, int, int, TypeOneVerdict]]:
    """The (J, l, r) grid underlying the one-orbit enumeration.

    Yields conjugacy-class representatives J of the pool (under conjugation
    by all of G), with l running over left coset representatives of the
    H-normalizer of J and r over the l-conjugated right coset
    representatives of J outside H, in deterministic order.
    """
    H = tables.H
    G = H.group
    for cls in tables.classes:
        J = cls[0]
        L = left_coset_reps(H, tables.h_normalizers[J.members])
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
    return _count_type1(H, J, normalizer(H, J), normalizer(whole_group(G), J))


def _count_type1(H: Subgroup, J: Subgroup, nh: Subgroup, ng: Subgroup) -> int:
    """The count of ``count_semiperfect_type1`` from N_H(J) and N_G(J)."""
    cosets_l = H.order // nh.order
    cosets_r = H.order // J.order
    if ng.order == nh.order:
        return cosets_l * cosets_r
    return cosets_l * (cosets_r - perfect_coset_count(H.group, H, J)) // 2


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
    orbit and ``type2`` entries two; ``kinds`` names each at most once.
    """
    if not set(kinds) <= {"type1", "type2"} or len(set(kinds)) != len(kinds):
        raise InvalidParameterError(
            f"kinds must name type1 and type2 at most once each, got {tuple(kinds)!r}"
        )
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
        tables = ColorGroupTables(G, H, max_colors)  # one subgroup pool per color group
        for kind in kinds:
            pipeline = enumerate_type1 if kind == "type1" else enumerate_type2
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
    for J, l, r, verdict in type1_cells(ColorGroupTables(G, H)):
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

        Images are words or element indices.  Each prefix of the declared
        generators is extended by ``_extend`` in turn, so the first prefix
        whose images do not extend to an injective homomorphism names the
        generator in the error; generators that do not reach the whole group
        raise too.
        """
        names = set(group.generators)
        if names != set(images):
            raise InvalidParameterError(
                f"generator images must name exactly the generators {sorted(names)}"
            )
        gens, imgs = list(group.generators.values()), []
        for name in group.generators:
            img = images[name]
            if isinstance(img, str):
                img = group.element(img)
            elif not (isinstance(img, int) and 0 <= img < group.order):
                raise InvalidParameterError(f"unknown element index {img}")
            imgs.append(img)
            f = _extend(group, gens[: len(imgs)], imgs)
            if f is None:
                raise InvalidParameterError(
                    f"generator images do not extend to an automorphism (at {name})"
                )
        if len(f) != group.order:
            raise InvalidParameterError("declared generators do not generate the group")
        return cls(group, tuple(f[g] for g in range(group.order)))

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


def _extend(
    group: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> dict[int, int] | None:
    """The injective homomorphism on <gens> sending gens[i] to images[i].

    Walks <gens> from the identity by right multiplication with each
    generator, as ``groups._close_under_products`` does, and maps g*s to
    f(g)*f(s).  A map with f(g*s) = f(g)*f(s) for every g and generator s is
    a homomorphism, so the walk is exact: it returns None when a point is
    reached with two images or an image is taken twice.
    """
    table = group.table
    e = group.identity
    f, taken, frontier = {e: e}, {e}, [e]
    for g in frontier:  # grows while it is walked
        row, img_row = table[g], table[f[g]]
        for s, t in zip(gens, images):
            p, q = row[s], img_row[t]
            known = f.get(p)
            if known is None:
                if q in taken:
                    return None
                f[p] = q
                taken.add(q)
                frontier.append(p)
            elif known != q:
                return None
    return f


def find_conjugating_automorphism(
    G: FiniteGroup, H: Subgroup, H2: Subgroup
) -> GroupAutomorphism | None:
    """The first automorphism of G carrying the index-2 subgroup H onto H2.

    Backtracks over generator images in the order of the declared
    generators, each candidate an element of equal order taken smallest
    first; every trial is ``_extend`` of the prefix.  Only generator images
    are tested for membership: at index 2, membership in H and in H2 are
    homomorphisms onto Z/2, so two that agree on the generators agree on
    their span.  Returns None when no automorphism carries H onto H2.
    """
    if G.order > MAX_SEARCH_ORDER:
        raise ResourceLimitError(
            f"group order {G.order} exceeds the automorphism-search bound {MAX_SEARCH_ORDER}"
        )
    _require_index_two(H)
    if H.order != H2.order:
        return None
    gens = list(G.generators.values())
    orders = G.element_orders
    h_set, h2_set = H.member_set, H2.member_set

    def search(images: list[int], f: dict[int, int]) -> GroupAutomorphism | None:
        if len(images) == len(gens):
            if len(f) == G.order:
                return GroupAutomorphism(G, tuple(f[g] for g in range(G.order)))
            return None
        g = gens[len(images)]
        for img in range(G.order):
            if orders[img] != orders[g] or (g in h_set) != (img in h2_set):
                continue
            trial = _extend(G, gens[: len(images) + 1], images + [img])
            if trial is not None:
                found = search(images + [img], trial)
                if found is not None:
                    return found
        return None

    return search([], {G.identity: G.identity})


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
