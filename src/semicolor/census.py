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
normalizers in H and in G of each class representative, all three read
from the one coset walk of ``groups``.
``enumerate_type1``, ``enumerate_type2`` and ``type1_cells`` take those
tables as their only argument, and the census, ``table1`` and ``verify``
all call them by these names.  The blocks h*base are then one sort per
representative (``_translates``).  A type-2 key is
``sorted(inside[lo] + outside[hi])``, with ``inside[J]`` the left cosets of
J and ``outside[J]`` the H-translates of y0*J, both built once per J.
The ``equivalenceKey`` text of a key joins one string per block, each
built on its first lookup in a ``_Memo``.
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

Each pipeline reads these counts and core masks once per pool subgroup
(type 2) or once per (J, l) (type 1, which also conjugates J by l once
there) and hands them, with the entry's recipe (J, l, r) or (J1, J2, y0),
to ``ColorGroupTables.entry``, the one entry constructor, so no entry
recomputes an index, a core or a conjugate.  A ``CensusEntry`` is the
``ColoringSpec`` of its recipe with the classification and the key added,
all in slots; it re-checks no l inside H or y0 outside it, and builds its
partition only when ``partition`` is read.  Entries with equal counts and
kernel share one frozen ``Classification``.  ``type1_cells`` reads each
verdict from ``classify_type1``'s unchecked core, once per (J, r):
conjugation by l is an automorphism, so every l shares it.

This module defines no brute-force oracle.  ``color_action``,
``orbit_table`` and ``partition_stabilizer`` in ``partitions``, which
translate blocks, and ``verify.action_equivalence_check`` are the oracles
that ``verify`` and the tests hold these closed forms and the transport
against; the census never calls them.  Transport is a plain map:
``conjugate_spec`` sends H, the J's, l, r and y to their images under an
automorphism, and builds no partition and computes no verdict.

``Census.serialize`` writes the census JSON byte-identical to
``json.dumps(census.to_json(), indent=2, sort_keys=True)``, whose indenting
encoder is pure Python, without calling it on the entries; it joins
``Census.chunks``, one piece per entry, which ``enumerate --out`` writes to
the file as they come, so the document is never held whole.  It, the CSV
writer and ``Census.to_json`` read the recipe fields of each entry and
build no spec; ``ColoringSpec.to_json`` is the one writer of a recipe's
JSON dict, and ``CensusEntry.to_json`` wraps it.  Each entry is a fixed
frame, keys in sorted order, written by one f-string function,
``_entry_text``, so no template is parsed per entry.  It joins text
encoded once per census: every element label, the group descriptor, the
``kind`` and ``verdict`` strings, and the label list of each distinct
subgroup, kept in a ``_Memo`` as the CSV writer keeps its texts.  Only the
``equivalenceKey`` is encoded per entry, by ``encode_basestring_ascii``,
the function ``json.dumps`` calls on a string, and the counts, which are
ints.  A value whose key sits d levels deep is the ``json.dumps`` text
with every line break followed by d more indents; JSON text holds no raw
newline elsewhere, so escaping stays ``json``'s own.
``Census.to_json`` is the plain structure whose ``json.dumps`` text
``verify`` and the tests hold the writer against.  ``Census.from_parts``
joins a census's parts, for the census and for ``verify``, and
``Census._frame`` holds its top-level fields but the entries for
``to_json``, ``chunks`` and ``verify``'s oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidParameterError
from .groups import (
    FiniteGroup,
    Subgroup,
    _require_index_two,
    check_search_order,
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
    classify_type1,
    classify_type2,
    smallest_outside,
    type1_partition,
    type2_partition,
    _translates,
    _type1_verdict,
)


# -- coloring specifications ----------------------------------------------------


class ColoringSpec:
    """Constructive recipe for a coloring: the color group H, the kind, and
    J, l and r (type 1) or J1, J2 and y (type 2); the fields of the other
    kind are None.  Its partition is built on first read."""

    __slots__ = ("H", "kind", "J", "l", "r", "J1", "J2", "y", "_partition")

    def __init__(
        self, H: Subgroup, kind: str, J: Subgroup | None = None, l: int | None = None,
        r: int | None = None, J1: Subgroup | None = None, J2: Subgroup | None = None,
        y: int | None = None,
    ):
        self.H, self.kind = H, kind  # "type1" | "type2"
        self.J, self.l, self.r = J, l, r
        self.J1, self.J2, self.y = J1, J2, y
        self._partition = None

    @classmethod
    def type1(cls, H: Subgroup, J: Subgroup, r: int, l: int | None = None) -> "ColoringSpec":
        l = H.group.identity if l is None else l
        if l not in H:
            raise InvalidParameterError("the conjugating element l must lie in H")
        if r in H:
            raise InvalidParameterError("r must lie outside H")
        return cls(H, "type1", J=J, l=l, r=r)

    @classmethod
    def type2(cls, H: Subgroup, J1: Subgroup, J2: Subgroup, y: int | None = None) -> "ColoringSpec":
        y = smallest_outside(H) if y is None else y
        if y in H:
            raise InvalidParameterError("y must lie outside H")
        return cls(H, "type2", J1=J1, J2=J2, y=y)

    @property
    def group(self) -> FiniteGroup:
        return self.H.group

    @property
    def partition(self) -> GroupPartition:
        """The realized partition, built on first read and kept."""
        if self._partition is None:
            if self.kind == "type1":
                self._partition = type1_partition(self.H, self.J.conjugated_by(self.l), self.r)
            else:
                self._partition = type2_partition(self.H, self.J1, self.J2)
        return self._partition

    def verdict(self) -> str:
        if self.kind == "type1":
            return classify_type1(self.J.conjugated_by(self.l), self.r, self.H).verdict
        return classify_type2(self.J1, self.J2, self.H)

    def to_json(self) -> dict:
        """The spec JSON: the group of H (a copy of its descriptor), H and
        kind, then J, l and r (type 1) or J1, J2 and y (type 2)."""
        group = self.group
        labels = group.labels
        if self.kind == "type1":
            recipe = {"J": self.J.label_list(), "l": labels[self.l], "r": labels[self.r]}
        else:
            recipe = {"J1": self.J1.label_list(), "J2": self.J2.label_list(), "y": labels[self.y]}
        return {
            "group": dict(group.descriptor), "H": self.H.label_list(), "kind": self.kind, **recipe
        }

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


class CensusEntry(ColoringSpec):
    """One census entry: the ``ColoringSpec`` of its coloring, (J, l, r) for
    type 1 or (J1, J2, y) for type 2 inside the color group H, with its
    classification and orbit key.

    The pipelines hold l inside H and y outside it, so no entry re-checks
    them; its partition is built, as any spec's, only when first read.
    """

    __slots__ = ("classification", "key", "block_text")

    def __init__(
        self,
        H: Subgroup,
        kind: str,
        recipe: tuple[Subgroup, int, int] | tuple[Subgroup, Subgroup, int],
        classification: Classification,
        key: tuple[tuple[int, ...], ...],
        block_text: Mapping[tuple[int, ...], str],
    ):
        # Every field is set here, not through ColoringSpec.__init__: the
        # census makes one entry per coloring, and the extra call shows.
        self.H, self.kind = H, kind
        if kind == "type1":
            self.J, self.l, self.r = recipe
            self.J1 = self.J2 = self.y = None
        else:
            self.J = self.l = self.r = None
            self.J1, self.J2, self.y = recipe
        self._partition = None
        self.classification, self.key, self.block_text = classification, key, block_text

    @property
    def spec(self) -> ColoringSpec:
        """The entry itself, the ``ColoringSpec`` of its recipe."""
        return self

    def key_string(self) -> str:
        """``GroupPartition.key_string`` of the key, joined from block texts
        shared with the other entries of the color group."""
        return "|".join(map(self.block_text.__getitem__, self.key))

    def to_json(self) -> dict:
        spec = super().to_json()
        return {"spec": spec, **self.classification.to_json(), "equivalenceKey": self.key_string()}


class _Memo(dict):
    """A dict that builds the value of a missing key as ``build(key)`` and
    keeps it."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class ColorGroupTables:
    """What every pipeline of one index-2 color group H reads, built once:
    its subgroup pool under the color cap, the left coset representatives
    of each J in it, which ``left_coset_reps`` keeps on H and from which
    every block is built, the ``Subgroup.mask`` of each core_H(J), the
    pool's conjugacy classes under G, N_H(J) and N_G(J) of each class
    representative J, and the text of each block.  It is the only argument
    of each pipeline.

    core_H(J) is the intersection of the conjugates t*J*t^-1 for t in H.  A
    conjugate depends only on the left coset t*J, so one t per coset
    suffices, and each is taken as a bit mask, with no ``Subgroup`` built.
    """

    def __init__(self, G: FiniteGroup, H: Subgroup, max_colors: int | None = None):
        if H.group is not G:
            raise InvalidParameterError("H belongs to a different group")
        _require_index_two(H)
        self.H = H
        self.max_colors = max_colors
        self.pool = subgroups_of_index_at_most(H, H.order if max_colors is None else max_colors)
        self.cores: dict[tuple[int, ...], int] = {}
        table, inverse = G.table, G.inverse
        for J in self.pool:
            mask = J.mask
            for t in left_coset_reps(H, J):
                row, ti = table[t], inverse[t]
                mask &= sum(1 << table[row[j]][ti] for j in J.members)  # injective: distinct bits
            self.cores[J.members] = mask
        self.text = _Memo(lambda block: ",".join(map(G.labels.__getitem__, block)))
        self.classifications: dict[tuple[int, int, int], Classification] = {}

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
        self,
        kind: str,
        recipe: tuple[Subgroup, int, int] | tuple[Subgroup, Subgroup, int],
        key: tuple[tuple[int, ...], ...],
        colors: int,
        orbits: int,
        kernel: int,
    ) -> CensusEntry:
        """The census entry of the recipe (J, l, r) or (J1, J2, y) of
        ``kind`` in H, classified in closed form from the counts its
        pipeline read once per pool subgroup.

        ``colors`` is [H:J'] for type 1 and [H:J1] + [H:J2] for type 2, and
        ``kernel`` is the ``Subgroup.mask`` of the color action's kernel:
        core_H(J') for type 1, the intersection of core_H(J1) and
        core_H(y0*J2*y0^-1) for type 2 (see the module docstring).  The
        verdict is semiperfect, because the pipelines emit no perfect
        coloring; ``color_action`` is the oracle for all of it.  Entries
        with equal counts and kernel share one frozen ``Classification``.
        """
        classification = self.classifications.get((colors, orbits, kernel))
        if classification is None:
            kernel_order = kernel.bit_count()
            classification = self.classifications[colors, orbits, kernel] = Classification(
                verdict=SEMIPERFECT,
                num_colors=colors,
                num_color_orbits=orbits,
                kernel_order=kernel_order,
                color_perm_group_order=self.H.order // kernel_order,
            )
        return CensusEntry(self.H, kind, recipe, classification, key, self.text)


# -- pipelines -------------------------------------------------------------------


def enumerate_type2(tables: ColorGroupTables) -> list[CensusEntry]:
    """One census entry per unordered pair {J1, J2} of distinct subgroups of H.

    All entries are semiperfect and pairwise inequivalent; the only other
    partition equivalent to the (J1, J2) entry is its (J2, J1) swap.
    """
    H, cap, cores = tables.H, tables.max_colors, tables.cores
    reps = H._coset_reps  # left_coset_reps of each pool subgroup, kept on H
    group = H.group
    # Two colors at least, so a subgroup of index cap belongs to no pair.
    pool = sorted(
        (J for J in tables.pool if cap is None or J.order * (cap - 1) >= H.order),
        key=lambda s: (s.order, s.members),
    )
    y0 = smallest_outside(H)
    index, core, inside, outside, outside_core = [], [], [], [], []
    for J in pool:
        # h*y0*J = y0*J exactly when h lies in y0*J*y0^-1, which H contains
        # because it is normal; core_H(y0*J*y0^-1) is that subgroup's core.
        Jy = J.conjugated_by(y0).members
        base = [group.table[y0][j] for j in J.members]
        index.append(H.order // J.order)
        core.append(cores[J.members])
        inside.append(_translates(group, reps[J.members], J.members))
        outside.append(sorted(_translates(group, reps[Jy], base)))
        outside_core.append(cores[Jy])
    entries = []
    for i, J1 in enumerate(pool):
        for j in range(i + 1, len(pool)):
            colors = index[i] + index[j]
            if cap is not None and colors > cap:
                continue
            J2 = pool[j]
            # The orbit key P(lo, hi) in closed form (see the module docstring).
            lo, hi = (i, j) if J1.members < J2.members else (j, i)
            key = tuple(sorted(inside[lo] + outside[hi]))
            kernel = core[i] & outside_core[j]
            entries.append(tables.entry("type2", (J1, J2, y0), key, colors, 2, kernel))
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
    in_H, reps = H.member_set, H._coset_reps
    # One entry per identity block of a key (see the module docstring).
    entries: dict[tuple[int, ...], CensusEntry] = {}
    cell_J, cell_l = None, None
    for J, l, r, verdict in type1_cells(tables):
        if verdict.perfect:
            continue
        if J is not cell_J or l != cell_l:  # the grid runs l by l within each J
            cell_J, cell_l = J, l
            Jl = J.conjugated_by(l).members
            colors = H.order // J.order
            kernel = tables.cores[J.members]  # l lies in H, so core_H(l*J*l^-1) = core_H(J)
        base = _type1_base(group, Jl, r)
        if base in entries:
            continue
        stabilizer = tuple(e for e in base if e in in_H)
        key = tuple(sorted(_translates(group, reps[stabilizer], base)))
        entries[base] = tables.entry("type1", (J, l, r), key, colors, 1, kernel)
    part = sorted(entries.values(), key=lambda e: e.key)
    _assert_distinct_keys(part)
    return part


def _type1_base(group: FiniteGroup, J: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The identity block of the type-1 orbit key of P(J, r), J given by its
    members: the smaller of B = J u J*r and r^-1*B (see the module
    docstring).  The key is the set of H-translates of this block, so two
    cells are equivalent exactly when their blocks are equal."""
    table = group.table
    block = tuple(sorted(J + tuple(table[j][r] for j in J)))
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
        # Conjugation by l is an automorphism, so (l*J*l^-1, l*r*l^-1) has
        # the verdict of (J, r): one verdict per r serves every l.  J lies
        # in H and r outside it, so no checks.
        verdicts = [_type1_verdict(J, r) for r in R]
        for l in L:
            for r, verdict in zip(R, verdicts):
                yield J, l, G.conj(r, l), verdict


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

    @classmethod
    def from_parts(
        cls, group: FiniteGroup, parts: Iterable[tuple[Subgroup, str, list]], notes=()
    ) -> "Census":
        """The ``(H, kind, entries)`` parts joined in order, each counted in
        ``by_part`` under its kind and H's display word, built once per H."""
        entries, by_part, words = [], {}, _Memo(generating_words)
        for H, kind, part in parts:
            by_part[words[H], kind] = len(part)
            entries.extend(part)
        return cls(group=group, entries=entries, by_part=by_part, notes=list(notes))

    @property
    def total(self) -> int:
        return len(self.entries)

    def _frame(self) -> dict:
        """Every top-level field of the census JSON but the entries."""
        return {
            "group": dict(self.group.descriptor),
            "total": self.total,
            "byPart": {f"{h}|{kind}": n for (h, kind), n in sorted(self.by_part.items())},
            "notes": list(self.notes),
        }

    def to_json(self) -> dict:
        """The census as one JSON value: the oracle of ``serialize``."""
        return {**self._frame(), "entries": [e.to_json() for e in self.entries]}

    def serialize(self) -> str:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True) + "\\n"``,
        joined from ``chunks``."""
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The text of ``serialize`` in pieces, built from text encoded once
        per census (see the module docstring): the head through
        ``"entries": ``, one piece per entry, then the tail."""
        labels = [json.dumps(label) for label in self.group.labels]
        names = {name: json.dumps(name) for name in ("type1", "type2", PERFECT, SEMIPERFECT)}
        group = _indented(self.group.descriptor, 4)
        # One label list per subgroup, keyed by its members.
        members = _Memo(lambda m: _indented([self.group.labels[g] for g in m], 4))
        frame = self._frame()
        yield f'{{\n  "byPart": {_indented(frame["byPart"], 1)},\n  "entries": '
        opening = "[\n"
        for e in self.entries:
            c = e.classification
            if e.kind == "type1":
                head = f'"J": {members[e.J.members]}'
                tail = f'"l": {labels[e.l]},\n        "r": {labels[e.r]}'
            else:
                head = f'"J1": {members[e.J1.members]},\n        "J2": {members[e.J2.members]}'
                tail = f'"y": {labels[e.y]}'
            yield _entry_text(
                opening,
                c.color_perm_group_order,
                encode_basestring_ascii(e.key_string()),  # as json.dumps does
                c.kernel_order,
                c.num_color_orbits,
                c.num_colors,
                members[e.H.members],
                head,
                group,
                names[e.kind],
                tail,
                names[c.verdict],
            )
            opening = ",\n"
        closing = "\n  ]" if self.entries else "[]"
        yield (
            f'{closing},\n'
            f'  "group": {_indented(frame["group"], 1)},\n'
            f'  "notes": {_indented(frame["notes"], 1)},\n'
            f'  "total": {json.dumps(frame["total"])}\n}}\n'
        )


def _entry_text(
    opening, perm_order, key, kernel_order, orbits, colors, H, head, group, kind, tail, verdict
) -> str:
    """One census entry as ``json.dumps(indent=2, sort_keys=True)`` writes it
    inside the top-level "entries" list, after ``opening``; the keys of both
    objects are in sorted order.  The counts are ints and every other
    argument is JSON text."""
    return f"""{opening}    {{
      "colorPermGroupOrder": {perm_order},
      "equivalenceKey": {key},
      "kernelOrder": {kernel_order},
      "numColorOrbits": {orbits},
      "numColors": {colors},
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
    notes: list[str] = []
    if max_colors is not None and max_colors < 2:
        notes.append("no semiperfect coloring uses fewer than two colors")
        H_filter = []
    if G.descriptor.get("kind") == "p4m_quotient" and max_colors is not None:
        notes.append(
            "quotient realization: only color subgroups containing the "
            f"modulus-{G.descriptor['N']} translation lattice are visible"
        )

    def parts():
        for H in H_filter:
            tables = ColorGroupTables(G, H, max_colors)  # one subgroup pool per color group
            for kind in kinds:
                pipeline = enumerate_type1 if kind == "type1" else enumerate_type2
                yield H, kind, pipeline(tables)

    return Census.from_parts(G, parts(), notes)


def _assert_distinct_keys(part: Sequence[CensusEntry]):
    """Raise when two entries of one pipeline's part, which all share one
    color group H, have the same orbit key.

    Each pipeline checks its own part, so every key is hashed once per
    census, and parts cannot collide.  A semiperfect partition's stabilizer
    is its H, and every translate gP has the stabilizer g*H*g^-1 = H, so the
    parts of different color groups hold different classes.  For one H, the
    blocks of a type-1 partition meet both cosets of H and those of a
    type-2 partition meet one, so no type-1 key is a type-2 key.
    """
    if len({e.key for e in part}) != len(part):
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
        key = _type1_base(G, J.conjugated_by(l).members, r)
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
        gens, imgs = list(group.generators.values()), []
        for name, img in zip(group.generators, group.generator_images(group.generators, images)):
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

    def generator_map(self) -> dict[str, str]:
        labs = self.group.labels
        return {name: labs[self.images[g]] for name, g in self.group.generators.items()}


def conjugate_spec(spec: ColoringSpec, alpha: GroupAutomorphism) -> ColoringSpec:
    """Transport a coloring recipe along an automorphism: H, the J's, l, r
    and y are each replaced by their alpha-images.

    The realized partition of the result is the blockwise alpha-image of
    the original, and the perfect/semiperfect verdict is preserved; the
    ``conjugate-transport`` suite of ``verify`` and the tests check both.
    """
    if alpha.group is not spec.group:
        raise InvalidParameterError("automorphism belongs to a different group")
    H2 = alpha.apply_subgroup(spec.H)
    if spec.kind == "type1":
        return ColoringSpec.type1(
            H2, alpha.apply_subgroup(spec.J), alpha(spec.r), alpha(spec.l)
        )
    return ColoringSpec.type2(
        H2, alpha.apply_subgroup(spec.J1), alpha.apply_subgroup(spec.J2), alpha(spec.y)
    )


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
    check_search_order(G.order, "automorphism-search")
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
