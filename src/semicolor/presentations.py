"""Low-index subgroup counting for finitely presented groups.

Subgroups of index k correspond to transitive actions on k points with a
marked point: enumerate generator images in the symmetric group on k
points, keep the assignments that kill every relator and act transitively,
and identify two assignments when a point relabeling fixing the marked
point carries one to the other (then they share the same point stabilizer).

Words use one letter per generator; an uppercase letter is the inverse of
its lowercase generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .groups import FiniteGroup

MAX_INDEX = 5
MAX_SEARCH_SPACE = 10_000_000


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise InvalidParameterError("duplicate generator names")
        for name in self.generators:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise InvalidParameterError(
                    f"generator names must be single lowercase letters, got {name!r}"
                )
        for rel in self.relators:
            for ch in rel:
                if ch.lower() not in self.generators:
                    raise InvalidParameterError(
                        f"relator {rel!r} uses undeclared generator {ch!r}"
                    )

    def relator_symbols(self) -> list[list[tuple[int, bool]]]:
        """Each relator as a list of (generator index, inverted) steps."""
        index = {name: i for i, name in enumerate(self.generators)}
        return [[(index[ch.lower()], ch.isupper()) for ch in rel] for rel in self.relators]

    def evaluate_in(self, group: FiniteGroup, images: dict[str, str | int]) -> list[int]:
        """Evaluate every relator at the given generator images.

        Returns the list of resulting elements; all must be the identity
        for the images to define a homomorphism from the presented group.
        """
        resolved = {}
        for name in self.generators:
            if name not in images:
                raise InvalidParameterError(f"missing image for generator {name!r}")
            img = images[name]
            resolved[name] = group.element(img) if isinstance(img, str) else img
        out = []
        for steps in self.relator_symbols():
            acc = group.identity
            for gi, inverted in steps:
                g = resolved[self.generators[gi]]
                if inverted:
                    g = group.inverse[g]
                acc = group.table[acc][g]
            out.append(acc)
        return out


# The square-lattice wallpaper presentation on a quarter turn a, a mirror b
# and unit translations x, y:
#   a^4 = b^2 = (ab)^2 = e,  x y = y x,
#   a x a^-1 = y,  a y a^-1 = x^-1,  b x b^-1 = x,  b y b^-1 = y^-1.
P4M_RELATORS = ("aaaa", "bb", "abab", "xyXY", "axAY", "ayAx", "bxBX", "byBy")

#: Built-in presentations with their embeddings into the quotient groups.
#: "p4m_sub" and "p4m_sub_alt" present the two index-2 square-lattice color
#: groups on their own generators; both satisfy the same relations, so all
#: three names point at one presentation.
BUILTIN_PRESENTATIONS: dict[str, Presentation] = dict.fromkeys(
    ("p4m", "p4m_sub", "p4m_sub_alt"), Presentation(("a", "b", "x", "y"), P4M_RELATORS)
)

BUILTIN_EMBEDDINGS: dict[str, dict[str, str]] = {
    "p4m": {"a": "a", "b": "b", "x": "x", "y": "y"},
    "p4m_sub": {"a": "a", "b": "ab", "x": "xy", "y": "Xy"},
    "p4m_sub_alt": {"a": "xa", "b": "ab", "x": "xy", "y": "Xy"},
}


def builtin_presentation(name: str) -> Presentation:
    try:
        return BUILTIN_PRESENTATIONS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown presentation {name!r}; built-ins: {sorted(BUILTIN_PRESENTATIONS)}"
        ) from None


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
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


def _canonical_table(images: Sequence[tuple[int, ...]], k: int) -> tuple | None:
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


def low_index_subgroup_count(P: Presentation, k: int) -> int:
    """Number of index-k subgroups of the presented group.

    Backtracking over generator images with relators checked as soon as all
    their letters are assigned; subgroups are counted individually, not up
    to conjugacy.
    """
    if k < 1:
        raise InvalidParameterError("index must be a positive integer")
    if k == 1:
        return 1
    ngen = len(P.generators)
    if k > MAX_INDEX or factorial(k) ** ngen > MAX_SEARCH_SPACE:
        raise ResourceLimitError(
            f"index-{k} search over {ngen} generators exceeds the configured space bound"
        )
    relator_steps = P.relator_symbols()
    # A relator can be checked once its highest generator index is assigned.
    checkable_at: list[list] = [[] for _ in range(ngen)]
    for steps in relator_steps:
        if steps:
            checkable_at[max(gi for gi, _ in steps)].append(steps)
    perms = list(permutations(range(k)))
    found: set[tuple] = set()
    images: list[tuple[int, ...]] = []

    def assign(i: int):
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
