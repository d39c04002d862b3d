"""Finite posets, order-isomorphisms, ideals, and ideal-completion extension.

Elements are opaque string identifiers.  Every constructor validates; the
relation stored in a Poset is always the full reflexive-transitive closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class CycleError(Exception):
    """The reflexive-transitive closure violates antisymmetry."""


class DuplicateElement(Exception):
    """An element identifier occurs twice."""


class InvalidIdentifier(Exception):
    """An element identifier is empty or contains whitespace."""


class UnknownElement(Exception):
    """A relation pair refers to an element that was not declared."""


class NotOrderIso(Exception):
    """A candidate map is not an order-isomorphism."""


class NotSubposet(Exception):
    """A claimed subposet is not an induced subposet of its parent."""


class NotAnIdeal(Exception):
    """A member set is not a downset, or two of its members have no join
    or a join outside the set."""


class NotGenerated(Exception):
    """An element is not the join of an ideal of the finite part."""


class JoinMissing(Exception):
    """A required least upper bound does not exist."""


class ParseError(Exception):
    """A text-format file does not parse."""


_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Poset:
    """A finite partial order: element tuple plus the full <= relation.

    Construction also builds each element's up-set and down-set from the
    relation; every order query reads those sets.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    _up: Mapping[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _down: Mapping[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        up: dict[str, set[str]] = {x: set() for x in self.elements}
        down: dict[str, set[str]] = {x: set() for x in self.elements}
        for x, y in self.relation:
            up[x].add(y)
            down[y].add(x)
        object.__setattr__(self, "_up", {x: frozenset(s) for x, s in up.items()})
        object.__setattr__(self, "_down", {x: frozenset(s) for x, s in down.items()})

    def leq(self, x: str, y: str) -> bool:
        return y in self._up.get(x, _EMPTY)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def downset(self, x: str) -> tuple[str, ...]:
        below = self._down.get(x, _EMPTY)
        return tuple(z for z in self.elements if z in below)

    def upset(self, x: str) -> tuple[str, ...]:
        above = self._up.get(x, _EMPTY)
        return tuple(z for z in self.elements if z in above)

    def covers(self, x: str, y: str) -> bool:
        """True iff y covers x (x < y with nothing strictly between)."""
        return self.lt(x, y) and len(self._up[x] & self._down[y]) == 2

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted(
            (x, y) for x in self.elements for y in self._up[x] if self.covers(x, y)
        )

    def join(self, x: str, y: str) -> str | None:
        return self.join_of((x, y))

    def meet(self, x: str, y: str) -> str | None:
        """Greatest lower bound: the z whose down-set is the intersection of
        the down-sets of x and y."""
        return _extremum(self._down, (x, y), self.elements)

    def join_of(self, xs: Iterable[str]) -> str | None:
        """Least upper bound of a set; the empty set's join is the bottom.

        It is the z whose up-set equals the intersection of the up-sets of xs.
        """
        return _extremum(self._up, xs, self.elements)

    def bottom(self) -> str | None:
        return self.join_of(())

    def top(self) -> str | None:
        return _extremum(self._down, (), self.elements)

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if len(self._up[x]) == 1)

    def restrict(self, subset: Iterable[str]) -> "Poset":
        """Induced subposet on the given elements (kept in parent order)."""
        keep = set(subset)
        unknown = keep - set(self.elements)
        if unknown:
            raise UnknownElement(f"not elements of the poset: {sorted(unknown)}")
        elems = tuple(x for x in self.elements if x in keep)
        rel = frozenset((x, y) for (x, y) in self.relation if x in keep and y in keep)
        return Poset(elems, rel)

    def __len__(self) -> int:
        return len(self.elements)


def _extremum(
    sets: Mapping[str, frozenset[str]], xs: Iterable[str], elements: Sequence[str]
) -> str | None:
    """The z whose own set equals the intersection of the sets of xs (all
    elements when xs is empty), or None: the least upper bound when sets are
    up-sets, the greatest lower bound when they are down-sets."""
    bounds = None
    for x in xs:
        s = sets.get(x, _EMPTY)
        bounds = s if bounds is None else bounds & s
    if bounds is None:
        bounds = frozenset(elements)
    return next((z for z in bounds if sets[z] == bounds), None)


def verify_poset(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a Poset from generator pairs, taking the reflexive-transitive closure.

    Rejects duplicate or malformed identifiers and antisymmetry violations.
    """
    seen = set()
    for e in elements:
        if not e or any(c.isspace() for c in e):
            raise InvalidIdentifier(f"bad element identifier {e!r}")
        if e in seen:
            raise DuplicateElement(e)
        seen.add(e)
    elems = tuple(elements)
    up = {e: {e} for e in elems}
    for x, y in pairs:
        if x not in up or y not in up:
            raise UnknownElement(f"pair ({x}, {y}) uses undeclared elements")
        up[x].add(y)
    # Warshall closure on the up-sets.
    for k in elems:
        for x in elems:
            if k in up[x]:
                up[x] |= up[k]
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if y in up[x] and x in up[y]:
                raise CycleError(f"{x} <= {y} <= {x}")
    return Poset(elems, frozenset((x, y) for x in elems for y in up[x]))


def finite_part(p: Poset) -> tuple[str, ...]:
    """Elements with a finite principal downset.

    On the finite posets this package handles that is every element; the
    operation exists so the theorem pipeline can perform (and log) the
    restriction step explicitly.
    """
    return p.elements


@dataclass(frozen=True, eq=False)
class OrderIso:
    """An order-isomorphism between two posets, stored as an explicit bijection."""

    source: Poset
    target: Poset
    mapping: Mapping[str, str]

    def apply(self, x: str) -> str:
        return self.mapping[x]

    def inverse(self) -> "OrderIso":
        inv = {v: k for k, v in self.mapping.items()}
        return OrderIso(self.target, self.source, inv)

    def compose(self, then: "OrderIso") -> "OrderIso":
        """self followed by ``then``."""
        if set(self.target.elements) != set(then.source.elements):
            raise NotOrderIso("composition endpoints do not match")
        return OrderIso(
            self.source,
            then.target,
            {x: then.mapping[self.mapping[x]] for x in self.source.elements},
        )

    def mapping_items(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.mapping.items()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderIso)
            and self.source.elements == other.source.elements
            and self.target.elements == other.target.elements
            and dict(self.mapping) == dict(other.mapping)
        )


def order_iso(source: Poset, target: Poset, mapping: Mapping[str, str]) -> OrderIso:
    """Validate and wrap a bijection as an OrderIso (both directions checked)."""
    if set(mapping.keys()) != set(source.elements):
        raise NotOrderIso("mapping domain is not the source element set")
    values = list(mapping.values())
    if len(set(values)) != len(values) or set(values) != set(target.elements):
        raise NotOrderIso("mapping is not a bijection onto the target")
    for x in source.elements:
        for y in source.elements:
            if source.leq(x, y) != target.leq(mapping[x], mapping[y]):
                raise NotOrderIso(
                    f"order not preserved at ({x}, {y}) -> "
                    f"({mapping[x]}, {mapping[y]})"
                )
    return OrderIso(source, target, dict(mapping))


def _signature(p: Poset, x: str) -> tuple[int, int, int]:
    degree = sum(p.covers(x, y) for y in p._up[x]) + sum(
        p.covers(y, x) for y in p._down[x]
    )
    return (len(p._down[x]), len(p._up[x]), degree)


def enumerate_order_isos(p: Poset, q: Poset) -> list[OrderIso]:
    """All order-isomorphisms p -> q by backtracking.

    Candidate images are restricted to elements with the same
    (downset size, upset size, cover degree) signature, and partial maps are
    pruned against every already-assigned pair in both directions.
    """
    if len(p) != len(q):
        return []
    sig_p = {x: _signature(p, x) for x in p.elements}
    sig_q: dict[tuple[int, int, int], list[str]] = {}
    for y in q.elements:
        sig_q.setdefault(_signature(q, y), []).append(y)
    if sorted(sig_p.values()) != sorted(
        s for s, ys in sig_q.items() for _ in ys
    ):
        return []
    # Assign the most constrained elements (rarest signature) first.
    order = sorted(
        p.elements, key=lambda x: (len(sig_q.get(sig_p[x], ())), x)
    )
    results: list[dict[str, str]] = []
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def backtrack(i: int) -> None:
        if i == len(order):
            results.append(dict(assignment))
            return
        x = order[i]
        for y in sig_q.get(sig_p[x], ()):
            if y in used:
                continue
            ok = all(
                p.leq(a, x) == q.leq(b, y) and p.leq(x, a) == q.leq(y, b)
                for a, b in assignment.items()
            )
            if not ok:
                continue
            assignment[x] = y
            used.add(y)
            backtrack(i + 1)
            del assignment[x]
            used.discard(y)

    backtrack(0)
    isos = [OrderIso(p, q, m) for m in results]
    isos.sort(key=lambda f: f.mapping_items())
    return isos


@dataclass(frozen=True)
class Ideal:
    """A downset in which every two members have a join, and that join is a
    member (the empty set counts)."""

    parent: Poset
    members: frozenset[str]


def is_ideal(p: Poset, members: Iterable[str]) -> bool:
    mem = frozenset(members)
    if not p._down.keys() >= mem or any(not p._down[x] <= mem for x in mem):
        return False
    return all(p.join(x, y) in mem for x, y in itertools.combinations(mem, 2))


def ideals(p: Poset) -> list[Ideal]:
    """All ideals of p, enumerated over downsets (not raw subsets)."""
    topo = sorted(p.elements, key=lambda x: (len(p._down[x]), x))
    found: list[frozenset[str]] = []

    def recurse(i: int, current: set[str], banned: set[str]) -> None:
        if i == len(topo):
            found.append(frozenset(current))
            return
        x = topo[i]
        recurse(i + 1, current, banned | p._up[x])
        if x not in banned:
            current.add(x)
            recurse(i + 1, current, banned)
            current.discard(x)

    recurse(0, set(), set())
    return sorted(
        (Ideal(p, mem) for mem in found if is_ideal(p, mem)),
        key=lambda ideal: (len(ideal.members), tuple(sorted(ideal.members))),
    )


def extend_iso_via_ideals(mu: OrderIso, p: Poset, q: Poset) -> OrderIso:
    """Extend an iso between finite parts to the whole posets via ideal joins.

    mu maps an induced subposet F_p of p onto an induced subposet F_q of q.
    The extension sends x to the join (in q) of the mu-image of the ideal
    x-down intersected with F_p.  Requires every element of p to be the join
    of such an ideal, and dually for q; the result is validated as an
    order-isomorphism and cross-checked against the dual extension of the
    inverse, which is what uniqueness of join-preserving extensions amounts
    to here.
    """
    _expect_induced_subposet(mu.source, p)
    _expect_induced_subposet(mu.target, q)
    extension = _extend_one_way(mu, p, q)
    dual = _extend_one_way(mu.inverse(), q, p)
    for x in p.elements:
        if dual[extension[x]] != x:
            raise NotOrderIso(
                f"extension is not invertible at {x}; join-preserving "
                "extensions disagree"
            )
    bar = order_iso(p, q, extension)
    for x in mu.source.elements:
        if bar.apply(x) != mu.apply(x):
            raise NotOrderIso(f"extension does not extend mu at {x}")
    return bar


def _extend_one_way(mu: OrderIso, p: Poset, q: Poset) -> dict[str, str]:
    finite = frozenset(mu.source.elements)
    out: dict[str, str] = {}
    for x in p.elements:
        below = p._down[x] & finite
        if not is_ideal(mu.source, below):
            raise NotAnIdeal(
                f"downset of {x} in the finite part is not an ideal"
            )
        if p.join_of(below) != x:
            raise NotGenerated(
                f"{x} is not the join of an ideal of the finite part"
            )
        j = q.join_of(mu.apply(z) for z in below)
        if j is None:
            raise JoinMissing(f"image ideal of {x} has no join in the target")
        out[x] = j
    return out


def _expect_induced_subposet(sub: Poset, parent: Poset) -> None:
    missing = set(sub.elements) - set(parent.elements)
    if missing:
        raise NotSubposet(f"elements not in the parent poset: {sorted(missing)}")
    for x in sub.elements:
        for y in sub.elements:
            if sub.leq(x, y) != parent.leq(x, y):
                raise NotSubposet(
                    f"induced order differs from parent at ({x}, {y})"
                )


# ---------------------------------------------------------------------------
# Line-oriented text format: `elements x y z`, `le x y`, `#` comments.
# ---------------------------------------------------------------------------


def parse_poset_text(text: str) -> Poset:
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "elements":
            elements.extend(tokens[1:])
        elif tokens[0] == "le":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: 'le' needs exactly two elements")
            pairs.append((tokens[1], tokens[2]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    return verify_poset(elements, pairs)


def serialize_poset(p: Poset) -> str:
    lines = ["elements " + " ".join(p.elements)]
    lines.extend(f"le {x} {y}" for x, y in p.cover_pairs())
    return "\n".join(lines) + "\n"
