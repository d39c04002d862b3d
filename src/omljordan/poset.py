"""Finite posets, order-isomorphisms, ideals, and ideal-completion extension.

Elements are opaque string identifiers.  Every constructor validates; the
relation stored in a Poset is always the full reflexive-transitive closure.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """A member set violates the ideal invariant (downset + join closure)."""


class NotGenerated(Exception):
    """An element is not the join of an ideal of the finite part."""


class JoinMissing(Exception):
    """A required least upper bound does not exist."""


class ParseError(Exception):
    """A text-format file does not parse."""


@dataclass(frozen=True)
class Poset:
    """A finite partial order: element tuple plus the full <= relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.relation

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.relation

    def downset(self, x: str) -> tuple[str, ...]:
        key = ("down", x)
        if key not in self._cache:
            self._cache[key] = tuple(
                z for z in self.elements if self.leq(z, x)
            )
        return self._cache[key]

    def upset(self, x: str) -> tuple[str, ...]:
        key = ("up", x)
        if key not in self._cache:
            self._cache[key] = tuple(
                z for z in self.elements if self.leq(x, z)
            )
        return self._cache[key]

    def covers(self, x: str, y: str) -> bool:
        """True iff y covers x (x < y with nothing strictly between)."""
        if not self.lt(x, y):
            return False
        return not any(self.lt(x, z) and self.lt(z, y) for z in self.elements)

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted(
            (x, y) for x in self.elements for y in self.elements if self.covers(x, y)
        )

    def join(self, x: str, y: str) -> str | None:
        return self.join_of((x, y))

    def meet(self, x: str, y: str) -> str | None:
        key = ("meet", x, y)
        if key not in self._cache:
            lowers = [
                z for z in self.elements if self.leq(z, x) and self.leq(z, y)
            ]
            greatest = [z for z in lowers if all(self.leq(w, z) for w in lowers)]
            self._cache[key] = greatest[0] if greatest else None
        return self._cache[key]

    def join_of(self, xs: Iterable[str]) -> str | None:
        """Least upper bound of a set; the empty set's join is the bottom."""
        key = ("join", frozenset(xs))
        if key not in self._cache:
            uppers = [
                z
                for z in self.elements
                if all(self.leq(x, z) for x in key[1])
            ]
            least = [z for z in uppers if all(self.leq(z, w) for w in uppers)]
            self._cache[key] = least[0] if least else None
        return self._cache[key]

    def bottom(self) -> str | None:
        return self.join_of([])

    def top(self) -> str | None:
        tops = [z for z in self.elements if all(self.leq(x, z) for x in self.elements)]
        return tops[0] if tops else None

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(
            x for x in self.elements if not any(self.lt(x, y) for y in self.elements)
        )

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
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    for x, y in pairs:
        if x not in index or y not in index:
            raise UnknownElement(f"pair ({x}, {y}) uses undeclared elements")
        leq[index[x]][index[y]] = True
    # Warshall closure.
    for k in range(n):
        rowk = leq[k]
        for i in range(n):
            if leq[i][k]:
                rowi = leq[i]
                for j in range(n):
                    if rowk[j]:
                        rowi[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleError(f"{elems[i]} <= {elems[j]} <= {elems[i]}")
    rel = frozenset(
        (elems[i], elems[j]) for i in range(n) for j in range(n) if leq[i][j]
    )
    return Poset(elems, rel)


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
    down = len(p.downset(x))
    up = len(p.upset(x))
    degree = sum(1 for y in p.elements if p.covers(x, y) or p.covers(y, x))
    return (down, up, degree)


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
    """A downset closed under existing pairwise joins (the empty set counts)."""

    parent: Poset
    members: frozenset[str]


def is_ideal(p: Poset, members: Iterable[str]) -> bool:
    mem = set(members)
    if not mem <= set(p.elements):
        return False
    for x in mem:
        if any(p.leq(z, x) and z not in mem for z in p.elements):
            return False
    for x in mem:
        for y in mem:
            j = p.join(x, y)
            if j is None or j not in mem:
                return False
    return True


def ideals(p: Poset) -> list[Ideal]:
    """All ideals of p, enumerated over downsets (not raw subsets)."""
    topo = sorted(p.elements, key=lambda x: (len(p.downset(x)), x))
    found: list[frozenset[str]] = []

    def recurse(i: int, current: set[str], banned: set[str]) -> None:
        if i == len(topo):
            found.append(frozenset(current))
            return
        x = topo[i]
        recurse(i + 1, current, banned | set(p.upset(x)))
        if x not in banned:
            current.add(x)
            recurse(i + 1, current, banned)
            current.discard(x)

    recurse(0, set(), set())
    out = [
        Ideal(p, mem)
        for mem in found
        if all(
            (j := p.join(x, y)) is not None and j in mem
            for x in mem
            for y in mem
        )
    ]
    out.sort(key=lambda ideal: (len(ideal.members), tuple(sorted(ideal.members))))
    return out


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
    out: dict[str, str] = {}
    for x in p.elements:
        below = [z for z in mu.source.elements if p.leq(z, x)]
        if not is_ideal(mu.source, below):
            raise NotAnIdeal(
                f"downset of {x} in the finite part is not an ideal"
            )
        if p.join_of(below) != x:
            raise NotGenerated(
                f"{x} is not the join of an ideal of the finite part"
            )
        image = [mu.apply(z) for z in below]
        j = q.join_of(image)
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
