"""Finite posets, order-isomorphisms, ideals, and ideal-completion extension.

Elements are opaque string identifiers.  Every constructor validates; the
relation stored in a Poset is always the full reflexive-transitive closure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


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


@dataclass(frozen=True)
class Poset:
    """A finite partial order: element tuple plus the full <= relation.

    Construction gives element i the bit 1 << i and builds each element's
    up-mask and down-mask (int bitsets), plus one dict per direction from
    mask back to element.  Every order query reads the masks: leq is one bit
    test; a join or meet is an AND of masks and one lookup.  Elements not in
    the poset read as incomparable to everything.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    _bit: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _up: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _down: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _by_up: Mapping[int, str] = field(init=False, repr=False, compare=False)
    _by_down: Mapping[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bit = {x: 1 << i for i, x in enumerate(self.elements)}
        up = dict.fromkeys(self.elements, 0)
        down = dict.fromkeys(self.elements, 0)
        for x, y in self.relation:
            up[x] |= bit[y]
            down[y] |= bit[x]
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_by_up", {m: x for x, m in up.items()})
        object.__setattr__(self, "_by_down", {m: x for x, m in down.items()})

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up.get(x, 0) & self._bit.get(y, 0))

    def downset(self, x: str) -> tuple[str, ...]:
        return self.members(self._down.get(x, 0))

    def upset(self, x: str) -> tuple[str, ...]:
        return self.members(self._up.get(x, 0))

    def members(self, mask: int) -> tuple[str, ...]:
        """The elements whose bits are set in mask, in element order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.elements[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def mask(self, xs: Iterable[str]) -> int:
        """The bitset of the elements of xs (unknown ones are dropped)."""
        return sum(self._bit.get(x, 0) for x in set(xs))

    def covers(self, x: str, y: str) -> bool:
        """True iff y covers x: the interval [x, y] is {x, y} with x != y."""
        return (self._up.get(x, 0) & self._down.get(y, 0)).bit_count() == 2

    def cover_pairs(self) -> list[tuple[str, str]]:
        return sorted(
            (x, y) for x in self.elements for y in self.upset(x) if self.covers(x, y)
        )

    def join(self, x: str, y: str) -> str | None:
        return self._by_up.get(self._up.get(x, 0) & self._up.get(y, 0))

    def meet(self, x: str, y: str) -> str | None:
        """Greatest lower bound: the z whose down-mask is the AND of the
        down-masks of x and y."""
        return self._by_down.get(self._down.get(x, 0) & self._down.get(y, 0))

    def join_of(self, xs: Iterable[str]) -> str | None:
        """Least upper bound of a set; the empty set's join is the bottom.

        It is the z whose up-mask is the AND of the up-masks of xs.
        """
        ups = (self._up.get(x, 0) for x in xs)
        bounds = functools.reduce(operator.and_, ups, (1 << len(self)) - 1)
        return self._by_up.get(bounds)

    def bottom(self) -> str | None:
        return self.join_of(())

    def top(self) -> str | None:
        return self._by_down.get((1 << len(self.elements)) - 1)

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self._up[x] == self._bit[x])

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


def image_mask(mask: int, bits: Sequence[int]) -> int:
    """The OR of bits[i] over the set bits i of mask: a bitset carried
    through a map given as one target bit per source index."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


def check_identifiers(elements: Iterable[str]) -> None:
    """Reject an empty, whitespace-holding or repeated element identifier."""
    seen = set()
    for e in elements:
        if not e or any(c.isspace() for c in e):
            raise InvalidIdentifier(f"bad element identifier {e!r}")
        if e in seen:
            raise DuplicateElement(e)
        seen.add(e)


def verify_poset(
    elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a Poset from generator pairs, taking the reflexive-transitive closure.

    Rejects duplicate or malformed identifiers and antisymmetry violations.
    """
    check_identifiers(elements)
    elems = tuple(elements)
    bit = {e: 1 << i for i, e in enumerate(elems)}
    up = dict(bit)
    for x, y in pairs:
        if x not in bit or y not in bit:
            raise UnknownElement(f"pair ({x}, {y}) uses undeclared elements")
        up[x] |= bit[y]
    # Warshall closure on the int up-masks: each x below k takes k's up-mask.
    for k in elems:
        bit_k, up_k = bit[k], up[k]
        for x in elems:
            if up[x] & bit_k:
                up[x] |= up_k
    relation = set()
    for x in elems:
        rest = up[x]
        while rest:
            low = rest & -rest
            y = elems[low.bit_length() - 1]
            if low > bit[x] and up[y] & bit[x]:
                raise CycleError(f"{x} <= {y} <= {x}")
            relation.add((x, y))
            rest ^= low
    return Poset(elems, frozenset(relation))


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
    failure = _order_mismatch(source, target, mapping)
    if failure:
        x, y = failure
        raise NotOrderIso(
            f"order not preserved at ({x}, {y}) -> ({mapping[x]}, {mapping[y]})"
        )
    return OrderIso(source, target, dict(mapping))


def _order_mismatch(
    source: Poset, target: Poset, f: Mapping[str, str]
) -> tuple[str, str] | None:
    """The first pair (x, y), in row-major order, where x <= y in source and
    f[x] <= f[y] in target disagree, or None.  For an injective f there is
    none iff each up-mask maps onto its image's up-mask within the image, so
    the pairs are scanned only after a mismatch."""
    xs = source.elements
    bits = [target._bit[f[x]] for x in xs]
    span = sum(bits)
    if all(image_mask(source._up[x], bits) == target._up[f[x]] & span for x in xs):
        return None
    pairs = ((x, y) for x in xs for y in xs)
    return next((x, y) for x, y in pairs if source.leq(x, y) != target.leq(f[x], f[y]))


def extends_order_iso(
    p: Poset, q: Poset, assigned: Iterable[tuple[str, str]], x: str, y: str
) -> bool:
    """Whether x -> y agrees with every assigned pair a -> b of a partial map
    p -> q: a <= x iff b <= y, and x <= a iff y <= b."""
    up_x, down_x, bit_p = p._up.get(x, 0), p._down.get(x, 0), p._bit
    up_y, down_y, bit_q = q._up.get(y, 0), q._down.get(y, 0), q._bit
    return all(
        (not down_x & bit_p[a]) == (not down_y & bit_q[b])
        and (not up_x & bit_p[a]) == (not up_y & bit_q[b])
        for a, b in assigned
    )


def _signature(p: Poset, x: str) -> tuple[int, int, int]:
    degree = sum(p.covers(x, y) for y in p.upset(x)) + sum(
        p.covers(y, x) for y in p.downset(x)
    )
    return (p._down[x].bit_count(), p._up[x].bit_count(), degree)


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
            if y in used or not extends_order_iso(p, q, assignment.items(), x, y):
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
    """A downset (no member's down-mask leaves the members' mask) in which
    every pair's join, an AND of up-masks and a lookup, is a member."""
    mem = frozenset(members)
    return p._bit.keys() >= mem and _is_ideal_mask(p, mem, p.mask(mem))


def _is_ideal_mask(p: Poset, members: Iterable[str], mask: int) -> bool:
    """is_ideal on members of p given with their mask over p's bits."""
    if any(p._down[x] & ~mask for x in members):
        return False
    pairs = itertools.combinations([p._up[x] for x in members], 2)
    joins = set(map(p._by_up.get, itertools.starmap(operator.and_, pairs)))
    return all(p._bit.get(j, 0) & mask for j in joins)


def ideals(p: Poset) -> list[Ideal]:
    """All ideals of p, enumerated over downsets (not raw subsets)."""
    topo = sorted(p.elements, key=lambda x: (p._down[x].bit_count(), x))
    found: list[frozenset[str]] = []

    def recurse(i: int, current: set[str], banned: int) -> None:
        if i == len(topo):
            found.append(frozenset(current))
            return
        x = topo[i]
        recurse(i + 1, current, banned | p._up[x])
        if not banned & p._bit[x]:
            current.add(x)
            recurse(i + 1, current, banned)
            current.discard(x)

    recurse(0, set(), 0)
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
    # mu.source may give its elements other bits than p does
    source = mu.source
    finite = p.mask(source.elements)
    to_source = [source._bit.get(x, 0) for x in p.elements]
    out: dict[str, str] = {}
    for x in p.elements:
        mask = p._down[x] & finite
        below = p.members(mask)
        if not _is_ideal_mask(source, below, image_mask(mask, to_source)):
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
    failure = _order_mismatch(sub, parent, {x: x for x in sub.elements})
    if failure:
        raise NotSubposet(
            f"induced order differs from parent at ({failure[0]}, {failure[1]})"
        )


# ---------------------------------------------------------------------------
# Line-oriented text format: `elements x y z`, `le x y`, `#` comments.
# ---------------------------------------------------------------------------


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line left nonblank once `#` comments go."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_poset_text(text: str) -> Poset:
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    for lineno, line in content_lines(text):
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
