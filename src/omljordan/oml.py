"""Finite orthomodular lattices: axioms, blocks, Boolean subalgebras, pasting.

An Oml wraps a validated Poset with an orthocomplementation.  Boolean
subalgebras are identified with their atom sets (an orthogonal partition of
the top element); the poset of all Boolean subalgebras is labeled by
canonical member-set strings so that labels resolve back to member sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .poset import (
    InvalidIdentifier,
    ParseError,
    Poset,
    content_lines,
    image_mask,
    verify_poset,
)


class NotLattice(Exception):
    """Some pair of elements has no meet or no join."""


class OrthoNotInvolutive(Exception):
    """The orthocomplement map is not an order-reversing involution."""


class ComplementationFails(Exception):
    """x meet x' is not bottom, or x join x' is not top."""


class OrthomodularityFails(Exception):
    """Witness pair x <= y with y != x join (y meet x')."""


class NotBoolean(Exception):
    """A candidate subalgebra fails closure or distributivity."""


class InvalidDiagram(Exception):
    """A Greechie diagram violates its well-formedness conditions."""


class PastingNotOml(Exception):
    """The pasting of a Greechie diagram is not an orthomodular lattice."""


class UnknownName(Exception):
    """Unknown standard-lattice family name."""


@dataclass(frozen=True, eq=False)
class Oml:
    """A finite orthomodular lattice.

    order is a validated lattice with bottom and top; ortho is an
    order-reversing involution satisfying complementation and the
    orthomodular law.  Use verify_oml to construct one.  It stores no
    lattice tables: meet, join and join_of read order's masks, and return
    None off the lattice.  BSub(L) is built once, on first use.
    """

    order: Poset
    ortho: Mapping[str, str]
    bottom: str
    top: str

    @property
    def elements(self) -> tuple[str, ...]:
        return self.order.elements

    def leq(self, x: str, y: str) -> bool:
        return self.order.leq(x, y)

    def meet(self, x: str, y: str) -> str | None:
        return self.order.meet(x, y)

    def join(self, x: str, y: str) -> str | None:
        return self.order.join(x, y)

    def complement(self, x: str) -> str:
        return self.ortho[x]

    def join_of(self, xs: Iterable[str]) -> str | None:
        return self.order.join_of(xs)

    def atoms(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self.order.covers(self.bottom, x))

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, x: str) -> bool:
        return x in self.ortho

    @cached_property
    def _subalgebras(self) -> dict[str, BooleanSubalgebra]:
        """See subalgebras(); keyed by label, in (size, label) order."""
        nonzero = [x for x in self.elements if x != self.bottom]
        bit, down = self.order._bit, self.order._down
        found: dict[frozenset[str], BooleanSubalgebra] = {}

        # orthogonal: the elements orthogonal to every part, as a bitset.
        def extend(parts: list[str], joined: str, start: int, orthogonal: int) -> None:
            if joined == self.top:
                sub = _subalgebra_from_partition(self, parts)
                found.setdefault(sub.members, sub)
                return
            for i in range(start, len(nonzero)):
                x = nonzero[i]
                if orthogonal & bit[x]:
                    extend(
                        parts + [x],
                        self.join(joined, x),
                        i + 1,
                        orthogonal & down[self.ortho[x]],
                    )

        extend([], self.bottom, 0, (1 << len(self)) - 1)
        subs = sorted(found.values(), key=lambda s: (len(s.members), s.label()))
        return {s.label(): s for s in subs}

    @cached_property
    def _bsub(self) -> Poset:
        """See boolean_subalgebras()."""
        # Inclusion of distinct member sets is already a partial order.
        subs = [(x, s.members) for x, s in self._subalgebras.items()]
        return Poset(
            tuple(sorted(self._subalgebras)),
            frozenset((x, y) for x, xm in subs for y, ym in subs if xm <= ym),
        )


def verify_oml(order: Poset, ortho: Mapping[str, str]) -> Oml:
    """Check every orthomodular-lattice axiom exhaustively and build the Oml.

    Element identifiers must additionally avoid '{', '}' and ',' so that
    Boolean-subalgebra labels stay parseable.
    """
    for e in order.elements:
        if any(c in "{}," for c in e):
            raise InvalidIdentifier(
                f"OML element identifier {e!r} may not contain braces or commas"
            )
    # meet and join are symmetric and defined on (x, x), so each unordered
    # pair is checked once, with x before y in element order.
    for x, y in itertools.combinations(order.elements, 2):
        if order.meet(x, y) is None:
            raise NotLattice(f"no meet for ({x}, {y})")
        if order.join(x, y) is None:
            raise NotLattice(f"no join for ({x}, {y})")
    bottom, top = order.bottom(), order.top()
    if bottom is None or top is None:
        raise NotLattice("missing bottom or top")
    if set(ortho.keys()) != set(order.elements):
        raise OrthoNotInvolutive("ortho map domain is not the element set")
    for x in order.elements:
        if ortho[x] not in order._bit:
            raise OrthoNotInvolutive(f"ortho({x}) is not an element")
        if ortho[ortho[x]] != x:
            raise OrthoNotInvolutive(f"ortho is not involutive at {x}")
    ortho_bits = [order._bit[ortho[x]] for x in order.elements]
    for x in order.elements:
        if image_mask(order._up[x], ortho_bits) & ~order._down[ortho[x]]:
            y = next(y for y in order.upset(x) if not order.leq(ortho[y], ortho[x]))
            raise OrthoNotInvolutive(f"ortho is not order-reversing at ({x}, {y})")
    for x in order.elements:
        if order.meet(x, ortho[x]) != bottom or order.join(x, ortho[x]) != top:
            raise ComplementationFails(f"{x} and {ortho[x]} are not complements")
    for x in order.elements:
        for y in order.upset(x):
            if order.join(x, order.meet(y, ortho[x])) != y:
                raise OrthomodularityFails(f"x={x}, y={y}: y != x v (y ^ x')")
    return Oml(order, dict(ortho), bottom, top)


def commutes(lattice: Oml, a: str, b: str) -> bool:
    """Standard OML commutation: a = (a ^ b) v (a ^ b')."""
    if a not in lattice or b not in lattice:
        raise ValueError(f"{a!r} or {b!r} is not an element")
    left = lattice.meet(a, b)
    right = lattice.meet(a, lattice.complement(b))
    return lattice.join(left, right) == a


@dataclass(frozen=True, eq=False)
class BooleanSubalgebra:
    """A subset of an OML closed under the operations, with its atom set."""

    parent: Oml
    members: frozenset[str]
    atoms: tuple[str, ...]

    def label(self) -> str:
        return subalgebra_label(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanSubalgebra)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash(self.members)


def subalgebra_label(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def members_of_label(label: str) -> frozenset[str]:
    if not (label.startswith("{") and label.endswith("}")):
        raise ValueError(f"not a subalgebra label: {label!r}")
    inner = label[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def verify_boolean_subalgebra(lattice: Oml, members: Iterable[str]) -> BooleanSubalgebra:
    """Validate closure, complementation and distributivity on a member set."""
    mem = frozenset(members)
    unknown = mem - set(lattice.elements)
    if unknown:
        raise NotBoolean(f"not elements: {sorted(unknown)}")
    if lattice.bottom not in mem or lattice.top not in mem:
        raise NotBoolean("missing bottom or top")
    for x in mem:
        if lattice.complement(x) not in mem:
            raise NotBoolean(f"not closed under ortho at {x}")
        for y in mem:
            if lattice.meet(x, y) not in mem or lattice.join(x, y) not in mem:
                raise NotBoolean(f"not closed under meet/join at ({x}, {y})")
    for x in mem:
        for y in mem:
            for z in mem:
                lhs = lattice.meet(x, lattice.join(y, z))
                rhs = lattice.join(lattice.meet(x, y), lattice.meet(x, z))
                if lhs != rhs:
                    raise NotBoolean(f"distributivity fails at ({x}, {y}, {z})")
    atoms = tuple(
        sorted(
            x
            for x in mem
            if x != lattice.bottom
            and not any(
                y != lattice.bottom and y != x and lattice.leq(y, x) for y in mem
            )
        )
    )
    if len(mem) != 2 ** len(atoms):
        raise NotBoolean(
            f"member count {len(mem)} is not 2^{len(atoms)}"
        )
    for x in mem:
        below = [a for a in atoms if lattice.leq(a, x)]
        if lattice.join_of(below) != x:
            raise NotBoolean(f"{x} is not a join of atoms")
    return BooleanSubalgebra(lattice, mem, atoms)


def subalgebra_as_oml(sub: BooleanSubalgebra) -> Oml:
    """The induced lattice on a Boolean subalgebra, validated as an OML.

    Closure of the member set guarantees the induced order keeps its meets
    and joins, so this runs the full axiom check on the restriction.
    """
    order = sub.parent.order.restrict(sorted(sub.members))
    ortho = {x: sub.parent.complement(x) for x in sub.members}
    return verify_oml(order, ortho)


def _subalgebra_from_partition(lattice: Oml, parts: Sequence[str]) -> BooleanSubalgebra:
    """The 2^k joins of subsets of parts, as an AND table of up-masks."""
    up = lattice.order._up
    bounds = [(1 << len(lattice)) - 1]
    for part in parts:
        bounds += [b & up[part] for b in bounds]
    members = frozenset(map(lattice.order._by_up.__getitem__, bounds))
    return BooleanSubalgebra(lattice, members, tuple(sorted(parts)))


def subalgebras(lattice: Oml) -> list[BooleanSubalgebra]:
    """All Boolean subalgebras, generated from orthogonal partitions of top.

    Each subalgebra is determined by its atom set, which is a family of
    nonzero pairwise-orthogonal elements joining to top; results are deduped
    by member set and sorted by (size, label).  The lattice enumerates them
    once; each call returns a new list.
    """
    return list(lattice._subalgebras.values())


def boolean_subalgebras(lattice: Oml) -> Poset:
    """The inclusion poset BSub(L), labeled by canonical member-set strings."""
    return lattice._bsub


def blocks(lattice: Oml) -> list[BooleanSubalgebra]:
    """Maximal Boolean subalgebras: the maximal elements of BSub(L), sorted
    by label."""
    return [lattice._subalgebras[x] for x in lattice._bsub.maximal_elements()]


# ---------------------------------------------------------------------------
# Greechie diagrams and pasting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreechieDiagram:
    """Atom names plus blocks (atom subsets); input notation for test OMLs."""

    atoms: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]


def greechie_diagram(
    atoms: Sequence[str], block_list: Sequence[Sequence[str]]
) -> GreechieDiagram:
    atom_set = set(atoms)
    if len(atom_set) != len(atoms):
        raise InvalidDiagram("duplicate atom names")
    for name in atoms:
        if not name or any(c.isspace() for c in name) or any(c in "{},+" for c in name):
            raise InvalidDiagram(f"bad atom name {name!r}")
    blks = []
    for blk in block_list:
        if len(set(blk)) != len(blk):
            raise InvalidDiagram(f"block {blk} repeats an atom")
        if len(blk) < 2:
            raise InvalidDiagram(f"block {blk} has fewer than 2 atoms")
        if not set(blk) <= atom_set:
            raise InvalidDiagram(f"block {blk} uses undeclared atoms")
        blks.append(tuple(blk))
    covered = set().union(*[set(b) for b in blks]) if blks else set()
    if covered != atom_set:
        raise InvalidDiagram(f"atoms in no block: {sorted(atom_set - covered)}")
    for b1, b2 in itertools.combinations(blks, 2):
        if len(set(b1) & set(b2)) > 1:
            raise InvalidDiagram(f"blocks {b1} and {b2} share more than one atom")
    return GreechieDiagram(tuple(atoms), tuple(blks))


def from_greechie(diagram: GreechieDiagram) -> Oml:
    """Paste one Boolean algebra per block and validate the result as an OML.

    Proper nonempty subsets of distinct blocks are identified when they have
    the same atom support; complements of identified subsets are identified
    as well (forced, or the orthocomplement would be ill-defined).  No
    admissibility (loop) conditions are implemented: whatever the pasting
    produces is handed to verify_oml and rejected with a witness if it is
    not an OML.
    """
    nodes: list[tuple[int, frozenset[str]]] = []
    for bi, blk in enumerate(diagram.blocks):
        blk_set = set(blk)
        for r in range(1, len(blk)):
            for sub in itertools.combinations(sorted(blk_set), r):
                nodes.append((bi, frozenset(sub)))
    parent: dict[tuple[int, frozenset[str]], tuple[int, frozenset[str]]] = {
        n: n for n in nodes
    }

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    by_support: dict[frozenset[str], list[tuple[int, frozenset[str]]]] = {}
    for n in nodes:
        by_support.setdefault(n[1], []).append(n)
    for group in by_support.values():
        for other in group[1:]:
            union(group[0], other)
    # Propagate forced complement identifications to a fixpoint.
    changed = True
    while changed:
        changed = False
        classes: dict[tuple[int, frozenset[str]], list[tuple[int, frozenset[str]]]] = {}
        for n in nodes:
            classes.setdefault(find(n), []).append(n)
        for group in classes.values():
            comps = [(bi, frozenset(diagram.blocks[bi]) - sup) for bi, sup in group]
            comps = [c for c in comps if c[1]]  # full-block subsets complement to 0
            for other in comps[1:]:
                if find(comps[0]) != find(other):
                    union(comps[0], other)
                    changed = True

    classes = {}
    for n in nodes:
        classes.setdefault(find(n), []).append(n)

    def class_label(group: list[tuple[int, frozenset[str]]]) -> str:
        return min("+".join(sorted(sup)) for _, sup in group)

    label_of = {rep: class_label(group) for rep, group in classes.items()}
    labels = sorted(set(label_of.values()))
    if len(labels) != len(classes):
        raise PastingNotOml("distinct element classes collide on a label")

    elements = ["0", "1"] + labels
    pairs: list[tuple[str, str]] = []
    for lab in labels:
        pairs.append(("0", lab))
        pairs.append((lab, "1"))
    # Nodes are listed block by block; the order is generated by strict
    # inclusion inside each block.
    for _, inside in itertools.groupby(nodes, key=lambda n: n[0]):
        for n1, n2 in itertools.permutations(inside, 2):
            if n1[1] < n2[1] and find(n1) != find(n2):
                pairs.append((label_of[find(n1)], label_of[find(n2)]))
    try:
        order = verify_poset(elements, pairs)
    except Exception as exc:
        raise PastingNotOml(f"pasted order is not a poset: {exc}") from exc

    ortho: dict[str, str] = {"0": "1", "1": "0"}
    for rep, group in classes.items():
        bi, sup = group[0]
        comp = frozenset(diagram.blocks[bi]) - sup
        comp_label = "1" if not comp else label_of[find((bi, comp))]
        for bj, supj in group[1:]:
            compj = frozenset(diagram.blocks[bj]) - supj
            other = "1" if not compj else label_of[find((bj, compj))]
            if other != comp_label:
                raise PastingNotOml(
                    f"orthocomplement of {label_of[rep]} is ill-defined"
                )
        ortho[label_of[rep]] = comp_label
    try:
        return verify_oml(order, ortho)
    except PastingNotOml:
        raise
    except Exception as exc:
        raise PastingNotOml(f"pasting fails OML axioms: {exc}") from exc


# ---------------------------------------------------------------------------
# Standard families.
# ---------------------------------------------------------------------------


def standard(name: str, n: int) -> Oml:
    """Stock examples: boolean(n), mo(n), horizontal_sum_b8(n)."""
    if name == "boolean":
        return _boolean(n)
    if name == "mo":
        if n < 1:
            raise ValueError("mo(n) needs n >= 1")
        atoms = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
        blocks_ = [(f"a{i}", f"b{i}") for i in range(1, n + 1)]
        return from_greechie(greechie_diagram(atoms, blocks_))
    if name == "horizontal_sum_b8":
        if n < 1:
            raise ValueError("horizontal_sum_b8(n) needs n >= 1")
        atoms = []
        blocks_ = []
        for i in range(1, n + 1):
            trio = (f"a{i}", f"b{i}", f"c{i}")
            atoms.extend(trio)
            blocks_.append(trio)
        return from_greechie(greechie_diagram(atoms, blocks_))
    raise UnknownName(name)


def _boolean(n: int) -> Oml:
    if n < 1:
        raise ValueError("boolean(n) needs n >= 1")
    atoms = [f"a{i}" for i in range(1, n + 1)]

    def label(subset: frozenset[str]) -> str:
        if not subset:
            return "0"
        if len(subset) == n:
            return "1"
        return "+".join(sorted(subset))

    subsets = [
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(atoms, r)
    ]
    names = {s: label(s) for s in subsets}
    # The covers s < s + a generate the order.
    pairs = [(names[s], names[s | {a}]) for s in subsets for a in atoms if a not in s]
    order = verify_poset(list(names.values()), pairs)
    ortho = {names[s]: names[frozenset(atoms) - s] for s in subsets}
    return verify_oml(order, ortho)


# ---------------------------------------------------------------------------
# Text formats: OML = poset format + `ortho x y`; Greechie = `atoms`/`block`.
# ---------------------------------------------------------------------------


def parse_oml_text(text: str) -> Oml:
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    ortho: dict[str, str] = {}
    for lineno, line in content_lines(text):
        tokens = line.split()
        if tokens[0] == "elements":
            elements.extend(tokens[1:])
        elif tokens[0] == "le":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: 'le' needs exactly two elements")
            pairs.append((tokens[1], tokens[2]))
        elif tokens[0] == "ortho":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: 'ortho' needs exactly two elements")
            x, y = tokens[1], tokens[2]
            for a, b in ((x, y), (y, x)):
                if a in ortho and ortho[a] != b:
                    raise ParseError(f"line {lineno}: conflicting ortho for {a}")
                ortho[a] = b
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    order = verify_poset(elements, pairs)
    return verify_oml(order, ortho)


def serialize_oml(lattice: Oml) -> str:
    lines = ["elements " + " ".join(lattice.elements)]
    lines.extend(f"le {x} {y}" for x, y in lattice.order.cover_pairs())
    done = set()
    for x in lattice.elements:
        y = lattice.complement(x)
        if x not in done and y not in done:
            lines.append(f"ortho {x} {y}")
            done.update((x, y))
    return "\n".join(lines) + "\n"


def parse_greechie_text(text: str) -> GreechieDiagram:
    atoms: list[str] = []
    block_list: list[tuple[str, ...]] = []
    for lineno, line in content_lines(text):
        tokens = line.split()
        if tokens[0] == "atoms":
            atoms.extend(tokens[1:])
        elif tokens[0] == "block":
            block_list.append(tuple(tokens[1:]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    return greechie_diagram(atoms, block_list)


def serialize_greechie(diagram: GreechieDiagram) -> str:
    lines = ["atoms " + " ".join(diagram.atoms)]
    lines.extend("block " + " ".join(blk) for blk in diagram.blocks)
    return "\n".join(lines) + "\n"
