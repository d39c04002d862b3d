"""Recover OML isomorphisms from Boolean-subalgebra-poset isomorphisms.

Given an order-isomorphism j between BSub(L) and BSub(M) (with labels
resolving to member sets), every element x of L sits in the 4-element
subalgebra {0, x, x', 1}, so j determines where each complementary pair
{x, x'} must land as a pair; what remains open is one orientation bit per
pair.  Reconstruction is therefore a finite constraint search over those
bits: an assignment is consistent iff the induced bijection preserves
order.  The uniqueness guarantee (no 4-element blocks implies a unique
solution) is treated as a testable property, not as an algorithm.

The search factors by components, the mechanism behind Harding and Navara
("Subalgebras of orthomodular lattices", Order, 2011).  Call two pairs
adjacent when they lie in a common block of L.  In an OML, x <= y implies
that x and y commute, so they share a block: no order relation other than
with 0 and 1 crosses two components, and every Boolean subalgebra lies in
one block, hence in one component.  The same must hold on M for the pair
targets of each component, which is checked once per call (a crossing there
means no solution).  Then a bijection is an OML isomorphism with k[D] = j(D)
for all D exactly when its restriction to each component, with 0 and 1,
passes the same checks there.  So each component is searched and verified
on its own, and the solutions are the Cartesian product of the component
solutions: MO(n) has n components of 2 orientations each, and a count of
2^n costs n small searches.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

from .oml import (
    BooleanSubalgebra,
    Oml,
    blocks,
    boolean_subalgebras,
    members_of_label,
    subalgebra_label,
)
from .poset import (
    NotOrderIso,
    OrderIso,
    ParseError,
    Poset,
    content_lines,
    extends_order_iso,
    order_iso,
)


class InconsistentLevels(Exception):
    """j does not respect the structure of the subalgebra posets."""


class NoSolution(Exception):
    """No OML isomorphism induces the given subalgebra-poset isomorphism."""


class HypothesisViolated(Exception):
    """A 4-element block is present, so uniqueness is not guaranteed."""


class UniquenessFailed(Exception):
    """Multiple solutions where the no-4-element-block guarantee promises one."""


@dataclass(frozen=True, eq=False)
class BsubIso:
    """An order-isomorphism between the Boolean-subalgebra posets of two OMLs."""

    left: Oml
    right: Oml
    j: OrderIso

    def apply_members(self, members: frozenset[str]) -> frozenset[str]:
        return members_of_label(self.j.apply(subalgebra_label(members)))


def bsub_iso(left: Oml, right: Oml, mapping: Mapping[str, str]) -> BsubIso:
    """Validate a label-level mapping as a BsubIso: an order-isomorphism of
    the two BSub posets.  It keeps the levels: the trivial subalgebra is
    BSub's bottom, and the 4-element subalgebras {0, x, x', 1} are its atoms
    (every larger Boolean subalgebra holds one), so both map onto their own."""
    try:
        j = order_iso(boolean_subalgebras(left), boolean_subalgebras(right), mapping)
    except NotOrderIso as exc:
        raise InconsistentLevels(f"not an order-isomorphism of BSub posets: {exc}")
    return BsubIso(left, right, j)


def identity_bsub_iso(lattice: Oml) -> BsubIso:
    bsub = boolean_subalgebras(lattice)
    return bsub_iso(lattice, lattice, {x: x for x in bsub.elements})


@dataclass(frozen=True, eq=False)
class OmlIso(OrderIso):
    """An OrderIso between OMLs that also preserves ortho."""

    source: Oml
    target: Oml


def verify_oml_iso(source: Oml, target: Oml, mapping: Mapping[str, str]) -> OmlIso:
    """Validate mapping as an order-isomorphism of the lattices (which maps
    bottom to bottom) that commutes with ortho."""
    order_iso(source.order, target.order, mapping)
    for x in source.elements:
        if mapping[source.ortho[x]] != target.ortho[mapping[x]]:
            raise NotOrderIso(f"ortho not preserved at {x}")
    return OmlIso(source, target, dict(mapping))


def induced_bsub_iso(k: OmlIso) -> BsubIso:
    """The BSub-poset isomorphism D -> k[D] induced by an OML isomorphism."""
    bsub_l = boolean_subalgebras(k.source)
    mapping = {}
    for label in bsub_l.elements:
        image = frozenset(k.apply(x) for x in members_of_label(label))
        mapping[label] = subalgebra_label(image)
    return bsub_iso(k.source, k.target, mapping)


def has_4element_block(lattice: Oml) -> bool:
    return any(len(b.members) == 4 for b in blocks(lattice))


def _complementary_pairs(lattice: Oml) -> list[tuple[str, str]]:
    """Pairs {x, x'} over the non-bound elements, canonical member first."""
    done = set()
    pairs = []
    for x in sorted(lattice.elements):
        if x in (lattice.bottom, lattice.top) or x in done:
            continue
        y = lattice.complement(x)
        pairs.append((min(x, y), max(x, y)))
        done.update((x, y))
    return pairs


def _components(
    pairs: list[tuple[str, str]],
    pair_of: Mapping[str, tuple[str, str]],
    lattice_blocks: list[BooleanSubalgebra],
) -> list[list[tuple[str, str]]]:
    """The pairs grouped into the components of the graph in which two pairs
    are adjacent when they lie in a common block: components in order of
    their first pair, pairs in the order of `pairs`."""
    root = {p: p for p in pairs}

    def find(p: tuple[str, str]) -> tuple[str, str]:
        while root[p] != p:
            p = root[p]
        return p

    for block in lattice_blocks:
        inside = [pair_of[m] for m in block.members if m in pair_of]
        for p in inside[1:]:
            root[find(p)] = find(inside[0])
    groups: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for p in pairs:
        groups.setdefault(find(p), []).append(p)
    return list(groups.values())


def _closed_part(lattice: Oml, xs: list[str]) -> Poset | None:
    """The order of lattice restricted to xs plus 0 and 1, or None when an
    element of xs is comparable to an element outside them.  One test of
    each element's up-mask and down-mask."""
    order = lattice.order
    keep = [*xs, lattice.bottom, lattice.top]
    inside = order.mask(keep)
    if any((order._up[x] | order._down[x]) & ~inside for x in xs):
        return None
    return order if inside == (1 << len(order)) - 1 else order.restrict(keep)


# One component: its elements (pairs in search order) and, per verified
# solution, their images in that order.
_Component = tuple[list[str], list[tuple[str, ...]]]


def _search(iso: BsubIso) -> tuple[list[str], list[_Component]]:
    """The orientation search, one component at a time.

    Returns the domain in the order the search assigns it (0, 1, then each
    pair in search order) and every component with its verified solutions.
    Raises NoSolution when some component has none, or when j's pair
    targets cannot be matched at all.
    """
    left, right = iso.left, iso.right
    pairs = _complementary_pairs(left)
    targets: list[tuple[str, str]] = []
    for x, xc in pairs:
        image = iso.apply_members(frozenset({left.bottom, x, xc, left.top}))
        rest = sorted(image - {right.bottom, right.top})
        if len(rest) != 2 or right.complement(rest[0]) != rest[1]:
            raise InconsistentLevels(
                f"image of pair subalgebra {{{x},{xc}}} is not a pair subalgebra"
            )
        targets.append((rest[0], rest[1]))
    # Defensive pair-level check on every subalgebra image.  It also settles
    # the trivial subalgebra {0, 1}, the one that lies in no component.
    bsub_l = boolean_subalgebras(left)
    pair_target = dict(zip(pairs, targets))
    pair_of = {m: p for p in pairs for m in p}
    # Each subalgebra's member set and its image under j, worked out once.
    images = [
        (members_of_label(label), iso.apply_members(members_of_label(label)))
        for label in bsub_l.elements
    ]
    for label, (members, image) in zip(bsub_l.elements, images):
        expected = {right.bottom, right.top}
        for m in members:
            if m in pair_of:
                expected.update(pair_target[pair_of[m]])
        if frozenset(expected) != image:
            raise InconsistentLevels(
                f"subalgebra image of {label} is not the union of pair images"
            )
    # Every bijection hits every target, so the targets must split M's
    # non-bound elements, one target pair per pair of L.
    hit = {y for target in targets for y in target}
    inner = set(right.elements) - {right.bottom, right.top}
    if len(left) != len(right) or hit != inner:
        raise NoSolution("the pair images do not cover the target lattice once")

    left_blocks = blocks(left)
    block_count = {p: sum(p[0] in b.members for b in left_blocks) for p in pairs}
    search_order = sorted(pairs, key=lambda p: (-block_count[p], p))
    components = _components(search_order, pair_of, left_blocks)
    component_of = {
        m: i for i, group in enumerate(components) for p in group for m in p
    }
    # D's non-bound members lie in one block, hence in one component; the
    # trivial subalgebra has none and was settled above.
    inside: list[list[tuple[frozenset[str], frozenset[str]]]] = [
        [] for _ in components
    ]
    for members, image in images:
        i = next((component_of[m] for m in members if m in component_of), None)
        if i is not None:
            inside[i].append((members, image))

    solved = []
    for group, subalgebras in zip(components, inside):
        xs = [m for p in group for m in p]
        source = _closed_part(left, xs)
        if source is None:
            raise RuntimeError(
                "an order relation crosses two block components of L, which "
                "no orthomodular lattice has"
            )
        # An order relation between two target groups has no counterpart in
        # L, so no bijection can match it.
        target = _closed_part(right, [y for p in group for y in pair_target[p]])
        if target is None:
            raise NoSolution(
                "an order relation of the target lattice crosses the images "
                "of two block components"
            )
        solutions = _component_solutions(
            iso, group, pair_target, source, target, subalgebras
        )
        if not solutions:
            raise NoSolution("no OML isomorphism induces this BSub isomorphism")
        solved.append((xs, solutions))
    domain = [left.bottom, left.top, *(m for p in search_order for m in p)]
    return domain, solved


def _component_solutions(
    iso: BsubIso,
    group: list[tuple[str, str]],
    pair_target: Mapping[tuple[str, str], tuple[str, str]],
    source: Poset,
    target: Poset,
    subalgebras: list[tuple[frozenset[str], frozenset[str]]],
) -> list[tuple[str, ...]]:
    """Every orientation of the pairs of one component that passes the full
    check there: an order-isomorphism source -> target that commutes with
    ortho and maps each of the component's subalgebras onto its j-image.
    Search: pairs in group order, pruned by partial order-consistency.  A
    solution lists the images of the group's pairs in order."""
    left, right = iso.left, iso.right
    solutions: list[tuple[str, ...]] = []
    assignment: dict[str, str] = {
        left.bottom: right.bottom,
        left.top: right.top,
    }

    def consistent(x: str, y: str) -> bool:
        return extends_order_iso(left.order, right.order, assignment.items(), x, y)

    def verified() -> bool:
        try:
            order_iso(source, target, assignment)
        except NotOrderIso:
            return False
        return all(
            assignment[left.ortho[x]] == right.ortho[assignment[x]]
            for x in source.elements
        ) and all(
            image == frozenset(map(assignment.__getitem__, members))
            for members, image in subalgebras
        )

    def assign(i: int) -> None:
        if i == len(group):
            if verified():
                solutions.append(tuple(assignment[m] for p in group for m in p))
            return
        x, xc = group[i]
        c, cc = pair_target[(x, xc)]
        for img, img_c in ((c, cc), (cc, c)):
            if consistent(x, img) and consistent(xc, img_c):
                assignment[x] = img
                assignment[xc] = img_c
                assign(i + 1)
                del assignment[x]
                del assignment[xc]

    assign(0)
    return solutions


def _assemble(
    iso: BsubIso, domain: list[str], components: list[_Component]
) -> list[OmlIso]:
    """The product of the component solutions, one OmlIso each, whose
    mapping lists domain in order; sorted by mapping_items().

    A row holds the images of 0, 1 and each component's elements in turn.
    Every row has the same domain, so its images in sorted-domain order are
    an equivalent sort key.
    """
    left, right = iso.left, iso.right
    listed = [left.bottom, left.top, *(x for xs, _ in components for x in xs)]
    column = {x: i for i, x in enumerate(listed)}
    by_domain = operator.itemgetter(*(column[x] for x in domain))
    by_name = operator.itemgetter(*(column[x] for x in sorted(left.elements)))
    bounds = (right.bottom, right.top)
    rows = [
        bounds + tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*(solutions for _, solutions in components))
    ]
    rows.sort(key=by_name)
    return [OmlIso(left, right, dict(zip(domain, by_domain(row)))) for row in rows]


def reconstruct_oml_isos(iso: BsubIso) -> list[OmlIso]:
    """All OML isomorphisms k with k[D] = j(D) for every Boolean subalgebra D,
    sorted by mapping_items().

    Search: one orientation variable per complementary pair, solved one
    block component at a time (see the module docstring): pairs most shared
    between blocks first, with partial order-consistency pruning; every
    complete assignment of a component is verified exhaustively on it
    (order-isomorphism of the component plus 0 and 1, ortho, and k[D] = j(D)
    for every D inside it).  No order relation crosses two components on
    either side (checked once per call) and every D lies in one component,
    so these checks add up to the full OmlIso axioms plus k[D] = j(D) for
    all D, and the solutions are exactly the Cartesian product of the
    component solutions.  Raises NoSolution when nothing survives.
    """
    return _assemble(iso, *_search(iso))


def count_oml_isos(iso: BsubIso) -> int:
    """len(reconstruct_oml_isos(iso)) without listing the solutions: the
    product of the component solution counts."""
    return math.prod(len(solutions) for _, solutions in _search(iso)[1])


def certify_unique(iso: BsubIso) -> OmlIso:
    """Reconstruct and certify the unique solution.

    Requires that neither OML has a 4-element block; under that hypothesis
    reconstruction is guaranteed to have exactly one solution.  The
    solutions are the product of the component solutions, so each component
    must have exactly one; otherwise the full list is built and reported as
    an internal-consistency failure with full witnesses.
    """
    if has_4element_block(iso.left) or has_4element_block(iso.right):
        raise HypothesisViolated(
            "a 4-element block is present; uniqueness requires OMLs "
            "without any 4-element blocks"
        )
    domain, components = _search(iso)
    if any(len(solutions) != 1 for _, solutions in components):
        sols = _assemble(iso, domain, components)
        witness = "; ".join(str(dict(s.mapping)) for s in sols)
        raise UniquenessFailed(
            f"{len(sols)} solutions where the uniqueness guarantee "
            f"promises one: {witness}"
        )
    return _assemble(iso, domain, components)[0]


# ---------------------------------------------------------------------------
# Exchange format: `sub <id> = {x,y,...}` lines plus `map <idL> <idR>` lines.
# ---------------------------------------------------------------------------


def parse_bsub_iso_text(left: Oml, right: Oml, text: str) -> BsubIso:
    subs: dict[str, frozenset[str]] = {}
    map_pairs: list[tuple[str, str]] = []
    for lineno, line in content_lines(text):
        tokens = line.split(None, 1)
        if tokens[0] == "sub":
            try:
                head, body = tokens[1].split("=", 1)
            except ValueError:
                raise ParseError(f"line {lineno}: 'sub' needs '<id> = {{...}}'")
            name = head.strip()
            if name in subs:
                raise ParseError(f"line {lineno}: duplicate sub id {name!r}")
            body = body.strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise ParseError(f"line {lineno}: member set must be braced")
            subs[name] = frozenset(
                x.strip() for x in body[1:-1].split(",") if x.strip()
            )
        elif tokens[0] == "map":
            parts = tokens[1].split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: 'map' needs two sub ids")
            map_pairs.append((parts[0], parts[1]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    mapping = {}
    for src, dst in map_pairs:
        if src not in subs or dst not in subs:
            raise ParseError(f"map uses undeclared sub id ({src}, {dst})")
        mapping[subalgebra_label(subs[src])] = subalgebra_label(subs[dst])
    return bsub_iso(left, right, mapping)


def serialize_bsub_iso(iso: BsubIso) -> str:
    lines = []
    left_labels = list(iso.j.source.elements)
    right_labels = list(iso.j.target.elements)
    left_ids = {label: f"L{i}" for i, label in enumerate(left_labels)}
    right_ids = {label: f"R{i}" for i, label in enumerate(right_labels)}
    for label, short in left_ids.items():
        lines.append(f"sub {short} = {label}")
    for label, short in right_ids.items():
        lines.append(f"sub {short} = {label}")
    for label in left_labels:
        lines.append(f"map {left_ids[label]} {right_ids[iso.j.apply(label)]}")
    return "\n".join(lines) + "\n"
