"""Recover OML isomorphisms from Boolean-subalgebra-poset isomorphisms.

Given an order-isomorphism j between BSub(L) and BSub(M) (with labels
resolving to member sets), every element x of L sits in the 4-element
subalgebra {0, x, x', 1}, so j determines where each complementary pair
{x, x'} must land as a pair; what remains open is one orientation bit per
pair.  Reconstruction is therefore a finite constraint search over those
bits: an assignment is consistent iff the induced bijection preserves
order.  The uniqueness guarantee (no 4-element blocks implies a unique
solution) is treated as a testable property, not as an algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .oml import (
    Oml,
    blocks,
    boolean_subalgebras,
    members_of_label,
    subalgebra_label,
)
from .poset import NotOrderIso, OrderIso, ParseError, extends_order_iso, order_iso


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


def reconstruct_oml_isos(iso: BsubIso) -> list[OmlIso]:
    """All OML isomorphisms k with k[D] = j(D) for every Boolean subalgebra D.

    Search: one orientation variable per complementary pair, pairs most
    shared between blocks first, with partial order-consistency pruning;
    every complete assignment is verified exhaustively (full OmlIso axioms
    plus k[D] = j(D) for all D) before being emitted.  Raises NoSolution
    when nothing survives.
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
    # Defensive pair-level check on every subalgebra image.
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

    left_blocks = blocks(left)
    block_count = {p: sum(p[0] in b.members for b in left_blocks) for p in pairs}
    search_order = sorted(pairs, key=lambda p: (-block_count[p], p))

    solutions: list[dict[str, str]] = []
    assignment: dict[str, str] = {
        left.bottom: right.bottom,
        left.top: right.top,
    }

    def consistent(x: str, y: str) -> bool:
        return extends_order_iso(left.order, right.order, assignment.items(), x, y)

    def assign(i: int) -> None:
        if i == len(search_order):
            solutions.append(dict(assignment))
            return
        x, xc = search_order[i]
        c, cc = pair_target[(x, xc)]
        for img, img_c in ((c, cc), (cc, c)):
            if consistent(x, img) and consistent(xc, img_c):
                assignment[x] = img
                assignment[xc] = img_c
                assign(i + 1)
                del assignment[x]
                del assignment[xc]

    assign(0)

    result = []
    for mapping in solutions:
        try:
            k = verify_oml_iso(left, right, mapping)
        except NotOrderIso:
            continue
        if all(
            image == frozenset(map(mapping.__getitem__, members))
            for members, image in images
        ):
            result.append(k)
    if not result:
        raise NoSolution("no OML isomorphism induces this BSub isomorphism")
    result.sort(key=lambda k: k.mapping_items())
    return result


def certify_unique(iso: BsubIso) -> OmlIso:
    """Reconstruct and certify the unique solution.

    Requires that neither OML has a 4-element block; under that hypothesis
    reconstruction is guaranteed to have exactly one solution, so
    more than one is reported as an internal-consistency failure with full
    witnesses.
    """
    if has_4element_block(iso.left) or has_4element_block(iso.right):
        raise HypothesisViolated(
            "a 4-element block is present; uniqueness requires OMLs "
            "without any 4-element blocks"
        )
    sols = reconstruct_oml_isos(iso)
    if len(sols) != 1:
        witness = "; ".join(str(dict(s.mapping)) for s in sols)
        raise UniquenessFailed(
            f"{len(sols)} solutions where the uniqueness guarantee "
            f"promises one: {witness}"
        )
    return sols[0]


# ---------------------------------------------------------------------------
# Exchange format: `sub <id> = {x,y,...}` lines plus `map <idL> <idR>` lines.
# ---------------------------------------------------------------------------


def parse_bsub_iso_text(left: Oml, right: Oml, text: str) -> BsubIso:
    subs: dict[str, frozenset[str]] = {}
    map_pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
