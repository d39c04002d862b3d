"""Recover OML isomorphisms from Boolean-subalgebra-poset isomorphisms.

Given an order-isomorphism j between BSub(L) and BSub(M) (with labels
resolving to member sets), every element x of L sits in the 4-element
subalgebra {0, x, x', 1}, so j determines where each complementary pair
{x, x'} must land as a pair; what remains open is one orientation bit per
pair.

The bits are read off the blocks.  A Boolean algebra with 3 or more atoms
is determined by its subalgebras (Sachs, "The lattice of subalgebras of a
Boolean algebra", Canadian J. Math., 1962); Harding and Navara
("Subalgebras of orthomodular lattices", Order, 2011) carry this to OMLs.
A solution k (k[D] = j(D) for every D) maps each block B onto j(B): each
atom a of B to the one element of a's pair image that is an atom of j(B),
every other element of B to the join of its atoms' images.  That fixes the
blocks with 3 or more atoms.  The pairs left free are the non-bound
elements of 4-element blocks, which share only 0 and 1 with other blocks,
so x is comparable to nothing but 0 and 1 on either side: once one
orientation of the free pairs gives an isomorphism, every one does.  One
map is verified, and the solutions are its 2^f reorientations for f
4-element blocks: MO(n) has 2^n, counted without listing them.  The
uniqueness guarantee (no 4-element blocks, one solution) is a testable
property that certify_unique checks.
"""

from __future__ import annotations

import itertools
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
from .poset import NotOrderIso, OrderIso, ParseError, content_lines, order_iso


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


def _read(iso: BsubIso) -> tuple[OmlIso, list[tuple[str, str]]]:
    """The block reading (see the module docstring).

    Returns the solution that gives each free pair its first orientation,
    its mapping listing 0, 1, then the pairs most shared between blocks
    first, and the free pairs.  Raises InconsistentLevels when j's pair
    targets do not fit together, NoSolution when no OML isomorphism does."""
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
    target_of = {m: target for p, target in zip(pairs, targets) for m in p}
    for label in boolean_subalgebras(left).elements:
        members = members_of_label(label)
        expected = {right.bottom, right.top}
        for m in members:
            if m in target_of:
                expected.update(target_of[m])
        if frozenset(expected) != iso.apply_members(members):
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
    pairs.sort(key=lambda p: (-block_count[p], p))
    reading = {left.bottom: right.bottom, left.top: right.top}
    for block in left_blocks:
        if len(block.atoms) >= 3:
            _read_block(iso, block, target_of, reading)
    free = [p for p in pairs if p[0] not in reading]
    for x, xc in free:
        reading[x], reading[xc] = target_of[x]
    domain = [left.bottom, left.top, *(m for p in pairs for m in p)]
    try:
        k = verify_oml_iso(left, right, {x: reading[x] for x in domain})
    except NotOrderIso as exc:
        raise NoSolution(
            f"no OML isomorphism induces this BSub isomorphism: an order "
            f"relation crosses the images of the pairs ({exc})"
        )
    return k, free


def _read_block(
    iso: BsubIso,
    block: BooleanSubalgebra,
    target_of: Mapping[str, tuple[str, str]],
    reading: dict[str, str],
) -> None:
    """Add to reading the images of a block B with 3 or more atoms: each atom
    goes to the one element of its pair target that is an atom of j(B), and
    every other member to the join of the images of its atoms.  Atoms are
    read first, then the members by name."""
    left, right = iso.left, iso.right
    name = block.label()
    target = right._subalgebras.get(subalgebra_label(iso.apply_members(block.members)))
    if target is None:
        raise NoSolution(f"the image of block {name} is not a Boolean subalgebra")
    atom_image = {}
    for a in block.atoms:
        found = [y for y in target_of[a] if y in target.atoms]
        if len(found) != 1:
            raise NoSolution(f"atom {a} of block {name} has {len(found)} candidates")
        atom_image[a] = found[0]
    for x in sorted(block.members, key=lambda x: (x not in atom_image, x)):
        y = right.join_of(atom_image[a] for a in block.atoms if left.leq(a, x))
        if x in target_of and y not in target_of[x]:
            raise NoSolution(f"block {name} maps {x} to {y}, outside its pair image")
        if reading.setdefault(x, y) != y:
            raise NoSolution(f"two blocks map {x} to {reading[x]} and {y}")


def _listing(k: OmlIso, free: list[tuple[str, str]]) -> list[OmlIso]:
    """k under every orientation of the free pairs, sorted by mapping_items().

    Each free pair lies in one block, so _read lists the free pairs by name.
    A pair's first member precedes its complement, and k sends it to the
    smaller name of the two targets, so the product over the free pairs,
    each unflipped before flipped, is already sorted.  Each mapping keeps
    k's insertion order."""
    names = [m for p in free for m in p]
    images = [(k.mapping[x], k.mapping[xc]) for x, xc in free]
    solutions = []
    for parts in itertools.product(*(((y, yc), (yc, y)) for y, yc in images)):
        mapping = dict(k.mapping)
        mapping.update(zip(names, itertools.chain.from_iterable(parts)))
        solutions.append(OmlIso(k.source, k.target, mapping))
    return solutions


def reconstruct_oml_isos(iso: BsubIso) -> list[OmlIso]:
    """All OML isomorphisms k with k[D] = j(D) for every Boolean subalgebra D,
    sorted by mapping_items().

    The blocks with 3 or more atoms fix their elements' images; every
    orientation of the remaining pairs, those of the 4-element blocks, is a
    solution once one is (see the module docstring).  One map is verified
    as an OML isomorphism.  Raises NoSolution when it fails.
    """
    return _listing(*_read(iso))


def count_oml_isos(iso: BsubIso) -> int:
    """len(reconstruct_oml_isos(iso)) without listing the solutions: 2 to the
    number of free pairs."""
    return 2 ** len(_read(iso)[1])


def certify_unique(iso: BsubIso) -> OmlIso:
    """Reconstruct and certify the unique solution.

    Requires that neither OML has a 4-element block; under that hypothesis
    reconstruction is guaranteed to have exactly one solution.  Free pairs
    would mean several, reported with full witnesses as an
    internal-consistency failure."""
    if has_4element_block(iso.left) or has_4element_block(iso.right):
        raise HypothesisViolated(
            "a 4-element block is present; uniqueness requires OMLs "
            "without any 4-element blocks"
        )
    k, free = _read(iso)
    if free:
        sols = _listing(k, free)
        witness = "; ".join(str(dict(s.mapping)) for s in sols)
        raise UniquenessFailed(
            f"{len(sols)} solutions where the uniqueness guarantee "
            f"promises one: {witness}"
        )
    return k


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
