"""Seeded exact inputs for the benchmark workloads.

Every input is built from the seed with exact Gaussian-rational entries; no
float is formed.  Items come in batches.  A batch holds one item of each
kind its workload mixes, always in the same order, and the seed only picks
the parameters inside an item (Pythagorean triple, rotation plane,
permutation, phases, lattice automorphism).  So every seed asks for the
same kind of work per batch, and a run's figures do not depend on which
item kinds a seed happened to draw.

Each generated pipeline instance goes through ``theorem_instance`` here, so
an invalid input fails loudly during set-up instead of being skipped.  The
items keep a pristine deep copy of their inputs, taken before that check,
and every execution gets a fresh copy of it: no object that the package
has already worked on is handed to a timed item.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

from omljordan import jordan, matalg, oml, pipeline, reconstruct
from omljordan.linalg import I, ONE, ZERO, GaussScalar, Matrix
from omljordan.matalg import AlgElement, FinDimAlgebra

TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
PHASES = (ONE, -ONE, I, -I)

# Lattices of one oml-lattices batch, and how many items of each it holds.
# The sizes are fixed so that every seed does the same order-theoretic work;
# the seed picks each item's automorphism.  The lattices that take well under
# a second come eight times, each with its own automorphism and interleaved
# with the others, so that their median times rest on several items although
# boolean(6) alone takes most of a batch's time.  mo(8) and
# horizontal_sum_b8(4) are left out: at under 0.1 s an item they would time
# mostly the machine's jitter, and they would move the median slot down to
# such items.
OML_BATCH = (
    ("boolean", 5, 8),
    ("boolean", 6, 1),
    ("mo", 10, 8),
    ("mo", 12, 1),
    ("horizontal_sum_b8", 6, 8),
    ("horizontal_sum_b8", 8, 8),
)


@dataclass(frozen=True)
class JordanIso:
    """The closed form x -> w tau(x) w* of a seeded Jordan isomorphism, with
    tau the transpose or the identity.  Every composition of ad-unitaries
    and transposes reduces to this form."""

    w: AlgElement
    transposed: bool

    def image(self, x: AlgElement) -> AlgElement:
        y = x.transpose() if self.transposed else x
        return self.w * y * self.w.star()


@dataclass(eq=False)
class Item:
    """One unit of work.  ``kind`` is ``unique``, ``ambiguous`` or ``oml``.

    ``inputs`` is what the timed item receives (a fresh copy each time);
    ``expected`` holds the closed-form answer the check compares against;
    ``source`` keeps the generated objects for the input digest.
    """

    kind: str
    label: str
    inputs: tuple
    expected: Any
    source: Any

    def fresh_inputs(self) -> tuple:
        return copy.deepcopy(self.inputs)

    def describe(self) -> str:
        """Canonical text of the inputs, through the package's serializers."""
        if self.kind == "oml":
            lattice, mapping = self.source
            return oml.serialize_oml(lattice) + "".join(
                f"k {x} {mapping[x]}\n" for x in sorted(mapping)
            )
        instance = self.source
        return (
            matalg.serialize_algebra(
                instance.algebra_m, dict(instance.fragment_m.partitions)
            )
            + matalg.serialize_algebra(
                instance.algebra_n, dict(instance.fragment_n.partitions)
            )
            + pipeline.serialize_instance("m.alg", "n.alg", instance)
        )


# The items of one round of each pipeline workload, as (kind, dims, map
# family), and how many of them make one batch.  A batch is the unit of
# set-up; a round is the mix a run measures.  A slot of the round keeps its
# family in every round, so runs that end after a part of a round do the
# same kind of work per slot as runs that end after whole rounds.
PLANS = {
    "pipeline-small": (
        (
            ("unique", (3,), "perm-rot-transpose"),
            ("unique", (2, 1), "rot"),
            ("ambiguous", (2,), "transpose"),
        ),
        3,
    ),
    # One item per batch: a (3,1) instance alone takes seconds to generate.
    "pipeline-large": (
        (
            ("unique", (3, 1), "perm-rot-transpose"),
            ("unique", (2, 2), "rot"),
        ),
        1,
    ),
}


def batches_per_round(workload: str) -> int:
    if workload not in PLANS:
        return 1
    plan, per_batch = PLANS[workload]
    return len(plan) // per_batch


def batch(workload: str, seed: int, index: int) -> list[Item]:
    """Batch ``index`` of a workload; the same arguments give equal inputs."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "oml-lattices":
        most = max(copies for *_, copies in OML_BATCH)
        return [
            oml_item(family, n, rng)
            for copy in range(most)
            for family, n, copies in OML_BATCH
            if copy < copies
        ]
    plan, per_batch = PLANS[workload]
    items = []
    for slot in range(index * per_batch, (index + 1) * per_batch):
        items.append(pipeline_item(*plan[slot % len(plan)], rng))
    return items


def digest(items: Iterable[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        h.update(item.describe().encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Pipeline items: a coarsening-closed fragment of the diagonal partition and
# one rotated partition, and its image under a seeded Jordan isomorphism.
# ---------------------------------------------------------------------------


def pipeline_item(
    kind: str, dims: tuple[int, ...], family: str, rng: random.Random
) -> Item:
    algebra = FinDimAlgebra(dims)
    spots = [
        (s, (i, j))
        for s, n in enumerate(dims)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    fragment_spot = rng.choice(spots)
    # The map rotates another plane than the fragment's where there is one,
    # so its image of the rotated partition has the same density every seed.
    map_spots = [s for s in spots if s != fragment_spot] or spots
    # Imaginary entries make the rotated projections non-symmetric, so a
    # transpose acts on the fragment differently from the identity.
    u = rotation(algebra, rng, *fragment_spot, imaginary=True)
    atoms = algebra.diagonal_atoms()
    named = {
        "diag": matalg.partition_of_unity(algebra, atoms),
        "rot": matalg.partition_of_unity(
            algebra, [matalg.as_projection(u * p * u.star()) for p in atoms]
        ),
    }
    frag_m = matalg.coarsening_closure(algebra, named)
    g = jordan_iso(algebra, family, rng, map_spots)
    frag_n = jordan.image_fragment(package_map(algebra, g), frag_m)
    mapping = {name: name for name in frag_m.names()}
    inputs = copy.deepcopy((algebra, frag_m, frag_n, mapping))
    instance = pipeline.theorem_instance(algebra, algebra, frag_m, frag_n, mapping)
    expected = [(p, g.image(p)) for p in fragment_projections(frag_m)]
    return Item(kind, f"{kind} {dims} {family}", inputs, expected, instance)


def rotation(
    algebra: FinDimAlgebra,
    rng: random.Random,
    summand: int,
    plane: tuple[int, int],
    imaginary: bool = False,
) -> AlgElement:
    """A unitary from a Pythagorean triple acting in one coordinate plane:
    the real rotation [[a, -b], [b, a]] / c, or [[a, ib], [ib, a]] / c."""
    a, b, c = rng.choice(TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    off = GaussScalar.of(Fraction(rng.choice((1, -1)) * b, c))
    if imaginary:
        upper = lower = off * I
    else:
        upper, lower = -off, off
    blocks = []
    for s, n in enumerate(algebra.dims):
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        if s == summand:
            i, j = plane
            rows[i][i] = rows[j][j] = GaussScalar.of(Fraction(a, c))
            rows[i][j], rows[j][i] = upper, lower
        blocks.append(Matrix.from_rows(rows))
    return algebra.element(blocks)


def permutation(algebra: FinDimAlgebra, rng: random.Random) -> AlgElement:
    """A non-identity permutation in every summand of size > 1, with a phase
    from {1, -1, i, -i} on every entry."""
    blocks = []
    for n in algebra.dims:
        perm = list(range(n))
        while n > 1 and perm == sorted(perm):
            rng.shuffle(perm)
        rows = [
            [rng.choice(PHASES) if perm[i] == j else ZERO for j in range(n)]
            for i in range(n)
        ]
        blocks.append(Matrix.from_rows(rows))
    return algebra.element(blocks)


def jordan_iso(
    algebra: FinDimAlgebra, family: str, rng: random.Random, spots: list
) -> JordanIso:
    w = algebra.identity()
    if "perm" in family:
        w = w * permutation(algebra, rng)
    if "rot" in family:
        w = w * rotation(algebra, rng, *rng.choice(spots))
    return JordanIso(w, "transpose" in family)


def package_map(algebra: FinDimAlgebra, g: JordanIso) -> jordan.JordanMap:
    """The package's JordanMap for g, built from ad_unitary, transpose_map
    and compose_maps (x -> w x^T w* is the transpose, then ad w)."""
    if not g.transposed:
        return jordan.ad_unitary(algebra, g.w)
    transpose = jordan.transpose_map(algebra)
    if g.w == algebra.identity():
        return transpose
    return jordan.compose_maps(transpose, jordan.ad_unitary(algebra, g.w))


def fragment_projections(frag: matalg.AbelianFragment) -> list[AlgElement]:
    """Every subset sum of every partition's atoms, each projection once.

    Computed here rather than through the package (``psi_project``), so the
    expected images do not depend on the code under test."""
    seen: dict[tuple, AlgElement] = {}
    for part in frag.partitions.values():
        sums = [part.algebra.zero()]
        for atom in part.atoms:
            sums += [s + AlgElement(atom.algebra, atom.blocks) for s in sums]
        for s in sums:
            seen.setdefault(s.sort_key(), s)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# OML items: a stock lattice and a seeded automorphism k that permutes the
# blocks and the atoms inside each block.
# ---------------------------------------------------------------------------


def oml_item(family: str, n: int, rng: random.Random) -> Item:
    lattice = oml.standard(family, n)
    if family == "boolean":
        greechie = [tuple(f"a{i}" for i in range(1, n + 1))]
    elif family == "mo":
        greechie = [(f"a{i}", f"b{i}") for i in range(1, n + 1)]
    else:
        greechie = [(f"a{i}", f"b{i}", f"c{i}") for i in range(1, n + 1)]
    atom_map: dict[str, str] = {}
    while not atom_map or all(x == y for x, y in atom_map.items()):
        order = list(range(len(greechie)))
        rng.shuffle(order)
        atom_map = {}
        for src, dst in zip(greechie, (greechie[i] for i in order)):
            dst = list(dst)
            rng.shuffle(dst)
            atom_map.update(zip(src, dst))
    atoms = tuple(atom_map)
    mapping = {
        x: lattice.join_of(atom_map[a] for a in atoms if lattice.leq(a, x))
        for x in lattice.elements
    }
    reconstruct.verify_oml_iso(lattice, lattice, mapping)
    inputs = copy.deepcopy(
        (lattice.elements, lattice.order.relation, dict(lattice.ortho), mapping)
    )
    expected = {
        "candidates": 2**n if family == "mo" else 1,
        "blocks": 1 if family == "boolean" else n,
        "bsub": bell(n) if family == "boolean" else
        (n + 1 if family == "mo" else 4 * n + 1),
        "k": mapping,
    }
    return Item("oml", f"oml {family}({n})", inputs, expected, (lattice, mapping))


def bell(n: int) -> int:
    """Number of set partitions of n items: the Boolean subalgebras of 2^n.
    Kept apart from ``combinat.bell_number`` so the check shares no code with
    the package."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]
