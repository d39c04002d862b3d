"""Exact finite-dimensional *-algebras: direct sums of matrix rings over
Gaussian rationals.

Projections, partitions of unity, commutants and abelian fragments all live
here, together with the correspondence between finite abelian subalgebras
and their Boolean algebras of projections.  Every check is an exact
equality; there are no tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import oml as omlmod
from .combinat import bell_number, set_partitions
from .linalg import (
    HALF,
    ONE,
    ZERO,
    GaussRow,
    GaussScalar,
    Matrix,
    Vector,
    char_poly,
    echelon,
    format_scalar,
    from_gauss_row,
    nullspace,
    parse_scalar,
    rational_root_split,
    rref,
)
from .poset import ParseError, Poset, check_identifiers, content_lines, verify_poset

ScalarLike = Union[GaussScalar, Fraction, int]


class ParentMismatch(Exception):
    """Operands belong to different algebras."""


class ArityMismatch(Exception):
    """Coefficient count does not match the atom count."""


class NotAbelian(Exception):
    """A basis expected to commute pairwise does not."""


class NotProjection(Exception):
    """An element fails p = p* = p^2."""


class InvalidPartition(Exception):
    """Atoms are not nonzero, pairwise orthogonal, and summing to identity."""


class InvalidSpectralForm(Exception):
    """Spectral data has repeated eigenvalues or non-real coefficients."""


class InvalidFragment(Exception):
    """An abelian fragment violates its invariants."""


@dataclass(frozen=True)
class FinDimAlgebra:
    """A direct sum of full matrix rings, given by the summand dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("summand dimensions must be positive")

    @property
    def dimension(self) -> int:
        return sum(n * n for n in self.dims)

    def element(self, blocks: Sequence[Matrix]) -> "AlgElement":
        return AlgElement(self, tuple(blocks))

    def from_rows(self, *rows_per_block) -> "AlgElement":
        return self.element([Matrix.from_rows(rows) for rows in rows_per_block])

    def identity(self) -> "AlgElement":
        return self.element([Matrix.identity(n) for n in self.dims])

    def zero(self) -> "AlgElement":
        return self.element([Matrix.zeros(n) for n in self.dims])

    def summand_identity(self, index: int) -> "AlgElement":
        blocks = [
            Matrix.identity(n) if s == index else Matrix.zeros(n)
            for s, n in enumerate(self.dims)
        ]
        return self.element(blocks)

    def matrix_unit(self, summand: int, i: int, j: int) -> "AlgElement":
        blocks = []
        for s, n in enumerate(self.dims):
            rows = [
                [
                    ONE if (s == summand and r == i and c == j) else ZERO
                    for c in range(n)
                ]
                for r in range(n)
            ]
            blocks.append(Matrix.from_rows(rows))
        return self.element(blocks)

    def matrix_units(self) -> list["AlgElement"]:
        return [
            self.matrix_unit(s, i, j)
            for s, n in enumerate(self.dims)
            for i in range(n)
            for j in range(n)
        ]

    def diagonal_atoms(self) -> list["Projection"]:
        """The standard rank-one diagonal projections, summand by summand."""
        return [
            as_projection(self.matrix_unit(s, i, i))
            for s, n in enumerate(self.dims)
            for i in range(n)
        ]


@dataclass(frozen=True, eq=False)
class AlgElement:
    """An element of a FinDimAlgebra: one exact matrix per summand."""

    algebra: FinDimAlgebra
    blocks: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.algebra.dims):
            raise ParentMismatch("block count does not match summand count")
        for blk, n in zip(self.blocks, self.algebra.dims):
            if blk.shape != (n, n):
                raise ParentMismatch(f"block shape {blk.shape} != ({n}, {n})")

    def __deepcopy__(self, memo) -> "AlgElement":
        return self  # immutable, and nothing is cached on it

    def _same_parent(self, other: "AlgElement") -> None:
        if self.algebra != other.algebra:
            raise ParentMismatch("elements of different algebras")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._same_parent(other)
        return AlgElement(
            self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._same_parent(other)
        return AlgElement(
            self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __neg__(self) -> "AlgElement":
        return self.scale(-1)

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        self._same_parent(other)
        return AlgElement(
            self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
        )

    def scale(self, factor: ScalarLike) -> "AlgElement":
        return AlgElement(self.algebra, tuple(b.scale(factor) for b in self.blocks))

    def star(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(b.dagger() for b in self.blocks))

    def transpose(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(b.transpose() for b in self.blocks))

    def trace(self) -> GaussScalar:
        return sum((b.trace() for b in self.blocks), ZERO)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_self_adjoint(self) -> bool:
        return self == self.star()

    def is_projection(self) -> bool:
        return self == self.star() and self == self * self

    def vec(self) -> Vector:
        d, row = self.row()
        return from_gauss_row(row, d)

    def row(self) -> tuple[int, GaussRow]:
        """(d, row): the entries of vec() as the Gaussian-integer row / d, d
        the least positive common denominator (the lcm of the blocks')."""
        d = math.lcm(*(b.den for b in self.blocks))
        re: list[int] = []
        im: list[int] = []
        for b in self.blocks:
            f = d // b.den
            re += b.re if f == 1 else [x * f for x in b.re]
            im += b.im if f == 1 else [x * f for x in b.im]
        return d, (re, im)

    def key(self) -> tuple[int, ...]:
        """Each block's denominator, real parts and imaginary parts, as one
        tuple of ints: blocks are in normal form, so two elements of one
        algebra are equal iff their keys are.  Sets and dicts of elements
        are keyed by it."""
        out: tuple[int, ...] = ()
        for b in self.blocks:
            out += (b.den, *b.re, *b.im)
        return out

    def sort_key(self):
        """(re, im) per entry of vec(), as exact rationals: the canonical
        entry order, which picks labels and names.  key() is cheaper for
        anything else."""
        return tuple(pair for b in self.blocks for pair in b.sort_key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgElement)
            and self.algebra == other.algebra
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.blocks))

    def __str__(self) -> str:
        return " | ".join(str(b) for b in self.blocks)


def from_vec(algebra: FinDimAlgebra, vec: Sequence[GaussScalar]) -> AlgElement:
    blocks = []
    pos = 0
    for n in algebra.dims:
        rows = [list(vec[pos + i * n : pos + (i + 1) * n]) for i in range(n)]
        blocks.append(Matrix.from_rows(rows))
        pos += n * n
    return AlgElement(algebra, tuple(blocks))


def from_row(algebra: FinDimAlgebra, d: int, row: GaussRow) -> AlgElement:
    """The element whose vec() is row / d, for a positive integer d."""
    blocks = []
    pos = 0
    for n in algebra.dims:
        re, im = row[0][pos : pos + n * n], row[1][pos : pos + n * n]
        blocks.append(Matrix.normal((n, n), d, re, im))
        pos += n * n
    return AlgElement(algebra, tuple(blocks))


class Projection(AlgElement):
    """An AlgElement satisfying p = p* = p^2 exactly."""

    def __post_init__(self):
        super().__post_init__()
        if not (self == self.star() and self == self * self):
            raise NotProjection(f"not a projection: {self}")

    def complement(self) -> "Projection":
        ident = self.algebra.identity()
        return Projection(self.algebra, (ident - self).blocks)

    def rank(self) -> int:
        return sum(sum(b.re[:: b.ncols + 1]) // b.den for b in self.blocks)


def as_projection(e: AlgElement) -> Projection:
    return Projection(e.algebra, e.blocks)


def _trusted_projection(e: AlgElement) -> Projection:
    """A Projection built without the p = p* = p^2 check, for sums of
    orthogonal atoms, which are projections by construction."""
    p = object.__new__(Projection)
    object.__setattr__(p, "algebra", e.algebra)
    object.__setattr__(p, "blocks", e.blocks)
    return p


def _traces_of_products(p: Projection, q: Projection) -> list[int]:
    """Per summand, tr(p_s q_s) times both blocks' denominators.  As q = q*,
    tr(pq) = sum_ij p_ij conj(q_ij), which is real for projections: the
    integer dot products of the real parts and of the imaginary parts."""
    return [
        sum(map(mul, a.re, b.re)) + sum(map(mul, a.im, b.im))
        for a, b in zip(p.blocks, q.blocks)
    ]


def proj_leq(p: Projection, q: Projection) -> bool:
    """Projection order: p <= q iff qp = p iff tr(pq) = tr(p).

    The trace test is exact: tr(p) - tr(pq) = ||(1-q)p||^2 (Hilbert-Schmidt),
    which vanishes iff (1-q)p = 0.  It is taken summand by summand, where
    each difference is such a norm, on integers.
    """
    p._same_parent(q)
    return all(
        t == sum(a.re[:: a.ncols + 1]) * b.den
        for t, a, b in zip(_traces_of_products(p, q), p.blocks, q.blocks)
    )


class ProjectionAlgebra(NamedTuple):
    """A partition's Boolean algebra of projections: the subset sums of its
    atoms and their keys, both indexed by bitmask."""

    projections: list[Projection]
    keys: list[tuple]


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Nonzero pairwise-orthogonal projections summing to the identity; its
    projection algebra is built once, on first use."""

    algebra: FinDimAlgebra
    atoms: tuple[Projection, ...]

    def __deepcopy__(self, memo) -> "PartitionOfUnity":
        # the atoms are immutable; the copy builds its own projection algebra
        return PartitionOfUnity(self.algebra, self.atoms)

    @cached_property
    def projection_algebra(self) -> ProjectionAlgebra:
        projections = [_trusted_projection(s) for s in _subset_sums(self)]
        return ProjectionAlgebra(projections, [p.key() for p in projections])

    def key(self) -> frozenset:
        return frozenset(a.key() for a in self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartitionOfUnity) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __len__(self) -> int:
        return len(self.atoms)

    def is_trivial(self) -> bool:
        return len(self.atoms) == 1


def partition_of_unity(
    algebra: FinDimAlgebra, atoms: Sequence[AlgElement]
) -> PartitionOfUnity:
    """Validate the atoms; a Projection instance was proved p = p* = p^2
    when it was built, so only the other atoms are checked for that."""
    projs = [a if isinstance(a, Projection) else as_projection(a) for a in atoms]
    for p in projs:
        if p.is_zero():
            raise InvalidPartition("zero atom")
        if p.algebra != algebra:
            raise ParentMismatch("atom from a different algebra")
    # pq = 0 iff tr(pq) = ||pq||^2 (Hilbert-Schmidt) vanishes, and then
    # qp = (pq)* = 0 as well
    for p, q in itertools.combinations(projs, 2):
        if any(_traces_of_products(p, q)):
            raise InvalidPartition("atoms are not pairwise orthogonal")
    total = algebra.zero()
    for p in projs:
        total = total + p
    if total != algebra.identity():
        raise InvalidPartition("atoms do not sum to the identity")
    # Atom order is the caller's: lambda_embed pairs coefficients by position.
    return PartitionOfUnity(algebra, tuple(projs))


def trivial_partition(algebra: FinDimAlgebra) -> PartitionOfUnity:
    return partition_of_unity(algebra, [algebra.identity()])


def _subset_sums(partition: PartitionOfUnity) -> list[AlgElement]:
    """The 2^k sums of subsets of the partition's atoms, indexed by bitmask
    (bit i stands for atom i); one addition each."""
    sums = [partition.algebra.zero()]
    for atom in partition.atoms:
        sums += [s + atom for s in sums]
    return sums


def coarsens(p: PartitionOfUnity, q: PartitionOfUnity) -> bool:
    """True iff every atom of p is an exact sum of atoms of q (so p's algebra
    is included in q's): every atom key of p is a subset-sum key of q."""
    if p.algebra != q.algebra:
        raise ParentMismatch("partitions of different algebras")
    keys = set(q.projection_algebra.keys)
    return all(atom.key() in keys for atom in p.atoms)


def merge_atoms(
    p: PartitionOfUnity, cells: Sequence[Sequence[int]]
) -> PartitionOfUnity:
    """Coarsen p by merging atoms according to a partition of atom indices."""
    atoms = []
    for cell in cells:
        total = p.algebra.zero()
        for i in cell:
            total = total + p.atoms[i]
        atoms.append(total)
    return partition_of_unity(p.algebra, atoms)


@dataclass(frozen=True)
class SpectralElement:
    """A self-adjoint element in spectral form: distinct rational eigenvalues
    paired with the atoms of a partition of unity."""

    pairs: tuple[tuple[Fraction, Projection], ...]

    def __post_init__(self):
        values = [v for v, _ in self.pairs]
        if len(set(values)) != len(values):
            raise InvalidSpectralForm("eigenvalues are not distinct")
        if not self.pairs:
            raise InvalidSpectralForm("empty spectral form")
        partition_of_unity(self.pairs[0][1].algebra, [p for _, p in self.pairs])

    @property
    def algebra(self) -> FinDimAlgebra:
        return self.pairs[0][1].algebra

    def element(self) -> AlgElement:
        out = self.algebra.zero()
        for value, proj in self.pairs:
            out = out + proj.scale(value)
        return out


def spectral_decomposition(a: AlgElement) -> SpectralElement:
    """Exact spectral form of a self-adjoint element with rational spectrum.

    Factors the characteristic polynomial over the rationals only; raises
    NonRationalSpectrum if it does not split.  Spectral projections are
    Lagrange interpolation polynomials in the element.
    """
    if not a.is_self_adjoint():
        raise InvalidSpectralForm("element is not self-adjoint")
    eigenvalues: set[Fraction] = set()
    per_block: list[list[Fraction]] = []
    for blk in a.blocks:
        coeffs = char_poly(blk)
        rational = []
        for c in coeffs:
            if not c.is_real():
                raise InvalidSpectralForm("characteristic polynomial not real")
            rational.append(c.re)
        roots = sorted(set(rational_root_split(rational)))
        per_block.append(roots)
        eigenvalues.update(roots)
    pairs = []
    for value in sorted(eigenvalues):
        blocks = []
        for blk, roots in zip(a.blocks, per_block):
            proj = Matrix.zeros(blk.nrows)
            if value in roots:
                proj = Matrix.identity(blk.nrows)
                for other in roots:
                    if other != value:
                        factor = (blk - Matrix.identity(blk.nrows).scale(other)).scale(
                            ONE / GaussScalar.of(value - other)
                        )
                        proj = proj @ factor
            blocks.append(proj)
        candidate = AlgElement(a.algebra, tuple(blocks))
        if not candidate.is_zero():
            pairs.append((value, as_projection(candidate)))
    return SpectralElement(tuple(pairs))


# ---------------------------------------------------------------------------
# Jordan product, commutants.
# ---------------------------------------------------------------------------


def jordan_product(a: AlgElement, b: AlgElement) -> AlgElement:
    """The symmetrized product (ab + ba) / 2, computed exactly."""
    if a.algebra != b.algebra:
        raise ParentMismatch("Jordan product of elements in different algebras")
    return (a * b + b * a).scale(HALF)


def full_matrix_algebra(algebra: FinDimAlgebra) -> FinDimAlgebra:
    """B(H) for the direct-sum Hilbert space H underlying the algebra."""
    return FinDimAlgebra((sum(algebra.dims),))


def embed_full(e: AlgElement) -> AlgElement:
    """Block-diagonal embedding of a direct-sum element into B(H)."""
    n = sum(e.algebra.dims)
    rows = [[ZERO] * n for _ in range(n)]
    pos = 0
    for blk in e.blocks:
        for i, row in enumerate(blk.entries):
            rows[pos + i][pos : pos + blk.ncols] = row
        pos += blk.nrows
    return AlgElement(FinDimAlgebra((n,)), (Matrix.from_rows(rows),))


def commutant(
    algebra: FinDimAlgebra, generators: Iterable[AlgElement]
) -> list[AlgElement]:
    """Basis of {x in B(H) : xs = sx for all s}, by one exact linear solve.

    Commutants are taken in the full matrix algebra on the direct-sum
    Hilbert space (that is where the ambient commutant lives); generators
    from the direct sum are embedded block-diagonally.  The empty set's
    commutant is all of B(H).  Before solving, the generator list is
    reduced to a spanning subset (the commutant depends only on the span).
    """
    full = full_matrix_algebra(algebra)
    gens = []
    for s in generators:
        if s.algebra == full:
            gens.append(s)
        elif s.algebra == algebra:
            gens.append(embed_full(s))
        else:
            raise ParentMismatch("generator from a different algebra")
    if not gens:
        return full.matrix_units()
    vecs = [g.vec() for g in gens]
    _, pivots = rref(
        [[vecs[j][i] for j in range(len(vecs))] for i in range(len(vecs[0]))]
    )
    gens = [gens[j] for j in pivots]
    # Constraint (xs - sx)_{kl} = 0 in the unknown entries x_{ab}: the row
    # is written down directly instead of multiplying matrices.
    n = full.dims[0]
    rows: dict[tuple, None] = {}
    for g in gens:
        s = g.blocks[0].entries
        for k in range(n):
            for l in range(n):
                row = [ZERO] * (n * n)
                for m in range(n):
                    row[k * n + m] = row[k * n + m] + s[m][l]
                    row[m * n + l] = row[m * n + l] - s[k][m]
                if any(not x.is_zero() for x in row):
                    rows.setdefault(tuple(row), None)
    if not rows:
        return full.matrix_units()  # every generator was central
    basis = nullspace(list(rows.keys()))
    return [from_vec(full, v) for v in basis]


def double_commutant(
    algebra: FinDimAlgebra, generators: Iterable[AlgElement]
) -> list[AlgElement]:
    """commutant twice; equals the generated unital *-subalgebra span."""
    return commutant(algebra, commutant(algebra, generators))


def spans_equal(a: Iterable[AlgElement], b: Iterable[AlgElement]) -> bool:
    """Exact span comparison; mixed direct-sum and B(H) elements are
    compared inside B(H) via the block-diagonal embedding."""
    a = list(a)
    b = list(b)
    algebras = {e.algebra for e in (*a, *b)}
    if len(algebras) > 1:
        a = [e if len(e.algebra.dims) == 1 else embed_full(e) for e in a]
        b = [e if len(e.algebra.dims) == 1 else embed_full(e) for e in b]

    def rank(elements: list[AlgElement]) -> int:
        return len(echelon([e.row()[1] for e in elements]))

    return rank(a) == rank(b) == rank(a + b)


# ---------------------------------------------------------------------------
# The finite abelian-subalgebra <-> Boolean projection algebra correspondence.
# ---------------------------------------------------------------------------


def lambda_embed(
    partition: PartitionOfUnity, coeffs: Sequence[ScalarLike]
) -> AlgElement:
    """Coefficient tuple -> sum of coeff * atom.  Unital *-homomorphism from
    tuples onto the subalgebra spanned by the atoms."""
    if len(coeffs) != len(partition.atoms):
        raise ArityMismatch(
            f"{len(coeffs)} coefficients for {len(partition.atoms)} atoms"
        )
    out = partition.algebra.zero()
    for c, p in zip(coeffs, partition.atoms):
        out = out + p.scale(c)
    return out


def psi_project(
    source: Union[PartitionOfUnity, Sequence[AlgElement]],
) -> list[Projection]:
    """All projections of a finite abelian subalgebra: the subset sums of its
    atoms (2^k of them), sorted canonically; a new list over the partition's
    cached projection algebra.

    Accepts either a partition of unity or a pairwise-commuting basis; in
    the basis case the generated unital *-algebra is split into atoms by
    exact spectral decompositions first.
    """
    if isinstance(source, PartitionOfUnity):
        partition = source
    else:
        partition = atoms_of_abelian_basis(source)
    return sorted(partition.projection_algebra.projections, key=AlgElement.sort_key)


def atoms_of_abelian_basis(basis: Sequence[AlgElement]) -> PartitionOfUnity:
    """Minimal projections of the unital *-algebra generated by a commuting
    basis, found by refining with exact spectral projections."""
    basis = list(basis)
    if not basis:
        raise NotAbelian("empty basis")
    algebra = basis[0].algebra
    for a, b in itertools.combinations(basis, 2):
        if a * b != b * a:
            raise NotAbelian("basis elements do not commute pairwise")
    generators: list[AlgElement] = []
    for a in basis:
        generators.append((a + a.star()).scale(HALF))
        generators.append((a - a.star()).scale(GaussScalar(Fraction(0), Fraction(-1, 2))))
    current = [trivial_partition(algebra).atoms[0]]
    for g in generators:
        if g.is_zero():
            continue
        spectral = spectral_decomposition(g)
        refined = []
        for atom in current:
            for _, proj in spectral.pairs:
                piece = atom * proj
                if not piece.is_zero():
                    refined.append(as_projection(piece))
        current = refined
    return partition_of_unity(algebra, current)


class ProjectionIndex(NamedTuple):
    """A fragment's distinct projections in (rank, sort_key) order, the order
    projection_oml labels by, with each key's position; per member, an int
    mask of its projections' positions and its atoms' positions."""

    projections: list[Projection]
    position: dict[tuple, int]
    masks: dict[str, int]
    atoms: dict[str, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class AbelianFragment:
    """A named finite family of partitions of unity, standing for finite
    abelian subalgebras (each subalgebra is the span of its atoms).

    Its projection index is built once, on first use, from the roots only:
    members are taken by atom count, largest first.  A member whose atoms
    all lie in an earlier root's projection algebra lies below that root, so
    its atoms are cell sums of the root's atoms and its projections are the
    unions of those cells; any other member is a root and reads its own
    cached projection algebra.  Non-root members never build subset sums."""

    algebra: FinDimAlgebra
    partitions: Mapping[str, PartitionOfUnity]

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.partitions))

    def __len__(self) -> int:
        return len(self.partitions)

    @cached_property
    def index(self) -> ProjectionIndex:
        parts = self.partitions
        roots: list[tuple[ProjectionAlgebra, dict[tuple, int]]] = []
        # each member's root, and its atoms as cells: masks over the root's atoms
        found: dict[str, tuple[int, list[int]]] = {}
        for name in sorted(parts, key=lambda n: (-len(parts[n]), n)):
            keys = [a.key() for a in parts[name].atoms]
            for r, (_, cell) in enumerate(roots):
                if all(k in cell for k in keys):
                    break
            else:
                r = len(roots)
                table = parts[name].projection_algebra
                roots.append((table, {k: m for m, k in enumerate(table.keys)}))
            found[name] = (r, [roots[r][1][k] for k in keys])
        distinct = {k: p for t, _ in roots for k, p in zip(t.keys, t.projections)}
        ranked = sorted(
            distinct, key=lambda k: (distinct[k].rank(), distinct[k].sort_key())
        )
        position = {k: i for i, k in enumerate(ranked)}
        at = [[position[k] for k in t.keys] for t, _ in roots]
        masks, atoms = {}, {}
        for name in parts:
            r, cells = found[name]
            unions = [0]
            for c in cells:
                unions += [u | c for u in unions]
            masks[name] = sum(1 << at[r][u] for u in unions)
            atoms[name] = tuple(at[r][c] for c in cells)
        return ProjectionIndex([distinct[k] for k in ranked], position, masks, atoms)

    def projections(self) -> list[Projection]:
        """Union of the members' Boolean projection algebras, in sort_key order."""
        return sorted(self.index.projections, key=AlgElement.sort_key)


def fragment(
    algebra: FinDimAlgebra, named: Mapping[str, PartitionOfUnity]
) -> AbelianFragment:
    parts = dict(named)
    check_identifiers(parts)
    for name, p in parts.items():
        if p.algebra != algebra:
            raise ParentMismatch(f"partition {name!r} lives in a different algebra")
    if not any(p.is_trivial() for p in parts.values()):
        raise InvalidFragment("fragment does not contain the trivial partition")
    keys = {p.key() for p in parts.values()}
    if len(keys) != len(parts):
        raise InvalidFragment("two names denote the same partition")
    return AbelianFragment(algebra, parts)


def check_coarsening_closed(frag: AbelianFragment) -> Poset:
    """Prove that every merge of every member's atoms is a member, and return
    the fragment poset; raise InvalidFragment on the first member that fails.

    The members below a k-atom member p are exactly its merges that are
    members: a q <= p has atoms that are sums of p-atoms over disjoint cells.
    Members are distinct, so p's Bell(k) merges are all members iff Bell(k)
    members lie below p.  A member with more merges than the fragment has
    members fails at once and stays out of the poset and its projection
    index, so its 2^k subset sums are never built; members below the others
    have fewer atoms, so stay in.  With none over, frag's own index is read."""
    parts = frag.partitions
    within = {n: p for n, p in parts.items() if bell_number(len(p)) <= len(frag)}
    if len(within) < len(parts):
        frag = AbelianFragment(frag.algebra, within)
    poset = fragment_poset(frag)
    for name, p in parts.items():
        if name not in within or poset._down[name].bit_count() != bell_number(len(p)):
            raise InvalidFragment(
                f"fragment is not coarsening-closed: a merge of {name!r} is missing"
            )
    return poset


def coarsening_closure(
    algebra: FinDimAlgebra, named: Mapping[str, PartitionOfUnity]
) -> AbelianFragment:
    """Close a named family under all atom merges.  Generated partitions are
    named m0, m1, ... in the order of their sorted atom sort keys, skipping
    given names; the trivial one is named 'trivial' unless already present
    under another name."""
    if "trivial" in named and not named["trivial"].is_trivial():
        raise InvalidFragment("a non-trivial partition is named 'trivial'")
    given = {p.key() for p in named.values()}
    generated: dict[frozenset, PartitionOfUnity] = {}
    # Each merge's cell sums are read by bitmask from p's projection algebra,
    # and not re-validated: the merged cells of a partition form one.
    for p in named.values():
        sums, keys = p.projection_algebra
        for cells in set_partitions(range(len(p.atoms))):
            masks = [sum(1 << i for i in cell) for cell in cells]
            key = frozenset(keys[m] for m in masks)
            if key not in given and key not in generated:
                cell_sums = tuple(sums[m] for m in masks)
                generated[key] = PartitionOfUnity(p.algebra, cell_sums)
    triv = trivial_partition(algebra)
    if triv.key() not in given and triv.key() not in generated:
        generated[triv.key()] = triv
    ordered = sorted(
        generated.values(), key=lambda p: sorted(a.sort_key() for a in p.atoms)
    )
    parts = dict(named)
    fresh = (f"m{i}" for i in itertools.count() if f"m{i}" not in named)
    for p, name in zip(ordered, fresh):
        parts["trivial" if p.is_trivial() else name] = p
    # closed by construction: a merge of a merge of p is a merge of p
    return fragment(algebra, parts)


def fragment_poset(frag: AbelianFragment) -> Poset:
    """Inclusion order on the fragment: P <= Q iff P coarsens Q, that is iff
    Proj(P) is a subset of Proj(Q), an inclusion of masks in the projection
    index.  Inclusion is reflexive and transitive, and distinct members have
    distinct projection sets, so on the masks it is already a partial order:
    no closure is taken.  Names were checked when fragment() built frag."""
    masks = [(name, frag.index.masks[name]) for name in frag.names()]
    pairs = ((a, b) for a, ma in masks for b, mb in masks if not ma & ~mb)
    return Poset(frag.names(), frozenset(pairs))


def is_type_I2_free(algebra: FinDimAlgebra) -> bool:
    """True iff no summand is a full 2x2 matrix ring."""
    return all(n != 2 for n in algebra.dims)


# ---------------------------------------------------------------------------
# Algebra file format.
#
#   summands: [3, 1]
#   partition diag
#   atom 1, 0, 0 ; 0, 0, 0 ; 0, 0, 0 | 0
#   ...
#
# Matrix entries use the canonical scalar form (`a/b+c/d i`); blocks are
# separated by `|`, rows by `;`, entries by `,`.  Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def format_element(e: AlgElement) -> str:
    return " | ".join(
        " ; ".join(", ".join(format_scalar(x) for x in row) for row in b.entries)
        for b in e.blocks
    )


def parse_element(algebra: FinDimAlgebra, text: str) -> AlgElement:
    block_texts = text.split("|")
    if len(block_texts) != len(algebra.dims):
        raise ParseError(
            f"expected {len(algebra.dims)} blocks, got {len(block_texts)}"
        )
    blocks = []
    for blk_text, n in zip(block_texts, algebra.dims):
        rows = []
        row_texts = blk_text.split(";")
        if len(row_texts) != n:
            raise ParseError(f"expected {n} rows in a block, got {len(row_texts)}")
        for row_text in row_texts:
            entries = [parse_scalar(tok) for tok in row_text.split(",")]
            if len(entries) != n:
                raise ParseError(
                    f"expected {n} entries in a row, got {len(entries)}"
                )
            rows.append(entries)
        blocks.append(Matrix.from_rows(rows))
    return AlgElement(algebra, tuple(blocks))


def parse_algebra_text(text: str) -> tuple[FinDimAlgebra, dict[str, PartitionOfUnity]]:
    algebra: FinDimAlgebra | None = None
    partitions: dict[str, PartitionOfUnity] = {}
    pending_name: str | None = None
    pending_atoms: list[AlgElement] = []

    def flush():
        nonlocal pending_name, pending_atoms
        if pending_name is not None:
            if not pending_atoms:
                raise ParseError(f"partition {pending_name!r} has no atoms")
            partitions[pending_name] = partition_of_unity(algebra, pending_atoms)
        pending_name, pending_atoms = None, []

    for lineno, line in content_lines(text):
        if line.startswith("summands:"):
            if algebra is not None:
                raise ParseError(f"line {lineno}: duplicate summands line")
            body = line[len("summands:") :].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ParseError(f"line {lineno}: summands must be a bracketed list")
            try:
                dims = tuple(int(tok) for tok in body[1:-1].split(",") if tok.strip())
                algebra = FinDimAlgebra(dims)
            except ValueError:
                raise ParseError(f"line {lineno}: bad summand dimensions")
        elif line.startswith("partition "):
            if algebra is None:
                raise ParseError(f"line {lineno}: partition before summands")
            flush()
            pending_name = line[len("partition ") :].strip()
            if not pending_name or any(c.isspace() for c in pending_name):
                raise ParseError(f"line {lineno}: bad partition name")
            if pending_name in partitions:
                raise ParseError(f"line {lineno}: duplicate partition name")
        elif line.startswith("atom "):
            if pending_name is None:
                raise ParseError(f"line {lineno}: atom outside a partition")
            try:
                pending_atoms.append(parse_element(algebra, line[len("atom ") :]))
            except (ParseError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}")
        else:
            raise ParseError(f"line {lineno}: unknown directive")
    if algebra is None:
        raise ParseError("missing summands line")
    flush()
    return algebra, partitions


def serialize_algebra(
    algebra: FinDimAlgebra, partitions: Mapping[str, PartitionOfUnity]
) -> str:
    lines = ["summands: [" + ", ".join(str(n) for n in algebra.dims) + "]"]
    for name in sorted(partitions):
        lines.append(f"partition {name}")
        for atom in partitions[name].atoms:
            lines.append("atom " + format_element(atom))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Finite OML of projections (bridge into the oml module).
# ---------------------------------------------------------------------------


def projection_oml(
    algebra: FinDimAlgebra, projections: Sequence[Projection]
) -> tuple[omlmod.Oml, dict[str, Projection]]:
    """Build the finite OML on a complement-closed set of projections.

    The order is the ambient projection order; labels are q0, q1, ... in
    rank order, ties in the given order, except the zero and identity which
    are labeled 0 and 1.  Pass the projections in sort_key order, as
    AbelianFragment.projections() and its index list them, and the labels
    follow rank, then entries.  Raises if the set is not closed under
    complements or does not form a lattice under the induced order.
    """
    ident = algebra.identity()
    seen: dict[tuple, Projection] = {}
    for p in (*projections, as_projection(algebra.zero()), as_projection(ident)):
        seen.setdefault(p.key(), p)
    # a stable sort; zero and the identity are the only projections of their ranks
    ranked = sorted(((p.rank(), k, p) for k, p in seen.items()), key=lambda t: t[0])
    elements = ["0", *(f"q{i}" for i in range(len(ranked) - 2)), "1"]
    labels = {k: x for (_, k, _), x in zip(ranked, elements)}
    ortho = {}
    for (_, _, p), x in zip(ranked, elements):
        ortho[x] = labels.get((ident - p).key())
        if ortho[x] is None:
            raise InvalidFragment(f"projection set is not complement-closed at {x}")
    # p < q forces rank p < rank q: if p <= q with equal ranks, q - p is a
    # projection of trace 0, so p = q
    pairs = [
        (x, y)
        for (rp, _, p), x in zip(ranked, elements)
        for (rq, _, q), y in zip(ranked, elements)
        if rp < rq and proj_leq(p, q)
    ]
    lattice = omlmod.verify_oml(verify_poset(elements, pairs), ortho)
    return lattice, {x: p for (_, _, p), x in zip(ranked, elements)}
