"""Projection-lattice map fragments and their extension to Jordan maps.

A JordanMap is represented by generators plus images with linear
completion: it is defined on the exact linear span of its generators, and
equality of maps means equality on that span.  Spectral extension turns an
order- and ortho-preserving projection map into such a linear map; the
*-iso / *-anti-iso decomposition probes matrix units summand by summand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .linalg import GaussRow, GaussScalar, echelon, reduce_echelon
from .matalg import (
    AbelianFragment,
    AlgElement,
    FinDimAlgebra,
    InvalidPartition,
    NotProjection,
    ParentMismatch,
    Projection,
    SpectralElement,
    as_projection,
    format_element,
    fragment,
    from_row,
    jordan_product,
    partition_of_unity,
    proj_leq,
)


class UncoveredProjection(Exception):
    """A spectral input uses a projection outside the map's domain."""


class SpanInconsistent(Exception):
    """Linear relations among generators map to inconsistent images."""


class NotInSpan(Exception):
    """An element lies outside the span a map is defined on."""


class NeitherIsoNorAnti(Exception):
    """A summand is neither multiplicative nor anti-multiplicative."""


class ImageNotPartition(Exception):
    """The image of a partition of unity is not a partition of unity."""


class InvalidProjMap(Exception):
    """A projection-map fragment violates its invariants."""


@dataclass(frozen=True, eq=False)
class ProjMapFragment:
    """A finite injective map of projections preserving order and ortho."""

    source: FinDimAlgebra
    target: FinDimAlgebra
    pairs: tuple[tuple[Projection, Projection], ...]

    def domain(self) -> tuple[Projection, ...]:
        return tuple(dom for dom, _ in self.pairs)


def proj_map_fragment(
    source: FinDimAlgebra,
    target: FinDimAlgebra,
    pairs: Iterable[tuple[Projection, Projection]],
) -> ProjMapFragment:
    """Validate ortho-preservation, order-preservation (both ways) and
    injectivity of a projection-pair list."""
    pair_list = []
    by_key: dict[tuple, Projection] = {}
    seen_img = set()
    for dom, img in pairs:
        if dom.algebra != source or img.algebra != target:
            raise InvalidProjMap("pair from the wrong algebra")
        dom_key, img_key = dom.key(), img.key()
        if dom_key in by_key:
            raise InvalidProjMap("domain projection listed twice")
        if img_key in seen_img:
            raise InvalidProjMap("map is not injective")
        by_key[dom_key] = img
        seen_img.add(img_key)
        pair_list.append((dom, img))
    src_ident = source.identity()
    dst_ident = target.identity()
    for dom, img in pair_list:
        comp_img = by_key.get((src_ident - dom).key())
        if comp_img is None:
            raise InvalidProjMap("domain is not closed under complements")
        if comp_img != dst_ident - img:
            raise InvalidProjMap(
                "ortho not preserved: psi(1-p) != 1-psi(p) at some p"
            )
    for (d1, i1), (d2, i2) in itertools.combinations(pair_list, 2):
        if proj_leq(d1, d2) != proj_leq(i1, i2) or proj_leq(d2, d1) != proj_leq(
            i2, i1
        ):
            raise InvalidProjMap("order not preserved on the fragment")
    return ProjMapFragment(source, target, tuple(pair_list))


# Sparse Gaussian-integer rows over one common denominator d: the j-th
# element of a set is rows[j] / d, where rows[j] lists (index, re, im) for
# its nonzero entries.
SparseRows = tuple[int, tuple[tuple[tuple[int, int, int], ...], ...]]


def _sparse_rows(elements: Iterable[AlgElement]) -> SparseRows:
    scaled = [e.row() for e in elements]
    d = math.lcm(*(dj for dj, _ in scaled))
    return d, tuple(
        tuple(
            (i, u * (d // dj), v * (d // dj))
            for i, (u, v) in enumerate(zip(re, im))
            if u or v
        )
        for dj, (re, im) in scaled
    )


def _combination(
    coeffs: Sequence[tuple[int, int, int]],
    rows: Sequence[Sequence[tuple[int, int, int]]],
    n: int,
) -> GaussRow:
    """sum_j (re + i*im) * rows[j] over the (j, re, im) in coeffs, as a
    dense Gaussian-integer row of length n."""
    out_re = [0] * n
    out_im = [0] * n
    for j, cr, ci in coeffs:
        for i, u, v in rows[j]:
            out_re[i] += cr * u - ci * v
            out_im[i] += cr * v + ci * u
    return out_re, out_im


@dataclass(frozen=True, eq=False)
class JordanMap:
    """A linear map given by generator/image pairs, defined on their span.

    Construction solves for a pivot basis among the generator vectors,
    precomputes an exact coordinate solver, and verifies that every linear
    relation among generators is matched by the images (well-definedness).
    Coordinates and images are computed on Gaussian integers: _coords is
    (d, P) with P @ x / d the coordinates of x in _basis, and the basis
    generators and their images are kept as SparseRows, derived from _basis.
    """

    source: FinDimAlgebra
    target: FinDimAlgebra
    generators: tuple[tuple[AlgElement, AlgElement], ...]
    _basis: tuple[tuple[AlgElement, AlgElement], ...] = field(repr=False)
    _coords: tuple[int, tuple[GaussRow, ...]] = field(repr=False)
    _basis_rows: SparseRows = field(init=False, repr=False)
    _image_rows: SparseRows = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_basis_rows", _sparse_rows(g for g, _ in self._basis)
        )
        object.__setattr__(
            self, "_image_rows", _sparse_rows(img for _, img in self._basis)
        )

    def _coordinates(
        self, x: AlgElement
    ) -> tuple[int, list[tuple[int, int, int]]] | None:
        """(e, [(j, re, im), ...]): the coordinate of x on basis element j
        is (re + i*im) / e, zero where j is not listed; None when x is
        outside the span."""
        dx, (xr, xi) = x.row()
        # matrix units and projections are sparse: sum over nonzero entries only
        support = [(i, u, v) for i, (u, v) in enumerate(zip(xr, xi)) if u or v]
        d, solver = self._coords
        coeffs = []
        for j, (pr, pi) in enumerate(solver):
            cr = ci = 0
            for i, u, v in support:
                a, b = pr[i], pi[i]
                if a or b:
                    cr += a * u - b * v
                    ci += a * v + b * u
            if cr or ci:
                coeffs.append((j, cr, ci))
        # exact membership check: the coefficients must rebuild x, that is
        # sum_j coeff_j * basis_j / (d * dx * dg) == x / dx
        dg, basis_rows = self._basis_rows
        rr, ri = _combination(coeffs, basis_rows, len(xr))
        scale = d * dg
        if rr != [u * scale for u in xr] or ri != [v * scale for v in xi]:
            return None
        return d * dx, coeffs

    def apply(self, x: AlgElement) -> AlgElement:
        coords = self._coordinates(x)
        if coords is None:
            raise NotInSpan("element is outside the map's span")
        e, coeffs = coords
        di, image_rows = self._image_rows
        out = _combination(coeffs, image_rows, self.target.dimension)
        return from_row(self.target, e * di, out)

    def span_dimension(self) -> int:
        return len(self._basis)

    def covers(self, x: AlgElement) -> bool:
        return self._coordinates(x) is not None

    def agrees_with(self, other: "JordanMap") -> bool:
        """Equality as maps on this map's span (spans must coincide)."""
        if self.span_dimension() != other.span_dimension():
            return False
        try:
            return all(
                other.apply(g) == img for g, img in self._basis
            ) and all(self.apply(g) == img for g, img in other._basis)
        except NotInSpan:
            return False


def _coordinate_solver(
    scaled: Sequence[tuple[int, GaussRow]],
) -> tuple[list[int], tuple[int, tuple[GaussRow, ...]]]:
    """The indices of a basis among the vectors row_j / s_j, given as the
    pairs (s_j, row_j) (each vector that is not in the span of the earlier
    ones) and the coordinate solver (d, P): P @ x / d is the coordinate
    vector of x in that basis, for x in the span.

    Row-reduce [V | I] over Gaussian integers, where V stacks the rows as
    columns: the pivot columns inside V pick the basis, and the rows with
    those pivots, (N_r at column j_r | Q_r), give the solver rows
    Q_r * s_(j_r) / N_r.
    """
    k = len(scaled)
    dim = len(scaled[0][1][0])
    work = []
    for i in range(dim):
        re = [row[0][i] for _, row in scaled] + [0] * dim
        re[k + i] = 1
        work.append((re, [row[1][i] for _, row in scaled] + [0] * dim))
    pivots = echelon(work)
    reduce_echelon(work, pivots)
    basis = [c for c in pivots if c < k]
    d = math.lcm(*(work[r][0][c] for r, c in enumerate(basis)))
    solver = []
    for r, c in enumerate(basis):
        factor = scaled[c][0] * (d // work[r][0][c])
        re, im = work[r]
        solver.append(([u * factor for u in re[k:]], [v * factor for v in im[k:]]))
    g = math.gcd(d, *(u for row in solver for part in row for u in part))
    return basis, (
        d // g,
        tuple(([u // g for u in re], [v // g for v in im]) for re, im in solver),
    )


def jordan_map(
    source: FinDimAlgebra,
    target: FinDimAlgebra,
    generators: Sequence[tuple[AlgElement, AlgElement]],
) -> JordanMap:
    if not generators:
        raise SpanInconsistent("a map needs at least one generator")
    for g, img in generators:
        if g.algebra != source or img.algebra != target:
            raise ParentMismatch("generator pair from the wrong algebras")
    pivots, coords = _coordinate_solver([g.row() for g, _ in generators])
    basis = tuple(generators[j] for j in pivots)
    candidate = JordanMap(source, target, tuple(generators), basis, coords)
    for g, img in generators:
        if candidate.apply(g) != img:
            raise SpanInconsistent(
                "a linear relation among generators is not matched by the "
                f"images (at generator {format_element(g)})"
            )
    return candidate


def map_from_callable(
    source: FinDimAlgebra,
    target: FinDimAlgebra,
    fn: Callable[[AlgElement], AlgElement],
) -> JordanMap:
    """Sample a linear map on the full matrix-unit basis."""
    return jordan_map(
        source, target, [(u, fn(u)) for u in source.matrix_units()]
    )


def identity_map(algebra: FinDimAlgebra) -> JordanMap:
    return map_from_callable(algebra, algebra, lambda x: x)


def transpose_map(algebra: FinDimAlgebra) -> JordanMap:
    return map_from_callable(algebra, algebra, lambda x: x.transpose())


def ad_unitary(algebra: FinDimAlgebra, u: AlgElement) -> JordanMap:
    """Conjugation x -> u x u*; u must be unitary with exact entries."""
    if u * u.star() != algebra.identity() or u.star() * u != algebra.identity():
        raise ValueError("not unitary")
    return map_from_callable(algebra, algebra, lambda x: u * x * u.star())


def compose_maps(first: JordanMap, then: JordanMap) -> JordanMap:
    if first.target != then.source:
        raise ParentMismatch("composition endpoints do not match")
    return jordan_map(
        first.source,
        then.target,
        [(g, then.apply(img)) for g, img in first.generators],
    )


def spectral_extend(
    psi: ProjMapFragment, inputs: Sequence[SpectralElement]
) -> JordanMap:
    """Extend a projection-map fragment linearly over spectral forms.

    The resulting map sends sum(lambda_i p_i) to sum(lambda_i psi(p_i)) and
    is extended complex-linearly to the span of the domain projections.
    Construction fails with SpanInconsistent if psi does not respect the
    linear relations among domain projections; every input projection must
    be covered by psi.  jordan_map checks that every domain projection maps
    to its psi-image, and a linear map is fixed by its values on a spanning
    set, so the extension is unique on the span and sends every covered
    spectral input to its spectral image.
    """
    domain = set(psi.domain())
    for spectral in inputs:
        for _, proj in spectral.pairs:
            if proj not in domain:
                raise UncoveredProjection(f"projection not in the fragment: {proj}")
    generators = [(AlgElement(psi.source, d.blocks), AlgElement(psi.target, i.blocks))
                  for d, i in psi.pairs]
    return jordan_map(psi.source, psi.target, generators)


# ---------------------------------------------------------------------------
# Property verification reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    name: str
    status: str  # PASS / FAIL / SKIP
    witness: str = ""

    @classmethod
    def of(cls, name: str, passed: bool, witness: str = "") -> "ReportEntry":
        """PASS, or FAIL with the witness."""
        return cls(name, "PASS") if passed else cls(name, "FAIL", witness)

    def render(self) -> str:
        suffix = f"  ({self.witness})" if self.witness else ""
        return f"{self.status} {self.name}{suffix}"


@dataclass
class Report:
    entries: list[ReportEntry]

    @property
    def passed(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)

    def render(self) -> str:
        return "\n".join(e.render() for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {"name": e.name, "status": e.status, "witness": e.witness}
                for e in self.entries
            ],
        }


def verify_jordan(
    phi: JordanMap, samples: Sequence[tuple[AlgElement, AlgElement]]
) -> Report:
    """Exact checks of linearity, involution, unit, and Jordan
    multiplicativity on the supplied sample pairs.

    Pairs whose Jordan product falls outside the verified span are reported
    SKIP (fragment spans need not be closed under the product); failures
    carry witnesses.
    """
    ident = phi.source.identity()
    image = phi.apply(ident) if phi.covers(ident) else None
    witness = "1 not in span" if image is None else format_element(image)
    entries = [ReportEntry.of("unit", image == phi.target.identity(), witness)]
    lam = GaussScalar.of(2) / GaussScalar.of(3)
    for idx, (a, b) in enumerate(samples):
        tag = f"pair {idx}"
        try:
            fa, fb = phi.apply(a), phi.apply(b)
        except NotInSpan:
            entries.append(ReportEntry(f"linearity {tag}", "SKIP", "sample outside span"))
            continue
        ok = phi.apply(a + b) == fa + fb and phi.apply(a.scale(lam)) == fa.scale(lam)
        entries.append(ReportEntry.of(f"linearity {tag}", ok, format_element(a)))
        if phi.covers(a.star()):
            ok = phi.apply(a.star()) == fa.star()
            entries.append(ReportEntry.of(f"involution {tag}", ok, format_element(a)))
        else:
            entries.append(ReportEntry(f"involution {tag}", "SKIP", "a* outside span"))
        prod = jordan_product(a, b)
        if phi.covers(prod):
            entries.append(
                ReportEntry.of(
                    f"jordan-product {tag}",
                    phi.apply(prod) == jordan_product(fa, fb),
                    f"a={format_element(a)}; b={format_element(b)}",
                )
            )
        else:
            entries.append(
                ReportEntry(f"jordan-product {tag}", "SKIP", "product outside span")
            )
    return Report(entries)


def decompose_jordan(
    phi: JordanMap,
) -> tuple[AlgElement, AlgElement, tuple[str, ...]]:
    """Split a Jordan isomorphism into its *-iso and *-anti-iso parts.

    Probes exact multiplicativity versus anti-multiplicativity of phi on
    the matrix units of each summand; returns the two central projections
    (sums of summand identities) and a per-summand label.  One-dimensional
    summands count as iso by convention.
    """
    unit_images: dict[tuple, AlgElement] = {}
    for u in phi.source.matrix_units():
        if not phi.covers(u):
            raise NotInSpan("decomposition needs the full matrix-unit span")
        unit_images[u.key()] = phi.apply(u)
    unit_images[phi.source.zero().key()] = phi.target.zero()

    def image(x: AlgElement) -> AlgElement:
        # products of matrix units are matrix units or zero
        return unit_images[x.key()]

    labels = []
    for s, n in enumerate(phi.source.dims):
        if n == 1:
            labels.append("iso")
            continue
        units = [
            phi.source.matrix_unit(s, i, j) for i in range(n) for j in range(n)
        ]
        mult = all(
            image(u * v) == image(u) * image(v) for u in units for v in units
        )
        anti = all(
            image(u * v) == image(v) * image(u) for u in units for v in units
        )
        if mult and not anti:
            labels.append("iso")
        elif anti and not mult:
            labels.append("anti")
        elif mult and anti:
            labels.append("iso")  # abelian-like summand: both hold
        else:
            raise NeitherIsoNorAnti(
                f"summand {s} is neither multiplicative nor anti-multiplicative"
            )
    p1 = phi.source.zero()
    p2 = phi.source.zero()
    for s, lab in enumerate(labels):
        if lab == "iso":
            p1 = p1 + phi.source.summand_identity(s)
        else:
            p2 = p2 + phi.source.summand_identity(s)
    return p1, p2, tuple(labels)


def image_fragment(g: JordanMap, frag: AbelianFragment) -> AbelianFragment:
    """Map each partition atomwise through g; images must again be
    partitions of unity (checked), and names carry over.  Members share
    atoms, so each distinct atom is mapped, and its image proved a
    projection, once."""
    images: dict[tuple, AlgElement] = {}
    named = {}
    for name in frag.names():
        atoms = frag.partitions[name].atoms
        keys = [atom.key() for atom in atoms]
        for key, atom in zip(keys, atoms):
            if key not in images:
                images[key] = g.apply(AlgElement(atom.algebra, atom.blocks))
        try:
            for key in keys:
                if not isinstance(images[key], Projection):
                    images[key] = as_projection(images[key])
            named[name] = partition_of_unity(g.target, [images[k] for k in keys])
        except (InvalidPartition, NotProjection) as exc:
            raise ImageNotPartition(
                f"image of partition {name!r} is not a partition of unity: {exc}"
            )
    return fragment(g.target, named)
