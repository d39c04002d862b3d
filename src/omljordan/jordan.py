"""Projection-lattice map fragments and their extension to Jordan maps.

A JordanMap is represented by generators plus images with linear
completion: it is defined on the exact linear span of its generators, and
equality of maps means equality on that span.  Spectral extension turns an
order- and ortho-preserving projection map into such a linear map; the
*-iso / *-anti-iso decomposition probes matrix units summand by summand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .linalg import ONE, ZERO, GaussScalar, Vector, rref
from .matalg import (
    AbelianFragment,
    AlgElement,
    FinDimAlgebra,
    InvalidPartition,
    NotProjection,
    ParentMismatch,
    Projection,
    SpectralElement,
    format_element,
    fragment,
    fragment_poset,
    jordan_product,
    partition_of_unity,
    proj_leq,
)
from .poset import OrderIso, order_iso


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

    def lookup(self, p: Projection) -> Projection:
        for dom, img in self.pairs:
            if dom == p:
                return img
        raise UncoveredProjection(f"projection not in the fragment: {p}")

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
        dom_key, img_key = dom.sort_key(), img.sort_key()
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
        comp_img = by_key.get((src_ident - dom).sort_key())
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


@dataclass(frozen=True, eq=False)
class JordanMap:
    """A linear map given by generator/image pairs, defined on their span.

    Construction solves for a pivot basis among the generator vectors,
    precomputes an exact coordinate solver, and verifies that every linear
    relation among generators is matched by the images (well-definedness).
    """

    source: FinDimAlgebra
    target: FinDimAlgebra
    generators: tuple[tuple[AlgElement, AlgElement], ...]
    _basis: tuple[tuple[AlgElement, AlgElement], ...] = field(repr=False)
    _coords: tuple[Vector, ...] = field(repr=False)

    def _coordinates(self, x: AlgElement) -> list[GaussScalar] | None:
        vec = x.vec()
        # matrix units and projections are sparse: sum over nonzero entries only
        support = [(i, v) for i, v in enumerate(vec) if not v.is_zero()]
        coeffs = [
            sum((row[i] * v for i, v in support), GaussScalar.of(0))
            for row in self._coords
        ]
        # exact membership check: the candidate must reconstruct x
        rebuilt = [GaussScalar.of(0)] * len(vec)
        for c, (gen, _) in zip(coeffs, self._basis):
            if not c.is_zero():
                for i, v in enumerate(gen.vec()):
                    if not v.is_zero():
                        rebuilt[i] = rebuilt[i] + c * v
        if tuple(rebuilt) != vec:
            return None
        return coeffs

    def apply(self, x: AlgElement) -> AlgElement:
        coeffs = self._coordinates(x)
        if coeffs is None:
            raise NotInSpan("element is outside the map's span")
        out = self.target.zero()
        for c, (_, img) in zip(coeffs, self._basis):
            if not c.is_zero():
                out = out + img.scale(c)
        return out

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


def _coordinate_rows(basis_vectors: Sequence[Vector]) -> tuple[Vector, ...]:
    """Rows P with P @ x = coordinates of x in the basis, for x in the span.

    Row-reduce [B | I] where B stacks the basis as columns; the rows whose
    pivots fall inside B give a left inverse of B.
    """
    if not basis_vectors:
        return ()
    dim = len(basis_vectors[0])
    k = len(basis_vectors)
    aug = []
    for i in range(dim):
        row = [basis_vectors[j][i] for j in range(k)]
        row.extend(ONE if i == d else ZERO for d in range(dim))
        aug.append(row)
    reduced, pivots = rref(aug)
    return tuple(
        tuple(row[k:]) for row, pc in zip(reduced, pivots) if pc < k
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
    vectors = [g.vec() for g, _ in generators]
    _, pivots = rref(
        [[vectors[j][i] for j in range(len(vectors))] for i in range(len(vectors[0]))]
    )
    basis = tuple(generators[j] for j in pivots)
    coords = _coordinate_rows([g.vec() for g, _ in basis])
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
    set, so the extension is unique on the span.
    """
    for spectral in inputs:
        for _, proj in spectral.pairs:
            psi.lookup(proj)  # raises UncoveredProjection
    generators = [(AlgElement(psi.source, d.blocks), AlgElement(psi.target, i.blocks))
                  for d, i in psi.pairs]
    extended = jordan_map(psi.source, psi.target, generators)
    for spectral in inputs:
        expected = psi.target.zero()
        for value, proj in spectral.pairs:
            expected = expected + psi.lookup(proj).scale(value)
        if extended.apply(spectral.element()) != expected:
            raise SpanInconsistent(
                "spectral input is not mapped to its spectral image"
            )
    return extended


# ---------------------------------------------------------------------------
# Property verification reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    name: str
    status: str  # PASS / FAIL / SKIP
    witness: str = ""

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
    entries: list[ReportEntry] = []
    ident = phi.source.identity()
    if phi.covers(ident) and phi.apply(ident) == phi.target.identity():
        entries.append(ReportEntry("unit", "PASS"))
    else:
        witness = (
            format_element(phi.apply(ident)) if phi.covers(ident) else "1 not in span"
        )
        entries.append(ReportEntry("unit", "FAIL", witness))
    lam = GaussScalar.of(2) / GaussScalar.of(3)
    for idx, (a, b) in enumerate(samples):
        tag = f"pair {idx}"
        try:
            fa, fb = phi.apply(a), phi.apply(b)
        except NotInSpan:
            entries.append(ReportEntry(f"linearity {tag}", "SKIP", "sample outside span"))
            continue
        if phi.apply(a + b) == fa + fb and phi.apply(a.scale(lam)) == fa.scale(lam):
            entries.append(ReportEntry(f"linearity {tag}", "PASS"))
        else:
            entries.append(ReportEntry(f"linearity {tag}", "FAIL", format_element(a)))
        if phi.covers(a.star()):
            if phi.apply(a.star()) == fa.star():
                entries.append(ReportEntry(f"involution {tag}", "PASS"))
            else:
                entries.append(ReportEntry(f"involution {tag}", "FAIL", format_element(a)))
        else:
            entries.append(ReportEntry(f"involution {tag}", "SKIP", "a* outside span"))
        prod = jordan_product(a, b)
        if phi.covers(prod):
            if phi.apply(prod) == jordan_product(fa, fb):
                entries.append(ReportEntry(f"jordan-product {tag}", "PASS"))
            else:
                entries.append(
                    ReportEntry(
                        f"jordan-product {tag}",
                        "FAIL",
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
    unit_images: dict[Vector, AlgElement] = {}
    for u in phi.source.matrix_units():
        if not phi.covers(u):
            raise NotInSpan("decomposition needs the full matrix-unit span")
        unit_images[u.vec()] = phi.apply(u)
    zero_vec = phi.source.zero().vec()
    unit_images[zero_vec] = phi.target.zero()

    def image(x: AlgElement) -> AlgElement:
        # products of matrix units are matrix units or zero
        return unit_images[x.vec()]

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
    partitions of unity (checked), and names carry over."""
    named = {}
    for name in frag.names():
        part = frag.partitions[name]
        images = [
            g.apply(AlgElement(atom.algebra, atom.blocks)) for atom in part.atoms
        ]
        try:
            named[name] = partition_of_unity(g.target, images)
        except (InvalidPartition, NotProjection) as exc:
            raise ImageNotPartition(
                f"image of partition {name!r} is not a partition of unity: {exc}"
            )
    return fragment(g.target, named)


def induced_subalgebra_map(g: JordanMap, frag: AbelianFragment) -> OrderIso:
    """The order-isomorphism of fragment posets induced by mapping each
    partition atomwise through g (checked in both directions)."""
    target_frag = image_fragment(g, frag)
    src_poset = fragment_poset(frag)
    dst_poset = fragment_poset(target_frag)
    return order_iso(src_poset, dst_poset, {name: name for name in frag.names()})
