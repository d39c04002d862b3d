from fractions import Fraction

import pytest

from omljordan.jordan import (
    ImageNotPartition,
    InvalidProjMap,
    NotInSpan,
    SpanInconsistent,
    UncoveredProjection,
    ad_unitary,
    compose_maps,
    decompose_jordan,
    identity_map,
    image_fragment,
    induced_subalgebra_map,
    jordan_map,
    map_from_callable,
    proj_map_fragment,
    spectral_extend,
    transpose_map,
    verify_jordan,
)
from omljordan.linalg import I
from omljordan.matalg import (
    AlgElement,
    FinDimAlgebra,
    as_projection,
    coarsening_closure,
    partition_of_unity,
    spectral_decomposition,
)

from .conftest import (
    diag_plus_rotated_fragment,
    diagonal_partition,
    random_element,
    random_scalar,
    rng,
    rotation_unitary,
)


def _full_proj_map(algebra, fn):
    """Projection pairs over a diagonal fragment, closed under complements."""
    frag = coarsening_closure(algebra, {"diag": diagonal_partition(algebra)})
    pairs = []
    seen = set()
    for p in frag.projections():
        if p.sort_key() in seen:
            continue
        seen.add(p.sort_key())
        pairs.append((p, as_projection(fn(AlgElement(p.algebra, p.blocks)))))
    return proj_map_fragment(algebra, algebra, pairs)


def test_spectral_extend_identity(m3):
    psi = _full_proj_map(m3, lambda x: x)
    spec = spectral_decomposition(m3.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    ext = spectral_extend(psi, [spec])
    x = m3.from_rows([[4, 0, 0], [0, 5, 0], [0, 0, 6]])
    assert ext.apply(x) == x


def test_spectral_extend_permutation(m3):
    perm = m3.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    psi = _full_proj_map(m3, lambda x: perm * x * perm.star())
    spec = spectral_decomposition(m3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 3]]))
    ext = spectral_extend(psi, [spec])
    assert ext.apply(spec.element()) == m3.from_rows(
        [[3, 0, 0], [0, 2, 0], [0, 0, 3]]
    )


def test_spectral_extend_rotation_exact(m2):
    """The image of diag(2,3) under Ad U is computed independently as
    2 U p U* + 3 U (1-p) U*."""
    u = rotation_unitary(m2)
    p = m2.from_rows([[1, 0], [0, 0]])
    q = m2.identity() - p
    oracle = (u * p * u.star()).scale(2) + (u * q * u.star()).scale(3)
    assert oracle == m2.from_rows(
        [
            [Fraction(66, 25), Fraction(12, 25)],
            [Fraction(12, 25), Fraction(59, 25)],
        ]
    )
    psi = _full_proj_map(m2, lambda x: u * x * u.star())
    spec = spectral_decomposition(m2.from_rows([[2, 0], [0, 3]]))
    ext = spectral_extend(psi, [spec])
    assert ext.apply(spec.element()) == oracle


def test_spectral_extend_restriction_equals_psi(m3):
    u = rotation_unitary(m3)
    psi = _full_proj_map(m3, lambda x: u * x * u.star())
    spec = spectral_decomposition(m3.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    ext = spectral_extend(psi, [spec])
    for dom, img in psi.pairs:
        assert ext.apply(AlgElement(dom.algebra, dom.blocks)) == AlgElement(
            img.algebra, img.blocks
        )


def test_spectral_extend_uncovered(m3):
    psi = _full_proj_map(m3, lambda x: x)
    u = rotation_unitary(m3)
    rotated = partition_of_unity(
        m3, [as_projection(u * p * u.star()) for p in m3.diagonal_atoms()]
    )
    spec = spectral_decomposition(
        sum(
            (AlgElement(m3, p.blocks).scale(i + 1) for i, p in enumerate(rotated.atoms)),
            m3.zero(),
        )
    )
    with pytest.raises(UncoveredProjection):
        spectral_extend(psi, [spec])


def test_jordan_map_span_inconsistent(m2):
    p = m2.from_rows([[1, 0], [0, 0]])
    q = m2.from_rows([[0, 0], [0, 1]])
    one = m2.identity()
    # p + q = 1 but images violate the relation
    with pytest.raises(SpanInconsistent):
        jordan_map(m2, m2, [(p, p), (q, q), (one, one.scale(2))])


def test_jordan_map_not_in_span(m2):
    p = m2.from_rows([[1, 0], [0, 0]])
    phi = jordan_map(m2, m2, [(p, p)])
    with pytest.raises(NotInSpan):
        phi.apply(m2.from_rows([[0, 1], [0, 0]]))


def _complex_unitary(algebra):
    """(1/5)[[3, 4i], [4i, 3]] times the rotation (1/5)[[3, 4], [-4, 3]], in
    the first summand's first two coordinates, identity elsewhere."""
    turn = algebra.identity() + (
        algebra.matrix_unit(0, 0, 0) + algebra.matrix_unit(0, 1, 1)
    ).scale(Fraction(-2, 5)) + (
        algebra.matrix_unit(0, 0, 1) + algebra.matrix_unit(0, 1, 0)
    ).scale(I * Fraction(4, 5))
    return turn * rotation_unitary(algebra)


@pytest.mark.parametrize(
    "dims", [(3,), (2, 1), (3, 1)], ids=["(3,)", "(2,1)", "(3,1)"]
)
def test_map_coordinates_match_closed_forms(dims):
    """Ad(u), the transpose and their composite, applied through exact
    coordinates, equal u x u* and x^T on elements with complex entries and
    mixed denominators."""
    algebra = FinDimAlgebra(dims)
    u = _complex_unitary(algebra)
    assert any(not x.is_real() for x in u.vec())
    ad = ad_unitary(algebra, u)
    tr = transpose_map(algebra)
    both = compose_maps(ad, tr)
    r = rng(3)
    for k in range(12):
        x = random_element(algebra, r, span=9, denom=10**6 if k % 2 else 7)
        assert ad.covers(x)
        assert ad.apply(x) == u * x * u.star()
        assert tr.apply(x) == x.transpose()
        assert both.apply(x) == (u * x * u.star()).transpose()


def test_fragment_span_map_rejects_elements_outside_span(m31):
    """A map defined on a fragment span applies exactly inside it; outside
    it, covers is False and apply raises NotInSpan."""
    projections = [
        AlgElement(p.algebra, p.blocks)
        for p in diag_plus_rotated_fragment(m31).projections()
    ]
    u = _complex_unitary(m31)
    phi = jordan_map(m31, m31, [(p, u * p * u.star()) for p in projections])
    assert phi.span_dimension() < m31.dimension
    r = rng(4)
    for _ in range(10):
        inside = m31.zero()
        for p in projections:
            inside = inside + p.scale(random_scalar(r, 9, 10**6))
        assert phi.covers(inside)
        assert phi.apply(inside) == u * inside * u.star()
        nudged = inside + m31.matrix_unit(0, 0, 2).scale(Fraction(1, 10**6))
        for outside in (nudged, random_element(m31, r, span=9, denom=10**6)):
            assert not phi.covers(outside)
            with pytest.raises(NotInSpan):
                phi.apply(outside)


def test_uniqueness_on_span(m3):
    """Two maps agreeing on all fragment projections agree on the span."""
    frag = diag_plus_rotated_fragment(m3)
    projections = [AlgElement(p.algebra, p.blocks) for p in frag.projections()]
    u = rotation_unitary(m3)
    images = [u * x * u.star() for x in projections]
    first = jordan_map(m3, m3, list(zip(projections, images)))
    second = jordan_map(
        m3, m3, list(zip(reversed(projections), reversed(images)))
    )
    assert first.agrees_with(second)


def test_verify_jordan_transpose_passes(m3):
    t = transpose_map(m3)
    r = rng(2)
    samples = [(random_element(m3, r), random_element(m3, r)) for _ in range(8)]
    report = verify_jordan(t, samples)
    assert report.passed
    assert all(e.status == "PASS" for e in report.entries)


def test_verify_jordan_ad_u_passes(m3):
    g = ad_unitary(m3, rotation_unitary(m3))
    r = rng(4)
    samples = [(random_element(m3, r), random_element(m3, r)) for _ in range(5)]
    assert verify_jordan(g, samples).passed


def test_verify_jordan_scaling_fails(m3):
    bad = map_from_callable(m3, m3, lambda x: x.scale(2))
    r = rng(6)
    samples = [(random_element(m3, r), random_element(m3, r)) for _ in range(3)]
    report = verify_jordan(bad, samples)
    assert not report.passed
    names = {e.name for e in report.entries if e.status == "FAIL"}
    assert "unit" in names
    assert any(n.startswith("jordan-product") for n in names)


def test_verify_jordan_skips_products_outside_span(m3):
    """A fragment-span map cannot be probed with products leaving the span."""
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    projections = [AlgElement(p.algebra, p.blocks) for p in frag.projections()]
    phi = jordan_map(m3, m3, [(x, x) for x in projections])
    off_diag = m3.matrix_unit(0, 0, 1) + m3.matrix_unit(0, 1, 0)
    report = verify_jordan(phi, [(projections[1], projections[2])])
    assert report.passed  # diagonal products stay in the span
    # a self-adjoint element whose square leaves the diagonal span
    mixed = projections[1] + off_diag
    report2 = verify_jordan(phi, [(mixed, mixed)])
    assert any(e.status == "SKIP" for e in report2.entries)


def test_decompose_identity_and_transpose(m3):
    p1, p2, labels = decompose_jordan(identity_map(m3))
    assert labels == ("iso",)
    assert p1 == m3.identity() and p2.is_zero()
    q1, q2, labels_t = decompose_jordan(transpose_map(m3))
    assert labels_t == ("anti",)
    assert q1.is_zero() and q2 == m3.identity()


def test_decompose_mixed_sum():
    algebra = FinDimAlgebra((3, 3))
    mixed = map_from_callable(
        algebra,
        algebra,
        lambda x: AlgElement(algebra, (x.blocks[0], x.blocks[1].transpose())),
    )
    p1, p2, labels = decompose_jordan(mixed)
    assert labels == ("iso", "anti")
    assert p1 == algebra.summand_identity(0)
    assert p2 == algebra.summand_identity(1)


def test_decompose_one_dim_summand_is_iso():
    algebra = FinDimAlgebra((3, 1))
    p1, p2, labels = decompose_jordan(transpose_map(algebra))
    assert labels == ("anti", "iso")
    assert p1 == algebra.summand_identity(1)


def test_decompose_labels_stable_under_inner_automorphism(m3):
    u = rotation_unitary(m3)
    t = transpose_map(m3)
    conj = ad_unitary(m3, u)
    for phi in (compose_maps(t, conj), compose_maps(conj, t)):
        _, _, labels = decompose_jordan(phi)
        assert labels == ("anti",)
    for phi in (compose_maps(conj, ad_unitary(m3, u.star())), identity_map(m3)):
        _, _, labels = decompose_jordan(phi)
        assert labels == ("iso",)


def test_decompose_rejects_non_jordan(m3):
    bad = map_from_callable(m3, m3, lambda x: x.scale(2))
    from omljordan.jordan import NeitherIsoNorAnti

    with pytest.raises(NeitherIsoNorAnti):
        decompose_jordan(bad)


def test_induced_map_identity(m3):
    frag = diag_plus_rotated_fragment(m3)
    iso = induced_subalgebra_map(identity_map(m3), frag)
    assert all(iso.apply(name) == name for name in frag.names())


def test_induced_map_permutation_is_pi3_automorphism(m3):
    perm = m3.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = ad_unitary(m3, perm)
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    iso = induced_subalgebra_map(g, frag)
    # the image fragment poset is order-isomorphic to Pi_3 again
    assert len(iso.target) == 5
    for a in iso.source.elements:
        for b in iso.source.elements:
            assert iso.source.leq(a, b) == iso.target.leq(
                iso.apply(a), iso.apply(b)
            )


def test_induced_map_transpose(m3):
    g = transpose_map(m3)
    frag = diag_plus_rotated_fragment(m3)
    iso = induced_subalgebra_map(g, frag)
    assert sorted(iso.mapping.keys()) == sorted(frag.names())


def test_image_fragment_rejects_non_jordan(m3):
    bad = map_from_callable(m3, m3, lambda x: x.scale(2))
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    with pytest.raises(ImageNotPartition):
        image_fragment(bad, frag)


def test_proj_map_validation(m2):
    p = as_projection(m2.from_rows([[1, 0], [0, 0]]))
    q = as_projection(m2.from_rows([[0, 0], [0, 1]]))
    one = as_projection(m2.identity())
    zero = as_projection(m2.zero())
    # missing complement closure
    with pytest.raises(InvalidProjMap):
        proj_map_fragment(m2, m2, [(p, p)])
    # not injective
    with pytest.raises(InvalidProjMap):
        proj_map_fragment(m2, m2, [(zero, zero), (one, one), (p, p), (q, p)])
    # ortho broken: swap only one side of a complementary pair
    u = rotation_unitary(m2)
    r = as_projection(u * p * u.star())
    rc = as_projection(m2.identity() - r)
    with pytest.raises(InvalidProjMap):
        proj_map_fragment(m2, m2, [(zero, zero), (one, one), (p, r), (q, q)])


def test_jordan_map_rejects_wrong_parents(m2, m3):
    from omljordan.matalg import ParentMismatch

    with pytest.raises(ParentMismatch):
        jordan_map(m3, m3, [(m2.identity(), m2.identity())])
    with pytest.raises(ParentMismatch):
        compose_maps(identity_map(m2), identity_map(m3))
