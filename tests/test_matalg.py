import itertools
from fractions import Fraction

import pytest

from omljordan.combinat import set_partitions
from omljordan.linalg import I, NonRationalSpectrum
from omljordan.matalg import (
    AlgElement,
    ArityMismatch,
    FinDimAlgebra,
    InvalidFragment,
    InvalidPartition,
    NotAbelian,
    NotProjection,
    ParentMismatch,
    SpectralElement,
    as_projection,
    atoms_of_abelian_basis,
    coarsening_closure,
    coarsens,
    commutant,
    double_commutant,
    format_element,
    fragment,
    fragment_poset,
    is_type_I2_free,
    jordan_product,
    lambda_embed,
    merge_atoms,
    parse_algebra_text,
    parse_element,
    partition_of_unity,
    proj_leq,
    projection_oml,
    psi_project,
    serialize_algebra,
    spans_equal,
    spectral_decomposition,
    trivial_partition,
)
from omljordan.oml import blocks
from omljordan.poset import verify_poset

from .conftest import (
    diag_plus_rotated_fragment,
    diagonal_partition,
    random_element,
    rng,
    rotation_unitary,
)
from .oracles import (
    coarsens_by_products,
    is_projection_by_products,
    leq_by_products,
    orthogonal_by_products,
)


def test_jordan_product_unit(m3):
    r = random_element(m3, rng(7))
    assert jordan_product(m3.identity(), r) == r


def test_jordan_product_commuting_diagonals(m3):
    a = m3.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    b = m3.from_rows([[5, 0, 0], [0, 7, 0], [0, 0, 11]])
    assert jordan_product(a, b) == a * b


def test_jordan_product_exact_value(m2):
    p = m2.from_rows([[1, 0], [0, 0]])
    q = m2.from_rows(
        [[Fraction(9, 25), Fraction(12, 25)], [Fraction(12, 25), Fraction(16, 25)]]
    )
    expected = m2.from_rows(
        [[Fraction(9, 25), Fraction(6, 25)], [Fraction(6, 25), 0]]
    )
    assert jordan_product(p, q) == expected


def test_jordan_product_commutative_not_associative(m3):
    r = rng(3)
    found_witness = False
    for _ in range(100):
        a, b = random_element(m3, r), random_element(m3, r)
        assert jordan_product(a, b) == jordan_product(b, a)
    for _ in range(100):
        a, b, c = (random_element(m3, r) for _ in range(3))
        lhs = jordan_product(jordan_product(a, b), c)
        rhs = jordan_product(a, jordan_product(b, c))
        if lhs != rhs:
            found_witness = True
            break
    assert found_witness


def test_parent_mismatch(m2, m3):
    with pytest.raises(ParentMismatch):
        jordan_product(m2.identity(), m3.identity())


def test_commutant_dimensions(m2, m3):
    assert len(commutant(m3, [])) == 9
    p = m2.from_rows([[1, 0], [0, 0]])
    diag = commutant(m2, [p])
    assert len(diag) == 2
    assert len(commutant(m2, m2.matrix_units())) == 1


def test_commutant_members_commute(m3):
    gens = [m3.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])]
    for x in commutant(m3, gens):
        for s in gens:
            assert x * s == s * x


def test_double_commutant_of_partition(m3):
    part = partition_of_unity(
        m3,
        [
            m3.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            m3.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ],
    )
    dc = double_commutant(m3, psi_project(part))
    assert len(dc) == 2
    assert spans_equal(dc, list(part.atoms))


def test_double_commutant_scalars(m3):
    dc = double_commutant(m3, [])
    assert len(dc) == 1
    assert spans_equal(dc, [m3.identity()])


def test_double_commutant_summand(m2):
    algebra = FinDimAlgebra((2, 1))
    units = [algebra.matrix_unit(0, i, j) for i in range(2) for j in range(2)]
    dc = double_commutant(algebra, units)
    assert len(dc) == 5


def test_lambda_embed(m3):
    part = partition_of_unity(
        m3,
        [
            m3.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            m3.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ],
    )
    assert lambda_embed(part, [1, 1]) == m3.identity()
    assert lambda_embed(part, [2, 3]) == m3.from_rows(
        [[2, 0, 0], [0, 3, 0], [0, 0, 3]]
    )
    with pytest.raises(ArityMismatch):
        lambda_embed(part, [1])


def test_lambda_embed_is_homomorphism(m3):
    part = diagonal_partition(m3)
    r = rng(11)
    for _ in range(20):
        x = [Fraction(r.randint(-6, 6), r.randint(1, 4)) for _ in range(3)]
        y = [Fraction(r.randint(-6, 6), r.randint(1, 4)) for _ in range(3)]
        assert lambda_embed(part, x) * lambda_embed(part, y) == lambda_embed(
            part, [a * b for a, b in zip(x, y)]
        )
    # injectivity on a spanning probe
    assert not lambda_embed(part, [1, 0, 0]).is_zero()


def test_psi_project_trivial(m3):
    projs = psi_project(trivial_partition(m3))
    assert len(projs) == 2
    assert any(p.is_zero() for p in projs)
    assert any(AlgElement(m3, p.blocks) == m3.identity() for p in projs)


def test_psi_project_diagonal(m3):
    projs = psi_project(diagonal_partition(m3))
    assert len(projs) == 8


def test_psi_project_inverse_to_generation(m3):
    for cells in set_partitions(range(3)):
        part = merge_atoms(diagonal_partition(m3), cells)
        span = double_commutant(m3, psi_project(part))
        assert spans_equal(span, list(part.atoms))


def test_psi_project_from_basis(m3):
    basis = [m3.identity(), m3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 3]])]
    projs = psi_project(basis)
    assert len(projs) == 4  # two atoms
    part = atoms_of_abelian_basis(basis)
    assert len(part.atoms) == 2


def test_psi_project_from_rotated_basis(m2):
    u = rotation_unitary(m2)
    h = u * m2.from_rows([[5, 0], [0, 7]]) * u.star()
    part = atoms_of_abelian_basis([h])
    assert len(part.atoms) == 2
    for p in part.atoms:
        assert p.is_projection()


def test_not_abelian_rejected(m2):
    with pytest.raises(NotAbelian):
        psi_project([m2.matrix_unit(0, 0, 1), m2.matrix_unit(0, 1, 0)])


def test_partition_validation(m2):
    with pytest.raises(NotProjection):
        partition_of_unity(m2, [m2.from_rows([[2, 0], [0, 0]])])
    with pytest.raises(InvalidPartition):
        partition_of_unity(m2, [m2.from_rows([[1, 0], [0, 0]])])  # no sum to 1
    with pytest.raises(InvalidPartition):
        partition_of_unity(
            m2,
            [
                m2.from_rows([[1, 0], [0, 0]]),
                m2.from_rows([[1, 0], [0, 0]]),
                m2.from_rows([[0, 0], [0, 1]]),
            ],
        )


def test_spectral_decomposition_roundtrip(m3):
    a = m3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    spec = spectral_decomposition(a)
    assert [v for v, _ in spec.pairs] == [Fraction(2), Fraction(3)]
    assert spec.element() == a
    u = rotation_unitary(m3)
    b = u * a * u.star()
    spec_b = spectral_decomposition(b)
    assert spec_b.element() == b


def test_spectral_decomposition_rejects_irrational(m2):
    a = m2.from_rows([[0, 1], [1, 1]])  # eigenvalues (1 +- sqrt5)/2
    with pytest.raises(NonRationalSpectrum):
        spectral_decomposition(a)


def test_spectral_element_validation(m2):
    p = as_projection(m2.from_rows([[1, 0], [0, 0]]))
    q = as_projection(m2.from_rows([[0, 0], [0, 1]]))
    with pytest.raises(Exception):
        SpectralElement(((Fraction(1), p), (Fraction(1), q)))


def test_fragment_poset_is_partition_lattice(m3):
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    poset = fragment_poset(frag)
    assert len(poset) == 5
    assert len(poset.maximal_elements()) == 1
    assert poset.bottom() == "trivial"


def test_fragment_poset_trivial_and_chain(m3):
    frag = fragment(m3, {"trivial": trivial_partition(m3)})
    assert len(fragment_poset(frag)) == 1
    two = fragment(
        m3,
        {
            "trivial": trivial_partition(m3),
            "diag": diagonal_partition(m3),
        },
    )
    poset = fragment_poset(two)
    assert poset.leq("trivial", "diag")
    assert not poset.leq("diag", "trivial")


def test_fragment_requires_trivial(m3):
    with pytest.raises(InvalidFragment):
        fragment(m3, {"diag": diagonal_partition(m3)})


def test_fragment_closure_check(m3):
    with pytest.raises(InvalidFragment):
        fragment(
            m3,
            {
                "trivial": trivial_partition(m3),
                "diag": diagonal_partition(m3),
            },
            require_coarsening_closed=True,
        )
    closed = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    fragment(m3, dict(closed.partitions), require_coarsening_closed=True)


def test_fragment_poset_matches_projection_inclusion(m3):
    """The fragment poset matches the inclusion poset of the Boolean
    projection algebras, elementwise through psi."""
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    fposet = fragment_poset(frag)
    proj_sets = {
        name: frozenset(p.sort_key() for p in psi_project(frag.partitions[name]))
        for name in frag.names()
    }
    pairs = [
        (a, b)
        for a in frag.names()
        for b in frag.names()
        if a != b and proj_sets[a] < proj_sets[b]
    ]
    inclusion = verify_poset(list(frag.names()), pairs)
    assert inclusion.relation == fposet.relation
    # psi is injective on the fragment
    assert len(set(proj_sets.values())) == len(frag.names())


def test_coarsens(m3):
    diag = diagonal_partition(m3)
    coarse = merge_atoms(diag, [[0, 1], [2]])
    assert coarsens(coarse, diag)
    assert not coarsens(diag, coarse)


def _phase_turned_fragment(algebra):
    """diag_plus_rotated_fragment with the rotation turned by the phase i on
    the second coordinate, so that entries are complex."""
    phase = algebra.identity() + algebra.matrix_unit(0, 1, 1).scale(I - 1)
    v = phase * rotation_unitary(algebra)
    return coarsening_closure(
        algebra,
        {
            "diag": diagonal_partition(algebra),
            "rot": partition_of_unity(
                algebra,
                [as_projection(v * p * v.star()) for p in algebra.diagonal_atoms()],
            ),
        },
    )


def test_proj_leq_matches_product_oracle(m31):
    projs = diag_plus_rotated_fragment(m31).projections()
    assert len(projs) == 24
    turned = _phase_turned_fragment(m31).projections()
    assert any(not x.is_real() for p in turned for x in p.vec())
    for family in (projs, turned):
        for p in family:
            for q in family:
                assert proj_leq(p, q) == leq_by_products(p, q)


@pytest.mark.parametrize("dims", [(3, 1), (2, 2)], ids=["(3,1)", "(2,2)"])
def test_projection_oml_order_matches_product_oracle(dims):
    """projection_oml tests only pairs of increasing rank; its order must
    still be qp = p on every pair of labels."""
    algebra = FinDimAlgebra(dims)
    for frag in (diag_plus_rotated_fragment(algebra), _phase_turned_fragment(algebra)):
        projs = frag.projections()
        lattice, by_label = projection_oml(algebra, projs)
        assert len(lattice) == len(projs)
        for x in lattice.elements:
            for y in lattice.elements:
                assert lattice.leq(x, y) == leq_by_products(by_label[x], by_label[y])


def test_partition_orthogonality_matches_product_oracle(m31):
    """partition_of_unity reports non-orthogonal atoms exactly when a pair
    has pq != 0 or qp != 0 by matrix products, on complex projections."""
    ident = m31.identity()
    pool = [
        p
        for frag in (diag_plus_rotated_fragment(m31), _phase_turned_fragment(m31))
        for p in frag.projections()
        if not p.is_zero() and p != ident
    ]
    assert any(not x.is_real() for p in pool for x in p.vec())
    r = rng(11)
    outcomes = set()
    for _ in range(200):
        atoms = r.sample(pool, r.randint(2, 4))
        orthogonal = all(
            orthogonal_by_products(p, q) for p, q in itertools.combinations(atoms, 2)
        )
        try:
            partition_of_unity(m31, atoms)
            outcome = "partition"
        except InvalidPartition as exc:
            outcome = str(exc)
        assert (outcome == "atoms are not pairwise orthogonal") == (not orthogonal)
        outcomes.add(outcome)
    assert outcomes == {
        "partition",
        "atoms are not pairwise orthogonal",
        "atoms do not sum to the identity",
    }


@pytest.mark.parametrize("dims", [(3, 1), (2, 2)], ids=["(3,1)", "(2,2)"])
def test_fragment_layer_matches_product_oracle(dims):
    """coarsens and fragment_poset agree with coarsening by matrix products,
    and every psi_project output is a projection by matrix products."""
    algebra = FinDimAlgebra(dims)
    frag = diag_plus_rotated_fragment(algebra)
    relation = set()
    for a in frag.names():
        part = frag.partitions[a]
        projs = psi_project(part)
        assert len(projs) == 2 ** len(part.atoms)
        assert all(is_projection_by_products(p) for p in projs)
        for b in frag.names():
            expected = coarsens_by_products(part, frag.partitions[b])
            assert coarsens(part, frag.partitions[b]) == expected
            if expected:
                relation.add((a, b))
    assert fragment_poset(frag).relation == relation


def test_order_tests_reject_other_algebras(m3, m31):
    with pytest.raises(ParentMismatch):
        proj_leq(as_projection(m3.identity()), as_projection(m31.identity()))
    with pytest.raises(ParentMismatch):
        coarsens(trivial_partition(m3), diagonal_partition(m31))


def test_fragment_closure_check_names_each_missing_merge(m31):
    closed = diag_plus_rotated_fragment(m31)
    generated = [name for name in closed.names() if name.startswith("m")]
    assert generated
    for missing in generated:
        parts = {k: p for k, p in closed.partitions.items() if k != missing}
        with pytest.raises(
            InvalidFragment,
            match=r"^fragment is not coarsening-closed: a merge of "
            r"'(diag|rot)' is missing$",
        ):
            fragment(m31, parts, require_coarsening_closed=True)


def test_is_type_i2_free():
    assert is_type_I2_free(FinDimAlgebra((3,)))
    assert not is_type_I2_free(FinDimAlgebra((2,)))
    assert not is_type_I2_free(FinDimAlgebra((3, 2, 1)))


def test_projection_oml_diagonal(m3):
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    lattice, by_label = projection_oml(m3, frag.projections())
    assert len(lattice) == 8
    assert len(blocks(lattice)) == 1
    for label, proj in by_label.items():
        comp = by_label[lattice.complement(label)]
        assert AlgElement(m3, comp.blocks) == m3.identity() - proj


def test_algebra_file_round_trip(m31):
    parts = {
        "diag": diagonal_partition(m31),
        "trivial": trivial_partition(m31),
    }
    text = serialize_algebra(m31, parts)
    algebra2, parts2 = parse_algebra_text(text)
    assert algebra2 == m31
    assert parts2 == parts


def test_algebra_file_gauss_entries(m2):
    u = rotation_unitary(m2)
    rot = partition_of_unity(
        m2, [as_projection(u * p * u.star()) for p in m2.diagonal_atoms()]
    )
    text = serialize_algebra(m2, {"rot": rot})
    _, parts = parse_algebra_text(text)
    assert parts["rot"] == rot


def test_element_text_round_trip(m2):
    r = rng(5)
    for _ in range(10):
        e = random_element(m2, r)
        assert parse_element(m2, format_element(e)) == e


def test_lambda_embed_injective(m3):
    """The atoms are linearly independent, so the embedding has a trivial
    kernel."""
    from omljordan.linalg import rank

    for part in (
        diagonal_partition(m3),
        merge_atoms(diagonal_partition(m3), [[0, 1], [2]]),
    ):
        vectors = [list(a.vec()) for a in part.atoms]
        assert rank(vectors) == len(part.atoms)


def test_parse_scalar_zero_denominator():
    from omljordan.linalg import parse_scalar

    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_parse_element_shape_errors(m31):
    from omljordan.poset import ParseError

    with pytest.raises(ParseError):
        parse_element(m31, "1, 0; 0, 1")  # missing the second block
    with pytest.raises(ParseError):
        parse_element(m31, "1, 0; 0, 1 | 0")  # first block is 3x3
