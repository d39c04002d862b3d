from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omljordan.linalg import (
    GaussScalar,
    Matrix,
    NonRationalSpectrum,
    char_poly,
    format_scalar,
    nullspace,
    parse_scalar,
    rank,
    rational_root_split,
    rref,
    same_span,
)

from .oracles import rref_by_fractions

fractions = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
scalars = st.builds(GaussScalar, fractions, fractions)


@settings(max_examples=150, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=150, deadline=None)
@given(scalars)
def test_division_inverts(a):
    if not a.is_zero():
        assert (a / a) == GaussScalar.of(1)
        assert (GaussScalar.of(1) / a) * a == GaussScalar.of(1)


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_scalar_text_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", GaussScalar.of(0)),
        ("3/5", GaussScalar(Fraction(3, 5), Fraction(0))),
        ("-2", GaussScalar.of(-2)),
        ("i", GaussScalar(Fraction(0), Fraction(1))),
        ("-i", GaussScalar(Fraction(0), Fraction(-1))),
        ("2 i", GaussScalar(Fraction(0), Fraction(2))),
        ("1/2+1/3 i", GaussScalar(Fraction(1, 2), Fraction(1, 3))),
        ("1/2-1/3i", GaussScalar(Fraction(1, 2), Fraction(-1, 3))),
    ],
)
def test_parse_scalar_forms(text, expected):
    assert parse_scalar(text) == expected


def test_parse_scalar_rejects_garbage():
    for text in ("", "one", "1/2+/3", "2+2", "ii"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_matrix_arithmetic():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.transpose().transpose() == a
    assert a.trace() == GaussScalar.of(5)


def test_dagger_is_conjugate_transpose():
    i = GaussScalar(Fraction(0), Fraction(1))
    m = Matrix.from_rows([[i, 1], [0, i]])
    d = m.dagger()
    assert d[0, 0] == i.conj()
    assert d[0, 1] == GaussScalar.of(0)
    assert d[1, 0] == GaussScalar.of(1)


def test_rref_and_rank():
    rows = [
        [GaussScalar.of(1), GaussScalar.of(2), GaussScalar.of(3)],
        [GaussScalar.of(2), GaussScalar.of(4), GaussScalar.of(6)],
        [GaussScalar.of(0), GaussScalar.of(1), GaussScalar.of(1)],
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2


def test_nullspace_kills_rows():
    rows = [
        [GaussScalar.of(1), GaussScalar.of(2), GaussScalar.of(3)],
        [GaussScalar.of(0), GaussScalar.of(1), GaussScalar.of(1)],
    ]
    for vec in nullspace(rows):
        for row in rows:
            acc = GaussScalar.of(0)
            for r, v in zip(row, vec):
                acc = acc + r * v
            assert acc.is_zero()
    assert len(nullspace(rows)) == 3 - rank(rows)


def test_same_span():
    v1 = (GaussScalar.of(1), GaussScalar.of(1))
    v2 = (GaussScalar.of(1), GaussScalar.of(-1))
    e1 = (GaussScalar.of(1), GaussScalar.of(0))
    e2 = (GaussScalar.of(0), GaussScalar.of(1))
    assert same_span([v1, v2], [e1, e2])
    assert not same_span([v1], [e1])


# Entry parts: zero (often, for sparse rows and empty pivot columns), small
# fractions, and fractions with numerators and denominators up to 10^6.
_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction, st.integers(min_value=-3, max_value=3), st.integers(1, 4)
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    ),
)
_entries = st.builds(GaussScalar, _parts, _parts)


@st.composite
def _gauss_matrices(draw, max_rows=8, max_cols=16):
    """Up to max_rows x max_cols Gaussian-rational rows, with zero rows,
    duplicated rows and Gaussian combinations of earlier rows mixed in."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dup", "combo"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([GaussScalar.of(0)] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_entries), draw(_entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=150, deadline=None)
@given(_gauss_matrices(), st.data())
def test_elimination_matches_fraction_oracle(rows, data):
    reduced, pivots = rref(rows)
    expected_rows, expected_pivots = rref_by_fractions(rows)
    assert pivots == expected_pivots
    assert reduced == expected_rows
    assert rank(rows) == len(expected_rows)
    if rows:
        # the standard nullspace basis: one vector per non-pivot column,
        # 1 there and 0 in the other non-pivot columns, killing every row
        ncols = len(rows[0])
        free = [c for c in range(ncols) if c not in expected_pivots]
        basis = nullspace(rows)
        assert len(basis) == len(free)
        for fc, vec in zip(free, basis):
            assert [vec[c] for c in free] == [
                GaussScalar.of(int(c == fc)) for c in free
            ]
            for row in rows:
                acc = GaussScalar.of(0)
                for x, v in zip(row, vec):
                    acc = acc + x * v
                assert acc.is_zero()
    # same_span against the oracle's ranks, on a second set drawn from the
    # same rows (often spanning the same space) or fresh rows
    others = data.draw(
        st.lists(st.sampled_from(rows), max_size=8) if rows else st.just([])
    )
    if data.draw(st.booleans()) and rows:
        others = others + [
            data.draw(st.lists(_entries, min_size=len(rows[0]), max_size=len(rows[0])))
        ]
    oracle_rank = lambda vs: len(rref_by_fractions(vs)[0])  # noqa: E731
    assert same_span(rows, others) == (
        oracle_rank(rows) == oracle_rank(others) == oracle_rank(rows + others)
    )


def test_elimination_complex_pivot_and_large_denominators():
    i = GaussScalar(Fraction(0), Fraction(1))
    big = GaussScalar(Fraction(999_983, 1_000_000), Fraction(-7, 999_979))
    rows = [
        [GaussScalar.of(0), i * 3 + 2, big, GaussScalar.of(1)],
        [GaussScalar.of(0), GaussScalar.of(0), GaussScalar.of(0), GaussScalar.of(0)],
        [big, i, GaussScalar.of(0), big * big],
        [big, i, GaussScalar.of(0), big * big],
    ]
    assert rref(rows) == rref_by_fractions(rows)
    assert rank(rows) == 2
    assert rref(rows)[1] == [0, 1]


def test_char_poly_diagonal():
    m = Matrix.from_rows([[2, 0], [0, 3]])
    coeffs = char_poly(m)
    # x^2 - 5x + 6
    assert [c.re for c in coeffs] == [1, -5, 6]
    assert all(c.im == 0 for c in coeffs)


def test_rational_root_split():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    roots = rational_root_split([Fraction(1), Fraction(0), Fraction(-7), Fraction(6)])
    assert roots == [Fraction(-3), Fraction(1), Fraction(2)]
    with pytest.raises(NonRationalSpectrum):
        rational_root_split([Fraction(1), Fraction(0), Fraction(-2)])  # x^2-2


def test_rational_root_split_multiplicity():
    # (x-1)^2 (x-1/2)
    roots = rational_root_split(
        [Fraction(1), Fraction(-5, 2), Fraction(2), Fraction(-1, 2)]
    )
    assert sorted(roots) == [Fraction(1, 2), Fraction(1), Fraction(1)]
