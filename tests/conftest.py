import random
from fractions import Fraction

import pytest

from omljordan.linalg import GaussScalar
from omljordan.matalg import (
    FinDimAlgebra,
    as_projection,
    coarsening_closure,
    from_vec,
    partition_of_unity,
)


@pytest.fixture
def m2():
    return FinDimAlgebra((2,))


@pytest.fixture
def m3():
    return FinDimAlgebra((3,))


@pytest.fixture
def m31():
    return FinDimAlgebra((3, 1))


def random_scalar(rng, span=4, denom=3):
    return GaussScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, denom)),
        Fraction(rng.randint(-span, span), rng.randint(1, denom)),
    )


def random_element(algebra, rng, span=4, denom=3):
    return from_vec(
        algebra,
        tuple(random_scalar(rng, span, denom) for _ in range(algebra.dimension)),
    )


def rng(seed=0):
    return random.Random(seed)


def rotation_unitary(algebra, summand=0):
    """The rational rotation (1/5)[[3,4],[-4,3]] padded with identity."""
    n = algebra.dims[summand]
    rows = [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]
    rows[0][0] = Fraction(3, 5)
    rows[0][1] = Fraction(4, 5)
    rows[1][0] = Fraction(-4, 5)
    rows[1][1] = Fraction(3, 5)
    blocks = []
    from omljordan.linalg import Matrix

    for s, dim in enumerate(algebra.dims):
        blocks.append(
            Matrix.from_rows(rows) if s == summand else Matrix.identity(dim)
        )
    return algebra.element(blocks)


def diagonal_partition(algebra):
    return partition_of_unity(algebra, algebra.diagonal_atoms())


def rotated_partition(algebra, u):
    return partition_of_unity(
        algebra,
        [as_projection(u * p * u.star()) for p in algebra.diagonal_atoms()],
    )


def diag_plus_rotated_fragment(algebra):
    """Coarsening-closed fragment of all diagonal partitions plus one rotated
    maximal partition (rotation in the first summand's first two coordinates)."""
    u = rotation_unitary(algebra)
    return coarsening_closure(
        algebra,
        {"diag": diagonal_partition(algebra), "rot": rotated_partition(algebra, u)},
    )


def three_partition_fragment(algebra):
    """Coarsening closure of p = {e1+e2, e3}, q = {f1, f2+e3} and
    s = {f2, f1+e3}, where f_i is e_i rotated in the first two coordinates.
    Its 4 members give an 8-element Boolean projection lattice whose BSub has
    5 elements, so its top is no member's: step j cannot extend over it."""
    u = rotation_unitary(algebra)
    e1, e2, e3 = algebra.diagonal_atoms()[:3]
    f1, f2 = (as_projection(u * e * u.star()) for e in (e1, e2))
    return coarsening_closure(
        algebra,
        {
            "p": partition_of_unity(algebra, [as_projection(e1 + e2), e3]),
            "q": partition_of_unity(algebra, [f1, as_projection(f2 + e3)]),
            "s": partition_of_unity(algebra, [f2, as_projection(f1 + e3)]),
        },
    )
