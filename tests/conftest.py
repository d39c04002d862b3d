import random
from fractions import Fraction

import pytest

from omljordan.linalg import GaussScalar
from omljordan.matalg import (
    FinDimAlgebra,
    as_projection,
    coarsening_closure,
    fragment,
    from_vec,
    partition_of_unity,
    trivial_partition,
)
from omljordan.pipeline import theorem_instance


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
    Its three roots have 2 atoms each, and their projections satisfy
    e1 + e2 = f1 + f2, so of the 8 orientations only one is linear."""
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


def plane_rotation(algebra, i, j):
    """The rotation (1/5)[[3,4],[-4,3]] in coordinates i and j of a single
    matrix summand."""
    (n,) = algebra.dims
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    rows[i][i] = rows[j][j] = Fraction(3, 5)
    rows[i][j], rows[j][i] = Fraction(4, 5), Fraction(-4, 5)
    return algebra.from_rows(rows)


def four_bases_fragment(algebra):
    """Coarsening closure of four bases of C^3: the diagonal one and its
    images under R12, R23 and R13 R12, where Rij is the plane rotation of
    coordinates i and j.  Its 22 projections are no OML under the matrix
    order (projection_oml raises OrthomodularityFails), although each of its
    four roots is a Boolean algebra of 8 projections."""
    r12, r23, r13 = (plane_rotation(algebra, i, j) for i, j in ((0, 1), (1, 2), (0, 2)))
    return coarsening_closure(
        algebra,
        {
            "b0": diagonal_partition(algebra),
            "b1": rotated_partition(algebra, r12),
            "b2": rotated_partition(algebra, r23),
            "b3": rotated_partition(algebra, r13 * r12),
        },
    )


def crossed_roots_instance():
    """An order-isomorphism of M4 fragments that no Jordan map induces.

    Each fragment has two 3-atom roots, named first and second, and their
    merges {a, 1-a}.  In M the roots {P, e3, e4} and {P, g3, g4} share the
    atom P = e1+e2, where g_i is e_i turned in the plane of coordinates 3
    and 4.  In N the roots {P, e3, e4} and {Q, h1, h2} share only the member
    {P, Q}, where Q = e3+e4 and h_i is e_i turned in the plane of
    coordinates 1 and 2.  f pairs equal names, so the root first sends P to
    P and the root second sends it to Q."""
    m4 = FinDimAlgebra((4,))
    e1, e2, e3, e4 = m4.diagonal_atoms()
    p, q = as_projection(e1 + e2), as_projection(e3 + e4)
    r12, r34 = plane_rotation(m4, 0, 1), plane_rotation(m4, 2, 3)
    g3, g4 = (as_projection(r34 * e * r34.star()) for e in (e3, e4))
    h1, h2 = (as_projection(r12 * e * r12.star()) for e in (e1, e2))

    def closed(first, second):
        named = {"trivial": trivial_partition(m4)}
        for name, atoms in (("first", first), ("second", second)):
            named[name] = partition_of_unity(m4, atoms)
            for i, a in enumerate(atoms):
                merge = partition_of_unity(m4, [a, as_projection(m4.identity() - a)])
                if merge not in named.values():
                    named[f"{name}{i}"] = merge
        return fragment(m4, named)

    frag_m = closed((p, e3, e4), (p, g3, g4))
    frag_n = closed((p, e3, e4), (q, h1, h2))
    return theorem_instance(
        m4, m4, frag_m, frag_n, {name: name for name in frag_m.names()}
    )


def unrelated_pairs_instance(algebra):
    """An order-isomorphism of M3 fragments, each three 2-atom roots and the
    trivial member, that no Jordan map induces: M is three_partition_fragment,
    whose projections satisfy e1 + e2 = f1 + f2, and N's roots {e1, 1-e1},
    {f1, 1-f1} and {k, 1-k}, k = R23 e2 R23*, have projections that satisfy
    no linear relation but x + (1-x) = 1.  So no orientation is linear."""
    frag_m = three_partition_fragment(algebra)
    e1, e2, _ = algebra.diagonal_atoms()
    r12, r23 = plane_rotation(algebra, 0, 1), plane_rotation(algebra, 1, 2)
    named = {"trivial": trivial_partition(algebra)}
    for name, u, e in (("p", algebra.identity(), e1), ("q", r12, e1), ("s", r23, e2)):
        x = as_projection(u * e * u.star())
        named[name] = partition_of_unity(
            algebra, [x, as_projection(algebra.identity() - x)]
        )
    return theorem_instance(
        algebra,
        algebra,
        frag_m,
        fragment(algebra, named),
        {name: name for name in frag_m.names()},
    )
