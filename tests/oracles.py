"""Independent oracles used by the test suite.

Nothing here shares search code with the package: Bell numbers come from
the triangle recurrence, set partitions from restricted growth strings,
isomorphism enumeration from raw bijection filtering with local checks,
blocks from maximal cliques of the commutation relation, the projection
order, orthogonality and coarsening from exact matrix products (the package
decides them by traces and subset-sum keys), coarsening closure from
restricted growth strings and matrix sums (the package counts members below
each member in the fragment poset), poset joins, meets, covers and
ideals from scans of the raw <= relation (the package reads int up-masks
and down-masks), and the reduced row echelon form by Gauss-Jordan
elimination on GaussScalar fractions (the package eliminates fraction-free
on Gaussian integers).  The matrix kernel's reference works on lists of
rows of (re, im) Fraction pairs and imports nothing from the package (the
package stores Gaussian integers over one denominator), and the canonical
entry order is read back one entry at a time as Fraction pairs.
"""

import itertools
import types
from fractions import Fraction

from omljordan.linalg import GaussScalar


def bell_triangle(n):
    """Bell number via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def count_set_partitions(n):
    """Count partitions of an n-set by enumerating restricted growth strings."""
    if n == 0:
        return 1
    count = 0
    stack = [(1, [0])]
    while stack:
        maxv, prefix = stack.pop()
        if len(prefix) == n:
            count += 1
            continue
        for v in range(maxv + 1):
            stack.append((max(maxv, v + 1), prefix + [v]))
    return count


def _is_order_iso(left, right, mapping):
    for x in left.elements:
        for y in left.elements:
            if left.leq(x, y) != right.leq(mapping[x], mapping[y]):
                return False
    return True


def _is_oml_iso(left, right, mapping):
    if not _is_order_iso(left, right, mapping):
        return False
    for x in left.elements:
        if mapping[left.complement(x)] != right.complement(mapping[x]):
            return False
    return mapping[left.bottom] == right.bottom


def brute_oml_isos(left, right):
    """Filter all |L|! bijections; only usable for small lattices."""
    if len(left.elements) != len(right.elements):
        return []
    out = []
    for perm in itertools.permutations(right.elements):
        mapping = dict(zip(left.elements, perm))
        if _is_oml_iso(left, right, mapping):
            out.append(mapping)
    return out


def atom_extension_oml_isos(left, right):
    """All OML isomorphisms of atomistic OMLs, by extending atom bijections.

    Every order-isomorphism of an atomistic lattice is determined by its
    restriction to atoms (images are joins of image atoms), so enumerating
    atom bijections and filtering the extensions is exhaustive.
    """
    latoms = left.atoms()
    ratoms = right.atoms()
    if len(latoms) != len(ratoms) or len(left.elements) != len(right.elements):
        return []
    out = []
    for perm in itertools.permutations(ratoms):
        atom_map = dict(zip(latoms, perm))
        mapping = {}
        ok = True
        for x in left.elements:
            below = [atom_map[a] for a in latoms if left.leq(a, x)]
            img = right.join_of(below)
            if img is None:
                ok = False
                break
            mapping[x] = img
        if not ok or len(set(mapping.values())) != len(mapping):
            continue
        if _is_oml_iso(left, right, mapping):
            out.append(mapping)
    return out


def filter_by_bsub_constraint(left, right, isos, apply_members):
    """Keep the isomorphisms k with k[D] = j(D) for every Boolean subalgebra D,
    where j is given through apply_members (member set -> member set)."""
    from omljordan.oml import boolean_subalgebras, members_of_label

    labels = boolean_subalgebras(left).elements
    kept = []
    for mapping in isos:
        if all(
            frozenset(mapping[x] for x in members_of_label(label))
            == apply_members(members_of_label(label))
            for label in labels
        ):
            kept.append(mapping)
    return kept


def maximal_commuting_sets(lattice):
    """The blocks of an OML: maximal sets of pairwise-commuting elements.

    Commutation is a = (a ^ b) v (a ^ b'), read from meet, join and
    complement alone; the maximal sets are the maximal cliques of that
    relation, found by Bron-Kerbosch with Tomita pivoting (branching only
    on non-neighbours of a pivot keeps a Boolean algebra, where everything
    commutes, from taking 2^|L| branches).
    """

    def commute(a, b):
        return (
            lattice.join(lattice.meet(a, b), lattice.meet(a, lattice.complement(b)))
            == a
        )

    elements = list(lattice.elements)
    neighbours = {
        a: {b for b in elements if b != a and commute(a, b) and commute(b, a)}
        for a in elements
    }
    out = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(frozenset(clique))
            return
        pivot = max(
            sorted(candidates | excluded), key=lambda u: len(candidates & neighbours[u])
        )
        for v in sorted(candidates - neighbours[pivot]):
            expand(clique | {v}, candidates & neighbours[v], excluded & neighbours[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(elements), set())
    return out


def is_projection_by_products(e):
    """p = p* = p^2, by one exact matrix product."""
    return e == e.star() and e == e * e


def leq_by_products(p, q):
    """Projection order p <= q as qp = p, by one exact matrix product."""
    return q * p == p


def orthogonal_by_products(p, q):
    """pq = 0 and qp = 0, by two exact matrix products."""
    return (p * q).is_zero() and (q * p).is_zero()


def coarsens_by_products(p, q):
    """Partition p coarsens q: the atoms of q under each atom of p sum back
    to that atom."""
    for atom in p.atoms:
        total = p.algebra.zero()
        for b in q.atoms:
            if leq_by_products(b, atom):
                total = total + b
        if total != atom:
            return False
    return True


def _restricted_growth_strings(n):
    """Every set partition of range(n), as the block index of each item."""
    strings = [[]]
    for _ in range(n):
        strings = [s + [v] for s in strings for v in range(max(s, default=-1) + 2)]
    return strings


def first_unclosed_member(frag):
    """The first member, in dict order, one of whose atom merges is not a
    member, or None.  Merges come from restricted growth strings and matrix
    sums of the atoms; a merge is a member q iff q has as many atoms and the
    merge coarsens q (each merged atom then is one atom of q)."""
    members = list(frag.partitions.values())
    for name, p in frag.partitions.items():
        for string in _restricted_growth_strings(len(p.atoms)):
            cells = [p.algebra.zero() for _ in range(max(string) + 1)]
            for atom, cell in zip(p.atoms, string):
                cells[cell] = cells[cell] + atom
            merge = types.SimpleNamespace(algebra=p.algebra, atoms=cells)
            if not any(
                len(q.atoms) == len(cells) and coarsens_by_products(merge, q)
                for q in members
            ):
                return name
    return None


# Poset queries from the pair set alone: `relation` holds every (x, y) with
# x <= y.


def join_by_relation(elements, relation, xs):
    """The least common upper bound of xs (the least element when xs is
    empty), or None."""
    uppers = [z for z in elements if all((x, z) in relation for x in xs)]
    least = [z for z in uppers if all((z, w) in relation for w in uppers)]
    return least[0] if least else None


def meet_by_relation(elements, relation, xs):
    """The greatest common lower bound of xs (the greatest element when xs
    is empty), or None."""
    lowers = [z for z in elements if all((z, x) in relation for x in xs)]
    greatest = [z for z in lowers if all((w, z) in relation for w in lowers)]
    return greatest[0] if greatest else None


def covers_by_relation(elements, relation, x, y):
    """y covers x: x < y with no element strictly between."""
    return (
        x != y
        and (x, y) in relation
        and not any(
            z not in (x, y) and (x, z) in relation and (z, y) in relation
            for z in elements
        )
    )


def maximal_by_relation(elements, relation):
    """Elements below no other element, in element order."""
    return tuple(
        x for x in elements if not any(x != y and (x, y) in relation for y in elements)
    )


def is_ideal_by_relation(elements, relation, members):
    """A downset in which every two members have a join that is a member."""
    mem = set(members)
    if not mem <= set(elements):
        return False
    if any((z, x) in relation and z not in mem for x in mem for z in elements):
        return False
    return all(
        join_by_relation(elements, relation, (x, y)) in mem for x in mem for y in mem
    )


def rref_by_fractions(rows):
    """Reduced row echelon form by Gauss-Jordan elimination in GaussScalar
    arithmetic; returns (nonzero rows as tuples, pivot columns)."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    one = GaussScalar.of(1)
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pivot_row = next(
            (i for i in range(r, len(work)) if not work[i][c].is_zero()), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = one / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


# ---------------------------------------------------------------------------
# Fraction reference for the exact kernel: a matrix is a list of rows of
# (re, im) Fraction pairs.
# ---------------------------------------------------------------------------


def _c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _c_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


ZERO_PAIR = (Fraction(0), Fraction(0))


def pairs_add(a, b):
    return [[_c_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pairs_scale(a, c):
    return [[_c_mul(c, x) for x in row] for row in a]


def pairs_sub(a, b):
    return pairs_add(a, pairs_scale(b, (Fraction(-1), Fraction(0))))


def pairs_matmul(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO_PAIR
            for x, b_row in zip(row, b):
                acc = _c_add(acc, _c_mul(x, b_row[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def pairs_transpose(a):
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def pairs_dagger(a):
    return [[(x[0], -x[1]) for x in row] for row in pairs_transpose(a)]


def pairs_trace(a):
    acc = ZERO_PAIR
    for i in range(len(a)):
        acc = _c_add(acc, a[i][i])
    return acc


def pairs_rref(rows):
    """Gauss-Jordan elimination with complex division on Fraction pairs:
    (nonzero rows of the reduced row echelon form, pivot columns)."""
    work = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][c] != ZERO_PAIR), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        work[r] = [_c_div(x, lead) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != ZERO_PAIR:
                f = (-work[i][c][0], -work[i][c][1])
                work[i] = [_c_add(x, _c_mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def pairs_nullspace(rows, ncols):
    """The standard basis of the right nullspace: one vector per non-pivot
    column, 1 there, 0 at the other non-pivot columns."""
    reduced, pivots = pairs_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO_PAIR] * ncols
        vec[fc] = (Fraction(1), Fraction(0))
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[fc][0], -row[fc][1])
        basis.append(vec)
    return basis


def entry_fractions(e):
    """An algebra element's entries as (re, im) Fraction pairs, block by
    block and row by row, read one entry at a time: the canonical entry
    order of the sort keys."""
    return tuple(
        (b[i, j].re, b[i, j].im)
        for b in e.blocks
        for i in range(b.nrows)
        for j in range(b.ncols)
    )


def rank_by_fractions(p):
    """A projection's rank: its trace, summed entry by entry."""
    return int(sum(b[i, i].re for b in p.blocks for i in range(b.nrows)))
