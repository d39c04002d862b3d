"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated time budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from omljordan.combinat import set_partitions
from omljordan.jordan import (
    AlgElement,
    ad_unitary,
    compose_maps,
    decompose_jordan,
    identity_map,
    map_from_callable,
    transpose_map,
)
from omljordan.matalg import (
    FinDimAlgebra,
    coarsening_closure,
    double_commutant,
    fragment,
    fragment_poset,
    jordan_product,
    merge_atoms,
    partition_of_unity,
    psi_project,
    spans_equal,
)
from omljordan.oml import boolean_subalgebras, standard, subalgebras
from omljordan.pipeline import (
    induced_instance,
    run_pipeline,
    verify_claims,
    verify_uniqueness,
    write_instance_files,
)
from omljordan.poset import enumerate_order_isos, verify_poset
from omljordan.reconstruct import identity_bsub_iso, reconstruct_oml_isos

from .conftest import (
    diag_plus_rotated_fragment,
    diagonal_partition,
    random_element,
    rng,
    rotated_partition,
    rotation_unitary,
)
from .oracles import (
    atom_extension_oml_isos,
    brute_oml_isos,
    count_set_partitions,
    filter_by_bsub_constraint,
)


def _report(criterion, ok, elapsed, bound, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed:.2f}s (< {bound}s){suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < bound, f"criterion {criterion} over budget: {elapsed:.2f}s"


def _all_diagonal_partitions(algebra):
    atoms = algebra.diagonal_atoms()
    out = {}
    for i, cells in enumerate(set_partitions(range(len(atoms)))):
        part = merge_atoms(partition_of_unity(algebra, atoms), cells)
        out[f"d{i}"] = part
    return out


def test_criterion_1_projection_correspondence():
    """Fragment poset is order-isomorphic, through the projection map, to the
    inclusion poset of the Boolean projection algebras."""
    start = time.perf_counter()
    ok = True
    detail = ""
    for dims in ((3,), (3, 1)):
        algebra = FinDimAlgebra(dims)
        named = _all_diagonal_partitions(algebra)  # includes the trivial merge
        frag = fragment(algebra, named)
        fposet = fragment_poset(frag)
        proj_sets = {
            name: frozenset(p.sort_key() for p in psi_project(frag.partitions[name]))
            for name in frag.names()
        }
        if len(set(proj_sets.values())) != len(proj_sets):
            ok, detail = False, f"psi not injective on dims {dims}"
            break
        pairs = [
            (a, b)
            for a in frag.names()
            for b in frag.names()
            if a != b and proj_sets[a] < proj_sets[b]
        ]
        inclusion = verify_poset(list(frag.names()), pairs)
        if inclusion.relation != fposet.relation:
            ok, detail = False, f"posets differ on dims {dims}"
            break
        detail = f"fragments of size 5 and {len(frag)}"
    _report(1, ok, time.perf_counter() - start, 1.0, detail)


def test_criterion_2_double_commutant():
    """(Proj S)'' spans S for every partition-generated S."""
    start = time.perf_counter()
    checked = 0
    ok = True
    detail = ""
    for dims in ((3,), (2, 2), (3, 1)):
        algebra = FinDimAlgebra(dims)
        for part in _all_diagonal_partitions(algebra).values():
            span = double_commutant(algebra, psi_project(part))
            if not spans_equal(span, list(part.atoms)):
                ok, detail = False, f"failed for a partition of dims {dims}"
                break
            checked += 1
        if not ok:
            break
    if ok:
        detail = f"{checked} partition-generated subalgebras"
    _report(2, ok, time.perf_counter() - start, 5.0, detail)


def test_criterion_3_unique_reconstruction():
    """Exactly one reconstruction without 4-element blocks, cross-checked
    against bijection filtering for the lattices of at most 14 elements."""
    start = time.perf_counter()
    ok = True
    detail_parts = []
    cases = [
        ("horizontal_sum_b8", 2),
        ("horizontal_sum_b8", 3),
        ("boolean", 3),
        ("boolean", 4),
    ]
    for name, n in cases:
        lattice = standard(name, n)
        iso = identity_bsub_iso(lattice)
        sols = reconstruct_oml_isos(iso)
        if len(sols) != 1:
            ok = False
            detail_parts.append(f"{name}({n}): {len(sols)} solutions")
            continue
        if len(lattice) <= 14:
            if len(lattice) <= 10:
                oracle = brute_oml_isos(lattice, lattice)
            else:
                oracle = atom_extension_oml_isos(lattice, lattice)
            kept = filter_by_bsub_constraint(
                lattice, lattice, oracle, iso.apply_members
            )
            if sorted(tuple(sorted(m.items())) for m in kept) != [
                k.mapping_items() for k in sols
            ]:
                ok = False
                detail_parts.append(f"{name}({n}): oracle disagrees")
                continue
            detail_parts.append(f"{name}({n})=1*")
        else:
            detail_parts.append(f"{name}({n})=1")
    _report(3, ok, time.perf_counter() - start, 30.0, ", ".join(detail_parts))


def test_criterion_4_four_element_block_counterexample():
    """MO(2) gives 4 reconstructions, MO(3) gives 8, matching brute force."""
    start = time.perf_counter()
    ok = True
    details = []
    for n, expected in ((2, 4), (3, 8)):
        lattice = standard("mo", n)
        iso = identity_bsub_iso(lattice)
        sols = reconstruct_oml_isos(iso)
        oracle = filter_by_bsub_constraint(
            lattice, lattice, brute_oml_isos(lattice, lattice), iso.apply_members
        )
        agree = sorted(tuple(sorted(m.items())) for m in oracle) == [
            k.mapping_items() for k in sols
        ]
        if len(sols) != expected or not agree:
            ok = False
        details.append(f"MO({n})={len(sols)}")
    _report(4, ok, time.perf_counter() - start, 10.0, ", ".join(details))


def test_criterion_5_sachs_property():
    """BSub posets order-isomorphic iff the Boolean algebras are isomorphic;
    subalgebra counts are the Bell numbers."""
    start = time.perf_counter()
    ok = True
    expected_counts = {1: 1, 2: 2, 3: 5, 4: 15}
    posets = {}
    for n in range(1, 5):
        lattice = standard("boolean", n)
        count = len(subalgebras(lattice))
        if count != expected_counts[n] or count != count_set_partitions(n):
            ok = False
        posets[n] = boolean_subalgebras(lattice)
    for a in posets:
        for b in posets:
            isomorphic = bool(enumerate_order_isos(posets[a], posets[b]))
            if isomorphic != (a == b):
                ok = False
    _report(
        5,
        ok,
        time.perf_counter() - start,
        10.0,
        "counts 1,2,5,15; iso iff equal size",
    )


def _round_trip_case(algebra, g):
    frag = diag_plus_rotated_fragment(algebra)
    instance = induced_instance(g, frag)
    F = run_pipeline(instance)
    agree = all(
        F.apply(AlgElement(p.algebra, p.blocks))
        == g.apply(AlgElement(p.algebra, p.blocks))
        for p in frag.projections()
    )
    claims = verify_claims(instance, F)
    uniq = verify_uniqueness(instance, F)
    return agree and claims.passed and uniq.passed


def _permutation_unitary(algebra):
    from omljordan.linalg import Matrix, ONE, ZERO

    blocks = []
    for s, n in enumerate(algebra.dims):
        if s == 0:
            rows = [[ONE if j == (i + 1) % n else ZERO for j in range(n)] for i in range(n)]
            blocks.append(Matrix.from_rows(rows))
        else:
            blocks.append(Matrix.identity(n))
    return algebra.element(blocks)


def test_criterion_6_theorem_round_trip():
    """run_pipeline recovers unitary- and transpose-induced Jordan maps
    exactly on the fragment span, with claims and uniqueness passing.
    The time budget is per instance."""
    overall_ok = True
    details = []
    slowest = 0.0
    for dims in ((3,), (3, 1)):
        algebra = FinDimAlgebra(dims)
        u = rotation_unitary(algebra)
        cases = {
            "ad-perm": ad_unitary(algebra, _permutation_unitary(algebra)),
            "ad-rot": ad_unitary(algebra, u),
            "transpose": transpose_map(algebra),
            "transpose-ad-rot": compose_maps(ad_unitary(algebra, u), transpose_map(algebra)),
        }
        for label, g in cases.items():
            start = time.perf_counter()
            ok = _round_trip_case(algebra, g)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            overall_ok = overall_ok and ok and elapsed < 60.0
            details.append(f"{label}@{dims}={'ok' if ok else 'FAIL'}:{elapsed:.1f}s")
    _report(6, overall_ok, slowest, 60.0, "; ".join(details))


def test_criterion_6_larger_dims():
    """Criterion 6's round trip on dims (4,1) and (3,3), for ad-rot and
    transpose, under the same per-instance budget."""
    overall_ok = True
    details = []
    slowest = 0.0
    for dims in ((4, 1), (3, 3)):
        algebra = FinDimAlgebra(dims)
        cases = {
            "ad-rot": ad_unitary(algebra, rotation_unitary(algebra)),
            "transpose": transpose_map(algebra),
        }
        for label, g in cases.items():
            start = time.perf_counter()
            ok = _round_trip_case(algebra, g)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            overall_ok = overall_ok and ok and elapsed < 60.0
            details.append(f"{label}@{dims}={'ok' if ok else 'FAIL'}:{elapsed:.1f}s")
    _report("6 (larger dims)", overall_ok, slowest, 60.0, "; ".join(details))


def test_criterion_7_decomposition():
    """Central projections of identity + transpose and of transpose."""
    start = time.perf_counter()
    algebra = FinDimAlgebra((3, 3))
    mixed = map_from_callable(
        algebra,
        algebra,
        lambda x: AlgElement(algebra, (x.blocks[0], x.blocks[1].transpose())),
    )
    p1, p2, labels = decompose_jordan(mixed)
    ok = (
        labels == ("iso", "anti")
        and p1 == algebra.summand_identity(0)
        and p2 == algebra.summand_identity(1)
    )
    m3 = FinDimAlgebra((3,))
    q1, q2, labels_t = decompose_jordan(transpose_map(m3))
    ok = ok and labels_t == ("anti",) and q1.is_zero() and q2 == m3.identity()
    _report(7, ok, time.perf_counter() - start, 1.0, "P1=(1,0), P2=(0,1); transpose P1=0")


def test_criterion_8_type_i2_failure(tmp_path, capsys):
    """The dims(2) instance exits 1 with AmbiguousReconstruction and exactly
    4 candidates."""
    from omljordan.cli import main

    start = time.perf_counter()
    algebra = FinDimAlgebra((2,))
    u = rotation_unitary(algebra)
    frag = coarsening_closure(
        algebra,
        {
            "diag": diagonal_partition(algebra),
            "rot": rotated_partition(algebra, u),
        },
    )
    instance = induced_instance(identity_map(algebra), frag)
    path = write_instance_files(tmp_path, "i2", instance)
    code = main(["pipeline", str(path)])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = (
        code == 1
        and "AmbiguousReconstruction" in out
        and "4 candidate" in out
        and "candidate 3:" in out
    )
    with capsys.disabled():
        _report(8, ok, elapsed, 5.0, f"exit={code}, 4 candidates listed")


def test_criterion_9_jordan_product_sanity():
    """Commutativity on 100 random exact pairs; an associativity failure
    witness exists."""
    start = time.perf_counter()
    m3 = FinDimAlgebra((3,))
    r = rng(42)
    ok = True
    for _ in range(100):
        a, b = random_element(m3, r), random_element(m3, r)
        if jordan_product(a, b) != jordan_product(b, a):
            ok = False
            break
    witness = False
    for _ in range(200):
        a, b, c = (random_element(m3, r) for _ in range(3))
        lhs = jordan_product(jordan_product(a, b), c)
        rhs = jordan_product(a, jordan_product(b, c))
        if lhs != rhs:
            witness = True
            break
    ok = ok and witness
    _report(
        9,
        ok,
        time.perf_counter() - start,
        5.0,
        "commutative on 100 pairs; associativity witness found",
    )
