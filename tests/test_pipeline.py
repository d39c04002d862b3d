import time

import pytest

from omljordan.combinat import set_partitions
from omljordan.jordan import (
    JordanMap,
    ProjMapFragment,
    ad_unitary,
    compose_maps,
    identity_map,
    image_fragment,
    spectral_extend,
    transpose_map,
)
from omljordan.matalg import (
    AlgElement,
    FinDimAlgebra,
    coarsening_closure,
    fragment,
    fragment_poset,
    partition_of_unity,
    projection_oml,
    psi_project,
    trivial_partition,
)
from omljordan.oml import (
    NotLattice,
    OrthomodularityFails,
    boolean_subalgebras,
    subalgebra_label,
)
from omljordan.pipeline import (
    AmbiguousReconstruction,
    InsufficientFragment,
    InvalidInstance,
    TheoremInstance,
    execute,
    induced_instance,
    parse_instance_text,
    run_pipeline,
    theorem_instance,
    verify_claims,
    verify_uniqueness,
    write_instance_files,
)
from omljordan.poset import OrderIso, extend_iso_via_ideals, order_iso
from omljordan.reconstruct import NoSolution, bsub_iso, reconstruct_oml_isos

from .conftest import (
    crossed_roots_instance,
    diag_plus_rotated_fragment,
    diagonal_partition,
    four_bases_fragment,
    rotated_partition,
    rotation_unitary,
    three_partition_fragment,
    unrelated_pairs_instance,
)
from .test_acceptance import _permutation_unitary


def _round_trip_instance(algebra, g):
    frag = diag_plus_rotated_fragment(algebra)
    return induced_instance(g, frag), frag


def _maps_agree_on_fragment(F, g, frag):
    return all(
        F.apply(AlgElement(p.algebra, p.blocks))
        == g.apply(AlgElement(p.algebra, p.blocks))
        for p in frag.projections()
    )


def _counterexample_instance():
    algebra = FinDimAlgebra((2,))
    u = rotation_unitary(algebra)
    frag = coarsening_closure(
        algebra,
        {
            "diag": diagonal_partition(algebra),
            "rot": rotated_partition(algebra, u),
        },
    )
    return induced_instance(identity_map(algebra), frag)


def _half_fragment(algebra):
    half = partition_of_unity(
        algebra,
        [
            algebra.matrix_unit(0, 0, 0) + algebra.matrix_unit(0, 1, 1),
            algebra.matrix_unit(0, 2, 2) + algebra.summand_identity(1),
        ],
    )
    return coarsening_closure(algebra, {"half": half})


def test_round_trip_permutation(m3):
    perm = m3.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = ad_unitary(m3, perm)
    instance, frag = _round_trip_instance(m3, g)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed


def test_round_trip_transpose_is_identity_on_symmetric_span(m3):
    g = transpose_map(m3)
    instance, frag = _round_trip_instance(m3, g)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    assert verify_claims(instance, F).passed


def test_round_trip_transpose_ad_u(m3):
    g = compose_maps(ad_unitary(m3, rotation_unitary(m3)), transpose_map(m3))
    instance, frag = _round_trip_instance(m3, g)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    rep = verify_uniqueness(instance, F)
    assert rep.passed


def test_h_step_transport_property(m3):
    """F(S n Proj M) = g(S) n Proj N for every fragment member."""
    g = ad_unitary(m3, rotation_unitary(m3))
    instance, frag = _round_trip_instance(m3, g)
    run = execute(instance)
    assert len(run.jordan_maps) == 1
    (F,) = run.jordan_maps
    t = instance
    for name in t.fragment_m.names():
        part = t.fragment_m.partitions[name]
        image_part = t.fragment_n.partitions[t.f.apply(name)]
        lhs = {
            F.apply(AlgElement(p.algebra, p.blocks)).sort_key()
            for p in psi_project(part)
        }
        rhs = {p.sort_key() for p in psi_project(image_part)}
        assert lhs == rhs


def test_pipeline_output_independent_of_names(m3):
    """Renaming fragment partitions does not change the resulting map."""
    g = ad_unitary(m3, rotation_unitary(m3))
    frag = diag_plus_rotated_fragment(m3)
    renamed = {}
    mapping = {}
    for i, name in enumerate(reversed(frag.names())):
        new = "trivial" if frag.partitions[name].is_trivial() else f"z{i}"
        renamed[new] = frag.partitions[name]
        mapping[name] = new
    frag2 = fragment(m3, renamed)
    f1 = run_pipeline(induced_instance(g, frag))
    f2 = run_pipeline(induced_instance(g, frag2))
    assert f1.agrees_with(f2)


def test_ambiguous_reconstruction_dims2():
    instance = _counterexample_instance()
    with pytest.raises(AmbiguousReconstruction) as excinfo:
        run_pipeline(instance)
    assert len(excinfo.value.candidates) == 4
    # diagnostic path: candidates are genuine maps on the span
    run = execute(instance)
    assert len(run.jordan_maps) == 4
    for cand in run.jordan_maps:
        assert cand.span_dimension() == 3


def test_ambiguity_count_is_four_for_mo2_fragment():
    instance = _counterexample_instance()
    run = execute(instance)
    assert len(run.jordan_maps) == 4


def test_verify_uniqueness_fails_on_ambiguous():
    instance = _counterexample_instance()
    run = execute(instance)
    report = verify_uniqueness(instance, run.jordan_maps[0])
    names = {e.name: e.status for e in report.entries}
    assert names["unique-reconstruction"] == "FAIL"
    entry = next(e for e in report.entries if e.name == "unique-reconstruction")
    assert "4 candidates" in entry.witness


def test_insufficient_fragment_single_maximal_partition(m31):
    frag = fragment(
        m31,
        {
            "trivial": trivial_partition(m31),
            "diag": diagonal_partition(m31),
        },
    )
    # frag is not coarsening-closed, so theorem_instance would refuse it
    poset = fragment_poset(frag)
    f = order_iso(poset, poset, {name: name for name in frag.names()})
    instance = TheoremInstance(m31, m31, frag, frag, f)
    with pytest.raises(InsufficientFragment):
        execute(instance)


@pytest.mark.parametrize("map_name", ["identity", "transpose"])
def test_three_partition_fragment_reconstructs(m3, map_name):
    """Three 2-atom roots whose projections satisfy e1 + e2 = f1 + f2: of
    their 8 orientations only the one of g extends linearly, so F = g and
    every claim passes.  Time bound: 5 s (about 0.03 s on a 2-core x86-64
    VM)."""
    g = {"identity": identity_map, "transpose": transpose_map}[map_name](m3)
    start = time.perf_counter()
    frag = three_partition_fragment(m3)
    instance = induced_instance(g, frag)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed
    assert time.perf_counter() - start < 5.0


def test_small_fragment_two_atom_partition_is_ambiguous(m31):
    instance = induced_instance(identity_map(m31), _half_fragment(m31))
    run = execute(instance)
    # the one root's projections are a 4-element block, free to flip
    assert len(instance.fragment_m.index.projections) == 4
    assert len(run.jordan_maps) == 2


def test_trivial_fragment_passes_vacuously(m3):
    frag = fragment(m3, {"trivial": trivial_partition(m3)})
    instance = induced_instance(identity_map(m3), frag)
    F = run_pipeline(instance)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed


def test_tampered_map_fails_claim1(m3):
    g = identity_map(m3)
    instance, frag = _round_trip_instance(m3, g)
    F = run_pipeline(instance)
    assert verify_claims(instance, F).passed
    # swap the images of two non-commuting basis projections post hoc
    basis = list(F._basis)
    swap_at = None
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            gi, gj = basis[i][0], basis[j][0]
            if gi * gj != gj * gi:
                swap_at = (i, j)
                break
        if swap_at:
            break
    assert swap_at is not None
    i, j = swap_at
    doctored = list(basis)
    doctored[i] = (basis[i][0], basis[j][1])
    doctored[j] = (basis[j][0], basis[i][1])
    tampered = JordanMap(
        F.source, F.target, tuple(doctored), tuple(doctored), F._coords
    )
    report = verify_claims(instance, tampered)
    claim1 = [e for e in report.entries if e.name.startswith("claim1")]
    assert any(e.status == "FAIL" for e in claim1)


def _doctored(F, images):
    """F with the given image for each basis generator, same coordinates."""
    basis = tuple((g, images(i, g, img)) for i, (g, img) in enumerate(F._basis))
    return JordanMap(F.source, F.target, basis, basis, F._coords)


def test_claim2_matches_partition_check_on_every_image(m3):
    """Claim 2 reads an image found in N's index as N's Projection and
    checks only the images outside it; each entry must equal the full
    partition_of_unity check on the F-images: PASS, or FAIL with its
    message.  Doubling F sends every atom outside N's index, and swapping
    two basis images keeps some images inside it."""
    instance, frag = _round_trip_instance(m3, identity_map(m3))
    F = run_pipeline(instance)
    basis = F._basis
    doubled = _doctored(F, lambda i, g, img: img.scale(2))
    swapped = _doctored(F, lambda i, g, img: basis[{0: 1, 1: 0}.get(i, i)][1])
    outcomes = set()
    for tampered in (F, doubled, swapped):
        report = {e.name: e for e in verify_claims(instance, tampered).entries}
        for name in frag.names():
            images = [
                tampered.apply(AlgElement(a.algebra, a.blocks))
                for a in frag.partitions[name].atoms
            ]
            try:
                partition_of_unity(m3, images)
                expected = ("PASS", "")
            except Exception as exc:
                expected = ("FAIL", str(exc))
            entry = report[f"claim2[{name}]"]
            assert (entry.status, entry.witness) == expected
            outcomes.add(expected[1].split(":")[0])
    assert {"", "not a projection", "atoms are not pairwise orthogonal"} <= outcomes


def test_instance_validation_rejects_unclosed_fragment(m3):
    frag = fragment(
        m3,
        {
            "trivial": trivial_partition(m3),
            "diag": diagonal_partition(m3),
        },
    )
    with pytest.raises(InvalidInstance):
        theorem_instance(
            m3, m3, frag, frag, {"trivial": "trivial", "diag": "diag"}
        )


def test_instance_file_round_trip(tmp_path, m3):
    g = ad_unitary(m3, rotation_unitary(m3))
    instance, frag = _round_trip_instance(m3, g)
    path = write_instance_files(tmp_path, "rot", instance)
    parsed = parse_instance_text(path.read_text(), tmp_path)
    assert parsed.algebra_m == instance.algebra_m
    assert set(parsed.fragment_m.names()) == set(instance.fragment_m.names())
    assert dict(parsed.f.mapping) == dict(instance.f.mapping)
    F = run_pipeline(parsed)
    assert _maps_agree_on_fragment(F, g, frag)


def test_instance_validation_rejects_member_with_too_many_merges(monkeypatch):
    """A 12-atom member has Bell(12) merges, far more than the two members
    of its fragment: the closure check rejects it without building them or
    its 2^12 subset sums."""
    from omljordan import matalg

    summed = []
    subset_sums = matalg._subset_sums

    def recorded(partition):
        summed.append(len(partition))
        return subset_sums(partition)

    monkeypatch.setattr(matalg, "_subset_sums", recorded)
    algebra = FinDimAlgebra((12,))
    frag = fragment(
        algebra,
        {
            "trivial": trivial_partition(algebra),
            "diag": diagonal_partition(algebra),
        },
    )
    start = time.perf_counter()
    with pytest.raises(
        InvalidInstance,
        match=r"^fragment M invalid: fragment is not coarsening-closed: "
        r"a merge of 'diag' is missing$",
    ):
        theorem_instance(
            algebra, algebra, frag, frag, {"trivial": "trivial", "diag": "diag"}
        )
    assert time.perf_counter() - start < 1.0
    assert 12 not in summed


def test_instance_validation_builds_no_merges(m3, monkeypatch):
    """Validating an instance on closed fragments counts the members below
    each member in the fragment poset and enumerates no set partition."""
    from omljordan import matalg

    frag = diag_plus_rotated_fragment(m3)
    g = ad_unitary(m3, rotation_unitary(m3))
    image = image_fragment(g, frag)
    enumerated = []

    def counted(items):
        enumerated.append(items)
        return set_partitions(items)

    monkeypatch.setattr(matalg, "set_partitions", counted)
    instance = theorem_instance(
        m3, m3, frag, image, {name: name for name in frag.names()}
    )
    assert enumerated == []
    assert instance.f.apply("trivial") == "trivial"


def test_chain_runs_once_per_instance(tmp_path, m3, monkeypatch):
    """One induced_instance round trip builds the image fragment once, each
    fragment poset once, proves each fragment closed once and builds subset
    sums once per root partition (a maximal member) and for no other
    member, and run_pipeline and both reports share one execute; the CLI
    verb runs the chain once, proves closure once per fragment and builds
    each parsed root partition's subset sums once."""
    from omljordan import cli, jordan, matalg, pipeline

    counted = (
        "execute",
        "fragment_poset",
        "check_coarsening_closed",
        "image_fragment",
        "_subset_sums",
    )
    calls = dict.fromkeys(counted, 0)

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counted:
        modules = [m for m in (matalg, jordan, pipeline) if hasattr(m, name)]
        wrapper = wrap(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)

    frag = diag_plus_rotated_fragment(m3)
    g = ad_unitary(m3, rotation_unitary(m3))
    instance = induced_instance(g, frag)
    F = run_pipeline(instance)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed
    roots = len(instance.f.source.maximal_elements()) + len(
        instance.f.target.maximal_elements()
    )
    assert roots == 4  # diag and rot on each side
    assert calls == {
        "execute": 1,
        "fragment_poset": 2,
        "check_coarsening_closed": 2,
        "image_fragment": 1,
        "_subset_sums": roots,
    }

    path = write_instance_files(tmp_path, "rot", instance)
    calls.update(dict.fromkeys(counted, 0))
    assert cli.main(["pipeline", str(path)]) == 0
    assert calls["execute"] == 1
    assert calls["check_coarsening_closed"] == 2
    assert calls["_subset_sums"] == roots


def _projection_oml_chain(t):
    """The candidate Jordan maps as execute found them through both
    projection OMLs: transport f to their BSub posets, extend it over them
    via ideals, reconstruct the lattice isomorphisms and extend each one
    spectrally.  The reference that reading f at the roots must match."""
    index_m, index_n = t.fragment_m.index, t.fragment_n.index
    lattice_m, by_label_m = projection_oml(t.algebra_m, index_m.projections)
    lattice_n, by_label_n = projection_oml(t.algebra_n, index_n.projections)
    bsub_m, bsub_n = boolean_subalgebras(lattice_m), boolean_subalgebras(lattice_n)
    h_mapping = {
        subalgebra_label(lattice_m.order.members(index_m.masks[name])): (
            subalgebra_label(lattice_n.order.members(index_n.masks[t.f.apply(name)]))
        )
        for name in t.fragment_m.names()
    }
    h = order_iso(
        bsub_m.restrict(h_mapping), bsub_n.restrict(h_mapping.values()), h_mapping
    )
    j = extend_iso_via_ideals(h, bsub_m, bsub_n)
    maps = []
    for k in reconstruct_oml_isos(bsub_iso(lattice_m, lattice_n, dict(j.mapping))):
        pairs = tuple(
            (by_label_m[x], by_label_n[k.apply(x)]) for x in lattice_m.elements
        )
        psi = ProjMapFragment(t.algebra_m, t.algebra_n, pairs)
        maps.append(spectral_extend(psi, []))
    return maps


def _named_map(algebra, name):
    u = rotation_unitary(algebra)
    return {
        "identity": lambda: identity_map(algebra),
        "ad-perm": lambda: ad_unitary(algebra, _permutation_unitary(algebra)),
        "ad-rot": lambda: ad_unitary(algebra, u),
        "transpose": lambda: transpose_map(algebra),
        "transpose-ad-rot": lambda: compose_maps(
            ad_unitary(algebra, u), transpose_map(algebra)
        ),
    }[name]()


REFERENCE_CASES = [
    *(
        ((dims, "diag+rot", name), 1)
        for dims in ((3,), (3, 1))
        for name in ("ad-perm", "ad-rot", "transpose", "transpose-ad-rot")
    ),
    (((2,), "diag+rot", "identity"), 4),
    (((2,), "diag+rot", "ad-rot"), 4),
    (((2, 1), "diag+rot", "ad-rot"), 1),
    (((2, 1), "diag+rot", "transpose"), 1),
    (((2, 2), "diag+rot", "ad-rot"), 1),
    (((2, 2), "diag+rot", "transpose"), 1),
    (((3, 1), "half", "identity"), 2),
    (((3,), "trivial", "transpose"), 1),
]


@pytest.mark.parametrize(
    "case, count",
    REFERENCE_CASES,
    ids=["-".join(map(str, case)) for case, _ in REFERENCE_CASES],
)
def test_reading_matches_the_projection_oml_chain(case, count):
    """On every fixture where the chain through the projection OMLs
    succeeds, reading f at the roots gives the same candidates in the same
    order: the same generator pairs, so F agrees on every index projection."""
    dims, frag_name, map_name = case
    algebra = FinDimAlgebra(dims)
    frag = {
        "diag+rot": diag_plus_rotated_fragment,
        "half": _half_fragment,
        "trivial": lambda a: fragment(a, {"trivial": trivial_partition(a)}),
    }[frag_name](algebra)
    instance = induced_instance(_named_map(algebra, map_name), frag)
    reference = _projection_oml_chain(instance)
    candidates = execute(instance).jordan_maps
    assert len(candidates) == len(reference) == count
    projections = [
        AlgElement(p.algebra, p.blocks) for p in instance.fragment_m.index.projections
    ]
    for F, G in zip(candidates, reference):
        assert F.generators == G.generators
        assert all(F.apply(p) == G.apply(p) for p in projections)


PROJECTION_OML_PATH = (
    "projection_oml",
    "boolean_subalgebras",
    "extend_iso_via_ideals",
    "bsub_iso",
    "has_4element_block",
    "certify_unique",
    "reconstruct_oml_isos",
)


def test_execute_leaves_the_projection_oml_path(m3, monkeypatch):
    """With every function of the projection-OML path made to raise, a
    criterion-6 round trip still passes and demo 08's instance still gives
    its 4 candidates."""
    from omljordan import matalg, oml, pipeline, poset, reconstruct

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline took the projection-OML path")

    for name in PROJECTION_OML_PATH:
        for module in (matalg, oml, poset, reconstruct, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    g = _named_map(m3, "transpose-ad-rot")
    instance, frag = _round_trip_instance(m3, g)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed
    assert len(execute(_counterexample_instance()).jordan_maps) == 4


@pytest.mark.parametrize("map_name", ["ad-rot", "transpose"])
def test_fragment_that_is_no_oml_reconstructs(m3, map_name):
    """Four bases of C^3 whose projections are no OML under the matrix
    order: their roots are read like any others, so F = g and claims and
    uniqueness pass.  Time bound: 5 s (about 0.02 s on a 2-core x86-64 VM)."""
    frag = four_bases_fragment(m3)
    with pytest.raises((OrthomodularityFails, NotLattice)):
        projection_oml(m3, frag.index.projections)
    start = time.perf_counter()
    g = _named_map(m3, map_name)
    instance = induced_instance(g, frag)
    F = run_pipeline(instance)
    assert _maps_agree_on_fragment(F, g, frag)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed
    assert time.perf_counter() - start < 5.0


def test_no_solution_when_two_roots_read_a_projection_apart():
    """Both roots of M hold P; f makes one send it to P, the other to Q."""
    with pytest.raises(NoSolution, match="^the root 'second' maps a shared projection"):
        execute(crossed_roots_instance())


def test_no_solution_when_no_orientation_is_linear(m3):
    """M's roots satisfy a linear relation that N's do not, whatever the
    orientation of each."""
    with pytest.raises(NoSolution, match="^none of the 8 orientations"):
        execute(unrelated_pairs_instance(m3))


def test_no_solution_when_a_root_changes_its_atom_count(m3, m31):
    """Hand-built, since theorem_instance accepts only closed fragments:
    f sends a 2-atom root onto a 3-atom member."""
    frag_m = _half_fragment(m31)
    frag_n = fragment(
        m3, {"trivial": trivial_partition(m3), "diag": diagonal_partition(m3)}
    )
    f = order_iso(
        fragment_poset(frag_m),
        fragment_poset(frag_n),
        {"trivial": "trivial", "half": "diag"},
    )
    with pytest.raises(NoSolution, match="with another atom count$"):
        execute(TheoremInstance(m31, m3, frag_m, frag_n, f))


def test_no_solution_when_an_atom_has_no_single_image(m3):
    """Hand-built, with an f that is no order-isomorphism: it swaps the
    trivial member with the coarsening {e1, e2+e3} of the diagonal root."""
    e1 = m3.diagonal_atoms()[0]
    frag = coarsening_closure(m3, {"diag": diagonal_partition(m3)})
    (name,) = (
        n for n, p in frag.partitions.items() if len(p) == 2 and e1 in p.atoms
    )
    poset = fragment_poset(frag)
    mapping = {n: n for n in frag.names()}
    mapping.update({name: "trivial", "trivial": name})
    f = OrderIso(poset, poset, mapping)
    message = f"^f\\('{name}'\\) has 0 atoms of f\\('diag'\\)$"
    with pytest.raises(NoSolution, match=message):
        execute(TheoremInstance(m3, m3, frag, frag, f))
