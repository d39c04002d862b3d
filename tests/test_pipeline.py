import time

import pytest

from omljordan.combinat import set_partitions
from omljordan.jordan import (
    JordanMap,
    ad_unitary,
    compose_maps,
    identity_map,
    image_fragment,
    transpose_map,
)
from omljordan.matalg import (
    AlgElement,
    FinDimAlgebra,
    coarsening_closure,
    fragment,
    fragment_poset,
    partition_of_unity,
    psi_project,
    trivial_partition,
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
from omljordan.poset import order_iso

from .conftest import (
    diag_plus_rotated_fragment,
    diagonal_partition,
    rotated_partition,
    rotation_unitary,
    three_partition_fragment,
)


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
    """h(S n Proj M) = g(S) n Proj N for every fragment member."""
    g = ad_unitary(m3, rotation_unitary(m3))
    instance, frag = _round_trip_instance(m3, g)
    run = execute(instance)
    t = instance
    for name in t.fragment_m.names():
        part = t.fragment_m.partitions[name]
        image_part = t.fragment_n.partitions[t.f.apply(name)]
        lhs = {
            run.label_to_proj_n[
                run.reconstruction_candidates[0].apply(label)
            ].sort_key()
            for label, proj in run.label_to_proj_m.items()
            if proj.sort_key() in {p.sort_key() for p in psi_project(part)}
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
    assert len(run.reconstruction_candidates) == 4


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
def test_insufficient_fragment_names_first_subalgebra_outside(m3, map_name):
    """A valid instance whose projection lattice has a Boolean subalgebra
    (its top, B8 itself) that no member covers: step j's failure is one
    InsufficientFragment naming it, not a bare poset exception.  Time bound:
    5 s (about 0.03 s on a 2-core x86-64 VM)."""
    g = {"identity": identity_map, "transpose": transpose_map}[map_name](m3)
    start = time.perf_counter()
    instance = induced_instance(g, three_partition_fragment(m3))
    with pytest.raises(InsufficientFragment, match="outside the fragment") as info:
        run_pipeline(instance)
    assert time.perf_counter() - start < 5.0
    assert (info.value.side, info.value.outside) == (
        "M",
        "{0,1,q0,q1,q2,q3,q4,q5}",
    )


def test_small_fragment_two_atom_partition_is_ambiguous(m31):
    half = partition_of_unity(
        m31,
        [
            m31.matrix_unit(0, 0, 0) + m31.matrix_unit(0, 1, 1),
            m31.matrix_unit(0, 2, 2) + m31.summand_identity(1),
        ],
    )
    frag = coarsening_closure(m31, {"half": half})
    run = execute(induced_instance(identity_map(m31), frag))
    # generated OML is a 4-element Boolean algebra: one 4-element block
    assert len(run.lattice_m) == 4
    assert len(run.reconstruction_candidates) == 2


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
