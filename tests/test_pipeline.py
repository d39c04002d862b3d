import pytest

from omljordan.jordan import (
    JordanMap,
    ad_unitary,
    compose_maps,
    identity_map,
    image_fragment,
    induced_subalgebra_map,
    transpose_map,
)
from omljordan.matalg import (
    AlgElement,
    FinDimAlgebra,
    coarsening_closure,
    fragment,
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
    parse_instance_text,
    run_pipeline,
    theorem_instance,
    verify_claims,
    verify_uniqueness,
    write_instance_files,
)

from .conftest import (
    diag_plus_rotated_fragment,
    diagonal_partition,
    rotated_partition,
    rotation_unitary,
)


def _round_trip_instance(algebra, g):
    frag = diag_plus_rotated_fragment(algebra)
    iso = induced_subalgebra_map(g, frag)
    return (
        theorem_instance(
            algebra,
            algebra,
            frag,
            image_fragment(g, frag),
            dict(iso.mapping),
        ),
        frag,
    )


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
    ident = identity_map(algebra)
    iso = induced_subalgebra_map(ident, frag)
    return theorem_instance(
        algebra, algebra, frag, image_fragment(ident, frag), dict(iso.mapping)
    )


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
    frag2 = fragment(m3, renamed, require_coarsening_closed=True)
    iso1 = induced_subalgebra_map(g, frag)
    iso2 = induced_subalgebra_map(g, frag2)
    inst1 = theorem_instance(
        m3, m3, frag, image_fragment(g, frag), dict(iso1.mapping)
    )
    inst2 = theorem_instance(
        m3, m3, frag2, image_fragment(g, frag2), dict(iso2.mapping)
    )
    f1 = run_pipeline(inst1)
    f2 = run_pipeline(inst2)
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
    instance = TheoremInstance(
        m31, m31, frag, frag, induced_subalgebra_map(identity_map(m31), frag)
    )
    with pytest.raises(InsufficientFragment):
        execute(instance)


def test_small_fragment_two_atom_partition_is_ambiguous(m31):
    half = partition_of_unity(
        m31,
        [
            m31.matrix_unit(0, 0, 0) + m31.matrix_unit(0, 1, 1),
            m31.matrix_unit(0, 2, 2) + m31.summand_identity(1),
        ],
    )
    frag = coarsening_closure(m31, {"half": half})
    ident = identity_map(m31)
    iso = induced_subalgebra_map(ident, frag)
    instance = theorem_instance(
        m31, m31, frag, image_fragment(ident, frag), dict(iso.mapping)
    )
    run = execute(instance)
    # generated OML is a 4-element Boolean algebra: one 4-element block
    assert len(run.lattice_m) == 4
    assert len(run.reconstruction_candidates) == 2


def test_trivial_fragment_passes_vacuously(m3):
    frag = fragment(m3, {"trivial": trivial_partition(m3)})
    ident = identity_map(m3)
    iso = induced_subalgebra_map(ident, frag)
    instance = theorem_instance(
        m3, m3, frag, image_fragment(ident, frag), dict(iso.mapping)
    )
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


def test_chain_runs_once_per_instance(tmp_path, m3, monkeypatch):
    """run_pipeline and both reports share one execute, which reuses the
    fragment poset f was validated on; the CLI verb runs the chain once."""
    from omljordan import cli, jordan, matalg, pipeline

    calls = {"execute": 0, "fragment_poset": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "execute", counted("execute", pipeline.execute))
    poset_wrapper = counted("fragment_poset", matalg.fragment_poset)
    for module in (matalg, jordan, pipeline):
        monkeypatch.setattr(module, "fragment_poset", poset_wrapper)

    g = ad_unitary(m3, rotation_unitary(m3))
    instance, _ = _round_trip_instance(m3, g)
    assert calls["fragment_poset"] > 0
    calls["fragment_poset"] = 0
    F = run_pipeline(instance)
    assert verify_claims(instance, F).passed
    assert verify_uniqueness(instance, F).passed
    assert calls == {"execute": 1, "fragment_poset": 0}

    path = write_instance_files(tmp_path, "rot", instance)
    calls["execute"] = 0
    assert cli.main(["pipeline", str(path)]) == 0
    assert calls["execute"] == 1
