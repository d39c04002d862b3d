"""Tests of the benchmark itself (not collected by the package's test run):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

from perfbench import run

run.import_package()

from omljordan import linalg, oml, poset, reconstruct  # noqa: E402
from omljordan.jordan import identity_map  # noqa: E402
from perfbench import checks, inputs, items, speed, tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The per-layer metrics the benchmark promises (see README.md).
EXPECTED_PER_LAYER = {
    "linalg.matmul.calls", "linalg.matmul.busy_s",
    "linalg.rref.calls", "linalg.rref.busy_s",
    "combinat.set_partitions.yielded",
    "matalg.proj_leq.calls", "matalg.proj_leq.busy_s",
    "matalg.proj_leq.distinct_ratio",
    "matalg.coarsens.calls", "matalg.coarsens.busy_s",
    "matalg.fragment.calls", "matalg.fragment.busy_s",
    "matalg.fragment_poset.calls", "matalg.fragment_poset.busy_s",
    "matalg.fragment_poset.distinct_ratio",
    "matalg.projection_oml.calls", "matalg.projection_oml.busy_s",
    "matalg.psi_project.calls", "matalg.psi_project.busy_s",
    "matalg.partition_of_unity.calls", "matalg.partition_of_unity.busy_s",
    "poset.verify_poset.calls", "poset.verify_poset.busy_s",
    "poset.order_iso.calls", "poset.order_iso.busy_s",
    "poset.extend_iso_via_ideals.calls", "poset.extend_iso_via_ideals.busy_s",
    "oml.verify_oml.calls", "oml.verify_oml.busy_s",
    "oml.boolean_subalgebras.calls", "oml.boolean_subalgebras.busy_s",
    "oml.bsub_size", "oml.blocks.calls", "oml.blocks.busy_s",
    "reconstruct.reconstruct_oml_isos.calls",
    "reconstruct.reconstruct_oml_isos.busy_s",
    "reconstruct.candidates", "reconstruct.certify_unique.busy_s",
    "reconstruct.has_4element_block.calls",
    "jordan.proj_map_fragment.busy_s",
    "jordan.spectral_extend.calls", "jordan.spectral_extend.busy_s",
    "jordan.jordan_map.calls", "jordan.jordan_map.busy_s",
    "pipeline.theorem_instance.busy_s",
    "pipeline.execute.calls", "pipeline.execute.busy_s",
    "pipeline.verify_claims.busy_s", "pipeline.verify_uniqueness.busy_s",
    "linalg.self_s", "matalg.self_s", "poset.self_s", "oml.self_s",
    "reconstruct.self_s", "jordan.self_s", "pipeline.self_s",
    "trace.overhead",
}


def test_names_match_benchmark_json():
    assert run.WORKLOADS == ("pipeline-small", "pipeline-large", "oml-lattices")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "items_per_s", "item_s.p50", "setup_s", "peak_rss_mb",
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert {name for name, _, _ in tracer.PER_LAYER} == EXPECTED_PER_LAYER
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", ["pipeline-small", "oml-lattices"])
def test_generator_is_deterministic(workload):
    first = inputs.digest(inputs.batch(workload, 7, 0))
    assert inputs.digest(inputs.batch(workload, 7, 0)) == first
    assert inputs.digest(inputs.batch(workload, 8, 0)) != first


def _omljordan_modules():
    return [m for name, m in sys.modules.items() if name.startswith("omljordan")]


def test_tracer_leaves_no_unpatched_alias():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert len(tr.originals) == len(tracer.SPANS) + len(tracer.COUNTED_GENERATORS)
        for orig in tr.originals.values():
            for module in _omljordan_modules():
                aliases = [a for a, v in vars(module).items() if v is orig]
                assert not aliases, f"{module.__name__}.{aliases} not patched"
        assert linalg.Matrix.__matmul__ is not tr.originals["linalg.matmul"]
    finally:
        tr.uninstall()
    assert linalg.Matrix.__matmul__ is tr.originals["linalg.matmul"]
    assert poset.order_iso is tr.originals["poset.order_iso"]


def _item(kind, dims, family):
    return inputs.pipeline_item(kind, dims, family, random.Random(1))


def test_unique_item_passes_and_identity_for_transpose_fails():
    item = _item("unique", (2, 1), "transpose")
    output = items.run(item, item.fresh_inputs())
    assert checks.check(item, output) is None
    F, claims, uniqueness = output
    wrong = identity_map(F.source)
    assert checks.check(item, (wrong, claims, uniqueness)) is not None


def test_ambiguous_item_needs_four_candidates():
    item = _item("ambiguous", (2,), "rot")
    candidates = items.run(item, item.fresh_inputs())
    assert checks.check(item, candidates) is None
    assert checks.check(item, candidates[:3]) is not None
    assert checks.check(item, None) is not None


def test_oml_item_passes_and_wrong_mo_count_fails():
    item = inputs.oml_item("mo", 4, random.Random(1))
    candidates, *rest = items.run(item, item.fresh_inputs())
    assert len(candidates) == 16
    assert checks.check(item, (candidates, *rest)) is None
    assert checks.check(item, (candidates[:-1], *rest)) is not None


@pytest.mark.parametrize("family,n", [("boolean", 6), ("horizontal_sum_b8", 8)])
def test_pair_subalgebras_alone_do_not_extend(family, n):
    """Why the oml item extends over the whole of BSub(L): the pair
    subalgebras {0, x, x', 1} with the trivial one are not enough."""
    lattice = oml.standard(family, n)
    j = reconstruct.identity_bsub_iso(lattice).j
    small = [x for x in j.source.elements if len(oml.members_of_label(x)) <= 4]
    mu = poset.OrderIso(
        j.source.restrict(small), j.target.restrict(small), {x: x for x in small}
    )
    with pytest.raises(poset.NotAnIdeal):
        poset.extend_iso_via_ideals(mu, j.source, j.target)


def test_traced_items_count_layers():
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_item(0)
        item = _item("unique", (2, 1), "perm")
        assert checks.check(item, items.run(item, item.fresh_inputs())) is None
        tr.begin_item(1)
        lattice_item = inputs.oml_item("horizontal_sum_b8", 3, random.Random(2))
        assert checks.check(
            lattice_item, items.run(lattice_item, lattice_item.fresh_inputs())
        ) is None
    finally:
        tr.uninstall()
    assert tr.calls_by_item("pipeline.execute") == {0: 2}
    matmuls = tr.calls_by_item("linalg.matmul")
    assert matmuls[0] > 0 and 1 not in matmuls
    assert tr.counts["combinat.set_partitions.yielded"] > 0
    metrics = tr.layer_metrics(2, 1.0)
    assert set(metrics) == EXPECTED_PER_LAYER
    assert 0 < metrics["matalg.proj_leq.distinct_ratio"] <= 1
    # Two certified reconstructions in item 0 (execute runs twice), one in 1.
    assert metrics["reconstruct.candidates"] == pytest.approx(1.5)


def test_samples_are_left_out_and_set_the_scale():
    speed.start()
    try:
        start, sampled = time.perf_counter(), speed.spent()
        while speed.sample_count() < 2:
            pass
        end, unsampled = time.perf_counter(), speed.spent()
    finally:
        speed.stop()
    assert 0 < end - start - (unsampled - sampled) < end - start
    # Both samples fall inside [start, end]; a window far away falls back
    # to all samples.
    assert speed.factor(start, end) == speed.factor(end + 100, end + 200)


def test_metrics_weigh_every_slot_the_same():
    """A run that ends after part of a round reports the same mix as one
    that ends after whole rounds."""
    runner = items.Runner("pipeline-small", 1)
    for label, seconds in [("a", 2.0), ("b", 1.0), ("c", 0.5), ("a", 2.0)]:
        runner.records.append(items.Record("unique", label, 0, 1, seconds, None))
    metrics = run.end_to_end(runner, (1.0, 0, 1), lambda t0, t1: 1.0)
    assert metrics["items_per_s"] == pytest.approx(3 / 3.5)
    assert metrics["item_s.p50"] == pytest.approx(1.0)
    # On a machine at half the reference speed every time is halved.
    halved = run.end_to_end(runner, (1.0, 0, 1), lambda t0, t1: 0.5)
    assert halved["items_per_s"] == pytest.approx(2 * 3 / 3.5)
    assert halved["setup_s"] == pytest.approx(0.5)
