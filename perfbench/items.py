"""The timed unit of work of each item kind, and the closed loop that runs
items one after another.

Package functions are looked up on their modules at call time, so the
tracer's patches see every call made from here.
"""

from __future__ import annotations

import gc
import time
import traceback
from typing import NamedTuple

from omljordan import oml, pipeline, poset, reconstruct
from perfbench import checks, inputs, speed

# Batches generated before the first item; setup_s takes the median of their
# generation times.  Later batches are generated when first needed.
UPFRONT_BATCHES = 3


def run_unique(data):
    """theorem_instance, execute (inside run_pipeline), verify_claims and
    verify_uniqueness on one theorem instance."""
    algebra, frag_m, frag_n, mapping = data
    instance = pipeline.theorem_instance(algebra, algebra, frag_m, frag_n, mapping)
    F = pipeline.run_pipeline(instance)
    return (
        F,
        pipeline.verify_claims(instance, F),
        pipeline.verify_uniqueness(instance, F),
    )


def run_ambiguous(data):
    """The candidate Jordan maps of AmbiguousReconstruction, or None when it
    is not raised."""
    algebra, frag_m, frag_n, mapping = data
    instance = pipeline.theorem_instance(algebra, algebra, frag_m, frag_n, mapping)
    try:
        pipeline.run_pipeline(instance)
    except pipeline.AmbiguousReconstruction as exc:
        return exc.candidates
    return None


def run_oml(data):
    """Verify L, enumerate BSub(L) and its blocks, reconstruct the lattice
    isomorphisms inducing k's BSub isomorphism, and extend that isomorphism
    via ideals over the whole of BSub(L)."""
    elements, relation, ortho, k_mapping = data
    lattice = oml.verify_oml(poset.Poset(elements, relation), ortho)
    bsub = oml.boolean_subalgebras(lattice)
    block_count = len(oml.blocks(lattice))
    iso = reconstruct.induced_bsub_iso(
        reconstruct.OmlIso(lattice, lattice, k_mapping)
    )
    if reconstruct.has_4element_block(lattice):
        candidates = reconstruct.reconstruct_oml_isos(iso)
    else:
        candidates = [reconstruct.certify_unique(iso)]
    extension = poset.extend_iso_via_ideals(iso.j, bsub, bsub)
    return candidates, extension, iso.j, len(bsub), block_count


RUNNERS = {"unique": run_unique, "ambiguous": run_ambiguous, "oml": run_oml}


def run(item, data):
    return RUNNERS[item.kind](data)


class Record(NamedTuple):
    """One item run: its perf_counter start and end, its seconds without
    speed samples, and the failure reason (None when the output checked
    out).  Items with one label are one slot of the round: the same kind of
    work on different inputs."""

    kind: str
    label: str
    start: float
    end: float
    seconds: float
    reason: str | None


class Runner:
    """Batches of one workload and seed, and the items run so far."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.round_size = inputs.batches_per_round(workload)
        self.batches: list = []
        self.records: list[Record] = []

    def set_up(self) -> list[float]:
        """Generate the upfront batches; returns each one's seconds."""
        seconds = []
        for _ in range(UPFRONT_BATCHES):
            start, sampled = time.perf_counter(), speed.spent()
            self.batch(len(self.batches))
            seconds.append(time.perf_counter() - start - (speed.spent() - sampled))
        return seconds

    def batch(self, index: int) -> list:
        while len(self.batches) <= index:
            self.batches.append(
                inputs.batch(self.workload, self.seed, len(self.batches))
            )
            # Keep the benchmark's own objects out of the collector's way.
            gc.collect()
            gc.freeze()
        return self.batches[index]

    def run_item(self, item) -> tuple[float, str | None]:
        data = item.fresh_inputs()
        gc.collect()
        end = None
        start, sampled = time.perf_counter(), speed.spent()
        try:
            output = run(item, data)
            end, unsampled = time.perf_counter(), speed.spent()
            reason = checks.check(item, output)
        except Exception as exc:  # a failing item must not end the run
            if end is None:
                end, unsampled = time.perf_counter(), speed.spent()
            traceback.print_exc()
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = end - start - (unsampled - sampled)
        self.records.append(Record(item.kind, item.label, start, end, elapsed, reason))
        return elapsed, reason

    def run(self, seconds: float, on_item=None) -> None:
        """Run items in round order from batch 0: one whole round, then on
        while the next item, taking as long as its label did last time, would
        end nearer to ``seconds`` of summed item time than stopping before it.
        """
        measured, index, last = 0.0, 0, {}
        while True:
            for item in self.batch(index):
                if index >= self.round_size and measured + last[item.label] / 2 >= seconds:
                    return
                if on_item is not None:
                    on_item(len(self.records))
                last[item.label] = self.run_item(item)[0]
                measured += last[item.label]
            # Drop what has run, so memory does not grow with run length.
            self.batches[index] = None
            index += 1
