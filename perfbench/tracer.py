"""Outside-in tracer: spans around the package's public functions, recorded
from the benchmark's own files without changing the package.

``install`` replaces each traced function by a wrapper in every
``omljordan.*`` module namespace that binds it (``pipeline``, ``jordan``,
``reconstruct``, ``matalg`` and ``oml`` rebind names with ``from ...
import``), and wraps ``linalg.Matrix.__matmul__`` on the class.  A span is
(name, start, end, parent span, item id); spans stay in memory in flat
arrays and are written out when the run ends.  Time spent in methods that
are not traced (``Poset.join_of``, ``AlgElement.__mul__`` ...) counts
towards the innermost traced span that called them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  The module of a span is its first part.
# matalg.spans_equal, reconstruct.bsub_iso and reconstruct.induced_bsub_iso
# report no metric of their own: their spans only keep their time out of
# the caller's module in the self-time figures.
SPANS = (
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "rref", "linalg.rref"),
    ("matalg", "proj_leq", "matalg.proj_leq"),
    ("matalg", "coarsens", "matalg.coarsens"),
    ("matalg", "fragment", "matalg.fragment"),
    ("matalg", "fragment_poset", "matalg.fragment_poset"),
    ("matalg", "projection_oml", "matalg.projection_oml"),
    ("matalg", "psi_project", "matalg.psi_project"),
    ("matalg", "partition_of_unity", "matalg.partition_of_unity"),
    ("matalg", "spans_equal", "matalg.spans_equal"),
    ("poset", "verify_poset", "poset.verify_poset"),
    ("poset", "order_iso", "poset.order_iso"),
    ("poset", "extend_iso_via_ideals", "poset.extend_iso_via_ideals"),
    ("oml", "verify_oml", "oml.verify_oml"),
    ("oml", "boolean_subalgebras", "oml.boolean_subalgebras"),
    ("oml", "blocks", "oml.blocks"),
    ("reconstruct", "bsub_iso", "reconstruct.bsub_iso"),
    ("reconstruct", "induced_bsub_iso", "reconstruct.induced_bsub_iso"),
    ("reconstruct", "reconstruct_oml_isos", "reconstruct.reconstruct_oml_isos"),
    ("reconstruct", "certify_unique", "reconstruct.certify_unique"),
    ("reconstruct", "has_4element_block", "reconstruct.has_4element_block"),
    ("jordan", "proj_map_fragment", "jordan.proj_map_fragment"),
    ("jordan", "spectral_extend", "jordan.spectral_extend"),
    ("jordan", "jordan_map", "jordan.jordan_map"),
    ("pipeline", "theorem_instance", "pipeline.theorem_instance"),
    ("pipeline", "execute", "pipeline.execute"),
    ("pipeline", "verify_claims", "pipeline.verify_claims"),
    ("pipeline", "verify_uniqueness", "pipeline.verify_uniqueness"),
)

# Generators whose yielded values are counted (no span: their time
# interleaves with the consumer's).
COUNTED_GENERATORS = (("combinat", "set_partitions", "combinat.set_partitions.yielded"),)

# Keys of the arguments, for distinct-arguments / calls ratios per item.
ARGUMENT_KEYS = {
    "matalg.proj_leq": lambda p, q: hash((p.sort_key(), q.sort_key())),
    "matalg.fragment_poset": lambda frag: hash(
        tuple(sorted((n, part.key()) for n, part in frag.partitions.items()))
    ),
}

# Counters fed by the size of a traced function's result.
RESULT_SIZES = {
    "oml.boolean_subalgebras": "oml.bsub_size",
    "reconstruct.reconstruct_oml_isos": "reconstruct.candidates",
}

MODULES_WITH_SELF_TIME = (
    "linalg", "matalg", "poset", "oml", "reconstruct", "jordan", "pipeline",
)

CALLS = ("calls", "calls/item", "lower")
BUSY = ("busy_s", "s/item", "lower")

# The per-layer metrics a traced run reports: (name, unit, better).
# Counts and times are per item; ratios are over the whole run.
PER_LAYER = tuple(
    [
        (f"{span}.{kind}", unit, better)
        for span, kinds in (
            ("linalg.matmul", (CALLS, BUSY)),
            ("linalg.rref", (CALLS, BUSY)),
            ("matalg.proj_leq", (CALLS, BUSY)),
            ("matalg.coarsens", (CALLS, BUSY)),
            ("matalg.fragment", (CALLS, BUSY)),
            ("matalg.fragment_poset", (CALLS, BUSY)),
            ("matalg.projection_oml", (CALLS, BUSY)),
            ("matalg.psi_project", (CALLS, BUSY)),
            ("matalg.partition_of_unity", (CALLS, BUSY)),
            ("poset.verify_poset", (CALLS, BUSY)),
            ("poset.order_iso", (CALLS, BUSY)),
            ("poset.extend_iso_via_ideals", (CALLS, BUSY)),
            ("oml.verify_oml", (CALLS, BUSY)),
            ("oml.boolean_subalgebras", (CALLS, BUSY)),
            ("oml.blocks", (CALLS, BUSY)),
            ("reconstruct.reconstruct_oml_isos", (CALLS, BUSY)),
            ("reconstruct.certify_unique", (BUSY,)),
            ("reconstruct.has_4element_block", (CALLS,)),
            ("jordan.proj_map_fragment", (BUSY,)),
            ("jordan.spectral_extend", (CALLS, BUSY)),
            ("jordan.jordan_map", (CALLS, BUSY)),
            ("pipeline.theorem_instance", (BUSY,)),
            ("pipeline.execute", (CALLS, BUSY)),
            ("pipeline.verify_claims", (BUSY,)),
            ("pipeline.verify_uniqueness", (BUSY,)),
        )
        for kind, unit, better in kinds
    ]
    + [
        ("combinat.set_partitions.yielded", "count/item", "lower"),
        ("matalg.proj_leq.distinct_ratio", "ratio", "higher"),
        ("matalg.fragment_poset.distinct_ratio", "ratio", "higher"),
        ("oml.bsub_size", "count/item", "lower"),
        ("reconstruct.candidates", "count/item", "lower"),
    ]
    + [(f"{m}.self_s", "s/item", "lower") for m in MODULES_WITH_SELF_TIME]
    + [("trace.overhead", "ratio", "lower")]
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        self.fn = array("H")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = {name: set() for name in ARGUMENT_KEYS}
        self.distinct: dict[str, int] = defaultdict(int)
        self.generator_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "omljordan" or name.startswith("omljordan.")
        ]
        for module_name, attr, name in SPANS:
            module = sys.modules[f"omljordan.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                self._set(cls, method, self._span(name, orig))
            else:
                orig = getattr(module, attr)
                self._rebind(modules, orig, self._span(name, orig))
            self.originals[name] = orig
        for module_name, attr, counter in COUNTED_GENERATORS:
            orig = getattr(sys.modules[f"omljordan.{module_name}"], attr)
            self._rebind(modules, orig, self._counted(counter, orig))
            self.originals[counter] = orig

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _rebind(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, orig):
        fid = len(self.names)
        self.names.append(name)
        fn, parent, item_of = self.fn, self.parent, self.item_of
        start, end = self.start, self.end
        key = ARGUMENT_KEYS.get(name)
        keys = self.keys.get(name)
        counter = RESULT_SIZES.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if key is not None:
                keys.add(key(*args, **kwargs))
            idx = len(start)
            fn.append(fid)
            parent.append(tracer.current)
            item_of.append(tracer.item)
            end.append(0.0)
            tracer.current = idx
            start.append(perf())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[idx] = perf()
                tracer.current = parent[idx]
            if counter is not None:
                tracer.counts[counter] += len(result)
            return result

        return traced

    def _counted(self, counter: str, orig):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if tracer.generator_depth:
                # A recursive call made while the generator computes its
                # next value: only the outermost generator counts.
                yield from orig(*args, **kwargs)
                return
            inner = orig(*args, **kwargs)
            while True:
                tracer.generator_depth += 1
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.generator_depth -= 1
                tracer.counts[counter] += 1
                yield value

        return traced

    # -- items ------------------------------------------------------------

    def begin_item(self, item_id: int) -> None:
        self._flush_keys()
        self.item = item_id

    def _flush_keys(self) -> None:
        for name, keys in self.keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def calls_by_item(self, name: str) -> dict[int, int]:
        fid = self.names.index(name)
        out: dict[int, int] = defaultdict(int)
        for f, item in zip(self.fn, self.item_of):
            if f == fid:
                out[item] += 1
        return out

    # -- derived metrics --------------------------------------------------

    def totals(self):
        """Calls and inclusive busy time per span name, and self time per
        module (time during which its span is the innermost one)."""
        n = len(self.start)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        children = [0.0] * n
        ancestors = [0] * n
        for i in range(n):
            f, p, d = fn[i], parent[i], end[i] - start[i]
            calls[f] += 1
            if p >= 0:
                children[p] += d
                ancestors[i] = ancestors[p] | (1 << fn[p])
            if not (ancestors[i] >> f) & 1:
                busy[f] += d  # outermost call of f: no double counting
        self_time: dict[str, float] = defaultdict(float)
        for i in range(n):
            module = self.names[fn[i]].split(".")[0]
            self_time[module] += end[i] - start[i] - children[i]
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, busy)),
            dict(self_time),
        )

    def layer_metrics(self, items: int, overhead: float) -> dict[str, float]:
        self._flush_keys()
        calls, busy, self_time = self.totals()
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            head, _, kind = name.rpartition(".")
            if kind == "calls":
                value = calls[head] / items
            elif kind == "busy_s":
                value = busy[head] / items
            elif kind == "self_s":
                value = self_time.get(head, 0.0) / items
            elif kind == "distinct_ratio":
                value = self.distinct[head] / calls[head] if calls[head] else 0.0
            elif name == "trace.overhead":
                value = overhead
            else:
                value = self.counts[name] / items
            out[name] = value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\titem\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.fn[i]]}\t{self.parent[i]}\t"
                    f"{self.item_of[i]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\n"
                )
