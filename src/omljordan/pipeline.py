"""End-to-end realization of the reconstruction theorem at finite scale.

Starting from an order-isomorphism f between two abelian fragments, the
pipeline restricts f to the finite part (identity here, but executed and
logged), reads F's projection map off f at the fragment's roots, and
extends it spectrally to a Jordan map.  Claims and uniqueness are verified
as separate reports.

The roots are the maximal members.  A coarsening-closed fragment is the
union of its roots' Boolean projection algebras, glued along the
projections they share, and the members below a root are the Boolean
subalgebras of its algebra, so f maps them root by root.  A Boolean
algebra with 3 or more atoms is fixed by its subalgebras (Sachs, "The
lattice of subalgebras of a Boolean algebra", 1962; Harding and Navara,
"Subalgebras of orthomodular lattices", 2011): an atom a of a root r maps
to the one atom of f({a, 1-a}) that is also an atom of f(r), and every
other projection of r to the sum of its atoms' images.  Each step is a
lookup in the two projection indexes.  A root with 2 atoms shares only 0
and 1 with the other roots, so f leaves its orientation free; step F keeps
the orientations whose projection map extends linearly.

The fidelity contract is span-restricted: the returned map agrees with any
inducing Jordan isomorphism exactly on the span of the declared fragment.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .jordan import (
    JordanMap,
    ProjMapFragment,
    Report,
    ReportEntry,
    SpanInconsistent,
    image_fragment,
    jordan_map,
    spectral_extend,
)
from .linalg import echelon
from .matalg import (
    AbelianFragment,
    AlgElement,
    FinDimAlgebra,
    InvalidPartition,
    NotProjection,
    check_coarsening_closed,
    fragment,
    is_type_I2_free,
    parse_algebra_text,
    partition_of_unity,
    serialize_algebra,
    spans_equal,
)
from .poset import (
    OrderIso, ParseError, content_lines, finite_part, image_mask, order_iso
)
from .reconstruct import NoSolution

log = logging.getLogger(__name__)


class InvalidInstance(Exception):
    """A theorem instance violates its invariants."""


class InsufficientFragment(Exception):
    """A coarsening {a, 1-a} of the root ``root`` of M is no member, so step
    h cannot read the image of a.  Coarsening-closed fragments hold them all:
    only a TheoremInstance built without theorem_instance gets here."""

    def __init__(self, message: str, root: str):
        super().__init__(message)
        self.root = root


class AmbiguousReconstruction(Exception):
    """Several orientations of f's 2-atom roots extend to Jordan maps.

    A 2-atom root's projections form a 4-element block.  In a 2x2 summand
    every root has 2 atoms (the hypothesis 'without any 4-element blocks'
    fails), and a small fragment may have such a root anywhere.  Carries all
    candidate Jordan maps for diagnostics.
    """

    def __init__(self, message: str, candidates: list[JordanMap]):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True, eq=False)
class TheoremInstance:
    """Two algebras, coarsening-closed abelian fragments, and f between them."""

    algebra_m: FinDimAlgebra
    algebra_n: FinDimAlgebra
    fragment_m: AbelianFragment
    fragment_n: AbelianFragment
    f: OrderIso

    @cached_property
    def run(self) -> PipelineRun:
        """The reconstruction chain on this instance, executed on first use;
        run_pipeline and both verification reports read this one run."""
        return execute(self)


def theorem_instance(
    algebra_m: FinDimAlgebra,
    algebra_n: FinDimAlgebra,
    fragment_m: AbelianFragment,
    fragment_n: AbelianFragment,
    mapping: dict[str, str],
) -> TheoremInstance:
    """Validate fragments (trivial present, coarsening-closed) and f: an
    order-isomorphism of the fragment posets the closure proofs return.  It
    maps trivial to trivial, since the trivial member's projections {0, 1}
    lie in every member's, which makes it the bottom of its fragment poset.
    The instance keeps the validated fragments and their projection indexes."""
    frags, posets = [], []
    for side, algebra, frag in (
        ("M", algebra_m, fragment_m),
        ("N", algebra_n, fragment_n),
    ):
        try:
            frags.append(fragment(algebra, frag.partitions))
            posets.append(check_coarsening_closed(frags[-1]))
        except Exception as exc:
            raise InvalidInstance(f"fragment {side} invalid: {exc}")
    try:
        f = order_iso(*posets, mapping)
    except Exception as exc:
        raise InvalidInstance(f"f is not an order-isomorphism: {exc}")
    return TheoremInstance(algebra_m, algebra_n, *frags, f)


def induced_instance(g: JordanMap, frag: AbelianFragment) -> TheoremInstance:
    """The instance g induces on frag: f pairs each member with its atomwise
    image under g, which keeps the member's name."""
    image = image_fragment(g, frag)
    return theorem_instance(
        g.source, g.target, frag, image, {name: name for name in frag.names()}
    )


@dataclass
class PipelineRun:
    """Everything the pipeline produced, for reports and diagnostics."""

    instance: TheoremInstance
    steps: list[str] = field(default_factory=list)
    jordan_maps: list[JordanMap] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.steps.append(message)
        log.info(message)


def _read_roots(
    t: TheoremInstance, roots: tuple[str, ...]
) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Step h: F's projection map, from positions in M's projection index to
    positions in N's, read off f at the roots (see the module docstring).
    A 2-atom root's lower atom goes to the lower atom of its image; those
    roots are also returned, as their atom positions, lower first.

    Raises NoSolution when f maps a root onto a member with another atom
    count, when f({a, 1-a}) has not exactly one atom of f(r), or when two
    roots map a shared projection to different images."""
    index_m, index_n = t.fragment_m.index, t.fragment_n.index
    member_of = {mask: name for name, mask in index_m.masks.items()}
    bounds = 1 | 1 << len(index_m.projections) - 1
    reading: dict[int, int] = {}
    free = []
    for root in roots:
        image = t.f.apply(root)
        # each root's projection positions, indexed by subsets of its atoms
        at_m, at_n = (
            [frag.index.position[k] for k in frag.partitions[x].projection_algebra.keys]
            for frag, x in ((t.fragment_m, root), (t.fragment_n, image))
        )
        if len(at_m) != len(at_n):
            raise NoSolution(
                f"f maps the root {root!r} onto {image!r}, with another atom count"
            )
        k = len(index_m.atoms[root])
        bits = [1 << i for i in range(k)]  # per atom, its image's bit in image
        if k == 2:
            free.append(tuple(sorted(at_m[1:3])))
            if (at_m[1] < at_m[2]) != (at_n[1] < at_n[2]):
                bits.reverse()
        for i in range(k if k > 2 else 0):
            pair = member_of.get(bounds | 1 << at_m[1 << i] | 1 << at_m[~(1 << i)])
            if pair is None:
                raise InsufficientFragment(
                    f"no member is the coarsening {{a, 1-a}} of {root!r}", root
                )
            shared = set(index_n.atoms[t.f.apply(pair)])
            found = [1 << j for j, y in enumerate(index_n.atoms[image]) if y in shared]
            if len(found) != 1:
                raise NoSolution(f"f({pair!r}) has {len(found)} atoms of f({root!r})")
            bits[i] = found[0]
        for u, x in enumerate(at_m):
            y = at_n[sum(b for i, b in enumerate(bits) if u >> i & 1)]
            if reading.setdefault(x, y) != y:
                raise NoSolution(
                    f"the root {root!r} maps a shared projection to another image"
                )
    return reading, sorted(free)


def execute(instance: TheoremInstance) -> PipelineRun:
    """Run the reconstruction chain; never raises on ambiguity (run_pipeline
    does).  Raises NoSolution when no Jordan map can induce f."""
    run = PipelineRun(instance)
    t = instance
    if not is_type_I2_free(t.algebra_m) or not is_type_I2_free(t.algebra_n):
        run.note(
            "warning: a summand of 2x2 matrices is present; the uniqueness "
            "hypothesis fails and ambiguity is expected"
        )

    # Step g: restriction to the finite part (identity at finite dimension).
    # f's source is the fragment poset theorem_instance validated f against.
    poset_m = t.f.source
    fp = finite_part(poset_m)
    run.note(
        f"step g: restricted f to the finite part ({len(fp)} of "
        f"{len(poset_m)} fragment members; identity restriction at finite "
        "dimension)"
    )

    # Step h: read F's projection map off f at the roots, the maximal members.
    roots = poset_m.maximal_elements()
    reading, free = _read_roots(t, roots)
    run.note(
        f"step h: read the projection map off f at {len(roots)} roots; "
        f"{len(free)} have 2 atoms, whose orientation f leaves free"
    )

    # Step F: spectral extension of each orientation, unflipped before flipped
    # per 2-atom root; jordan_map refuses those that are not linear.
    projections_m = t.fragment_m.index.projections
    projections_n = t.fragment_n.index.projections
    for flips in itertools.product((False, True), repeat=len(free)):
        psi = dict(reading)
        for (a, b), flip in zip(free, flips):
            if flip:
                psi[a], psi[b] = reading[b], reading[a]
        pairs = tuple((p, projections_n[psi[i]]) for i, p in enumerate(projections_m))
        try:
            proj_map = ProjMapFragment(t.algebra_m, t.algebra_n, pairs)
            run.jordan_maps.append(spectral_extend(proj_map, []))
        except SpanInconsistent:
            pass
    if not run.jordan_maps:
        raise NoSolution(
            f"none of the {2 ** len(free)} orientations of the 2-atom roots is linear"
        )
    run.note(
        f"step F: spectral extension over {len(projections_m)} fragment "
        f"projections (span dimension {run.jordan_maps[0].span_dimension()}; "
        f"{len(run.jordan_maps)} of {2 ** len(free)} orientations are linear)"
    )
    return run


def run_pipeline(instance: TheoremInstance) -> JordanMap:
    """The unique Jordan map F with f(S) = F[S] on the fragment.

    Raises AmbiguousReconstruction (with all candidate maps attached) when
    the reconstruction step is not unique.
    """
    run = instance.run
    if len(run.jordan_maps) != 1:
        raise AmbiguousReconstruction(
            f"{len(run.jordan_maps)} candidate Jordan maps; the hypothesis "
            "'without any 4-element blocks' fails for this instance",
            run.jordan_maps,
        )
    return run.jordan_maps[0]


def verify_claims(instance: TheoremInstance, F: JordanMap) -> Report:
    """Per fragment member S: projections of f(S) equal the F-image
    projections; F-image atoms form a partition of unity; the generated
    subalgebras have equal spans."""
    t = instance
    entries: list[ReportEntry] = []
    index_m, index_n = t.fragment_m.index, t.fragment_n.index
    # F is applied once per index position and each image looked up once in
    # N's index; one outside it takes a position that no member of N holds.
    # An image found there is replaced by N's equal Projection, so claim 2
    # checks p = p* = p^2 only on images outside N's index.
    outside = len(index_n.projections)
    images, image_bits = [], []
    for p in index_m.projections:
        q = F.apply(p)
        i = index_n.position.get(q.key(), outside)
        images.append(q if i == outside else index_n.projections[i])
        image_bits.append(1 << i)
    for name in t.fragment_m.names():
        image_name = t.f.apply(name)
        same = image_mask(index_m.masks[name], image_bits) == index_n.masks[image_name]
        entries.append(
            ReportEntry.of(
                f"claim1[{name}]", same, "projection sets of f(S) and F[S] differ"
            )
        )
        atom_images = [images[i] for i in index_m.atoms[name]]
        try:
            partition_of_unity(t.algebra_n, atom_images)
            entries.append(ReportEntry.of(f"claim2[{name}]", True))
        except Exception as exc:
            entries.append(ReportEntry.of(f"claim2[{name}]", False, str(exc)))
        image_atoms = list(t.fragment_n.partitions[image_name].atoms)
        entries.append(
            ReportEntry.of(
                f"claim3[{name}]",
                spans_equal(atom_images, image_atoms),
                "generated subalgebras differ",
            )
        )
    return Report(entries)


def verify_uniqueness(instance: TheoremInstance, F: JordanMap) -> Report:
    """(a) the instance's single run kept exactly one candidate; (b) the
    fragment projections span F's domain, so any map agreeing with F on them
    agrees on the whole span."""
    candidates = instance.run.jordan_maps
    entries = [
        ReportEntry.of(
            "unique-reconstruction",
            len(candidates) == 1,
            f"{len(candidates)} candidates, one per linear orientation of "
            "the 2-atom roots",
        )
    ]
    projections = [
        AlgElement(p.algebra, p.blocks) for p in instance.fragment_m.index.projections
    ]
    span_dim = F.span_dimension()
    proj_rank = len(echelon([p.row()[1] for p in projections]))
    entries.append(
        ReportEntry.of(
            "projections-span-domain",
            proj_rank == span_dim,
            f"projection rank {proj_rank} != span dimension {span_dim}",
        )
    )
    try:
        generators = [(p, F.apply(p)) for p in reversed(projections)]
        agrees = jordan_map(F.source, F.target, generators).agrees_with(F)
        witness = "a second extension from the projections disagrees"
    except Exception as exc:
        agrees, witness = False, str(exc)
    entries.append(
        ReportEntry.of("agreement-on-projections-determines", agrees, witness)
    )
    return Report(entries)


# ---------------------------------------------------------------------------
# Instance files:
#   algebra M <path>      algebra N <path>
#   fragment M <partition names ...>     (cumulative)
#   fragment N <partition names ...>
#   fmap <source partition> <target partition>
# ---------------------------------------------------------------------------


def parse_instance_text(text: str, base_dir: Path) -> TheoremInstance:
    algebra_paths: dict[str, Path] = {}
    fragment_names: dict[str, list[str]] = {"M": [], "N": []}
    fmap: dict[str, str] = {}
    for lineno, line in content_lines(text):
        tokens = line.split()
        if tokens[0] == "algebra":
            if len(tokens) != 3 or tokens[1] not in ("M", "N"):
                raise ParseError(f"line {lineno}: 'algebra M|N <path>'")
            if tokens[1] in algebra_paths:
                raise ParseError(f"line {lineno}: duplicate algebra {tokens[1]}")
            algebra_paths[tokens[1]] = base_dir / tokens[2]
        elif tokens[0] == "fragment":
            if len(tokens) < 3 or tokens[1] not in ("M", "N"):
                raise ParseError(f"line {lineno}: 'fragment M|N <names...>'")
            fragment_names[tokens[1]].extend(tokens[2:])
        elif tokens[0] == "fmap":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: 'fmap <src> <dst>'")
            if tokens[1] in fmap:
                raise ParseError(f"line {lineno}: duplicate fmap for {tokens[1]}")
            fmap[tokens[1]] = tokens[2]
        else:
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    for side in ("M", "N"):
        if side not in algebra_paths:
            raise ParseError(f"missing 'algebra {side}' line")
        if not fragment_names[side]:
            raise ParseError(f"missing 'fragment {side}' lines")
    algebras = {}
    partitions = {}
    for side, path in algebra_paths.items():
        if not path.is_file():
            raise ParseError(f"algebra file not found: {path}")
        try:
            algebras[side], partitions[side] = parse_algebra_text(path.read_text())
        except (InvalidPartition, NotProjection) as exc:
            raise InvalidInstance(f"algebra {side} invalid: {exc}")
    frags = {}
    for side in ("M", "N"):
        chosen = {}
        for name in fragment_names[side]:
            if name not in partitions[side]:
                raise ParseError(
                    f"fragment {side} references unknown partition {name!r}"
                )
            chosen[name] = partitions[side][name]
        try:
            frags[side] = fragment(algebras[side], chosen)
        except Exception as exc:
            raise InvalidInstance(f"fragment {side} invalid: {exc}")
    missing = set(frags["M"].names()) - set(fmap)
    if missing:
        raise ParseError(f"fmap lines missing for: {sorted(missing)}")
    return theorem_instance(
        algebras["M"], algebras["N"], frags["M"], frags["N"], fmap
    )


def serialize_instance(
    algebra_file_m: str,
    algebra_file_n: str,
    instance: TheoremInstance,
) -> str:
    lines = [
        f"algebra M {algebra_file_m}",
        f"algebra N {algebra_file_n}",
        "fragment M " + " ".join(instance.fragment_m.names()),
        "fragment N " + " ".join(instance.fragment_n.names()),
    ]
    for name in instance.fragment_m.names():
        lines.append(f"fmap {name} {instance.f.apply(name)}")
    return "\n".join(lines) + "\n"


def write_instance_files(
    directory: Path, stem: str, instance: TheoremInstance
) -> Path:
    """Write algebra files plus the instance file; returns the instance path."""
    directory.mkdir(parents=True, exist_ok=True)
    m_name = f"{stem}_m.alg"
    n_name = f"{stem}_n.alg"
    (directory / m_name).write_text(
        serialize_algebra(instance.algebra_m, dict(instance.fragment_m.partitions))
    )
    (directory / n_name).write_text(
        serialize_algebra(instance.algebra_n, dict(instance.fragment_n.partitions))
    )
    path = directory / f"{stem}.instance"
    path.write_text(serialize_instance(m_name, n_name, instance))
    return path
