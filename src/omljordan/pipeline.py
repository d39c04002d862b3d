"""End-to-end realization of the reconstruction theorem at finite scale.

Starting from an order-isomorphism f between two abelian fragments, the
pipeline walks the whole reconstruction chain: restrict to the finite part (identity
here, but executed and logged), transport along the projection
correspondence, extend over the subalgebra posets via ideals, reconstruct
the projection-lattice isomorphism, and extend spectrally to a Jordan map.
Claims and uniqueness are verified as separate reports.

The fidelity contract is span-restricted: the returned map agrees with any
inducing Jordan isomorphism exactly on the span of the declared fragment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import reconstruct as rec
from .jordan import (
    JordanMap,
    ProjMapFragment,
    Report,
    ReportEntry,
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
    Projection,
    check_coarsening_closed,
    fragment,
    is_type_I2_free,
    parse_algebra_text,
    partition_of_unity,
    projection_oml,
    serialize_algebra,
    spans_equal,
)
from .oml import Oml, boolean_subalgebras, subalgebra_label
from .poset import (
    JoinMissing,
    NotAnIdeal,
    NotGenerated,
    OrderIso,
    ParseError,
    content_lines,
    extend_iso_via_ideals,
    finite_part,
    image_mask,
    order_iso,
)

log = logging.getLogger(__name__)


class InvalidInstance(Exception):
    """A theorem instance violates its invariants."""


class InsufficientFragment(Exception):
    """The fragment does not generate the subalgebra poset level needed.

    Witness: ``outside`` is the first Boolean subalgebra (a BSub label) of
    side ``side`` ("M" or "N") whose projections are no fragment member's.
    """

    def __init__(self, message: str, side: str, outside: str):
        super().__init__(message)
        self.side = side
        self.outside = outside


class AmbiguousReconstruction(Exception):
    """Multiple projection-lattice isomorphisms are consistent with f.

    Expected exactly when 4-element blocks are present (the hypothesis
    'without any 4-element blocks' fails) or the fragment is too small.
    Carries all candidate Jordan maps for diagnostics.
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
    lattice_m: Oml | None = None
    lattice_n: Oml | None = None
    label_to_proj_m: dict[str, Projection] = field(default_factory=dict)
    label_to_proj_n: dict[str, Projection] = field(default_factory=dict)
    reconstruction_candidates: list[rec.OmlIso] = field(default_factory=list)
    jordan_maps: list[JordanMap] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.steps.append(message)
        log.info(message)


def execute(instance: TheoremInstance) -> PipelineRun:
    """Run the reconstruction chain; never raises on ambiguity (run_pipeline does)."""
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
    g = t.f
    run.note(
        f"step g: restricted f to the finite part ({len(fp)} of "
        f"{len(poset_m)} fragment members; identity restriction at finite "
        "dimension)"
    )

    # Step h: transport along S -> S n Proj through both projection OMLs.
    # projection_oml's lattice lists the index's projections in index order
    # (0 and 1 are in every fragment), so a member's BSub label is its mask's.
    index_m, index_n = t.fragment_m.index, t.fragment_n.index
    lattice_m, by_label_m = projection_oml(t.algebra_m, index_m.projections)
    lattice_n, by_label_n = projection_oml(t.algebra_n, index_n.projections)
    run.lattice_m, run.lattice_n = lattice_m, lattice_n
    run.label_to_proj_m, run.label_to_proj_n = by_label_m, by_label_n
    bsub_m = boolean_subalgebras(lattice_m)
    bsub_n = boolean_subalgebras(lattice_n)
    h_mapping: dict[str, str] = {}
    for name in t.fragment_m.names():
        src = subalgebra_label(lattice_m.order.members(index_m.masks[name]))
        dst = subalgebra_label(lattice_n.order.members(index_n.masks[g.apply(name)]))
        # distinct members are distinct partitions, so their labels differ
        h_mapping[src] = dst
    h_source = bsub_m.restrict(sorted(h_mapping.keys()))
    h_target = bsub_n.restrict(sorted(set(h_mapping.values())))
    h = order_iso(h_source, h_target, h_mapping)
    run.note(
        f"step h: transported f through the projection correspondence "
        f"({len(h_mapping)} Boolean projection algebras)"
    )

    # Step j: ideal-completion extension over the full subalgebra posets.
    # When the fragment covers both posets the extension is the identity
    # and cannot fail, so a failure leaves a subalgebra outside it.
    try:
        j = extend_iso_via_ideals(h, bsub_m, bsub_n)
    except (NotGenerated, NotAnIdeal, JoinMissing) as exc:
        covered = {"M": set(h_mapping), "N": set(h_mapping.values())}
        side, outside = next(
            (side, x)
            for side, bsub in (("M", bsub_m), ("N", bsub_n))
            for x in bsub.elements
            if x not in covered[side]
        )
        raise InsufficientFragment(
            "the fragment does not generate the full Boolean-subalgebra "
            f"poset of its projection lattice: {outside} of BSub({side}) is "
            f"outside the fragment ({type(exc).__name__}: {exc})",
            side,
            outside,
        )
    run.note(
        f"step j: extended over the subalgebra posets "
        f"({len(bsub_m)} Boolean subalgebras; identity extension when the "
        "fragment already covers them)"
    )

    # Step k: reconstruct the projection-lattice isomorphism(s).
    bsub = rec.bsub_iso(lattice_m, lattice_n, dict(j.mapping))
    hypothesis_ok = not (
        rec.has_4element_block(lattice_m) or rec.has_4element_block(lattice_n)
    )
    if hypothesis_ok:
        candidates = [rec.certify_unique(bsub)]
        run.note("step k: unique projection-lattice isomorphism certified")
    else:
        candidates = rec.reconstruct_oml_isos(bsub)
        run.note(
            f"step k: {len(candidates)} candidate projection-lattice "
            "isomorphisms (4-element blocks present: uniqueness requires "
            "lattices without any 4-element blocks)"
        )
    run.reconstruction_candidates = candidates

    # Step F: spectral extension of each candidate over the fragment.
    # A verified OmlIso of projection OMLs is already a valid ProjMapFragment.
    for k in candidates:
        pairs = tuple(
            (by_label_m[x], by_label_n[k.apply(x)]) for x in lattice_m.elements
        )
        psi = ProjMapFragment(t.algebra_m, t.algebra_n, pairs)
        run.jordan_maps.append(spectral_extend(psi, []))
    span_dim = run.jordan_maps[0].span_dimension() if run.jordan_maps else 0
    run.note(
        f"step F: spectral extension over {len(lattice_m)} fragment "
        f"projections (span dimension {span_dim})"
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
    """(a) the reconstruction step of the instance's single run has
    exactly one solution; (b) the fragment projections span F's domain, so
    any map agreeing with F on them agrees on the whole span."""
    candidates = instance.run.reconstruction_candidates
    witness = "; ".join(str(dict(k.mapping)) for k in candidates)
    entries = [
        ReportEntry.of(
            "unique-reconstruction",
            len(candidates) == 1,
            f"{len(candidates)} candidates: {witness}",
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
