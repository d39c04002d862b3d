"""Command-line front end.

Exit codes are a contract for scripting: 0 success, 1 invariant/verification
failure (including ambiguity, and an f that no Jordan map induces, reported
as one `invariant failure: NoSolution: ...` line), 2 parse or usage errors.
All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import jordan as jordanmod
from . import matalg, oml, pipeline, poset, reconstruct
from .combinat import bell_number, set_partitions

PARSE_ERRORS = (
    poset.ParseError,
    poset.CycleError,
    poset.DuplicateElement,
    poset.InvalidIdentifier,
    poset.UnknownElement,
)

INVARIANT_FAILURES = (
    oml.NotLattice,
    oml.OrthoNotInvolutive,
    oml.ComplementationFails,
    oml.OrthomodularityFails,
    oml.PastingNotOml,
    oml.InvalidDiagram,
    matalg.InvalidPartition,
    matalg.NotProjection,
    reconstruct.InconsistentLevels,
    reconstruct.NoSolution,
)

# The arguments that name input files, in the order they are checked.
INPUT_PATHS = ("path", "left", "right", "mapfile")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in INPUT_PATHS:
        path = getattr(args, name, None)
        if path is not None and not path.is_file():
            print(f"parse error: no such file: {path}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except PARSE_ERRORS as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except INVARIANT_FAILURES as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}")
        return 1
    except pipeline.InvalidInstance as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omljordan",
        description=(
            "Verify orthomodular lattices and exact *-algebras, enumerate "
            "Boolean subalgebra posets, reconstruct lattice isomorphisms "
            "from subalgebra-poset isomorphisms, and run the Jordan "
            "reconstruction pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="validate an OML/poset/algebra file")
    p_verify.add_argument("path", type=Path)
    p_verify.set_defaults(func=cmd_verify)

    p_bsub = sub.add_parser(
        "bsub", help="enumerate the Boolean subalgebra poset of an OML file"
    )
    p_bsub.add_argument("path", type=Path)
    p_bsub.add_argument("--dot", type=Path, help="write the cover relation as DOT")
    p_bsub.add_argument("--max-size", type=int, default=64)
    p_bsub.add_argument("--format", choices=("text", "machine"), default="text")
    p_bsub.set_defaults(func=cmd_bsub)

    p_iso = sub.add_parser(
        "iso", help="enumerate order-isomorphisms between two poset/OML files"
    )
    p_iso.add_argument("left", type=Path)
    p_iso.add_argument("right", type=Path)
    p_iso.add_argument("--max-size", type=int, default=64)
    p_iso.set_defaults(func=cmd_iso)

    p_rec = sub.add_parser(
        "reconstruct",
        help="reconstruct OML isomorphisms from a BSub iso exchange file",
    )
    p_rec.add_argument("left", type=Path, help="left OML file")
    p_rec.add_argument("right", type=Path, help="right OML file")
    p_rec.add_argument("mapfile", type=Path, help="sub/map exchange file")
    p_rec.add_argument("--diagnostic", action="store_true")
    p_rec.add_argument("--max-size", type=int, default=64)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_pipe = sub.add_parser("pipeline", help="run the theorem pipeline on an instance")
    p_pipe.add_argument("path", type=Path)
    p_pipe.add_argument("--diagnostic", action="store_true")
    p_pipe.add_argument("--format", choices=("text", "machine"), default="text")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_bell = sub.add_parser(
        "bell-check",
        help="check Boolean subalgebra counts against set-partition counts",
    )
    p_bell.add_argument("--max-atoms", type=int, default=5)
    p_bell.set_defaults(func=cmd_bell_check)

    p_ctr = sub.add_parser(
        "counterexample",
        help="generate and run the 2x2 (type I2) ambiguity demonstration",
    )
    p_ctr.add_argument("--out", type=Path, default=Path("counterexample"))
    p_ctr.set_defaults(func=cmd_counterexample)
    return parser


def _sniff(text: str) -> str:
    for _, line in poset.content_lines(text):
        head = line.split()[0]
        if head == "summands:" or line.startswith("summands:"):
            return "algebra"
        if head in ("atoms", "block"):
            return "greechie"
        if head == "ortho":
            return "oml"
        if head in ("elements", "le"):
            continue
        return "unknown"
    return "poset"


def _load_oml(path: Path) -> oml.Oml:
    text = path.read_text()
    kind = _sniff(text)
    if kind == "greechie":
        return oml.from_greechie(oml.parse_greechie_text(text))
    return oml.parse_oml_text(text)


def cmd_verify(args) -> int:
    text = args.path.read_text()
    kind = _sniff(text)
    if kind == "unknown":
        print("parse error: unrecognized file format", file=sys.stderr)
        return 2
    if kind == "algebra":
        algebra, partitions = matalg.parse_algebra_text(text)
        print(
            f"valid algebra: summands {list(algebra.dims)}, "
            f"{len(partitions)} partitions"
        )
    elif kind == "greechie":
        diagram = oml.parse_greechie_text(text)
        lattice = oml.from_greechie(diagram)
        print(
            f"valid Greechie diagram: pasting has {len(lattice)} elements, "
            f"{len(oml.blocks(lattice))} blocks"
        )
    elif kind == "oml":
        lattice = oml.parse_oml_text(text)
        print(
            f"valid OML: {len(lattice)} elements, "
            f"{len(oml.blocks(lattice))} blocks"
        )
    else:
        p = poset.parse_poset_text(text)
        print(f"valid poset: {len(p)} elements")
    return 0


def _hasse_dot(p: poset.Poset, name: str) -> str:
    lines = [f"digraph {name} {{"]
    for x in sorted(p.elements):
        lines.append(f'  "{x}";')
    for x, y in p.cover_pairs():
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_bsub(args) -> int:
    lattice = _load_oml(args.path)
    if len(lattice) > args.max_size:
        print(
            f"parse error: OML has {len(lattice)} elements, over --max-size "
            f"{args.max_size}",
            file=sys.stderr,
        )
        return 2
    bsub = oml.boolean_subalgebras(lattice)
    if args.format == "machine":
        payload = {
            "count": len(bsub),
            "subalgebras": sorted(bsub.elements),
            "covers": bsub.cover_pairs(),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{len(bsub)} Boolean subalgebras")
        for label in bsub.elements:
            print(f"  {label}")
        for x, y in bsub.cover_pairs():
            print(f"  {x} < {y}")
    if args.dot:
        args.dot.write_text(_hasse_dot(bsub, "bsub"))
    return 0


def _load_order(path: Path) -> poset.Poset:
    text = path.read_text()
    kind = _sniff(text)
    if kind in ("oml", "greechie"):
        return _load_oml(path).order
    return poset.parse_poset_text(text)


def cmd_iso(args) -> int:
    left = _load_order(args.left)
    right = _load_order(args.right)
    if max(len(left), len(right)) > args.max_size:
        print("parse error: poset over --max-size", file=sys.stderr)
        return 2
    isos = poset.enumerate_order_isos(left, right)
    print(f"{len(isos)} order-isomorphisms")
    for i, f in enumerate(isos):
        rendered = ", ".join(f"{x}->{y}" for x, y in f.mapping_items())
        print(f"  iso {i}: {rendered}")
    return 0 if isos else 1


def cmd_reconstruct(args) -> int:
    left = _load_oml(args.left)
    right = _load_oml(args.right)
    if max(len(left), len(right)) > args.max_size:
        print("parse error: OML over --max-size", file=sys.stderr)
        return 2
    iso = reconstruct.parse_bsub_iso_text(left, right, args.mapfile.read_text())
    try:
        solutions = reconstruct.reconstruct_oml_isos(iso)
    except reconstruct.NoSolution as exc:
        print(f"no solution: {exc}")
        return 1
    print(f"{len(solutions)} OML isomorphisms satisfy k[D] = j(D)")
    for i, k in enumerate(solutions):
        rendered = ", ".join(f"{x}->{y}" for x, y in k.mapping_items())
        print(f"  k{i}: {rendered}")
    if len(solutions) == 1 or args.diagnostic:
        return 0
    return 1


def cmd_pipeline(args) -> int:
    instance = pipeline.parse_instance_text(
        args.path.read_text(), args.path.parent
    )
    run = instance.run
    candidates = run.jordan_maps
    ambiguous = len(candidates) != 1
    claims = uniqueness = None
    if not ambiguous:
        F = candidates[0]
        claims = pipeline.verify_claims(instance, F)
        uniqueness = pipeline.verify_uniqueness(instance, F)
    if args.format == "machine":
        payload = {
            "steps": run.steps,
            "candidates": len(candidates),
            "ambiguous": ambiguous,
            "claims": claims.to_dict() if claims else None,
            "uniqueness": uniqueness.to_dict() if uniqueness else None,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for step in run.steps:
            print(f"step: {step}")
        if ambiguous:
            print(
                f"FAIL AmbiguousReconstruction: {len(candidates)} candidate "
                "Jordan maps (hypothesis 'without any 4-element blocks' fails)"
            )
            for i, cand in enumerate(candidates):
                for gen, img in cand.generators:
                    if matalg.as_projection(gen).rank() == 1:
                        print(
                            f"  candidate {i}: {matalg.format_element(gen)}  ->  "
                            f"{matalg.format_element(img)}"
                        )
        else:
            print(claims.render())
            print(uniqueness.render())
    if ambiguous:
        return 0 if args.diagnostic else 1
    all_pass = claims.passed and uniqueness.passed
    return 0 if all_pass else 1


def cmd_bell_check(args) -> int:
    # 8 atoms take about 1 s on a 2-core x86-64 VM and 9 about 6 s; each
    # further atom costs about 5 times more.
    if not 1 <= args.max_atoms <= 8:
        print(
            f"parse error: --max-atoms {args.max_atoms} is outside 1..8",
            file=sys.stderr,
        )
        return 2
    ok = True
    print("atoms  |BSub|  partitions  bell")
    for n in range(1, args.max_atoms + 1):
        lattice = oml.standard("boolean", n)
        count = len(oml.subalgebras(lattice))
        parts = sum(1 for _ in set_partitions(range(n)))
        bell = bell_number(n)
        status = "ok" if count == parts == bell else "MISMATCH"
        ok = ok and (count == parts == bell)
        print(f"{n:5d}  {count:6d}  {parts:10d}  {bell:4d}  {status}")
    return 0 if ok else 1


def _counterexample_instance() -> pipeline.TheoremInstance:
    """dims(2) with the full MO-style fragment and f = identity."""
    algebra = matalg.FinDimAlgebra((2,))
    u = algebra.from_rows(
        [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    )
    atoms = algebra.diagonal_atoms()
    diag = matalg.partition_of_unity(algebra, atoms)
    rot = matalg.partition_of_unity(
        algebra, [matalg.as_projection(u * p * u.star()) for p in atoms]
    )
    frag = matalg.coarsening_closure(algebra, {"diag": diag, "rot": rot})
    return pipeline.induced_instance(jordanmod.identity_map(algebra), frag)


def cmd_counterexample(args) -> int:
    instance = _counterexample_instance()
    path = pipeline.write_instance_files(args.out, "type_i2", instance)
    print(f"wrote {path}")
    run = instance.run
    for step in run.steps:
        print(f"step: {step}")
    count = len(run.jordan_maps)
    print(
        f"reconstruction is ambiguous: {count} candidate Jordan maps "
        "(a 2x2 summand means 4-element blocks, so uniqueness fails)"
    )
    return 0 if count == 4 else 1


if __name__ == "__main__":
    sys.exit(main())
