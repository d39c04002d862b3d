import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from omljordan.cli import main
from omljordan.jordan import identity_map, transpose_map
from omljordan.matalg import FinDimAlgebra, coarsening_closure
from omljordan.oml import (
    greechie_diagram,
    serialize_greechie,
    serialize_oml,
    standard,
)
from omljordan.pipeline import induced_instance, write_instance_files
from omljordan.reconstruct import identity_bsub_iso, serialize_bsub_iso

from .conftest import (
    crossed_roots_instance,
    diag_plus_rotated_fragment,
    diagonal_partition,
    rotated_partition,
    rotation_unitary,
    three_partition_fragment,
    unrelated_pairs_instance,
)

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.fixture
def mo2_file(tmp_path):
    path = tmp_path / "mo2.oml"
    path.write_text(serialize_oml(standard("mo", 2)))
    return path


@pytest.fixture
def b8_file(tmp_path):
    path = tmp_path / "b8.oml"
    path.write_text(serialize_oml(standard("boolean", 3)))
    return path


def test_verify_valid_oml(mo2_file, capsys):
    assert main(["verify", str(mo2_file)]) == 0
    assert "valid OML" in capsys.readouterr().out


def test_verify_invariant_failure(tmp_path, capsys):
    path = tmp_path / "pentagon.oml"
    path.write_text(
        "elements 0 a b c 1\nle 0 a\nle 0 b\nle b c\nle a 1\nle c 1\n"
        "ortho 0 1\northo a b\northo c c\n"
    )
    assert main(["verify", str(path)]) == 1
    assert "invariant failure" in capsys.readouterr().out


FAILING_OMLS = {
    "self_ortho.oml": (
        "elements 0 a 1\nle 0 a\nle a 1\northo 0 1\northo a a\n",
        "ComplementationFails: a and a are not complements",
    ),
    "missing_ortho.oml": (
        "elements 0 a b 1\nle 0 a\nle 0 b\nle a 1\nle b 1\northo 0 1\n",
        "OrthoNotInvolutive: ortho map domain is not the element set",
    ),
    "o6.oml": (
        "elements 0 a b ac bc 1\nle 0 a\nle a bc\nle bc 1\nle 0 b\nle b ac\n"
        "le ac 1\northo 0 1\northo a ac\northo b bc\n",
        "OrthomodularityFails: x=a, y=bc: y != x v (y ^ x')",
    ),
    "triangle.greechie": (
        "atoms a b c d e f\nblock a b c\nblock c d e\nblock e f a\n",
        "PastingNotOml: pasting fails OML axioms: no join for (a, c)",
    ),
}


@pytest.mark.parametrize("verb", ["verify", "bsub", "iso", "reconstruct"])
@pytest.mark.parametrize("name", sorted(FAILING_OMLS))
def test_axiom_failure_is_one_line_report(tmp_path, capsys, verb, name):
    """Every verb that loads an OML reports an axiom failure as one stdout
    line and exits 1."""
    text, report = FAILING_OMLS[name]
    path = tmp_path / name
    path.write_text(text)
    mapfile = tmp_path / "id.bsubiso"
    mapfile.write_text(serialize_bsub_iso(identity_bsub_iso(standard("mo", 2))))
    extra = {"iso": [path], "reconstruct": [path, mapfile]}.get(verb, [])
    assert main([verb, str(path), *map(str, extra)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"invariant failure: {report}\n"
    assert captured.err == ""


def test_verify_parse_error(tmp_path):
    path = tmp_path / "bad.oml"
    path.write_text("elements a b\nwibble a b\northo a b\n")
    assert main(["verify", str(path)]) == 2
    assert main(["verify", str(tmp_path / "missing.oml")]) == 2


def test_verify_greechie_and_algebra(tmp_path, m3, capsys):
    g = tmp_path / "two.greechie"
    g.write_text(
        serialize_greechie(
            greechie_diagram(list("abcde"), [("a", "b", "c"), ("c", "d", "e")])
        )
    )
    assert main(["verify", str(g)]) == 0
    from omljordan.matalg import serialize_algebra

    a = tmp_path / "m3.alg"
    a.write_text(serialize_algebra(m3, {"diag": diagonal_partition(m3)}))
    assert main(["verify", str(a)]) == 0
    out = capsys.readouterr().out
    assert "valid algebra" in out


def test_bsub_counts(b8_file, mo2_file, tmp_path, capsys):
    assert main(["bsub", str(b8_file)]) == 0
    assert "5 Boolean subalgebras" in capsys.readouterr().out
    assert main(["bsub", str(mo2_file)]) == 0
    assert "3 Boolean subalgebras" in capsys.readouterr().out
    mo3 = tmp_path / "mo3.oml"
    mo3.write_text(serialize_oml(standard("mo", 3)))
    assert main(["bsub", str(mo3)]) == 0
    assert "4 Boolean subalgebras" in capsys.readouterr().out
    b16 = tmp_path / "b16.oml"
    b16.write_text(serialize_oml(standard("boolean", 4)))
    assert main(["bsub", str(b16)]) == 0
    assert "15 Boolean subalgebras" in capsys.readouterr().out


def test_bsub_dot_deterministic(b8_file, tmp_path, capsys):
    dot1 = tmp_path / "one.dot"
    dot2 = tmp_path / "two.dot"
    assert main(["bsub", str(b8_file), "--dot", str(dot1)]) == 0
    assert main(["bsub", str(b8_file), "--dot", str(dot2)]) == 0
    capsys.readouterr()
    assert dot1.read_text() == dot2.read_text()
    assert dot1.read_text().startswith("digraph")


def test_bsub_machine_format(b8_file, capsys):
    assert main(["bsub", str(b8_file), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5


def test_bsub_max_size(b8_file):
    assert main(["bsub", str(b8_file), "--max-size", "4"]) == 2


def test_iso_command(mo2_file, b8_file, tmp_path, capsys):
    assert main(["iso", str(mo2_file), str(mo2_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("24 order-isomorphisms")
    assert main(["iso", str(mo2_file), str(b8_file)]) == 1


def test_reconstruct_command(mo2_file, tmp_path, capsys):
    iso = identity_bsub_iso(standard("mo", 2))
    mapfile = tmp_path / "id.bsubiso"
    mapfile.write_text(serialize_bsub_iso(iso))
    code = main(["reconstruct", str(mo2_file), str(mo2_file), str(mapfile)])
    out = capsys.readouterr().out
    assert code == 1  # ambiguous: 4 solutions
    assert "4 OML isomorphisms" in out
    assert (
        main(
            [
                "reconstruct",
                str(mo2_file),
                str(mo2_file),
                str(mapfile),
                "--diagnostic",
            ]
        )
        == 0
    )


def test_reconstruct_unique_exit_zero(tmp_path, capsys):
    hs = standard("horizontal_sum_b8", 2)
    omlfile = tmp_path / "hs.oml"
    omlfile.write_text(serialize_oml(hs))
    mapfile = tmp_path / "id.bsubiso"
    mapfile.write_text(serialize_bsub_iso(identity_bsub_iso(hs)))
    assert main(["reconstruct", str(omlfile), str(omlfile), str(mapfile)]) == 0
    assert "1 OML isomorphisms" in capsys.readouterr().out


def test_reconstruct_inconsistent_levels_names_its_type(tmp_path, capsys):
    """A map that swaps a block with the trivial subalgebra is reported as one
    invariant-failure line that names InconsistentLevels."""
    mo2 = DATA / "mo2.oml"
    text = (DATA / "mo2_identity.bsubiso").read_text()
    mapfile = tmp_path / "swapped.bsubiso"
    mapfile.write_text(
        text.replace("map L0 R0", "map L0 R2").replace("map L2 R2", "map L2 R0")
    )
    assert main(["reconstruct", str(mo2), str(mo2), str(mapfile)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "invariant failure: InconsistentLevels: not an order-isomorphism of "
        "BSub posets: order not preserved at ({0,1,a1,b1}, {0,1,a2,b2}) -> "
        "({0,1}, {0,1,a2,b2})\n"
    )


def _write_counterexample(tmp_path):
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
    return write_instance_files(tmp_path, "i2", instance)


def test_pipeline_counterexample_exit_one(tmp_path, capsys):
    path = _write_counterexample(tmp_path)
    code = main(["pipeline", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "AmbiguousReconstruction" in out
    assert out.count("candidate 3:") > 0  # four candidates listed (0..3)
    assert main(["pipeline", str(path), "--diagnostic"]) == 0


def test_pipeline_happy_path_exit_zero(tmp_path, m3, capsys):
    from omljordan.jordan import ad_unitary

    u = rotation_unitary(m3)
    g = ad_unitary(m3, u)
    instance = induced_instance(g, diag_plus_rotated_fragment(m3))
    path = write_instance_files(tmp_path, "rot", instance)
    assert main(["pipeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_pipeline_machine_format(tmp_path, capsys):
    path = _write_counterexample(tmp_path)
    assert main(["pipeline", str(path), "--format", "machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ambiguous"] is True
    assert payload["candidates"] == 4


@pytest.mark.parametrize("map_name", ["identity", "transpose"])
def test_pipeline_three_partition_fragment_passes(tmp_path, m3, capsys, map_name):
    """A fragment of three 2-atom roots, whose projections are no lattice
    that BSub covers: exit 0 and every report entry PASS, in both output
    formats.  Time bound: 10 s (about 0.1 s on a 2-core x86-64 VM)."""
    g = {"identity": identity_map, "transpose": transpose_map}[map_name](m3)
    start = time.perf_counter()
    instance = induced_instance(g, three_partition_fragment(m3))
    path = write_instance_files(tmp_path, "three", instance)
    assert main(["pipeline", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    reports = [line for line in out.splitlines() if not line.startswith("step: ")]
    assert len(reports) == 15 and all(line.startswith("PASS ") for line in reports)
    assert main(["pipeline", str(path), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 1
    assert payload["claims"]["passed"] and payload["uniqueness"]["passed"]
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize(
    "name, message",
    [
        (
            "crossed",
            "the root 'second' maps a shared projection to another image",
        ),
        (
            "unrelated",
            "none of the 8 orientations of the 2-atom roots is linear",
        ),
    ],
)
def test_pipeline_non_induced_f_is_one_line(tmp_path, m3, capsys, name, message):
    """An f that no Jordan map induces: one invariant-failure line naming
    NoSolution, exit 1 and an empty stderr, in both output formats."""
    instance = {
        "crossed": crossed_roots_instance,
        "unrelated": lambda: unrelated_pairs_instance(m3),
    }[name]()
    path = write_instance_files(tmp_path, name, instance)
    for extra in ([], ["--format", "machine"]):
        assert main(["pipeline", str(path), *extra]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == f"invariant failure: NoSolution: {message}\n"


def test_module_run_writes_no_stderr():
    """`python -m omljordan.cli` on a valid file: exit 0 and an empty
    stderr (no runpy warning about a package that imported the CLI early).
    Time bound: 30 s for the subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "omljordan.cli", "verify", str(DATA / "hs_b8_2.oml")],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "valid OML: 14 elements, 2 blocks\n"


def test_pipeline_missing_file(tmp_path):
    assert main(["pipeline", str(tmp_path / "none.instance")]) == 2
    broken = tmp_path / "broken.instance"
    broken.write_text("algebra M missing.alg\n")
    assert main(["pipeline", str(broken)]) == 2


@pytest.mark.parametrize(
    "verb, slot",
    [
        ("verify", 0),
        ("bsub", 0),
        ("iso", 0),
        ("iso", 1),
        ("reconstruct", 0),
        ("reconstruct", 1),
        ("reconstruct", 2),
        ("pipeline", 0),
    ],
)
def test_directory_for_a_file_is_a_parse_error(
    tmp_path, mo2_file, capsys, verb, slot
):
    """A directory where a verb expects a file exits 2 with one stderr line,
    as a missing file does."""
    mapfile = tmp_path / "id.bsubiso"
    mapfile.write_text(serialize_bsub_iso(identity_bsub_iso(standard("mo", 2))))
    paths = {"iso": [mo2_file] * 2, "reconstruct": [mo2_file] * 2 + [mapfile]}
    args = paths.get(verb, [mo2_file])
    args[slot] = tmp_path
    assert main([verb, *map(str, args)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: no such file: {tmp_path}\n"


def test_instance_naming_a_directory_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "algebras").mkdir()
    path = tmp_path / "dir.instance"
    path.write_text(
        "algebra M algebras\nalgebra N algebras\n"
        "fragment M trivial\nfragment N trivial\nfmap trivial trivial\n"
    )
    assert main(["pipeline", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: algebra file not found: {tmp_path / 'algebras'}\n"
    )


@pytest.mark.parametrize("summands", ["[0]", "[]"])
def test_nonpositive_summands_are_parse_errors(tmp_path, capsys, summands):
    """A zero or empty summand list is a parse error (exit 2, one stderr
    line) for verify on the algebra file and for pipeline on an instance
    that uses it."""
    algebra_path = tmp_path / "bad.alg"
    algebra_path.write_text(f"summands: {summands}\n")
    path = tmp_path / "bad.instance"
    path.write_text(
        "algebra M bad.alg\nalgebra N bad.alg\n"
        "fragment M trivial\nfragment N trivial\nfmap trivial trivial\n"
    )
    for verb, target in (("verify", algebra_path), ("pipeline", path)):
        assert main([verb, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 1: bad summand dimensions\n"


def test_pipeline_unclosed_fragment_exit_two(tmp_path, m3, capsys):
    from omljordan.matalg import serialize_algebra, trivial_partition

    (tmp_path / "m3.alg").write_text(
        serialize_algebra(
            m3, {"trivial": trivial_partition(m3), "diag": diagonal_partition(m3)}
        )
    )
    path = tmp_path / "unclosed.instance"
    path.write_text(
        "algebra M m3.alg\nalgebra N m3.alg\n"
        "fragment M trivial diag\nfragment N trivial diag\n"
        "fmap trivial trivial\nfmap diag diag\n"
    )
    assert main(["pipeline", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid instance: fragment M invalid: fragment is not "
        "coarsening-closed: a merge of 'diag' is missing\n"
    )


def test_pipeline_non_projection_atom_exit_two(tmp_path, m3, capsys):
    """An atom that is not a projection makes the instance invalid for the
    pipeline verb (exit 2, one stderr line) and stays an invariant failure
    for the verify verb (exit 1)."""
    from omljordan.matalg import serialize_algebra, trivial_partition

    text = serialize_algebra(m3, {"trivial": trivial_partition(m3)})
    algebra_path = tmp_path / "m3.alg"
    algebra_path.write_text(text.replace("atom 1, 0, 0", "atom 2, 0, 0"))
    path = tmp_path / "bad.instance"
    path.write_text(
        "algebra M m3.alg\nalgebra N m3.alg\n"
        "fragment M trivial\nfragment N trivial\nfmap trivial trivial\n"
    )
    assert main(["pipeline", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "invalid instance: algebra M invalid: not a projection: "
    )
    assert captured.err.count("\n") == 1
    assert main(["verify", str(algebra_path)]) == 1
    assert "invariant failure: NotProjection" in capsys.readouterr().out


def test_bell_check(capsys):
    assert main(["bell-check", "--max-atoms", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "MISMATCH" not in out
    # 8 is the largest accepted value (about 1 s on a 2-core x86-64 VM).
    assert main(["bell-check", "--max-atoms", "8"]) == 0
    assert capsys.readouterr().out.count(" ok\n") == 8


@pytest.mark.parametrize("value", ["0", "-1", "9"])
def test_bell_check_rejects_max_atoms_outside_range(capsys, value):
    """--max-atoms is bounded like --max-size: outside 1..8 it is one parse
    error line on stderr and exit 2, with no table."""
    assert main(["bell-check", "--max-atoms", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: --max-atoms {value} is outside 1..8\n"


def test_counterexample_command(tmp_path, capsys):
    out_dir = tmp_path / "ctr"
    assert main(["counterexample", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "4 candidate Jordan maps" in out
    assert (out_dir / "type_i2.instance").exists()
    # the generated instance re-runs through the pipeline command
    assert main(["pipeline", str(out_dir / "type_i2.instance")]) == 1
