import itertools
from pathlib import Path

import pytest

from omljordan.combinat import bell_number
from omljordan.matalg import FinDimAlgebra, projection_oml
from omljordan.oml import (
    ComplementationFails,
    InvalidDiagram,
    NotBoolean,
    NotLattice,
    OrthomodularityFails,
    OrthoNotInvolutive,
    PastingNotOml,
    UnknownName,
    blocks,
    boolean_subalgebras,
    commutes,
    from_greechie,
    greechie_diagram,
    members_of_label,
    parse_greechie_text,
    parse_oml_text,
    serialize_greechie,
    serialize_oml,
    standard,
    subalgebra_label,
    subalgebras,
    verify_boolean_subalgebra,
    verify_oml,
)
from omljordan.poset import enumerate_order_isos, verify_poset

from .conftest import diag_plus_rotated_fragment
from .oracles import (
    count_set_partitions,
    join_by_relation,
    maximal_commuting_sets,
    meet_by_relation,
)

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def test_two_element_lattice_valid():
    lattice = standard("boolean", 1)
    assert len(lattice) == 2
    assert lattice.complement("0") == "1"


def test_mo2_valid_not_distributive():
    lattice = standard("mo", 2)
    assert len(lattice) == 6
    # distributivity fails: a1 ^ (a2 v b2) != (a1 ^ a2) v (a1 ^ b2)
    lhs = lattice.meet("a1", lattice.join("a2", "b2"))
    rhs = lattice.join(lattice.meet("a1", "a2"), lattice.meet("a1", "b2"))
    assert lhs != rhs


PENTAGON_FAILURES = {
    ("a", "b", "c"): (OrthoNotInvolutive, "ortho is not order-reversing at (b, c)"),
    ("a", "c", "b"): (ComplementationFails, "a and a are not complements"),
    ("b", "a", "c"): (OrthoNotInvolutive, "ortho is not order-reversing at (b, c)"),
    ("c", "b", "a"): (OrthoNotInvolutive, "ortho is not order-reversing at (b, c)"),
}


def test_pentagon_rejected_under_every_ortho():
    order = verify_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("b", "c"), ("a", "1"), ("c", "1")],
    )
    inner = ["a", "b", "c"]
    rejected = 0
    candidates = 0
    for images in itertools.permutations(inner):
        ortho = {"0": "1", "1": "0"}
        ortho.update(dict(zip(inner, images)))
        if any(ortho[ortho[x]] != x for x in ortho):
            continue
        candidates += 1
        error, message = PENTAGON_FAILURES[images]
        with pytest.raises(error) as exc:
            verify_oml(order, ortho)
        assert str(exc.value) == message
        rejected += 1
    assert candidates == rejected == len(PENTAGON_FAILURES)


def test_missing_join_is_not_lattice():
    relation = [
        ("0", "a"), ("0", "b"), ("a", "t1"), ("b", "t1"), ("a", "t2"), ("b", "t2")
    ]
    ortho = {"0": "t1", "t1": "0", "a": "b", "b": "a", "t2": "t2"}
    order = verify_poset(["0", "a", "b", "t1", "t2"], relation)
    with pytest.raises(NotLattice) as exc:
        verify_oml(order, ortho)
    assert str(exc.value) == "no join for (a, b)"
    # The first failing pair in element order, also when it holds the first
    # element: (t2, t1) has no meet, but (b, a) comes first.
    order = verify_poset(["b", "t2", "a", "0", "t1"], relation)
    with pytest.raises(NotLattice) as exc:
        verify_oml(order, ortho)
    assert str(exc.value) == "no join for (b, a)"


O6_TEXT = (
    "elements 0 a b ac bc 1\n"
    "le 0 a\nle a bc\nle bc 1\nle 0 b\nle b ac\nle ac 1\n"
    "ortho 0 1\northo a ac\northo b bc\n"
)


def test_benzene_ring_o6_message():
    """O6, the hexagon 0 < a < b' < 1, 0 < b < a' < 1, is an ortholattice
    but not orthomodular."""
    with pytest.raises(OrthomodularityFails) as exc:
        parse_oml_text(O6_TEXT)
    assert str(exc.value) == "x=a, y=bc: y != x v (y ^ x')"


def _lattice(name):
    family, _, arg = name.partition(":")
    if family == "greechie":
        return from_greechie(parse_greechie_text((DATA / arg).read_text()))
    if family == "projections":
        algebra = FinDimAlgebra(tuple(int(d) for d in arg.split(",")))
        projections = diag_plus_rotated_fragment(algebra).projections()
        return projection_oml(algebra, projections)[0]
    return standard(family, int(arg))


@pytest.mark.parametrize(
    "name",
    [f"boolean:{n}" for n in range(1, 5)]
    + [f"mo:{n}" for n in range(1, 6)]
    + [f"horizontal_sum_b8:{n}" for n in range(1, 4)]
    + ["greechie:two_blocks.greechie", "projections:3", "projections:2,1"],
)
def test_lattice_operations_match_relation_oracles(name):
    """meet, join and join_of (over every subset of the atoms), and the
    member sets of the Boolean subalgebras, against scans of the relation."""
    lattice = _lattice(name)
    elements, relation = lattice.elements, lattice.order.relation
    for x in elements:
        for y in elements:
            assert lattice.meet(x, y) == meet_by_relation(elements, relation, (x, y))
            assert lattice.join(x, y) == join_by_relation(elements, relation, (x, y))
    atoms = lattice.atoms()
    for r in range(len(atoms) + 1):
        for xs in itertools.combinations(atoms, r):
            assert lattice.join_of(xs) == join_by_relation(elements, relation, xs)
    for sub in subalgebras(lattice):
        joins = {
            join_by_relation(elements, relation, xs)
            for r in range(len(sub.atoms) + 1)
            for xs in itertools.combinations(sub.atoms, r)
        }
        assert sub.members == joins


def test_commutes():
    b8 = standard("boolean", 3)
    for a in b8.elements:
        for b in b8.elements:
            assert commutes(b8, a, b)
    mo2 = standard("mo", 2)
    assert not commutes(mo2, "a1", "a2")
    assert commutes(mo2, "a1", "b1")
    assert commutes(mo2, "a1", "a1")


def test_blocks_boolean_is_itself():
    b8 = standard("boolean", 3)
    blks = blocks(b8)
    assert len(blks) == 1
    assert blks[0].members == frozenset(b8.elements)


def test_blocks_mo2():
    mo2 = standard("mo", 2)
    blks = blocks(mo2)
    assert sorted(sorted(b.members) for b in blks) == [
        ["0", "1", "a1", "b1"],
        ["0", "1", "a2", "b2"],
    ]


def test_blocks_horizontal_sum():
    hs2 = standard("horizontal_sum_b8", 2)
    blks = blocks(hs2)
    assert [len(b.members) for b in blks] == [8, 8]
    union = frozenset().union(*[b.members for b in blks])
    assert union == frozenset(hs2.elements)


def test_blocks_equal_maximal_subalgebras():
    for lattice in (
        standard("boolean", 3),
        standard("mo", 3),
        standard("horizontal_sum_b8", 2),
        from_greechie(greechie_diagram(list("abcde"), [("a", "b", "c"), ("c", "d", "e")])),
    ):
        blks = blocks(lattice)
        assert {b.members for b in blks} == set(maximal_commuting_sets(lattice))
        for b in blks:
            verify_boolean_subalgebra(lattice, b.members)


def test_bsub_counts_bell():
    for n in range(1, 6):
        lattice = standard("boolean", n)
        count = len(subalgebras(lattice))
        assert count == bell_number(n) == count_set_partitions(n)


def test_bsub_b8_is_partition_lattice():
    bsub = boolean_subalgebras(standard("boolean", 3))
    assert len(bsub) == 5
    # partition lattice Pi_3: bottom, three middles, top
    assert len(bsub.maximal_elements()) == 1
    middles = [
        x
        for x in bsub.elements
        if len(members_of_label(x)) == 4
    ]
    assert len(middles) == 3


def test_bsub_mo_n():
    for n in (2, 3, 4):
        lattice = standard("mo", n)
        assert len(subalgebras(lattice)) == 1 + n


def test_bsub_members_resolve():
    lattice = standard("mo", 2)
    bsub = boolean_subalgebras(lattice)
    for label in bsub.elements:
        members = members_of_label(label)
        assert subalgebra_label(members) == label
        verify_boolean_subalgebra(lattice, members)


def test_every_subalgebra_passes_verification():
    for lattice in (standard("boolean", 3), standard("horizontal_sum_b8", 2)):
        for sub in subalgebras(lattice):
            checked = verify_boolean_subalgebra(lattice, sub.members)
            assert checked.atoms == sub.atoms
            assert len(sub.members) == 2 ** len(sub.atoms)


def test_not_boolean_rejected():
    mo2 = standard("mo", 2)
    with pytest.raises(NotBoolean):
        verify_boolean_subalgebra(mo2, mo2.elements)  # not closed: fails distributivity


def test_greechie_single_block():
    lattice = from_greechie(greechie_diagram(["a", "b", "c"], [("a", "b", "c")]))
    assert len(lattice) == 8
    assert len(blocks(lattice)) == 1


def test_greechie_mo2():
    lattice = from_greechie(greechie_diagram(list("abcd"), [("a", "b"), ("c", "d")]))
    assert len(lattice) == 6
    assert lattice.complement("a") == "b"


def test_greechie_shared_atom_pasting():
    # two 3-atom blocks sharing one atom: complements of the shared atom are
    # identified (forced), so the pasting has 12 elements, not 14
    lattice = from_greechie(
        greechie_diagram(list("abcde"), [("a", "b", "c"), ("c", "d", "e")])
    )
    assert len(lattice) == 12
    assert lattice.complement("c") == "a+b"
    assert len(blocks(lattice)) == 2


def test_greechie_triangle_loops_rejected():
    with pytest.raises(PastingNotOml):
        from_greechie(greechie_diagram(list("abc"), [("a", "b"), ("b", "c"), ("c", "a")]))
    with pytest.raises(PastingNotOml):
        from_greechie(
            greechie_diagram(
                list("abcdef"),
                [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a")],
            )
        )


def test_greechie_degenerate_shared_complement_collapses():
    lattice = from_greechie(greechie_diagram(list("abc"), [("a", "b"), ("b", "c")]))
    assert len(lattice) == 4  # a and c are forced equal


def test_greechie_invalid_diagrams():
    with pytest.raises(InvalidDiagram):
        greechie_diagram(["a"], [("a",)])  # block too small
    with pytest.raises(InvalidDiagram):
        greechie_diagram(list("abcd"), [("a", "b", "c"), ("a", "b", "d")])  # share 2
    with pytest.raises(InvalidDiagram):
        greechie_diagram(list("abc"), [("a", "b")])  # c in no block
    with pytest.raises(InvalidDiagram):
        greechie_diagram(list("ab"), [("a", "a", "b")])  # repeated atom


def test_standard_sizes():
    assert len(standard("boolean", 1)) == 2
    assert len(standard("mo", 2)) == 6
    assert len(standard("horizontal_sum_b8", 2)) == 14
    with pytest.raises(UnknownName):
        standard("frobnitz", 2)
    with pytest.raises(ValueError):
        standard("boolean", 0)


def test_union_of_blocks_is_carrier():
    for lattice in (
        standard("boolean", 2),
        standard("mo", 3),
        standard("horizontal_sum_b8", 3),
    ):
        union = set()
        for b in blocks(lattice):
            union |= b.members
        assert union == set(lattice.elements)


def test_sachs_desk_scale():
    """BSub posets order-isomorphic iff the Boolean algebras are isomorphic."""
    lattices = {n: standard("boolean", n) for n in range(1, 5)}
    posets = {n: boolean_subalgebras(lattices[n]) for n in lattices}
    for a in lattices:
        for b in lattices:
            isos = enumerate_order_isos(posets[a], posets[b])
            algebras_isomorphic = a == b  # |2^a| == |2^b| iff a == b
            assert bool(isos) == algebras_isomorphic


def test_oml_text_round_trip():
    for lattice in (standard("mo", 2), standard("horizontal_sum_b8", 2)):
        text = serialize_oml(lattice)
        parsed = parse_oml_text(text)
        assert parsed.order.relation == lattice.order.relation
        assert dict(parsed.ortho) == dict(lattice.ortho)


def test_greechie_text_round_trip():
    diagram = greechie_diagram(list("abcde"), [("a", "b", "c"), ("c", "d", "e")])
    parsed = parse_greechie_text(serialize_greechie(diagram))
    assert parsed == diagram


def test_subalgebras_pass_full_oml_axioms():
    """Every enumerated Boolean subalgebra is itself a valid OML under the
    induced order and complement."""
    from omljordan.oml import subalgebra_as_oml

    for lattice in (
        standard("boolean", 3),
        standard("mo", 3),
        standard("horizontal_sum_b8", 2),
    ):
        for sub in subalgebras(lattice):
            induced = subalgebra_as_oml(sub)
            assert len(induced) == len(sub.members)


def test_standard_mo1_is_b4():
    mo1 = standard("mo", 1)
    assert len(mo1) == 4
    assert len(blocks(mo1)) == 1
