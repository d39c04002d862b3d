import time

import pytest

from omljordan.oml import (
    blocks,
    boolean_subalgebras,
    from_greechie,
    greechie_diagram,
    members_of_label,
    standard,
    subalgebra_label,
)
from omljordan.poset import OrderIso, enumerate_order_isos
from omljordan.reconstruct import (
    BsubIso,
    HypothesisViolated,
    InconsistentLevels,
    NoSolution,
    UniquenessFailed,
    bsub_iso,
    certify_unique,
    count_oml_isos,
    has_4element_block,
    identity_bsub_iso,
    induced_bsub_iso,
    parse_bsub_iso_text,
    reconstruct_oml_isos,
    serialize_bsub_iso,
    verify_oml_iso,
)

from .oracles import (
    atom_extension_oml_isos,
    brute_oml_isos,
    filter_by_bsub_constraint,
    maximal_commuting_sets,
)


def test_has_4element_block():
    assert has_4element_block(standard("mo", 2))
    assert not has_4element_block(standard("horizontal_sum_b8", 2))
    assert not has_4element_block(standard("boolean", 1))


def test_lattice_enumerates_subalgebras_once(monkeypatch):
    """BSub(L), blocks, the 4-element-block test, the induced BSub iso and
    its certified reconstruction all share one enumeration of L's Boolean
    subalgebras."""
    from omljordan import oml

    built = []
    original = oml._subalgebra_from_partition

    def counted(lattice, parts):
        built.append(lattice)
        return original(lattice, parts)

    monkeypatch.setattr(oml, "_subalgebra_from_partition", counted)
    lattice = standard("horizontal_sum_b8", 2)
    bsub = boolean_subalgebras(lattice)
    assert len(blocks(lattice)) == 2
    assert not has_4element_block(lattice)
    k = verify_oml_iso(lattice, lattice, {x: x for x in lattice.elements})
    assert certify_unique(induced_bsub_iso(k)) == k
    # An enumeration builds each subalgebra once, from its atom set.
    assert set(built) == {lattice}
    assert len(built) / len(bsub) == 1


@pytest.mark.parametrize(
    "name,n,expected",
    [
        ("mo", 2, 4),
        ("mo", 3, 8),
        ("boolean", 3, 1),
        ("boolean", 4, 1),
        ("horizontal_sum_b8", 2, 1),
        ("horizontal_sum_b8", 3, 1),
    ],
)
def test_identity_reconstruction_counts(name, n, expected):
    lattice = standard(name, n)
    sols = reconstruct_oml_isos(identity_bsub_iso(lattice))
    assert len(sols) == expected
    for k in sols:
        bsub = boolean_subalgebras(lattice)
        for label in bsub.elements:
            members = members_of_label(label)
            assert frozenset(k.apply(x) for x in members) == members


COUNT_CASES = (
    [("mo", n) for n in range(2, 9)]
    + [("boolean", n) for n in range(2, 6)]
    + [("horizontal_sum_b8", n) for n in range(2, 7)]
    + [("greechie", 0)]
)


def _pasting(*blks):
    atoms = sorted({a for blk in blks for a in blk})
    return from_greechie(greechie_diagram(atoms, blks))


def _count_case_lattice(name, n):
    """The lattice of one COUNT_CASES entry; "greechie" is two 3-atom blocks
    sharing an atom beside a separate 2-atom block."""
    if name == "greechie":
        return _pasting(("a", "b", "c"), ("c", "d", "e"), ("f", "g"))
    return standard(name, n)


@pytest.mark.parametrize("name,n", COUNT_CASES)
def test_reconstruction_count_oracle(name, n):
    """The identity BSub isomorphism has 2^(number of 4-element blocks)
    solutions: each block {0, x, x', 1} commutes with nothing else, so x and
    x' swap freely.  Blocks are counted by the independent commutation
    oracle.  Time bound: 2 s per case (the slowest, mo(8) with 256
    solutions, takes about 0.03 s on a 2-core x86-64 VM)."""
    lattice = _count_case_lattice(name, n)
    four = sum(len(b) == 4 for b in maximal_commuting_sets(lattice))
    start = time.perf_counter()
    sols = reconstruct_oml_isos(identity_bsub_iso(lattice))
    assert time.perf_counter() - start < 2.0
    assert len(sols) == 2**four


@pytest.mark.parametrize("name,n", COUNT_CASES)
def test_count_equals_listing(name, n):
    """count_oml_isos multiplies the component counts without listing the
    solutions; it must agree with the listing.  Time bound: 2 s per case."""
    iso = identity_bsub_iso(_count_case_lattice(name, n))
    start = time.perf_counter()
    assert count_oml_isos(iso) == len(reconstruct_oml_isos(iso))
    assert time.perf_counter() - start < 2.0


def test_count_beyond_listing_reach():
    """MO(40) has 40 components of 2 orientations each: 2^40 solutions,
    counted in well under a second (about 0.01 s on a 2-core x86-64 VM),
    where listing them could never finish."""
    iso = identity_bsub_iso(standard("mo", 40))
    start = time.perf_counter()
    assert count_oml_isos(iso) == 2**40
    assert time.perf_counter() - start < 1.0


def _block_swap(lattice, swap):
    """The BSub isomorphism induced by the OML automorphism that exchanges
    atoms as in swap (given one way) and fixes every other atom."""
    atom_map = {a: a for a in lattice.atoms()}
    atom_map.update(swap)
    atom_map.update({b: a for a, b in swap.items()})
    mapping = {
        x: lattice.join_of(atom_map[a] for a in lattice.atoms() if lattice.leq(a, x))
        for x in lattice.elements
    }
    return induced_bsub_iso(verify_oml_iso(lattice, lattice, mapping))


@pytest.mark.parametrize(
    "blks, swap, count",
    [
        # A 3-atom block beside two separate 4-element blocks.
        ((("a", "b", "c"), ("d", "e"), ("f", "g")), {}, 4),
        ((("a", "b", "c"), ("d", "e"), ("f", "g")), {"d": "f", "e": "g"}, 4),
        # Two 3-atom blocks sharing an atom: one component of two blocks.
        ((("a", "b", "c"), ("c", "d", "e"), ("f", "g")), {"a": "e", "b": "d"}, 2),
    ],
)
def test_factored_search_matches_atom_extension_oracle(blks, swap, count):
    """On pastings with several block components, the per-component search
    gives the oracle's solutions in the same order.  Time bound: 10 s per
    case (the oracle tries 7! atom bijections; about 0.2 s on a 2-core
    x86-64 VM)."""
    lattice = _pasting(*blks)
    iso = _block_swap(lattice, swap)
    start = time.perf_counter()
    oracle = filter_by_bsub_constraint(
        lattice,
        lattice,
        atom_extension_oml_isos(lattice, lattice),
        iso.apply_members,
    )
    sols = reconstruct_oml_isos(iso)
    assert time.perf_counter() - start < 10.0
    assert sorted(tuple(sorted(m.items())) for m in oracle) == [
        k.mapping_items() for k in sols
    ]
    assert len(sols) == count


def test_factored_search_matches_brute_force_under_block_swap():
    """MO(3) under the j of an automorphism that exchanges two of its three
    blocks: the components are solved separately, and the listing equals
    the brute-force oracle's, in the same order.  Time bound: 10 s (the
    oracle filters 8! bijections; about 0.15 s on a 2-core x86-64 VM)."""
    lattice = standard("mo", 3)
    iso = _block_swap(lattice, {"a1": "a2", "b1": "b2"})
    start = time.perf_counter()
    oracle = filter_by_bsub_constraint(
        lattice, lattice, brute_oml_isos(lattice, lattice), iso.apply_members
    )
    sols = reconstruct_oml_isos(iso)
    assert time.perf_counter() - start < 10.0
    assert sorted(tuple(sorted(m.items())) for m in oracle) == [
        k.mapping_items() for k in sols
    ]
    assert len(sols) == 8 and sols[0].apply("a1") == "a2"


def test_search_effort_is_linear_in_components(monkeypatch):
    """MO(12) is 12 components of one pair each: the search makes 4 partial
    order tests and 2 full order-isomorphism checks per component, not one
    check per each of the 4,096 complete assignments.  Time bound: 2 s."""
    from omljordan import reconstruct

    calls = {"extends_order_iso": 0, "order_iso": 0}

    def counted(name):
        original = getattr(reconstruct, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    iso = identity_bsub_iso(standard("mo", 12))
    for name in calls:
        monkeypatch.setattr(reconstruct, name, counted(name))
    start = time.perf_counter()
    assert len(reconstruct_oml_isos(iso)) == 2**12
    assert time.perf_counter() - start < 2.0
    assert calls["extends_order_iso"] <= 4 * 12
    assert calls["order_iso"] <= 2 * 12


def test_uniqueness_small_without_4blocks():
    for lattice in (
        standard("boolean", 1),
        standard("boolean", 2),
        standard("boolean", 3),
        standard("boolean", 4),
        standard("horizontal_sum_b8", 2),
        from_greechie(
            greechie_diagram(list("abcde"), [("a", "b", "c"), ("c", "d", "e")])
        ),
    ):
        if has_4element_block(lattice):
            continue
        sols = reconstruct_oml_isos(identity_bsub_iso(lattice))
        assert len(sols) == 1
        assert all(sols[0].apply(x) == x for x in lattice.elements)


def test_agrees_with_brute_force_oracle_small():
    """Literal all-bijections filtering on OMLs with <= 10 elements."""
    for lattice in (
        standard("boolean", 1),
        standard("boolean", 2),
        standard("boolean", 3),
        standard("mo", 2),
        standard("mo", 3),
        standard("mo", 4),
    ):
        assert len(lattice.elements) <= 10
        iso = identity_bsub_iso(lattice)
        oracle = filter_by_bsub_constraint(
            lattice, lattice, brute_oml_isos(lattice, lattice), iso.apply_members
        )
        sols = reconstruct_oml_isos(iso)
        assert sorted(tuple(sorted(m.items())) for m in oracle) == [
            k.mapping_items() for k in sols
        ]


def test_agrees_with_atom_extension_oracle_hs2():
    """Atom-bijection oracle on the 14-element horizontal sum."""
    lattice = standard("horizontal_sum_b8", 2)
    iso = identity_bsub_iso(lattice)
    oracle = filter_by_bsub_constraint(
        lattice,
        lattice,
        atom_extension_oml_isos(lattice, lattice),
        iso.apply_members,
    )
    sols = reconstruct_oml_isos(iso)
    assert sorted(tuple(sorted(m.items())) for m in oracle) == [
        k.mapping_items() for k in sols
    ]


def test_solution_count_invariant_under_conjugation():
    lattice = standard("mo", 2)
    base = identity_bsub_iso(lattice)
    base_count = len(reconstruct_oml_isos(base))
    # conjugate j by every OML automorphism
    autos = [
        verify_oml_iso(lattice, lattice, m) for m in brute_oml_isos(lattice, lattice)
    ]
    for alpha in autos:
        conj = induced_bsub_iso(alpha)
        mapping = {
            x: conj.j.apply(base.j.apply(x))
            for x in conj.j.source.elements
        }
        twisted = bsub_iso(lattice, lattice, mapping)
        assert len(reconstruct_oml_isos(twisted)) == base_count


def test_nonidentity_bsub_iso_transport():
    """A genuine non-identity j: swap the two blocks of MO(2)."""
    lattice = standard("mo", 2)
    swap = verify_oml_iso(
        lattice,
        lattice,
        {"0": "0", "1": "1", "a1": "a2", "b1": "b2", "a2": "a1", "b2": "b1"},
    )
    j = induced_bsub_iso(swap)
    sols = reconstruct_oml_isos(j)
    assert len(sols) == 4
    assert any(k == swap for k in sols)


def test_certify_unique():
    k = certify_unique(identity_bsub_iso(standard("horizontal_sum_b8", 2)))
    assert all(k.apply(x) == x for x in k.source.elements)
    k2 = certify_unique(identity_bsub_iso(standard("boolean", 4)))
    assert all(k2.apply(x) == x for x in k2.source.elements)


def test_certify_unique_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        certify_unique(identity_bsub_iso(standard("mo", 3)))


def test_inconsistent_levels_rejected():
    lattice = standard("mo", 2)
    bsub = boolean_subalgebras(lattice)
    trivial = subalgebra_label({"0", "1"})
    block = subalgebra_label({"0", "1", "a1", "b1"})
    other = subalgebra_label({"0", "1", "a2", "b2"})
    # swap trivial with a block: not even order-preserving
    mapping = {trivial: block, block: trivial, other: other}
    with pytest.raises(InconsistentLevels):
        bsub_iso(lattice, lattice, mapping)


@pytest.mark.parametrize(
    "kind, n",
    [
        ("mo", 2),
        ("mo", 3),
        ("mo", 4),
        ("horizontal_sum_b8", 2),
        ("boolean", 3),
        ("boolean", 4),
    ],
)
def test_bsub_automorphisms_keep_the_levels(kind, n):
    """Every order automorphism of BSub fixes the trivial subalgebra (its
    bottom) and maps 4-element subalgebras (its atoms) to 4-element ones, so
    bsub_iso needs no level check beyond the order-isomorphism."""
    lattice = standard(kind, n)
    bsub = boolean_subalgebras(lattice)
    trivial = subalgebra_label({lattice.bottom, lattice.top})
    isos = enumerate_order_isos(bsub, bsub)
    assert isos
    for j in isos:
        assert j.apply(trivial) == trivial
        for label in bsub.elements:
            size = len(members_of_label(label))
            assert (size == 4) == (len(members_of_label(j.apply(label))) == 4)


def test_no_solution_on_doctored_iso():
    """Genuine BSub isomorphisms of desk-scale OMLs are always induced (that
    is the cited theorem), so the NoSolution branch is reached by doctoring
    the member-set transport: swap one pair across the two blocks of a
    horizontal sum.  No bijection can satisfy the resulting constraints."""
    lattice = standard("horizontal_sum_b8", 2)
    bsub = boolean_subalgebras(lattice)
    pair_a1 = frozenset({"0", "1", "a1", "b1+c1"})
    pair_a2 = frozenset({"0", "1", "a2", "b2+c2"})
    swap = {"a1": "a2", "b1+c1": "b2+c2", "a2": "a1", "b2+c2": "b1+c1"}

    class Lying(BsubIso):
        def apply_members(self, members):
            if members in (pair_a1, pair_a2) or len(members) == 8:
                return frozenset(swap.get(x, x) for x in members)
            return members

    lying = Lying(
        lattice, lattice, OrderIso(bsub, bsub, {x: x for x in bsub.elements})
    )
    with pytest.raises(NoSolution):
        reconstruct_oml_isos(lying)


def test_no_solution_when_two_pairs_share_a_target():
    """A doctored transport that sends both blocks of MO(2) onto the block
    {0, 1, a1, b1}: each component alone has solutions, but no bijection
    covers a2 and b2, so the product must not be taken.  Time bound: 1 s."""
    lattice = standard("mo", 2)
    bsub = boolean_subalgebras(lattice)
    collapse = {"a2": "a1", "b2": "b1"}

    class Lying(BsubIso):
        def apply_members(self, members):
            return frozenset(collapse.get(x, x) for x in members)

    lying = Lying(
        lattice, lattice, OrderIso(bsub, bsub, {x: x for x in bsub.elements})
    )
    start = time.perf_counter()
    with pytest.raises(NoSolution):
        reconstruct_oml_isos(lying)
    assert time.perf_counter() - start < 1.0


def test_no_solution_when_target_order_crosses_components():
    """MO(3)'s three blocks doctored onto the three pairs of B8: each block
    component alone matches its target pair in 2 ways, but B8 orders
    elements of different target pairs (a1 <= a1+a2), which MO(3) does not,
    so no product of component solutions is an isomorphism.  Time bound:
    1 s."""
    left, right = standard("mo", 3), standard("boolean", 3)
    onto = {"b1": "a2+a3", "b2": "a1+a3", "b3": "a1+a2"}
    bsub = boolean_subalgebras(left)

    class Lying(BsubIso):
        def apply_members(self, members):
            return frozenset(onto.get(x, x) for x in members)

    lying = Lying(left, right, OrderIso(bsub, bsub, {x: x for x in bsub.elements}))
    start = time.perf_counter()
    with pytest.raises(NoSolution, match="crosses the images"):
        reconstruct_oml_isos(lying)
    assert time.perf_counter() - start < 1.0


def test_uniqueness_failed_lists_every_solution(monkeypatch):
    """With the block check bypassed, MO(2)'s two components of two
    orientations each make certify_unique report all four solutions.  Time
    bound: 1 s."""
    from omljordan import reconstruct

    monkeypatch.setattr(reconstruct, "has_4element_block", lambda lattice: False)
    identity = "{'0': '0', '1': '1', 'a1': 'a1', 'b1': 'b1', 'a2': 'a2', 'b2': 'b2'}"
    start = time.perf_counter()
    with pytest.raises(UniquenessFailed) as info:
        certify_unique(identity_bsub_iso(standard("mo", 2)))
    assert time.perf_counter() - start < 1.0
    message = str(info.value)
    assert message.startswith(
        "4 solutions where the uniqueness guarantee promises one: " + identity + "; "
    )
    assert message.count("'0': '0'") == 4


def test_uniqueness_failed_is_internal_consistency():
    """UniquenessFailed cannot be triggered by valid desk-scale inputs; the
    exception type exists and is raised when reconstruct returns several
    solutions after the block check was bypassed."""
    lattice = standard("mo", 2)
    iso = identity_bsub_iso(lattice)
    sols = reconstruct_oml_isos(iso)
    assert len(sols) > 1  # what certify_unique would have reported
    with pytest.raises(HypothesisViolated):
        certify_unique(iso)


def test_exchange_format_round_trip():
    lattice = standard("mo", 2)
    iso = identity_bsub_iso(lattice)
    text = serialize_bsub_iso(iso)
    parsed = parse_bsub_iso_text(lattice, lattice, text)
    assert dict(parsed.j.mapping) == dict(iso.j.mapping)
