import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omljordan.oml import boolean_subalgebras, standard
from omljordan.poset import (
    CycleError,
    DuplicateElement,
    JoinMissing,
    NotAnIdeal,
    NotGenerated,
    NotOrderIso,
    NotSubposet,
    OrderIso,
    ParseError,
    Poset,
    UnknownElement,
    enumerate_order_isos,
    extend_iso_via_ideals,
    finite_part,
    ideals,
    is_ideal,
    order_iso,
    parse_poset_text,
    serialize_poset,
    verify_poset,
    _expect_induced_subposet,
)

from .oracles import (
    covers_by_relation,
    is_ideal_by_relation,
    join_by_relation,
    maximal_by_relation,
    meet_by_relation,
)


def chain(n):
    names = [f"x{i}" for i in range(n)]
    return verify_poset(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def antichain(n):
    return verify_poset([f"x{i}" for i in range(n)], [])


def diamond():
    return verify_poset(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )


def _candidate_ideals(p):
    """Every subset of a small poset; for a larger one, the principal
    downsets, their pairwise unions and the complements of principal
    up-sets."""
    elements, relation = p.elements, p.relation
    if len(elements) <= 8:
        return [
            set(c)
            for r in range(len(elements) + 1)
            for c in itertools.combinations(elements, r)
        ]
    downs = [{z for z in elements if (z, x) in relation} for x in elements]
    ups = [{z for z in elements if (x, z) in relation} for x in elements]
    return (
        [set()]
        + [d | e for d in downs for e in downs]
        + [set(elements) - u for u in ups]
    )


def _check_against_relation_oracles(p):
    """Every order query agrees with a scan of the raw relation."""
    elements, relation = p.elements, p.relation
    for x in elements:
        assert p.downset(x) == tuple(z for z in elements if (z, x) in relation)
        assert p.upset(x) == tuple(z for z in elements if (x, z) in relation)
        for y in elements:
            assert p.leq(x, y) == ((x, y) in relation)
            assert p.join(x, y) == join_by_relation(elements, relation, (x, y))
            assert p.meet(x, y) == meet_by_relation(elements, relation, (x, y))
            assert p.covers(x, y) == covers_by_relation(elements, relation, x, y)
    for xs in _candidate_ideals(p) + [set(elements)]:
        assert p.join_of(xs) == join_by_relation(elements, relation, xs)
        assert is_ideal(p, xs) == is_ideal_by_relation(elements, relation, xs)
    assert p.bottom() == join_by_relation(elements, relation, ())
    assert p.top() == meet_by_relation(elements, relation, ())
    assert p.maximal_elements() == maximal_by_relation(elements, relation)


@pytest.mark.parametrize(
    "p",
    [
        chain(4),
        antichain(3),
        diamond(),
        boolean_subalgebras(standard("boolean", 4)),
        standard("mo", 3).order,
    ],
    ids=["chain", "antichain", "diamond", "bsub-boolean4", "mo3"],
)
def test_order_queries_match_relation_oracles(p):
    _check_against_relation_oracles(p)


@st.composite
def random_posets(draw):
    """verify_poset on random index pairs i < j (acyclic by construction),
    with the elements listed in a random order."""
    n = draw(st.integers(min_value=0, max_value=7))
    names = [f"p{i}" for i in range(n)]
    pairs = []
    if n > 1:
        index = st.integers(min_value=0, max_value=n - 1)
        for i, j in draw(st.lists(st.tuples(index, index), max_size=12)):
            if i != j:
                pairs.append((names[min(i, j)], names[max(i, j)]))
    return verify_poset(draw(st.permutations(names)), pairs)


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_order_queries_match_relation_oracles_random(p):
    _check_against_relation_oracles(p)
    direct = Poset(p.elements, p.relation)
    assert direct == p
    _check_against_relation_oracles(direct)


@st.composite
def posets_with_bijections(draw):
    """A random poset p, a relabelled copy q of it (or, half the time, a
    copy with one generating pair dropped) and a bijection p -> q: the
    relabelling itself or a random one."""
    p = draw(random_posets())
    names = {x: "q" + x[1:] for x in p.elements}
    pairs = [(names[x], names[y]) for x, y in sorted(p.relation) if x != y]
    if pairs and draw(st.booleans()):
        del pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1))]
    q = verify_poset(draw(st.permutations(sorted(names.values()))), pairs)
    if draw(st.booleans()):
        mapping = names
    else:
        mapping = dict(zip(p.elements, draw(st.permutations(q.elements))))
    return p, q, mapping


def _first_order_failure(source, target, mapping):
    """The first row-major (x, y) where x <= y in source and
    mapping[x] <= mapping[y] in target disagree, by relation lookups."""
    for x in source.elements:
        for y in source.elements:
            if ((x, y) in source.relation) != (
                (mapping[x], mapping[y]) in target.relation
            ):
                return x, y
    return None


@settings(max_examples=200, deadline=None)
@given(posets_with_bijections())
def test_order_iso_matches_relation_scan(data):
    p, q, mapping = data
    failure = _first_order_failure(p, q, mapping)
    if failure is None:
        assert dict(order_iso(p, q, mapping).mapping) == mapping
        return
    x, y = failure
    with pytest.raises(NotOrderIso) as exc:
        order_iso(p, q, mapping)
    assert str(exc.value) == (
        f"order not preserved at ({x}, {y}) -> ({mapping[x]}, {mapping[y]})"
    )


@st.composite
def posets_with_subposets(draw):
    """A random poset p and, on a random subset of its elements, either the
    induced subposet or a random poset."""
    p = draw(random_posets())
    subset = draw(st.lists(st.sampled_from(p.elements), unique=True)) if p else []
    if draw(st.booleans()):
        return p, p.restrict(subset)
    index = st.integers(min_value=0, max_value=max(len(subset) - 1, 0))
    pairs = [
        (subset[min(i, j)], subset[max(i, j)])
        for i, j in draw(st.lists(st.tuples(index, index), max_size=8))
        if i != j
    ]
    return p, verify_poset(draw(st.permutations(subset)), pairs)


@settings(max_examples=200, deadline=None)
@given(posets_with_subposets())
def test_induced_subposet_check_matches_relation_scan(data):
    p, sub = data
    failure = next(
        (
            (x, y)
            for x in sub.elements
            for y in sub.elements
            if ((x, y) in sub.relation) != ((x, y) in p.relation)
        ),
        None,
    )
    if failure is None:
        _expect_induced_subposet(sub, p)
        return
    with pytest.raises(NotSubposet) as exc:
        _expect_induced_subposet(sub, p)
    assert str(exc.value) == (
        f"induced order differs from parent at ({failure[0]}, {failure[1]})"
    )


@st.composite
def posets_with_induced_parts(draw):
    """A random poset p and its induced subposet on a random subset."""
    p = draw(random_posets())
    subset = draw(st.lists(st.sampled_from(p.elements), unique=True)) if p else []
    return p, p.restrict(subset)


@settings(max_examples=200, deadline=None)
@given(posets_with_induced_parts())
def test_extension_of_identity_leaves_at_most_the_bottom_outside(data):
    """At finite scale, extending the identity on an induced part F of p
    succeeds only when every element outside F is p's bottom, and it then
    returns the identity.  A nonempty finite set closed under pairwise joins
    has a largest element, so an x outside F that is the join of its
    downset in F has an empty downset there: x is the join of nothing."""
    p, part = data
    mu = OrderIso(part, part, {x: x for x in part.elements})
    try:
        bar = extend_iso_via_ideals(mu, p, p)
    except (NotAnIdeal, NotGenerated, JoinMissing, NotOrderIso):
        return
    assert all(x == p.bottom() for x in p.elements if x not in part.elements)
    assert dict(bar.mapping) == {x: x for x in p.elements}


def test_extension_over_the_empty_ideal():
    """On the chain a < b < c with F = {b, c}, a's downset in F is the empty
    ideal, whose join is the bottom a: the extension is the identity."""
    p = verify_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    part = p.restrict(["b", "c"])
    mu = OrderIso(part, part, {"b": "b", "c": "c"})
    bar = extend_iso_via_ideals(mu, p, p)
    assert dict(bar.mapping) == {"a": "a", "b": "b", "c": "c"}


@st.composite
def elements_with_pairs(draw):
    """Elements in a random order with random generator pairs, which may
    close into cycles."""
    n = draw(st.integers(min_value=1, max_value=7))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12))
    return names, [(names[i], names[j]) for i, j in pairs]


def _reachable(names, pairs):
    """Each element's set of elements reachable along the pairs (itself
    included), by depth-first search."""
    succ = {x: [] for x in names}
    for x, y in pairs:
        succ[x].append(y)
    reach = {}
    for x in names:
        seen, stack = {x}, [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[x] = seen
    return reach


@settings(max_examples=300, deadline=None)
@given(elements_with_pairs())
def test_verify_poset_closure_matches_reachability(data):
    """The closure is reachability; CycleError is raised exactly when two
    distinct elements reach each other, naming the first such pair in
    element order."""
    names, pairs = data
    reach = _reachable(names, pairs)
    cycles = [
        (x, y)
        for i, x in enumerate(names)
        for y in names[i + 1 :]
        if y in reach[x] and x in reach[y]
    ]
    if cycles:
        x, y = cycles[0]
        with pytest.raises(CycleError) as exc:
            verify_poset(names, pairs)
        assert str(exc.value) == f"{x} <= {y} <= {x}"
    else:
        p = verify_poset(names, pairs)
        assert p.relation == {(x, y) for x in names for y in reach[x]}


def test_singleton():
    p = verify_poset(["a"], [])
    assert p.elements == ("a",)
    assert p.leq("a", "a")


def test_transitivity_inferred():
    p = verify_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")


def test_cycle_rejected():
    with pytest.raises(CycleError):
        verify_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_rejected():
    with pytest.raises(DuplicateElement):
        verify_poset(["a", "a"], [])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement) as exc:
        verify_poset(["a"], [("a", "b")])
    assert str(exc.value) == "pair (a, b) uses undeclared elements"


def test_joins_and_meets():
    p = diamond()
    assert p.join("a", "b") == "1"
    assert p.meet("a", "b") == "0"
    assert p.bottom() == "0"
    assert p.top() == "1"
    # 2-antichain has no joins
    q = antichain(2)
    assert q.join("x0", "x1") is None


def test_finite_part_returns_everything():
    assert len(finite_part(chain(3))) == 3
    assert finite_part(verify_poset([], [])) == ()
    bsub = boolean_subalgebras(standard("boolean", 3))
    assert len(finite_part(bsub)) == 5


def test_enumerate_isos_chain_rigid():
    isos = enumerate_order_isos(chain(2), chain(2))
    assert len(isos) == 1


def test_enumerate_isos_antichain():
    assert len(enumerate_order_isos(antichain(2), antichain(2))) == 2


def test_enumerate_isos_bsub_mo2():
    bsub = boolean_subalgebras(standard("mo", 2))
    # 1 bottom + 2 incomparable tops: brute force over 3! bijections
    import itertools

    brute = 0
    for perm in itertools.permutations(bsub.elements):
        mapping = dict(zip(bsub.elements, perm))
        if all(
            bsub.leq(x, y) == bsub.leq(mapping[x], mapping[y])
            for x in bsub.elements
            for y in bsub.elements
        ):
            brute += 1
    isos = enumerate_order_isos(bsub, bsub)
    assert len(isos) == brute == 2


def test_enumerate_isos_mismatch():
    assert enumerate_order_isos(chain(2), antichain(2)) == []
    assert enumerate_order_isos(chain(2), chain(3)) == []


def test_iso_group_closure_and_inverses():
    for p in (chain(3), antichain(3), boolean_subalgebras(standard("boolean", 3))):
        autos = enumerate_order_isos(p, p)
        items = {f.mapping_items() for f in autos}
        for f in autos:
            assert f.inverse().mapping_items() in items
            for g in autos:
                assert f.compose(g).mapping_items() in items


def test_ideals_two_chain():
    p = chain(2)
    members = {i.members for i in ideals(p)}
    assert members == {frozenset(), frozenset({"x0"}), frozenset({"x0", "x1"})}


def test_ideals_antichain_excludes_joinless_pair():
    p = antichain(2)
    members = {i.members for i in ideals(p)}
    assert members == {frozenset(), frozenset({"x0"}), frozenset({"x1"})}


def test_ideals_three_chain():
    assert len(ideals(chain(3))) == 4


def test_ideals_are_downset_join_closed():
    for p in (chain(4), boolean_subalgebras(standard("boolean", 3))):
        for ideal in ideals(p):
            assert is_ideal(p, ideal.members)


def test_iso_image_of_ideal_is_ideal():
    for p in (
        chain(4),
        antichain(3),
        boolean_subalgebras(standard("boolean", 3)),
        boolean_subalgebras(standard("mo", 3)),
    ):
        assert len(p) <= 8
        for f in enumerate_order_isos(p, p):
            for ideal in ideals(p):
                image = {f.apply(x) for x in ideal.members}
                assert is_ideal(p, image)


def test_extend_identity_when_finite_part_is_everything():
    p = boolean_subalgebras(standard("boolean", 3))
    mu = order_iso(p, p, {x: x for x in p.elements})
    bar = extend_iso_via_ideals(mu, p, p)
    assert bar == mu


def test_extend_restricts_to_mu():
    # p = q = B8's BSub; restrict to everything but swap two 4-element levels
    p = boolean_subalgebras(standard("boolean", 3))
    for mu in enumerate_order_isos(p, p):
        bar = extend_iso_via_ideals(mu, p, p)
        for x in p.elements:
            assert bar.apply(x) == mu.apply(x)


def test_extend_not_generated():
    p = chain(3)  # a < b < c
    sub = p.restrict(["x0", "x2"])
    mu = order_iso(sub, sub, {"x0": "x0", "x2": "x2"})
    with pytest.raises(NotGenerated):
        extend_iso_via_ideals(mu, p, p)


def test_extend_join_missing():
    # finite part {x,y} inside a poset where the image family has no lub
    p = verify_poset(
        ["x", "y", "t1", "t2"],
        [("x", "t1"), ("y", "t1"), ("x", "t2"), ("y", "t2")],
    )
    sub = p.restrict(["x", "y"])
    mu = order_iso(sub, sub, {"x": "x", "y": "y"})
    with pytest.raises((JoinMissing, NotGenerated, NotAnIdeal)):
        extend_iso_via_ideals(mu, p, p)


def test_finite_part_invariant_under_iso():
    p = boolean_subalgebras(standard("mo", 2))
    q = boolean_subalgebras(standard("mo", 2))
    for f in enumerate_order_isos(p, q):
        assert len(finite_part(p)) == len(finite_part(q))


def test_parse_round_trip():
    p = boolean_subalgebras(standard("boolean", 3))
    assert parse_poset_text(serialize_poset(p)).relation == p.relation
    q = parse_poset_text("elements a b c\nle a b # comment\nle b c\n")
    assert q.leq("a", "c")


def test_parse_rejects_unknown_directive():
    with pytest.raises(ParseError):
        parse_poset_text("elements a\nfoo a\n")
    with pytest.raises(ParseError):
        parse_poset_text("le a\n")
