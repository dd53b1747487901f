"""Labeled posets: construction from files and flows, bases, invariant
profiles, isomorphism with certificates, equivalence verdicts, and the
census of orbit resolutions."""

import itertools
import random
import signal
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from msflow import (
    LabeledPoset,
    cell_equivalence_verdict,
    census,
    face_poset,
    invariant_profile,
    is_isomorphic,
    parse,
    parse_poset,
    resolve_all_detailed,
)
from msflow import ConnectionMap, ParseError
from msflow import perturb as perturb_module
from msflow import poset as poset_module
from msflow.poset import INCONCLUSIVE, NOT_EQUIVALENT, _label_masks, _search_isomorphism, _search_plan, _signatures

from conftest import (
    check_mapping,
    fixture_path,
    load_fixture,
    orbits_over_sinks,
    random_valid_system,
    shuffled,
    systems_with_orbits,
)


def load_pos(name):
    return parse_poset(fixture_path(name).read_text())


def upset(p: LabeledPoset, x: str) -> frozenset[str]:
    """The nodes whose down-sets hold x."""
    return frozenset(y for y in p.nodes if x in p.downset(y))


@pytest.fixture
def two_cells():
    """The bundled pair of four-cell complexes that differ only in where the
    2-cell attaches: directly to a 0-cell, or onto the 1-cell."""
    return load_pos("fig2-Y.pos"), load_pos("fig2-Yprime.pos")


# ---------------------------------------------------------------------------
# construction and basic order queries


def test_parse_poset_builds_the_closure(two_cells):
    y, _ = two_cells
    assert set(y.nodes) == {"a", "b", "c", "d"}
    assert y.labels() == {"a": 0, "b": 0, "c": 1, "d": 2}
    assert "a" in y.downset("c") and "b" in y.downset("c") and "a" in y.downset("d")
    assert "a" in y.downset("a")  # reflexive
    assert "c" not in y.downset("d")
    assert "c" not in y.downset("a")


def test_parse_poset_errors():
    with pytest.raises(ValueError):
        parse_poset("node a 0\nnode a 1\n")
    with pytest.raises(ValueError):
        parse_poset("node a 0\nlt a b\n")
    with pytest.raises(ValueError):
        parse_poset("node a zero\n")
    with pytest.raises(ValueError):
        parse_poset("node a 0\nnode b 1\nlt a b\nlt b a\n")  # cycle


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0662", "1\u0661", "-1"])
def test_parse_poset_accepts_only_ascii_digit_labels(token):
    with pytest.raises(ParseError) as exc:
        parse_poset(f"node x 0\nnode a {token}\n")
    assert exc.value.line == 2


def test_transitivity_through_chains():
    p = parse_poset("node x 0\nnode y 1\nnode z 2\nlt x y\nlt y z\n")
    assert "x" in p.downset("z")
    assert p.covers() == [("x", "y"), ("y", "z")]


@st.composite
def labeled_posets(draw, max_nodes: int = 10) -> LabeledPoset:
    """Nodes n0..n(k-1) with labels 0-3; relations only run from a lower
    to a higher index, so every draw is acyclic."""
    count = draw(st.integers(0, max_nodes))
    names = [f"n{i}" for i in range(count)]
    labels = {name: draw(st.integers(0, 3)) for name in names}
    pairs = [(names[i], names[j]) for i in range(count) for j in range(i + 1, count)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LabeledPoset(labels, [pair for pair, keep in zip(pairs, kept) if keep])


def reference_covers(p: LabeledPoset) -> list[tuple[str, str]]:
    """The definition: a < b with no c strictly between."""
    return sorted(
        (a, b)
        for b in p.nodes
        for a in p.downset(b)
        if a != b and not any(c not in (a, b) and a in p.downset(c) for c in p.downset(b))
    )


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=12))
def test_covers_match_the_definition(p):
    assert p.covers() == reference_covers(p)


def chain(length: int, prefix: str) -> LabeledPoset:
    return LabeledPoset(
        {f"{prefix}{i}": i % 3 for i in range(length)},
        [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length - 1)],
    )


def test_covers_of_a_long_chain_are_its_links():
    assert chain(1200, "n").covers() == sorted((f"n{i}", f"n{i + 1}") for i in range(1199))


def grid_poset(m: int, klein: bool = False) -> LabeledPoset:
    """Face poset of the m x m square grid on the torus, or on the Klein
    bottle, whose top row is glued to the bottom one reversed: vertices
    (label 0) below edges (label 1) below squares (label 2)."""

    def vertex(i, j):
        if j == m:
            i, j = (-i if klein else i), 0
        return f"v{i % m}_{j}"

    labels, relations, edges = {}, [], {}

    def edge(kind, u, w):
        key = (kind, frozenset((u, w)))
        if key not in edges:
            edges[key] = f"{kind}{len(edges)}"
            labels[edges[key]] = 1
            relations.extend([(u, edges[key]), (w, edges[key])])
        return edges[key]

    for i in range(m):
        for j in range(m):
            labels[vertex(i, j)] = 0
    for i in range(m):
        for j in range(m):
            face = f"f{i}_{j}"
            labels[face] = 2
            sides = [
                edge("h", vertex(i, j), vertex(i + 1, j)),
                edge("h", vertex(i, j + 1), vertex(i + 1, j + 1)),
                edge("w", vertex(i, j), vertex(i, j + 1)),
                edge("w", vertex(i + 1, j), vertex(i + 1, j + 1)),
            ]
            relations += [(side, face) for side in sides]
    return LabeledPoset(labels, relations)


def test_downset_upset_and_len(two_cells):
    y, _ = two_cells
    assert y.downset("c") == {"a", "b", "c"}
    assert upset(y, "a") == {"a", "c", "d"}
    assert len(y) == 4


def test_renamed_requires_a_bijection(two_cells):
    y, _ = two_cells
    with pytest.raises(ValueError):
        y.renamed({"a": "x", "b": "x", "c": "y", "d": "z"})
    with pytest.raises(ValueError):
        y.renamed({"a": "x"})


# ---------------------------------------------------------------------------
# face posets of gradient systems


def test_face_poset_nodes_and_labels():
    s = load_fixture("fig4-X1.msf")
    p = face_poset(s)
    assert len(p) == len(s.elements)
    assert p.label("p1") == 2 and p.label("s1") == 1 and p.label("q0") == 0


def test_face_poset_order_follows_connections():
    s = parse("dim 2\nrest q 0\nrest s 1\nrest p 2\nconn p s 2\nconn s q 2\n")
    poset = face_poset(s)
    assert "q" in poset.downset("s") and "s" in poset.downset("p") and "q" in poset.downset("p")
    assert "p" not in poset.downset("q")


def test_face_poset_rejects_systems_with_orbits(fig5):
    with pytest.raises(ValueError):
        face_poset(fig5)


def test_face_poset_labels_strictly_decrease_downward():
    for name in ["fig3-X1.msf", "fig3-X2.msf", "fig4-X1.msf", "fig4-X2.msf", "fig4-X3.msf"]:
        p = face_poset(load_fixture(name))
        for x in p.nodes:
            for y in p.nodes:
                if x != y and x in p.downset(y):
                    assert p.label(x) < p.label(y)


# ---------------------------------------------------------------------------
# bases


def test_base_of_the_two_cell_differs_between_the_pair(two_cells):
    y, yprime = two_cells
    assert y.downset("d") == {"d", "a"}
    assert yprime.downset("d") == {"a", "b", "c", "d"}


def test_base_of_minimal_node_is_itself(two_cells):
    y, _ = two_cells
    assert y.downset("a") == {"a"}


def test_base_is_the_smallest_order_closed_set_containing_the_node(two_cells):
    _, yprime = two_cells
    b = yprime.downset("c")
    assert b == {"a", "b", "c"}
    for node in b:
        assert yprime.downset(node) <= b


def test_base_unknown_node(two_cells):
    y, _ = two_cells
    with pytest.raises(ValueError):
        y.downset("zzz")


# ---------------------------------------------------------------------------
# invariant profiles


def test_profiles_of_the_symmetric_pair_agree():
    x1 = face_poset(load_fixture("fig4-X1.msf"))
    x2 = face_poset(load_fixture("fig4-X2.msf"))
    assert invariant_profile(x1) == invariant_profile(x2)


def test_profiles_differ_when_sink_incidences_differ():
    x1 = face_poset(load_fixture("fig4-X1.msf"))
    x3 = face_poset(load_fixture("fig4-X3.msf"))
    p1, p3 = invariant_profile(x1), invariant_profile(x3)
    assert p1 != p3
    assert p1.label_counts == p3.label_counts  # same census of cells
    incidence_01 = lambda p: dict(((lo, hi), v) for lo, hi, v in p.incidence)[(0, 1)]  # noqa: E731
    assert incidence_01(p1) == (1, 2, 3, 4)
    assert incidence_01(p3) == (1, 3, 3, 3)


def test_profile_of_empty_poset():
    p = LabeledPoset({})
    profile = invariant_profile(p)
    assert profile.label_counts == () and profile.signatures == ()


def reference_signature(p: LabeledPoset, name: str):
    """The node's label, then how many nodes of each label present lie in
    its down-set, then in its up-set, zeros included."""
    present = sorted({p.label(x) for x in p.nodes})
    down = Counter(p.label(x) for x in p.downset(name))
    up = Counter(p.label(x) for x in upset(p, name))
    return (p.label(name), *(down[l] for l in present), *(up[l] for l in present))


def reference_signatures(p: LabeledPoset) -> list[tuple]:
    return [reference_signature(p, x) for x in p.nodes]


def nested_signature(p: LabeledPoset, name: str):
    """The signature in the form that leaves the zeros out: (label, label
    counts of the down-set, label counts of the up-set)."""
    down = Counter(p.label(x) for x in p.downset(name))
    up = Counter(p.label(x) for x in upset(p, name))
    return (p.label(name), tuple(sorted(down.items())), tuple(sorted(up.items())))


def reference_profile(p: LabeledPoset, signature=reference_signature):
    """The profile computed straight from down-sets and up-sets, one
    invariant at a time, with each node's ``signature``."""
    labels = sorted({p.label(x) for x in p.nodes})
    by_label = {l: [x for x in p.nodes if p.label(x) == l] for l in labels}
    label_counts = tuple((l, len(by_label[l])) for l in labels)
    downset_sizes = tuple((l, tuple(sorted(len(p.downset(x)) for x in by_label[l]))) for l in labels)
    incidence = tuple(
        (low, high, tuple(sorted(sum(1 for y in upset(p, x) if p.label(y) == high) for x in by_label[low])))
        for low in labels
        for high in labels
        if low < high
    )
    signatures = tuple(sorted(signature(p, x) for x in p.nodes))
    return label_counts, downset_sizes, incidence, signatures


@settings(max_examples=200, deadline=None)
@given(labeled_posets())
@example(LabeledPoset({}))
@example(grid_poset(4))
@example(grid_poset(4, klein=True))
def test_profile_matches_the_definition(p):
    profile = invariant_profile(p)
    assert (profile.label_counts, profile.downset_sizes, profile.incidence, profile.signatures) == reference_profile(p)
    assert profile._by_node == reference_signatures(p)


def relabelled(p: LabeledPoset, relabel: dict[int, int]) -> LabeledPoset:
    """p with each label l replaced by ``relabel.get(l, l)``."""
    labels = {x: relabel.get(l, l) for x, l in p.labels().items()}
    return LabeledPoset(labels, [(a, b) for b in p.nodes for a in p.downset(b)])


# Maps of the labels 0-3 that labeled_posets draws: onto labels with gaps,
# a huge one, or fewer labels.
RELABEL = st.lists(st.sampled_from([0, 1, 2, 3, 5, 10**20]), min_size=4, max_size=4).map(lambda got: dict(enumerate(got)))
EDGE = LabeledPoset({"x": 0, "y": 1}, [("x", "y")])


@settings(max_examples=300, deadline=None)
@given(
    labeled_posets(max_nodes=8),
    labeled_posets(max_nodes=8),
    st.randoms(use_true_random=False),
    st.sampled_from(["drawn", "copy", "moved"]),
    RELABEL,
    RELABEL,
)
@example(EDGE, EDGE, random.Random(0), "drawn", {1: 5}, {1: 10**20})
@example(EDGE, EDGE, random.Random(0), "copy", {1: 5}, {1: 5})
@example(EDGE, EDGE, random.Random(0), "copy", {1: 10**20}, {1: 10**20})
@example(EDGE, LabeledPoset({"x": 0, "y": 1}), random.Random(0), "drawn", {1: 5}, {1: 5})
@example(LabeledPoset({"x": 0, "y": 5, "z": 3}, [("x", "y")]), EDGE, random.Random(1), "copy", {}, {})
@example(  # equal down-sets, told apart by the up-sets alone
    LabeledPoset({"x": 0, "y": 0, "z": 1, "w": 1}, [("x", "z"), ("x", "w")]),
    LabeledPoset({"x": 0, "y": 0, "z": 1, "w": 1}, [("x", "z"), ("y", "w")]),
    random.Random(0),
    "drawn",
    {1: 10**20},
    {1: 10**20},
)
def test_profiles_agree_exactly_when_the_nested_reference_profiles_do(p, q, rng, mode, relabel_p, relabel_q):
    # q is drawn, or a renamed shuffled copy of p, or p with one cover moved
    # to another lower node of the same label (same label counts, mostly
    # the same down-sets); then each side's labels are mapped, to labels
    # with gaps or a huge one, or merged.  The flat signatures carry a count
    # for every label present, zeros included, and the nested ones leave
    # the zeros out: equal profiles mean the same.
    if mode == "copy":
        q = shuffled(p, dict(zip(p.nodes, rng.sample(string.ascii_lowercase, len(p)))), rng.sample(list(p.nodes), len(p)))
    elif mode == "moved" and (covers := p.covers()):
        low, high = rng.choice(covers)
        other = rng.choice([x for x in p.nodes if p.label(x) == p.label(low) and x != high])
        try:
            q = LabeledPoset(p.labels(), [c for c in covers if c != (low, high)] + [(other, high)])
        except ValueError:  # a cycle
            q = p
    a, b = relabelled(p, relabel_p), relabelled(q, relabel_q)
    nested = lambda x: reference_profile(x, nested_signature)  # noqa: E731
    assert (invariant_profile(a) == invariant_profile(b)) == (nested(a) == nested(b))


# ---------------------------------------------------------------------------
# isomorphism


def test_self_comparison_returns_the_identity(two_cells):
    y, _ = two_cells
    verdict = is_isomorphic(y, y)
    assert verdict.isomorphic
    assert verdict.mapping_dict() == {n: n for n in y.nodes}


def test_symmetric_pair_is_isomorphic_by_swapping_sinks():
    x1 = face_poset(load_fixture("fig4-X1.msf"))
    x2 = face_poset(load_fixture("fig4-X2.msf"))
    verdict = is_isomorphic(x1, x2)
    assert verdict.isomorphic
    mapping = verdict.mapping_dict()
    assert mapping["q1"] == "q2" and mapping["q2"] == "q1"
    assert check_mapping(x1, x2, mapping)


def test_unequal_incidences_yield_a_certificate():
    x1 = face_poset(load_fixture("fig4-X1.msf"))
    x3 = face_poset(load_fixture("fig4-X3.msf"))
    verdict = is_isomorphic(x1, x3)
    assert not verdict.isomorphic
    assert verdict.mapping is None
    assert "{1,2,3,4}" in verdict.certificate and "{1,3,3,3}" in verdict.certificate


def test_two_cell_pair_not_isomorphic_certificate_names_downset_sizes(two_cells):
    y, yprime = two_cells
    verdict = is_isomorphic(y, yprime)
    assert not verdict.isomorphic
    assert "{2}" in verdict.certificate and "{4}" in verdict.certificate


def test_check_mapping_rejects_wrong_maps(two_cells):
    y, _ = two_cells
    identity = {n: n for n in y.nodes}
    assert check_mapping(y, y, identity)
    swapped = dict(identity, a="c", c="a")  # breaks labels
    assert not check_mapping(y, y, swapped)


def test_isomorphism_needs_backtracking_beyond_profiles():
    # Two posets with identical per-node signatures but different global
    # structure: a hexagon cycle versus two triangles (as bipartite orders).
    hexagon = LabeledPoset(
        {f"b{i}": 0 for i in range(3)} | {f"t{i}": 1 for i in range(3)},
        [("b0", "t0"), ("b1", "t0"), ("b1", "t1"), ("b2", "t1"), ("b2", "t2"), ("b0", "t2")],
    )
    triangles = LabeledPoset(
        {f"c{i}": 0 for i in range(3)} | {f"u{i}": 1 for i in range(3)},
        [("c0", "u0"), ("c0", "u1"), ("c1", "u0"), ("c1", "u1"), ("c2", "u2"), ("c2", "u2")],
    )
    # same label counts; every bottom node sits under two tops in the hexagon
    # but not in the triangle pair, so profiles may or may not split them —
    # the verdict must be correct either way.
    verdict = is_isomorphic(hexagon, triangles)
    assert not verdict.isomorphic


def test_isomorphism_is_an_equivalence_on_the_bundled_posets(two_cells):
    posets = [
        face_poset(load_fixture("fig4-X1.msf")),
        face_poset(load_fixture("fig4-X2.msf")),
        face_poset(load_fixture("fig4-X3.msf")),
        *two_cells,
    ]
    for p in posets:
        assert is_isomorphic(p, p).isomorphic  # reflexive
    for a in posets:
        for b in posets:
            assert is_isomorphic(a, b).isomorphic == is_isomorphic(b, a).isomorphic
    for a in posets:
        for b in posets:
            for c in posets:
                if is_isomorphic(a, b).isomorphic and is_isomorphic(b, c).isomorphic:
                    assert is_isomorphic(a, c).isomorphic


def random_poset(rng: random.Random, max_nodes: int = 10) -> LabeledPoset:
    count = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(count)]
    labels = {name: rng.randint(0, 3) for name in names}
    relations = []
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                relations.append((names[i], names[j]))  # i below j: acyclic
    return LabeledPoset(labels, relations)


def test_random_posets_match_their_shuffles():
    rng = random.Random(321)
    for _ in range(100):
        p = random_poset(rng)
        fresh = rng.sample(string.ascii_lowercase, len(p))
        mapping = dict(zip(p.nodes, fresh))
        order = rng.sample(list(p.nodes), len(p))
        copy = shuffled(p, mapping, order)
        verdict = is_isomorphic(p, copy)
        assert verdict.isomorphic
        assert check_mapping(p, copy, verdict.mapping_dict())


def search(a: LabeledPoset, b: LabeledPoset, sig_a=None, sig_b=None):
    """_search_isomorphism called as is_isomorphic calls it: only when the
    signature multisets agree, from a's plan, with b's indices in name
    order.  ``sig_a``/``sig_b`` stand in for the signatures, as census's
    interned ids do.  The witness comes back as b's node indices in plan
    order and is named here, as a dict from a's node names to b's."""
    if sig_a is None:
        sig_a, sig_b = reference_signatures(a), reference_signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    plan = _search_plan(a, sig_a)
    images = _search_isomorphism(a, b, plan, sig_b, sorted(range(len(b)), key=b.nodes.__getitem__))
    return None if images is None else {a.nodes[i]: b.nodes[j] for i, j in zip(plan[0], images)}


@contextmanager
def searches_checked():
    """Every _search_isomorphism call, from is_isomorphic or census, first
    asserts that a's and b's signature multisets agree, on the signatures
    and on what the caller hands over; yields each call's verdict."""
    found = []
    original = poset_module._search_isomorphism

    def checked(a, b, plan, sig_b, order):
        assert sorted(reference_signatures(a)) == sorted(reference_signatures(b))
        assert sorted(plan[1]) == sorted(sig_b) and len(plan[0]) == len(order) == len(b)
        images = original(a, b, plan, sig_b, order)
        assert images is None or sorted(images) == list(range(len(b)))  # one of b's indices per node of a
        found.append(images is not None)
        return images

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset_module, "_search_isomorphism", checked)
        yield found


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=8), labeled_posets(max_nodes=8), st.randoms(use_true_random=False), st.booleans())
def test_is_isomorphic_searches_only_equal_signature_multisets(p, q, rng, copy):
    # A renamed shuffled copy has p's signatures; another drawn poset mostly
    # does not.  The search runs exactly when the multisets agree.
    if copy:
        q = shuffled(p, dict(zip(p.nodes, rng.sample(string.ascii_lowercase, len(p)))), rng.sample(list(p.nodes), len(p)))
    with searches_checked() as found:
        verdict = is_isomorphic(p, q)
    assert len(found) == (sorted(reference_signatures(p)) == sorted(reference_signatures(q)))
    assert found[-1:] == ([verdict.isomorphic] if found else [])


def reference_plan(a: LabeledPoset, sig_a):
    """The search plan by its definition, one open node at a time: the order
    starts at the node with the fewest nodes of equal signature, then by
    name, and then takes the open node comparable to the most placed ones,
    ties by that rank; each depth's stand is the open nodes below it, those
    above it, by index, and how many placed nodes it is comparable to."""
    index = {x: i for i, x in enumerate(a.nodes)}
    count = Counter(sig_a)
    rank = {x: (count[sig_a[index[x]]], x) for x in a.nodes}
    near = {x: (a.downset(x) | upset(a, x)) - {x} for x in a.nodes}
    placed, unplaced, stands = set(), set(a.nodes), []
    order = []
    while unplaced:
        x = min(unplaced, key=lambda x: (-len(near[x] & placed), rank[x]))
        unplaced.remove(x)
        below, above = (sorted(index[y] for y in side(x) & unplaced) for side in (a.downset, lambda x: upset(a, x)))
        stands.append((below, above, len(near[x] & placed)))
        placed.add(x)
        order.append(index[x])
    return order, [sig_a[i] for i in order], stands


def assert_plan_is_the_reference(a: LabeledPoset, sig_a):
    plan = _search_plan(a, sig_a)
    assert plan == reference_plan(a, sig_a)
    return plan


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=12))
def test_search_plan_matches_the_definition(p):
    assert_plan_is_the_reference(p, reference_signatures(p))


@pytest.mark.parametrize("klein", [False, True])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_search_plan_matches_the_definition_on_grid_face_posets(m, klein):
    # Names without coordinates, declared in a shuffled order.
    rng = random.Random(m)
    grid = grid_poset(m, klein)
    names = rng.sample([f"x{i}" for i in range(len(grid))], len(grid))
    p = shuffled(grid, dict(zip(grid.nodes, names)), rng.sample(list(grid.nodes), len(grid)))
    assert_plan_is_the_reference(p, reference_signatures(p))


def test_census_plans_match_the_definition(monkeypatch):
    # census plans each class's first poset on the ids it interned.
    planned = []

    def checked(a, ids):
        planned.append(a)
        return assert_plan_is_the_reference(a, ids)

    monkeypatch.setattr(poset_module, "_search_plan", checked)
    census(orbits_over_sinks(3, 4, 2))
    assert planned


def reference_search(a: LabeledPoset, b: LabeledPoset):
    """Recursive backtracking in the plan's order (see reference_plan),
    same-named candidate first, the rest by name."""
    sig_a = {x: reference_signature(a, x) for x in a.nodes}
    sig_b = {y: reference_signature(b, y) for y in b.nodes}
    candidates = {x: [y for y in b.nodes if sig_b[y] == sig_a[x]] for x in a.nodes}
    if any(not c for c in candidates.values()):
        return None
    order = [a.nodes[i] for i in reference_plan(a, reference_signatures(a))[0]]
    assignment = {}

    def extend(i):
        if i == len(order):
            return True
        x = order[i]
        for y in sorted(candidates[x], key=lambda y: (y != x, y)):
            if y in assignment.values():
                continue
            if any(
                (x in a.downset(x0)) != (y in b.downset(y0)) or (x0 in a.downset(x)) != (y0 in b.downset(y))
                for x0, y0 in assignment.items()
            ):
                continue
            assignment[x] = y
            if extend(i + 1):
                return True
            del assignment[x]
        return False

    return assignment if extend(0) else None


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=9), st.randoms(use_true_random=False), st.booleans())
# One signature group, b, c, l in b; a's c and l find their same-named
# nodes at positions 1 and 2 of it, so each depth needs its own reordered
# list: reusing or reordering another depth's list changes the witness.
@example(LabeledPoset({"c": 0, "l": 0, "x": 0}), random.Random(2), True)
def test_search_returns_the_recursive_searchs_witness(p, rng, rename):
    # A shuffled renamed copy is isomorphic; a copy with one comparable pair
    # dropped or one added mostly is not.  Either way both searches agree.
    names = rng.sample(string.ascii_lowercase, len(p)) if rename else list(p.nodes)
    other = shuffled(p, dict(zip(p.nodes, names)), rng.sample(list(p.nodes), len(p)))
    if not rename and len(p) >= 2:
        x, y = rng.sample(list(p.nodes), 2)
        relations = [(u, v) for v in p.nodes for u in p.downset(v) if u != v]
        if x in p.downset(y) or y in p.downset(x):
            relations = [r for r in relations if r not in ((x, y), (y, x))]
        elif int(x[1:]) < int(y[1:]):
            relations.append((x, y))
        other = LabeledPoset(p.labels(), relations)
    expected = reference_search(p, other)
    assert search(p, other) == expected
    verdict = is_isomorphic(p, other)
    assert verdict.mapping == (tuple(sorted(expected.items())) if expected is not None else None)


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=9), st.randoms(use_true_random=False))
def test_search_on_interned_ids_with_a_given_order_returns_the_same_witness(p, rng):
    # Census hands the search one-to-one int ids for the signatures; the
    # witness must be the one the search on the signatures finds.
    other = shuffled(p, dict(zip(p.nodes, rng.sample(string.ascii_lowercase, len(p)))), rng.sample(list(p.nodes), len(p)))
    intern = {}
    ids_a, ids_b = ([intern.setdefault(sig, len(intern)) for sig in reference_signatures(q)] for q in (p, other))
    expected = search(p, other)
    assert expected is not None
    assert search(p, other, ids_a, ids_b) == expected


def cycles(lengths, prefix: str) -> LabeledPoset:
    """Disjoint cycles as vertices (label 0) under edges (label 1): every
    node has the same signature as every other of its label, so only the
    search tells different cycle lengths apart."""
    labels, relations = {}, []
    for c, length in enumerate(lengths):
        for i in range(length):
            labels[f"{prefix}v{c}_{i}"], labels[f"{prefix}e{c}_{i}"] = 0, 1
            relations += [(f"{prefix}v{c}_{i}", f"{prefix}e{c}_{i}"), (f"{prefix}v{c}_{(i + 1) % length}", f"{prefix}e{c}_{i}")]
    return LabeledPoset(labels, relations)


@pytest.mark.parametrize(
    "lengths, other",
    [([6], [3, 3]), ([3, 3], [6]), ([7], [3, 4]), ([4, 3], [7]), ([3, 4], [4, 3]), ([5], [5]), ([3, 3], [3, 3])],
)
def test_search_on_cycles_returns_the_recursive_searchs_witness(lengths, other):
    # Equal signatures throughout; isomorphic exactly when the cycle lengths
    # agree, which only the search can tell.
    a, b = cycles(lengths, "a"), cycles(other, "b")
    expected = reference_search(a, b)
    assert (expected is not None) == (sorted(lengths) == sorted(other))
    assert search(a, b) == expected


def test_long_chain_matches_its_renamed_copy():
    verdict = is_isomorphic(chain(1200, "n"), chain(1200, "m"))
    assert verdict.isomorphic
    assert verdict.mapping_dict() == {f"n{i}": f"m{i}" for i in range(1200)}


# ---------------------------------------------------------------------------
# cell-equivalence verdicts


def test_verdict_not_equivalent_on_unequal_incidences():
    verdict = cell_equivalence_verdict(load_fixture("fig4-X1.msf"), load_fixture("fig4-X3.msf"))
    assert not verdict.possibly_equivalent
    assert verdict.summary == NOT_EQUIVALENT
    assert verdict.certificate


def test_verdict_inconclusive_on_the_symmetric_pair():
    verdict = cell_equivalence_verdict(load_fixture("fig4-X1.msf"), load_fixture("fig4-X2.msf"))
    assert verdict.possibly_equivalent
    assert verdict.summary == INCONCLUSIVE
    assert verdict.certificate is None


def test_verdict_counts_mismatch_short_circuits():
    verdict = cell_equivalence_verdict(load_fixture("fig4-X1.msf"), load_fixture("fig3-X1.msf"))
    assert not verdict.possibly_equivalent
    assert "cell counts per dimension differ" in verdict.certificate


def test_verdict_requires_gradient_like_inputs(fig5):
    with pytest.raises(ValueError):
        cell_equivalence_verdict(fig5, fig5)


# ---------------------------------------------------------------------------
# census


def test_census_of_single_orbit_sphere(fig3):
    report = census(fig3)
    assert report.total == 6
    assert sorted(cls.size for cls in report.classes) == [1, 1, 2, 2]

    def class_of(q_out):
        for idx, cls in enumerate(report.classes):
            if any(choices[0].q_out == q_out for choices in cls.members):
                return idx
        raise AssertionError(f"no class holds {q_out}")

    # the two depicted choices land in the same class
    assert class_of((("q0", 1), ("q1", 1))) == class_of((("q0", 1), ("q2", 1)))
    # the double-connection-to-one-sink choices do not
    assert class_of((("q0", 2),)) != class_of((("q1", 2),))


def test_census_of_four_sink_sphere(fig4):
    report = census(fig4)
    assert report.total == 10
    assert len(report.classes) == 7

    def class_of(q_out):
        for idx, cls in enumerate(report.classes):
            if any(choices[0].q_out == q_out for choices in cls.members):
                return idx
        raise AssertionError(f"no class holds {q_out}")

    assert class_of((("q0", 1), ("q1", 1))) == class_of((("q0", 1), ("q2", 1)))
    assert class_of((("q0", 1), ("q1", 1))) != class_of((("q0", 1), ("q3", 1)))


def test_census_classes_match_fixture_verdicts(fig4):
    # the X1/X2/X3 story told by the census agrees with direct comparison
    x1 = load_fixture("fig4-X1.msf")
    x3 = load_fixture("fig4-X3.msf")
    assert not cell_equivalence_verdict(x1, x3).possibly_equivalent
    report, systems = census(fig4), representatives(fig4)
    reps = [systems[cls.members[0]] for cls in report.classes]
    iso_to_x1 = [r for r in reps if is_isomorphic(face_poset(r), face_poset(x1)).isomorphic]
    iso_to_x3 = [r for r in reps if is_isomorphic(face_poset(r), face_poset(x3)).isomorphic]
    assert len(iso_to_x1) == 1 and len(iso_to_x3) == 1
    assert iso_to_x1[0] is not iso_to_x3[0]


def test_census_of_gradient_input_is_one_class():
    report = census(load_fixture("fig4-X2.msf"))
    assert report.total == 1 and len(report.classes) == 1
    assert report.classes[0].members == ((),)


def representatives(s):
    """Each resolution's system, keyed by its choices: a class's first
    member names the system that represents it."""
    return {choices: system for system, choices in resolve_all_detailed(s)}


def reference_census(s):
    """Each resolution against every class so far, first match wins: each
    class's members."""
    classes = []
    for system, choices in resolve_all_detailed(s):
        poset = face_poset(system)
        for cls in classes:
            if is_isomorphic(cls[0], poset).isomorphic:
                cls[1].append(choices)
                break
        else:
            classes.append((poset, [choices]))
    return [tuple(members) for _, members in classes]


# Twins: rest points of one index fed and drained alike (see poset._twins).
def twins(s):
    return poset_module._twins(s, poset_module._neighbourhoods(s))


TWIN_SINKS = """dim 2
rest a 0
rest b 0
rest c 0
orbit g 1 untwisted
orbit h 1 untwisted
conn g a 1
conn g b 1
conn g c 1
conn h a 1
conn h b 1
conn h c 1
"""
TWIN_SOURCES = """dim 2
rest u 2
rest v 2
orbit r 1 untwisted
rest s 1
orbit g 0 untwisted
rest q 0
conn u g 1
conn v g 1
conn r g 1
conn r s 1
conn r q 1
conn s q 2
"""
TWIN_COUNT_2 = """dim 2
rest a 0
rest b 0
rest c 0
orbit g 1 untwisted
conn g a 2
conn g b 2
conn g c 1
"""

# Two twin pairs that the orbit swap (g h) exchanges, (a b)(a2 b2) with it.
TWIN_PAIRS = """dim 2
rest a 0
rest a2 0
rest b 0
rest b2 0
rest c 0
orbit g 1 untwisted
orbit h 1 untwisted
conn g a 1
conn g a2 1
conn g c 1
conn h b 1
conn h b2 1
conn h c 1
"""
# Swapping a and b keeps every count next to the orbit, but not x and y,
# which stay in place: only p feeds x.
FED_APART = """dim 2
rest a 0
rest b 0
rest x 1
rest y 1
rest p 2
orbit g 1 untwisted
conn g a 1
conn g b 1
conn x a 1
conn y b 1
conn p x 1
"""
# g feeds the twins a and a2 and the sink c, which x feeds too; h feeds the
# sink d and the twins e and e2, which x feeds too.  (g h)(a d)(c e) keeps
# every connection between the twin classes' first members, but g feeds two
# sinks that nothing else feeds and h one, so no symmetry moves g.
UNEVEN_TWINS = """dim 2
rest a 0
rest a2 0
rest c 0
rest d 0
rest e 0
rest e2 0
rest x 1
orbit g 1 untwisted
orbit h 1 untwisted
conn g a 1
conn g a2 1
conn g c 1
conn h d 1
conn h e 1
conn h e2 1
conn x c 1
conn x e 1
conn x e2 1
"""


@st.composite
def systems_with_twins(draw):
    """A system of systems_with_orbits, plain or feeding, with a rest point
    next to an orbit declared twice: right after it comes a copy with a
    fresh name and the same index and connections.  Sometimes each
    connection between the pair and an orbit has count 2."""
    s = draw(systems_with_orbits() | systems_with_orbits(feeding=True))
    orbits, counts = {e.name for e in s.orbits()}, dict(s.connections.items())
    near = [e for e in s.rest_points() if any(e.name in pair and orbits.intersection(pair) for pair in counts)]
    assume(near)
    e, double = draw(st.sampled_from(near)), draw(st.booleans())
    twin = replace(e, name=e.name + "t")
    for (a, b), c in list(counts.items()):
        if e.name in (a, b):
            c = counts[a, b] = 2 if double and orbits.intersection((a, b)) else c
            counts[(twin.name, b) if a == e.name else (a, twin.name)] = c
    at = s.elements.index(e) + 1
    return replace(s, elements=s.elements[:at] + (twin,) + s.elements[at:], connections=ConnectionMap(counts))


@settings(max_examples=100, deadline=None)
@given(systems_with_orbits() | systems_with_orbits(feeding=True) | systems_with_twins(), st.randoms(use_true_random=False))
@example(parse(TWIN_SINKS), random.Random(0))
@example(parse(TWIN_SOURCES), random.Random(0))
@example(parse(TWIN_COUNT_2), random.Random(0))
def test_census_matches_pairwise_grouping(s, rng):
    # With feeding, a repelling orbit drains into an attracting one.  When
    # the repelling orbit is resolved first, its new saddle may land on the
    # attracting orbit, and census leaves those edges out until that orbit
    # is resolved; the reordered copy often resolves the two the other way.
    # With twins, census joins some leaves to a class without a search.
    assume(len(resolve_all_detailed(s)) <= 60)
    reordered = replace(s, elements=tuple(rng.sample(list(s.elements), len(s.elements))))
    for system in (s, reordered):
        report = census(system)
        got = [cls.members for cls in report.classes]
        assert got == reference_census(system)
        assert report.total == sum(len(members) for members in got)


def test_twins_are_found_where_a_swap_keeps_every_connection(fig3):
    assert twins(fig3) == [["q1", "q2"]]
    assert twins(orbits_over_sinks(2, 6, 5)) == [["q1", "q2", "q3", "q4"]]
    assert twins(parse(TWIN_SOURCES)) == [["u", "v"]]
    assert twins(parse(TWIN_COUNT_2)) == [["a", "b"]]


def test_near_twins_and_joined_rest_points_are_not_twins(fig3):
    # q2 fed twice by the orbit differs from q1 in one count, and so does
    # u feeding the attracting orbit twice from v.
    counts = dict(fig3.connections.items()) | {("gamma", "q2"): 2}
    assert twins(replace(fig3, connections=ConnectionMap(counts))) == []
    sources = parse(TWIN_SOURCES)
    counts = dict(sources.connections.items()) | {("u", "g"): 2}
    assert twins(replace(sources, connections=ConnectionMap(counts))) == []
    # a and b are fed alike and joined both ways with one count, so swapping
    # them keeps every connection, but each is the other's neighbour.
    joined = parse("dim 2\nrest a 0\nrest b 0\norbit g 1 untwisted\nconn g a 1\nconn g b 1\nconn a b 1\nconn b a 1\n")
    assert reference_twins(joined) == [["a", "b"]]
    assert twins(joined) == []
    # A sink and a saddle fed alike by the orbit differ in index; two sinks
    # that x drains into and out of differ in direction.
    assert twins(parse("dim 2\nrest a 0\nrest b 1\norbit g 1 untwisted\nconn g a 1\nconn g b 1\n")) == []
    both_ways = "dim 2\nrest a 0\nrest b 0\nrest x 1\norbit g 1 untwisted\nconn g a 1\nconn g b 1\nconn a x 1\nconn x b 1\n"
    assert twins(parse(both_ways)) == []


@settings(max_examples=100, deadline=None)
@given(systems_with_twins())
def test_twins_are_the_rest_points_that_swap_next_to_an_orbit(s):
    orbits = {e.name for e in s.orbits()}
    near = {x for pair in s.connections.pairs() if orbits.intersection(pair) for x in pair}
    assert twins(s) == [cls for cls in reference_twins(s) if near.intersection(cls)]


@pytest.mark.parametrize("text", [TWIN_SINKS, TWIN_SOURCES, TWIN_COUNT_2, TWIN_PAIRS], ids=["sinks", "sources", "count-2", "twin-pairs"])
def test_census_builds_no_poset_for_a_leaf_that_twins_carry_an_earlier_one_onto(text, monkeypatch):
    s, posets = parse(text), []
    monkeypatch.setattr(poset_module, "_signatures", lambda p, masks: posets.append(p) or _signatures(p, masks))
    report = census(s)
    joined = automorphism_joined(s)
    assert joined and len(posets) == report.total - len(joined)
    assert [cls.members for cls in report.classes] == reference_census(s)


@pytest.mark.parametrize("k, m, d", [(3, 4, 2), (2, 5, 3)])
def test_census_matches_pairwise_grouping_where_keys_hold_several_classes(k, m, d):
    # Here some non-isomorphic classes share a signature key, so the search
    # inside a key is what separates them.
    s = orbits_over_sinks(k, m, d)
    report = census(s)
    systems = representatives(s)
    keys = [tuple(sorted(reference_signatures(face_poset(systems[cls.members[0]])))) for cls in report.classes]
    assert len(set(keys)) < len(keys)
    assert [cls.members for cls in report.classes] == reference_census(s)


@pytest.mark.parametrize("k, m, d", [(3, 4, 2), (2, 5, 3)])
def test_census_searches_only_equal_signature_multisets(k, m, d):
    # One key holds several classes here, so some searches inside a key
    # fail.  Every leaf that joins no class of its own is found by a search,
    # unless a local automorphism carries an earlier leaf onto it: in
    # (3, 4, 2) the reflection does so for 12 of 27, and in (2, 5, 3) the
    # reflection and swapping q1 and q2 for 23 of 36.
    s = orbits_over_sinks(k, m, d)
    with searches_checked() as found:
        report = census(s)
    assert False in found
    joined = {(3, 4, 2): 12, (2, 5, 3): 23}[k, m, d]
    assert len(automorphism_joined(s)) == joined
    assert found.count(True) == report.total - len(report.classes) - joined


def reference_twins(s):
    """Each class of two or more rest points of one index that swap onto
    each other: exchanging two of their names maps every connection onto
    one of the same count.  Grouped against each class's first member, as
    swapping is an equivalence on a valid system."""
    counts = dict(s.connections.items())

    def swap(a, b):
        name = {a: b, b: a}
        return all(counts.get((name.get(x, x), name.get(y, y))) == c for (x, y), c in counts.items())

    classes = []
    for e in (e for e in s.elements if e.is_rest):
        for cls in classes:
            if cls[0].index == e.index and swap(cls[0].name, e.name):
                cls.append(e)
                break
        else:
            classes.append([e])
    return [[e.name for e in cls] for cls in classes if len(cls) > 1]


def reference_automorphisms(s):
    """Every local automorphism of s, the identity too, as a name -> image
    map of its support (the orbits and their neighbours), by backtracking
    over the permutations of the support that keep each element's kind,
    index and twisted flag: a partial map grows only while every connection
    between mapped elements, or between a mapped element and one outside the
    support, goes onto one of the same count.  Where a connection joins two
    orbits, only the maps that fix every orbit."""
    counts = dict(s.connections.items())
    orbits = {e.name for e in s.orbits()}
    support = [e for e in s.elements if any(e.name in pair and orbits.intersection(pair) for pair in counts) or e.name in orbits]
    outside = {e.name: e.name for e in s.elements if e not in support}
    linked = any(a in orbits and b in orbits for a, b in counts)
    found = []

    def extend(image):
        if len(image) == len(support):
            found.append(dict(image))
            return
        e = support[len(image)]
        for f in support:
            if (f.kind, f.index, f.twisted) != (e.kind, e.index, e.twisted) or f.name in image.values():
                continue
            if linked and e.name in orbits and f.name != e.name:
                continue
            image[e.name] = f.name
            fixed = outside | image
            if all(counts.get((e.name, z)) == counts.get((f.name, w)) and counts.get((z, e.name)) == counts.get((w, f.name)) for z, w in fixed.items()):
                extend(image)
            del image[e.name]

    extend({})
    return found


def automorphism_joined(s, sigmas=None):
    """By brute force: each leaf, by its position in resolve_all_detailed's
    order, onto whose choices a local automorphism (see
    reference_automorphisms, or one of ``sigmas`` when given) carries an
    earlier leaf's, mapped to that earlier leaf's position.  An automorphism
    that moves an orbit carries its choice to the depth of the orbit's
    image, under that orbit's p and q names, which every leaf shares."""
    leaves = [choices for _, choices in resolve_all_detailed(s)]
    orbits = [e.name for e in s.orbits()]
    sigmas = reference_automorphisms(s) if sigmas is None else sigmas
    earlier, joined = {}, {}
    for i, chosen in enumerate(leaves):
        for sigma in sigmas:
            rename = lambda side: {sigma.get(x, x): c for x, c in side}  # noqa: E731
            image = [None] * len(chosen)
            for d in chosen:
                j = orbits.index(sigma.get(d.orbit, d.orbit))
                image[j] = replace(leaves[0][j], p_out=rename(d.p_out), q_out=rename(d.q_out), p_in=rename(d.p_in), q_in=rename(d.q_in))
            if (j := earlier.get(tuple(image))) is not None:
                joined[i] = j
                break
        earlier[chosen] = i
    return joined


@contextmanager
def searches_recorded():
    """Record each _search_plan and _search_isomorphism call: the events, as
    ("plan", a's down-sets) and ("search", a's down-sets, b's, found), and
    for each poset whose ids a call hands over, (its id multiset, its sorted
    signatures)."""
    events, keys = [], []
    plan, search = poset_module._search_plan, poset_module._search_isomorphism

    def planned(a, sig_a):
        events.append(("plan", tuple(a._down)))
        keys.append((tuple(sorted(sig_a)), tuple(sorted(reference_signatures(a)))))
        return plan(a, sig_a)

    def searched(a, b, plan, sig_b, order):
        images = search(a, b, plan, sig_b, order)
        events.append(("search", tuple(a._down), tuple(b._down), images is not None))
        keys.append((tuple(sorted(sig_b)), tuple(sorted(reference_signatures(b)))))
        return images

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset_module, "_search_plan", planned)
        patch.setattr(poset_module, "_search_isomorphism", searched)
        yield events, keys


def census_keyed_on_signatures(s):
    """census on code it does not share: each resolution's face poset,
    keyed on its sorted reference signature tuples, searched against the
    classes under its key from a plan built at the class's first search.
    A leaf that automorphism_joined maps to an earlier one joins that leaf's class
    unsearched."""
    by_key, classes, class_of, joined = {}, [], [], automorphism_joined(s)  # class_of: each leaf's class
    for i, (system, choices) in enumerate(resolve_all_detailed(s)):
        if i in joined:
            class_of.append(class_of[joined[i]])
            class_of[i].append(choices)
            continue
        poset = face_poset(system)
        sig = reference_signatures(poset)
        order = sorted(range(len(poset)), key=poset.nodes.__getitem__)
        bucket = by_key.setdefault(tuple(sorted(sig)), [])
        for cls in bucket:
            cls[2] = cls[2] or poset_module._search_plan(cls[0], cls[1])
            if poset_module._search_isomorphism(cls[0], poset, cls[2], sig, order) is not None:
                break
        else:
            bucket.append(cls := [poset, sig, (), []])
            classes.append(cls[3])
        cls[3].append(choices)
        class_of.append(cls[3])
    return [tuple(members) for members in classes]


def skewed(k, m, d):
    """orbits_over_sinks(k, m, d) with g0 draining into q0 twice: no local
    automorphism but the identity is left."""
    s = orbits_over_sinks(k, m, d)
    return replace(s, connections=ConnectionMap(dict(s.connections.items()) | {("g0", "q0"): 2}))


def test_census_ids_partition_leaves_as_signatures():
    # Every leaf's poset is the face poset of its resolution, node for
    # node, so census and the reference make the same searches exactly when
    # the ids group leaves as the signatures do: a merged group adds a
    # search, a split one drops one.  Every id multiset a call hands over
    # belongs to one sorted signature multiset, and the other way round.
    # Leaves that a local automorphism carries an earlier leaf onto are
    # searched by neither: (2, 6, 5) joins 208 of its 225 leaves that way,
    # (3, 6, 3) 102 of 216, and the random systems 2.  Every family has a
    # reflection, so the symmetry-free skewed (3, 6, 3) and (4, 6, 2) keep
    # the searches above the floor.
    rng = random.Random(18)
    shapes = [(3, 4, 2), (2, 6, 5), (3, 6, 3), (4, 6, 2), (3, 5, 2)]
    systems = [orbits_over_sinks(*shape) for shape in shapes] + [skewed(3, 6, 3), skewed(4, 6, 2)]
    systems += [s for s in (random_valid_system(rng) for _ in range(200)) if s.dimension == 2 or not s.orbits()]
    searched = joined = 0
    for s in systems:
        joined += len(automorphism_joined(s))
        with searches_recorded() as (events, keys):
            got = [cls.members for cls in census(s).classes]
        with searches_recorded() as (expected, _):
            assert got == census_keyed_on_signatures(s)
        assert events == expected
        assert len(dict(keys)) == len(set(keys)) == len({sig for _, sig in keys})
        searched += len(events)
    assert searched > 1000
    assert joined == 372


def census_shape(report):
    return report.total, len(report.classes), sorted(cls.size for cls in report.classes)


def renamed_and_reordered(s, rng):
    """s with fresh names r0, r1, ... given at random and its elements declared in a random order."""
    names = [e.name for e in s.elements]
    fresh = dict(zip(names, rng.sample([f"r{i}" for i in range(len(names))], len(names))))
    return replace(
        s,
        elements=tuple(replace(e, name=fresh[e.name]) for e in rng.sample(list(s.elements), len(s.elements))),
        connections=ConnectionMap({(fresh[a], fresh[b]): c for (a, b), c in s.connections.items()}),
    )


@settings(max_examples=40, deadline=5000)
@given(systems_with_orbits(), st.randoms(use_true_random=False))
def test_census_does_not_depend_on_element_order_or_names(s, rng):
    assume(len(resolve_all_detailed(s)) <= 60)
    assert census_shape(census(renamed_and_reordered(s, rng))) == census_shape(census(s))


@st.composite
def doubled_feeding_systems(draw):
    """Two disjoint copies of a systems_with_orbits(feeding=True) system, in
    which a repelling orbit drains into an attracting one: swapping the
    copies is a symmetry that moves orbits, which census leaves unused."""
    s = draw(systems_with_orbits(feeding=True))
    assume(len(resolve_all_detailed(s)) <= 6)
    copy = {e.name: e.name + "c" for e in s.elements}
    counts = dict(s.connections.items()) | {(copy[a], copy[b]): c for (a, b), c in s.connections.items()}
    return replace(s, elements=s.elements + tuple(replace(e, name=copy[e.name]) for e in s.elements), connections=ConnectionMap(counts))


SYMMETRIC_SHAPES = [(2, 4, 2), (3, 4, 2), (2, 5, 3), (3, 5, 2), (2, 3, 3), (3, 3, 2), (4, 4, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SYMMETRIC_SHAPES).map(lambda shape: orbits_over_sinks(*shape)) | doubled_feeding_systems(), st.randoms(use_true_random=False))
@example(parse(TWIN_PAIRS), random.Random(0))
@example(parse(FED_APART), random.Random(0))
def test_census_matches_pairwise_grouping_under_symmetries_of_the_input(s, rng):
    # Every family has a reflection that moves its orbits, (3, 3, 2) and
    # (4, 4, 2) rotations too; the doubled systems join orbits.  Fresh names
    # and a shuffled declaration order change the depths and the name order.
    for system in (s, renamed_and_reordered(s, rng)):
        assert [cls.members for cls in census(system).classes] == reference_census(system)


@settings(max_examples=100, deadline=None)
@given(systems_with_twins() | doubled_feeding_systems() | st.sampled_from(SYMMETRIC_SHAPES).map(lambda shape: orbits_over_sinks(*shape)))
@example(load_fixture("fig3.msf"))
@example(load_fixture("fig4.msf"))
@example(parse(TWIN_SINKS))
@example(parse(TWIN_PAIRS))
@example(parse(FED_APART))
@example(parse(UNEVEN_TWINS))
@example(parse("dim 2\nrest a 0\nrest b 0\norbit g 1 untwisted\norbit h 1 twisted\nconn g a 1\nconn h b 1\n"))
@example(parse("dim 2\nrest a 0\nrest b 1\norbit g 1 untwisted\norbit h 1 untwisted\nconn g a 1\nconn h b 1\n"))
def test_automorphisms_are_the_local_symmetries_up_to_twin_swaps(s):
    # The finder's automorphisms are the reference's that take each twin
    # class onto its image member by member, the identity left out.  Orbits
    # that differ only in their twisted flag, or rest points only in index,
    # are never swapped.
    hood = poset_module._neighbourhoods(s)
    classes = poset_module._twins(s, hood)
    found = poset_module._automorphisms(s, hood, classes)
    expected = [
        {a: b for a, b in sigma.items() if a != b}
        for sigma in reference_automorphisms(s)
        if all([sigma[x] for x in cls] in classes for cls in classes)
    ]
    assert sorted(map(sorted, map(dict.items, found))) == sorted(map(sorted, map(dict.items, filter(None, expected))))


def test_census_searches_fig4_only_where_no_symmetry_joins(fig4):
    # (q1 q2)(s1 s2) maps fig4 onto itself and fixes its orbit; fig4 has no
    # twins.  It carries onto earlier leaves the three that twin swaps
    # alone would leave to a search each, and no search is left.
    assert automorphism_joined(fig4) == {2: 1, 7: 4, 8: 6}
    with searches_recorded() as (events, _):
        got = [cls.members for cls in census(fig4).classes]
    with searches_recorded() as (expected, _):
        assert got == census_keyed_on_signatures(fig4)
    assert events == expected
    assert events == []


def test_census_reports_the_same_when_the_automorphism_budget_runs_out(monkeypatch, fig4):
    # One placement finds no automorphism, so census falls back to the twin
    # swaps and its searches.
    finder = poset_module._automorphisms
    systems = [fig4, orbits_over_sinks(3, 4, 2), orbits_over_sinks(2, 5, 3), parse(TWIN_SINKS)]
    reports = [census(s) for s in systems]
    for s in systems:
        hood = poset_module._neighbourhoods(s)
        assert finder(s, hood, poset_module._twins(s, hood)) and finder(s, hood, poset_module._twins(s, hood), budget=1) == []
    monkeypatch.setattr(poset_module, "_automorphisms", lambda s, hood, twins: finder(s, hood, twins, budget=1))
    assert [census(s) for s in systems] == reports


@contextmanager
def posets_counted():
    """Each poset census reads signatures off, one per leaf it does not join."""
    posets = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset_module, "_signatures", lambda p, masks: posets.append(p) or _signatures(p, masks))
        yield posets


@settings(max_examples=100, deadline=None)
@given(
    (systems_with_twins() | doubled_feeding_systems() | st.sampled_from(SYMMETRIC_SHAPES).map(lambda shape: orbits_over_sinks(*shape)))
    .filter(lambda s: len(resolve_all_detailed(s)) <= 60)
)
@example(load_fixture("fig3.msf"))
@example(load_fixture("fig4.msf"))
@example(orbits_over_sinks(2, 6, 5))
def test_census_builds_a_poset_only_for_the_first_leaf_of_each_orbit(s):
    # A leaf joins an earlier leaf's class unbuilt exactly when some local
    # symmetry carries an earlier leaf onto it.  The size bound holds for
    # drawn systems only, so the 225 leaves of (2, 6, 5) run too: there the
    # twin class q1..q4 carries some leaves onto earlier ones only through
    # products of several transpositions.
    with posets_counted() as posets:
        report = census(s)
    assert len(posets) == report.total - len(automorphism_joined(s))


def test_census_keeps_its_report_with_no_choice_or_only_twin_swaps(monkeypatch):
    # A gradient input has one leaf, which takes no choice: no id columns,
    # no generator and one poset.
    for text in ("dim 2\nrest a 0\n", "dim 2\nrest a 0\nrest b 0\nrest x 1\nconn x a 1\nconn x b 1\n"):
        with posets_counted() as posets:
            report = census(parse(text))
        assert report == poset_module.CensusReport(total=1, classes=(poset_module.CensusClass(((),)),))
        assert len(posets) == 1
    # With one placement the finder returns nothing, so only the twin swaps
    # join leaves: in TWIN_SINKS the permutations of a, b and c, not the
    # orbit swap (g h).
    finder = poset_module._automorphisms
    monkeypatch.setattr(poset_module, "_automorphisms", lambda s, hood, twins: finder(s, hood, twins, budget=1))
    for text in (TWIN_SINKS, TWIN_COUNT_2):
        s = parse(text)
        inside = {x: cls for cls in reference_twins(s) for x in cls}
        swaps = [sigma for sigma in reference_automorphisms(s) if all(y in inside.get(x, [x]) for x, y in sigma.items())]
        with posets_counted() as posets:
            report = census(s)
        assert [cls.members for cls in report.classes] == reference_census(s)
        assert len(posets) == report.total - len(automorphism_joined(s, swaps))
        assert (len(automorphism_joined(s, swaps)) < len(automorphism_joined(s))) == (text == TWIN_SINKS)


def test_census_keeps_nothing_between_calls(fig3, fig4):
    # The signature ids and the name order belong to one call: census of a
    # (10-node resolutions), then b (9 nodes), then a again, and so on, each
    # reports as the pairwise grouping does on its own.
    inputs = {"a": orbits_over_sinks(3, 4, 2), "b": orbits_over_sinks(2, 5, 3), "fig3": fig3, "fig4": fig4}
    fresh = {name: reference_census(s) for name, s in inputs.items()}
    for name in ["a", "b", "a", "fig4", "b", "fig3", "a"]:
        report = census(inputs[name])
        assert [cls.members for cls in report.classes] == fresh[name], name


def test_census_validates_its_input_once_however_many_resolutions(monkeypatch):
    # The input is checked up front; its resolutions and enumerated choices
    # are not checked again.
    calls = Counter()
    for module, name in ((poset_module, "validate"), (perturb_module, "validate"), (perturb_module, "validate_choice")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    seen = []
    for k, m, d in [(3, 4, 2), (3, 6, 3)]:
        calls.clear()
        total = census(orbits_over_sinks(k, m, d)).total
        seen.append((total, calls["validate"], calls["validate_choice"]))
    assert seen == [(27, 1, 0), (216, 1, 0)]


# ---------------------------------------------------------------------------
# int masks against the definitions


def reference_downsets(labels, relations) -> dict[str, frozenset[str]]:
    """One depth-first search per node over the given relations."""
    children = {x: {a for a, b in relations if b == x} for x in labels}
    down = {}
    for x in labels:
        seen, frontier = {x}, [x]
        while frontier:
            for lower in children[frontier.pop()] - seen:
                seen.add(lower)
                frontier.append(lower)
        down[x] = frozenset(seen)
    return down


@st.composite
def poset_inputs(draw, max_nodes: int = 9):
    """Labels (in a shuffled declaration order) and acyclic relations, with
    repeats and reflexive pairs, as handed to LabeledPoset."""
    count = draw(st.integers(0, max_nodes))
    names = draw(st.permutations([f"n{i}" for i in range(count)]))
    labels = {name: draw(st.integers(0, 3)) for name in names}
    pairs = [(f"n{i}", f"n{j}") for i in range(count) for j in range(i, count)]
    relations = draw(st.lists(st.sampled_from(pairs), max_size=2 * count)) if pairs else []
    return labels, relations


@settings(max_examples=200, deadline=None)
@given(poset_inputs(), st.randoms(use_true_random=False))
def test_masks_match_the_frozenset_definitions(inputs, rng):
    labels, relations = inputs
    p = LabeledPoset(labels, relations)
    down = reference_downsets(labels, relations)
    up = {x: frozenset(y for y in labels if x in down[y]) for x in labels}
    assert p.nodes == tuple(labels)
    for x in labels:
        assert p.downset(x) == down[x]
    assert p._up == [sum(1 << i for i, y in enumerate(labels) if y in up[x]) for x in labels]
    assert p.covers() == sorted(
        (a, b) for b in labels for a in down[b] - {b} if not any(a in down[c] for c in down[b] - {a, b})
    )
    present = sorted(set(labels.values()))
    counts = lambda nodes: tuple(sum(labels[z] == l for z in nodes) for l in present)  # noqa: E731
    masks = [sum(1 << i for i, x in enumerate(labels) if labels[x] == l) for l in present]
    assert _label_masks(p._labels) == (present, masks)
    assert _signatures(p, masks) == [(labels[x], *counts(down[x]), *counts(up[x])) for x in labels]

    # Equality and hash ignore declaration and relation order; one more
    # relation changes equality exactly when it changes some down-set.
    order = rng.sample(list(labels), len(labels))
    same = LabeledPoset({x: labels[x] for x in order}, rng.sample(relations, len(relations)))
    assert same == p and hash(same) == hash(p)
    if len(labels) >= 2:
        a, b = sorted(rng.sample(list(labels), 2), key=lambda x: int(x[1:]))
        more = LabeledPoset(labels, relations + [(a, b)])
        assert (more == p) == (reference_downsets(labels, relations + [(a, b)]) == down)
        assert LabeledPoset(dict(labels, **{a: labels[a] + 1}), relations) != p

    # renamed: the renamed closure, in the same order.
    mapping = dict(zip(labels, rng.sample([f"m{i}" for i in range(len(labels))], len(labels))))
    copy = p.renamed(mapping)
    assert copy.nodes == tuple(mapping[x] for x in labels)
    assert copy.labels() == {mapping[x]: labels[x] for x in labels}
    assert copy == LabeledPoset(
        {mapping[x]: labels[x] for x in order}, [(mapping[a], mapping[b]) for b in labels for a in down[b]]
    )
    assert p.renamed({x: x for x in labels}) == p


def reference_check_mapping(a, b, m) -> bool:
    """The O(n^2) definition: a bijection keeping labels and every order relation."""
    if sorted(m) != sorted(a.nodes) or sorted(m.values()) != sorted(b.nodes):
        return False
    if any(a.label(x) != b.label(m[x]) for x in a.nodes):
        return False
    return all((x in a.downset(y)) == (m[x] in b.downset(m[y])) for x in a.nodes for y in a.nodes)


@settings(max_examples=200, deadline=None)
@given(labeled_posets(max_nodes=8), st.randoms(use_true_random=False), st.integers(0, 3))
def test_check_mapping_matches_the_definition(p, rng, damage):
    # A renamed shuffled copy, then a mapping that is right, or has two
    # images swapped, or loses or gains a node.
    names = [f"m{i}" for i in range(len(p))]
    right = dict(zip(p.nodes, rng.sample(names, len(p))))
    other = shuffled(p, right, rng.sample(list(p.nodes), len(p)))
    mapping = dict(right)
    if damage == 1 and len(p) >= 2:
        x, y = rng.sample(list(p.nodes), 2)
        mapping[x], mapping[y] = mapping[y], mapping[x]
    elif damage == 2 and p.nodes:
        del mapping[p.nodes[0]]
    elif damage == 3:
        mapping["extra"] = "m0"
    assert check_mapping(p, other, mapping) == reference_check_mapping(p, other, mapping)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_on_grid_face_posets_returns_the_recursive_searchs_witness(seed):
    # A torus against a renamed shuffled copy, and a renamed Klein bottle
    # against the torus: equal profiles, told apart by the search alone.
    # The verdict is the reference's, a witness is an isomorphism, and a
    # poset compared with itself is mapped by the identity.
    rng = random.Random(seed)
    torus, klein = grid_poset(3), grid_poset(3, klein=True)
    names = rng.sample([f"x{i}" for i in range(len(torus))], len(torus))
    copy = shuffled(torus, dict(zip(torus.nodes, names)), rng.sample(list(torus.nodes), len(torus)))
    klein = klein.renamed(dict(zip(klein.nodes, names)))
    assert invariant_profile(klein) == invariant_profile(torus)
    for a, b, isomorphic in ((torus, copy, True), (klein, torus, False)):
        expected = reference_search(a, b)
        assert (expected is not None) == isomorphic
        found = search(a, b)
        assert found == expected
        assert found is None or check_mapping(a, b, found)
    assert search(copy, copy) == {x: x for x in copy.nodes}


@contextmanager
def within(seconds: float):
    """Fail the test once ``seconds`` of wall time pass.  The failure carries
    no traceback: one raised from a signal handler can point at no line."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"took more than {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def coordinate_free(p: LabeledPoset, rng: random.Random, prefix: str) -> LabeledPoset:
    """p under names ``prefix{i}`` drawn at random, declared in a shuffled order."""
    names = rng.sample([f"{prefix}{i}" for i in range(len(p))], len(p))
    return shuffled(p, dict(zip(p.nodes, names)), rng.sample(list(p.nodes), len(p)))


@pytest.mark.parametrize(
    "case, seed",
    [("torus", seed) for seed in range(1, 6)] + [("klein", seed) for seed in (1, 2)] + [("cycles", 0)],
)
def test_coordinate_free_pairs_are_decided_quickly(case, seed):
    # Names that carry no coordinates give an order by name nothing to
    # follow; an order that follows the poset decides each of these well
    # inside the budget (a search in name order took 0.7 s on one and more
    # than 2 s on each of the others).
    rng = random.Random(seed)
    if case == "cycles":
        a, b, isomorphic = cycles([28], "a"), cycles([14, 14], "b"), False
    else:
        a = coordinate_free(grid_poset(6) if case == "torus" else grid_poset(5, klein=True), rng, "x")
        b, isomorphic = coordinate_free(grid_poset(6 if case == "torus" else 5), rng, "y"), case == "torus"
    with within(2.0):
        verdict = is_isomorphic(a, b)
    assert verdict.isomorphic == isomorphic
    if isomorphic:
        assert check_mapping(a, b, verdict.mapping_dict())
    else:
        assert verdict.certificate == "invariant profiles agree but no label-preserving order isomorphism exists"


@pytest.mark.parametrize("lengths, other", [([4, 4], [5, 3]), ([10], [5, 5])])
def test_unions_of_cycles_are_told_apart_quickly(lengths, other):
    # Every node has the signature of every other node of its label, so only
    # the search can decide; it used to try every pairing of the cycles.
    with searches_checked() as found:
        verdict = is_isomorphic(cycles(lengths, "a"), cycles(other, "b"))
    assert found == [False]
    assert not verdict.isomorphic
    assert verdict.certificate == "invariant profiles agree but no label-preserving order isomorphism exists"


@pytest.mark.parametrize("declared", ["top_down", "shuffled"])
def test_covers_of_a_long_chain_do_not_depend_on_declaration_order(declared):
    names = [f"n{i}" for i in range(1200)]
    order = names[::-1] if declared == "top_down" else random.Random(5).sample(names, len(names))
    p = LabeledPoset({x: 0 for x in order}, [(names[i], names[i + 1]) for i in range(1199)])
    assert p.covers() == sorted((names[i], names[i + 1]) for i in range(1199))


def test_cyclic_relations_name_the_first_node_on_the_cycle():
    with pytest.raises(ValueError, match=r"^not antisymmetric: b <= c and c <= b$"):
        LabeledPoset({"a": 0, "b": 0, "c": 0, "d": 0}, [("a", "b"), ("d", "c"), ("c", "d"), ("b", "c"), ("d", "b")])


def reference_antisymmetry(labels, relations) -> str | None:
    """The per-node check, on the depth-first down-sets: the first node in
    declaration order whose down-set and up-set share another node, named
    with the first such node; None when the relations are antisymmetric."""
    nodes = list(labels)
    down = reference_downsets(labels, relations)
    for a in nodes:
        if cycle := [b for b in nodes if b != a and b in down[a] and a in down[b]]:
            return f"not antisymmetric: {a} <= {cycle[0]} and {cycle[0]} <= {a}"
    return None


@st.composite
def digraph_inputs(draw, max_nodes: int = 8):
    """Labels (in a shuffled declaration order) and relations between
    distinct nodes: upward only when ``acyclic`` is drawn, any way otherwise,
    so cycles of every length turn up."""
    count = draw(st.integers(0, max_nodes))
    names = draw(st.permutations([f"n{i}" for i in range(count)]))
    labels = {name: draw(st.integers(0, 3)) for name in names}
    acyclic = draw(st.booleans())
    pairs = [(f"n{i}", f"n{j}") for i in range(count) for j in range(count) if (i < j if acyclic else i != j)]
    relations = draw(st.lists(st.sampled_from(pairs), max_size=2 * count)) if pairs else []
    return labels, relations


@settings(max_examples=300, deadline=None)
@given(digraph_inputs())
def test_antisymmetry_refusal_matches_the_per_node_check(inputs):
    labels, relations = inputs
    expected = reference_antisymmetry(labels, relations)
    text = "".join(f"node {x} {l}\n" for x, l in labels.items()) + "".join(f"lt {a} {b}\n" for a, b in relations)
    for build in (lambda: LabeledPoset(labels, relations), lambda: parse_poset(text)):
        try:
            p = build()
        except ValueError as err:
            assert str(err) == expected
        else:
            assert expected is None
            assert p.nodes == tuple(labels)
