"""Orbit replacement: choice validation, application, enumeration of the
admissible reconnections, the three structural claims relating the complexes
before and after, and full resolution to gradient-like systems."""

import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msflow import (
    ChoiceDescriptor,
    ChoiceError,
    ConnectionMap,
    InvalidSystemError,
    apply_choice,
    betti,
    build_complex,
    census,
    check_d2,
    enumerate_choices_2d,
    parse,
    parse_choice,
    resolve_all_detailed,
    serialize,
    validate,
    verify_franks_claims,
)
from msflow import ParseError
from msflow import perturb as perturb_module
from msflow.cli import descriptor_payload
from msflow.perturb import _replace_orbit, _resolution_tree, validate_choice

from conftest import (
    load_fixture,
    orbits_over_sinks,
    random_valid_system,
    serialize_choice,
    soup_systems,
    structure,
    systems_with_orbits,
    unstable_dim,
)
from test_poset import reference_census


def fig3_choices(fig3):
    return enumerate_choices_2d(fig3, "gamma")


# ---------------------------------------------------------------------------
# choice validation


def test_choice_must_name_an_orbit(fig3):
    d = ChoiceDescriptor(orbit="s", p_name="p", q_name="q")
    for check in (validate_choice, apply_choice):
        with pytest.raises(ChoiceError) as exc:
            check(fig3, d)
        assert exc.value.constraint == "orbit"


def test_choice_rejects_name_collisions(fig3):
    p_out = {"q0": 1, "q1": 1, "q2": 1, "s": 2}
    for p_name, q_name in (("q0", "q"), ("p", "s"), ("p", "p")):
        d = ChoiceDescriptor(orbit="gamma", p_name=p_name, q_name=q_name, p_out=p_out, q_out={"q0": 2})
        for check in (validate_choice, apply_choice):
            with pytest.raises(ChoiceError) as exc:
                check(fig3, d)
            assert exc.value.constraint == "name-collision"


def test_choice_support_must_be_downstream(fig3):
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p", q_name="q",
        p_out={"q0": 1, "q1": 1, "q2": 1, "s": 2},
        q_out={"zzz": 2},
    )
    with pytest.raises(ChoiceError) as exc:
        validate_choice(fig3, d)
    assert exc.value.constraint == "support"


def test_choice_must_cover_every_neighbour(fig3):
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p", q_name="q",
        p_out={"q0": 1, "q1": 1, "s": 2}, q_out={"q0": 2},  # q2 dropped
    )
    with pytest.raises(ChoiceError) as exc:
        validate_choice(fig3, d)
    assert exc.value.constraint == "coverage"
    assert "q2" in str(exc.value)


def test_choice_respects_dimension_rule(fig3):
    # q sits at index 1; a q -> saddle connection would need u+s = 1+1 >= 3.
    # validate_choice leaves the flow rules to validate, which apply_choice
    # runs on the system it builds.
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p", q_name="q",
        p_out={"q0": 1, "q1": 1, "q2": 1, "s": 2}, q_out={"s": 2},
    )
    validate_choice(fig3, d)
    with pytest.raises(ChoiceError) as exc:
        apply_choice(fig3, d)
    assert exc.value.constraint == "dimension-rule"
    assert str(exc.value) == "dimension-rule: c(q,s)=2 requires u+s >= 3, got u(q)=1, s(s)=1"


def reference_dimension_rule(s, d) -> bool:
    """Whether a new connection of d breaks u + s >= n + 1: the loop
    validate_choice once ran by hand, kept here as the reference."""
    n = s.dimension
    k = s.element(d.orbit).index
    u_dims = {d.p_name: k + 1, d.q_name: k}
    for tag, counts in (("p_out", d.p_out), ("q_out", d.q_out)):
        new_src = d.p_name if tag == "p_out" else d.q_name
        for target, _ in counts:
            if u_dims[new_src] + n - s.element(target).index < n + 1:
                return True
    for tag, counts in (("p_in", d.p_in), ("q_in", d.q_in)):
        new_dst = d.p_name if tag == "p_in" else d.q_name
        for source, _ in counts:
            if unstable_dim(s.element(source)) + n - u_dims[new_dst] < n + 1:
                return True
    return False


@st.composite
def neighbour_choices(draw):
    """A random valid 2D or 3D system with an orbit, and a descriptor that
    hands each of the orbit's neighbours to p, q or both, with any counts."""
    s = random_valid_system(random.Random(draw(st.integers(0, 2**32))))
    assume(s.orbits())
    orbit = draw(st.sampled_from(s.orbits())).name
    maps = {"p_out": {}, "q_out": {}, "p_in": {}, "q_in": {}}
    for names, p_map, q_map in (
        (s.connections.outgoing(orbit), maps["p_out"], maps["q_out"]),
        (s.connections.incoming(orbit), maps["p_in"], maps["q_in"]),
    ):
        for name in names:
            for target in draw(st.sampled_from([(p_map,), (q_map,), (p_map, q_map)])):
                target[name] = draw(st.integers(1, 3))
    return s, ChoiceDescriptor(orbit=orbit, p_name="p_new", q_name="q_new", **maps)


@settings(max_examples=400, deadline=None)
@given(neighbour_choices())
def test_apply_choice_refuses_exactly_what_the_dimension_rule_refuses(case):
    s, d = case
    refused = reference_dimension_rule(s, d)
    try:
        result = apply_choice(s, d)
    except ChoiceError as err:
        assert refused and err.constraint == "dimension-rule", d.summary()
        # An attractor or repeller rule broken by a new connection is always
        # broken with the dimension rule on that same connection, which
        # validate reports first.
        violations = validate(_replace_orbit(s, d))
        assert violations[0].rule == "dimension-rule"
        assert {v.rule for v in violations} <= {"dimension-rule", "attractor-rule", "repeller-rule"}
    else:
        assert not refused, d.summary()
        assert validate(result.system) == []


# ---------------------------------------------------------------------------
# apply_choice


def test_apply_choice_reproduces_the_depicted_replacements(fig3):
    choices = fig3_choices(fig3)
    by_q_out = {c.q_out: c for c in choices}
    first = apply_choice(fig3, by_q_out[(("q0", 1), ("q1", 1))])
    second = apply_choice(fig3, by_q_out[(("q0", 1), ("q2", 1))])
    assert structure(first.system) == structure(load_fixture("fig3-X1.msf"))
    assert structure(second.system) == structure(load_fixture("fig3-X2.msf"))


def test_apply_choice_reproduces_all_three_bundled_variants(fig4):
    wanted = {
        "fig4-X1.msf": (("q0", 1), ("q1", 1)),
        "fig4-X2.msf": (("q0", 1), ("q2", 1)),
        "fig4-X3.msf": (("q0", 1), ("q3", 1)),
    }
    by_q_out = {c.q_out: c for c in enumerate_choices_2d(fig4, "gamma")}
    for name, q_out in wanted.items():
        result = apply_choice(fig4, by_q_out[q_out])
        assert structure(result.system) == structure(load_fixture(name)), name


def test_apply_choice_is_local(fig4):
    before = fig4.connections
    result = apply_choice(fig4, enumerate_choices_2d(fig4, "gamma")[0])
    after = result.system.connections
    touched = {"gamma", "p_gamma", "q_gamma"}
    for (src, dst), count in before.items():
        if src in touched or dst in touched:
            continue
        assert after.count(src, dst) == count
    for (src, dst), count in after.items():
        if src in touched or dst in touched:
            continue
        assert before.count(src, dst) == count


def test_apply_choice_records_double_connection_and_degree(fig3):
    result = apply_choice(fig3, fig3_choices(fig3)[0])
    assert result.system.connections.count("p_gamma", "q_gamma") == 2
    assert result.attaching_degree == 0  # untwisted orbit
    # gamma was declared last; p (index 2) and q (index 1) take its slot in order
    assert [e.name for e in result.system.elements] == ["q0", "q1", "q2", "s", "p_gamma", "q_gamma"]
    assert [(e.kind, e.index) for e in result.system.elements[-2:]] == [("rest", 2), ("rest", 1)]


def test_new_pair_coefficient_vanishes_in_the_complex(fig3):
    # c(p, q) = 2, so the boundary entry pairing p with q is 0 mod 2.
    for choice in fig3_choices(fig3):
        result = apply_choice(fig3, choice)
        c = build_complex(result.system)
        col = [b.label for b in c.basis(2)].index("p_gamma")
        row = [b.label for b in c.basis(1)].index("q_gamma")
        assert c.boundary(2)[row, col] == 0


def test_apply_choice_results_validate(fig3):
    for choice in fig3_choices(fig3):
        result = apply_choice(fig3, choice)
        assert validate(result.system) == []
        assert not result.system.orbits()


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert len(fig3_choices(load_fixture("fig3.msf"))) == 6
    assert len(enumerate_choices_2d(load_fixture("fig4.msf"), "gamma")) == 10
    assert len(enumerate_choices_2d(load_fixture("fig5.msf"), "gamma")) == 10


def test_enumeration_is_deterministic(fig3):
    assert fig3_choices(fig3) == fig3_choices(fig3)


def test_enumeration_contains_the_depicted_choices(fig3):
    q_outs = {c.q_out for c in fig3_choices(fig3)}
    assert (("q0", 1), ("q1", 1)) in q_outs
    assert (("q0", 1), ("q2", 1)) in q_outs


def test_enumeration_source_inherits_downstream(fig3):
    for choice in fig3_choices(fig3):
        assert dict(choice.p_out) == {"q0": 1, "q1": 1, "q2": 1, "s": 2}
        assert sum(dict(choice.q_out).values()) == 2


def test_single_sink_orbit_enumerates_one_double_connection():
    s = parse("dim 2\nrest q 0\norbit g 1 untwisted\nconn g q 1\n")
    (only,) = enumerate_choices_2d(s, "g")
    assert dict(only.q_out) == {"q": 2}


def test_attracting_orbit_enumeration_mirrors():
    for twist, degree in (("untwisted", 0), ("twisted", 2)):
        s = parse(
            f"dim 2\nrest a 2\nrest b 2\norbit g 0 {twist}\n"
            "conn a g 1\nconn b g 1\n"
        )
        choices = enumerate_choices_2d(s, "g")
        assert len(choices) == 3  # multisets of size 2 over {a, b}
        for choice in choices:
            assert dict(choice.q_in) == {"a": 1, "b": 1}
            assert sum(dict(choice.p_in).values()) == 2
            result = apply_choice(s, choice)
            assert validate(result.system) == []
            assert result.attaching_degree == degree
            # index-0 orbit: new saddle p (index 1) and new sink q (index 0)
            assert (result.system.element("p_g").index, result.system.element("q_g").index) == (1, 0)
            assert result.claims_report.case == "attractor"
            assert result.claims_report.all_passed


def test_enumerated_descriptors_are_the_public_constructors_ones():
    # Landing sinks and feeders are declared against name order (a feeder
    # may be a repelling orbit), so a pair side left in declaration order
    # would differ from the constructor's sorted one.  Each choice shares
    # its orbit's down or up side.
    repelling = parse("dim 2\nrest z 0\nrest m 0\nrest a 0\norbit g 1 untwisted\nconn g z 1\nconn g m 2\nconn g a 1\n")
    attracting = parse(
        "dim 2\nrest z 2\norbit r 1 twisted\nrest a 2\norbit h 0 untwisted\nrest s 0\n"
        "conn z h 1\nconn r h 1\nconn a h 3\nconn r s 1\n"
    )
    for s, orbit, shared, pool in ((repelling, "g", "p_out", "zma"), (attracting, "h", "q_in", "zra")):
        down, up = s.connections.outgoing(orbit), s.connections.incoming(orbit)
        got = enumerate_choices_2d(s, orbit)
        pairs = [Counter(pair) for pair in combinations_with_replacement(pool, 2)]
        if orbit == "g":
            expected = [ChoiceDescriptor(orbit, "p_g", "q_g", p_out=down, q_out=pair) for pair in pairs]
        else:
            expected = [ChoiceDescriptor(orbit, "p_h", "q_h", q_in=up, p_in=pair) for pair in pairs]
        assert len(got) == 6 and len({id(getattr(d, shared)) for d in got}) == 1
        for d, e in zip(got, expected, strict=True):
            assert d == e and hash(d) == hash(e) and repr(d) == repr(e) and d.summary() == e.summary()
            assert json.dumps(descriptor_payload(d)) == json.dumps(descriptor_payload(e))


def test_default_names_skip_names_already_taken():
    s = parse(
        "dim 2\nrest p_g 0\nrest q_g 0\nrest q_g_2 0\norbit g 1 untwisted\n"
        "conn g p_g 1\nconn g q_g 1\nconn g q_g_2 1\n"
    )
    for choice in enumerate_choices_2d(s, "g"):
        assert (choice.p_name, choice.q_name) == ("p_g_2", "q_g_3")
        assert validate(apply_choice(s, choice).system) == []


def test_default_names_are_unchanged_without_a_clash(fig3):
    assert {(c.p_name, c.q_name) for c in enumerate_choices_2d(fig3, "gamma")} == {("p_gamma", "q_gamma")}


def test_census_of_fig3_with_a_sink_named_like_the_new_source(fig3):
    text = serialize(fig3).replace("rest q0 0", "rest p_gamma 0").replace("conn gamma q0 1", "conn gamma p_gamma 1")
    renamed = parse(text)
    assert renamed.has_element("p_gamma") and not renamed.has_element("q0")
    report = census(renamed)
    assert (report.total, len(report.classes)) == (6, 4)
    assert sorted(cls.size for cls in report.classes) == sorted(cls.size for cls in census(fig3).classes)
    assert {d.p_name for cls in report.classes for (d,) in cls.members} == {"p_gamma_2"}
    assert len(resolve_all_detailed(renamed)) == 6


def test_enumeration_rejects_unsupported_inputs(fig6, fig5):
    with pytest.raises(ValueError):
        enumerate_choices_2d(fig6, "gamma")  # dimension 3
    with pytest.raises(ValueError):
        enumerate_choices_2d(fig5, "s1")  # not an orbit


# ---------------------------------------------------------------------------
# the three claims


@pytest.mark.parametrize("fixture", ["fig3.msf", "fig5.msf"])
def test_all_enumerated_choices_pass_all_claims(fixture):
    s = load_fixture(fixture)
    for choice in enumerate_choices_2d(s, "gamma"):
        report = apply_choice(s, choice).claims_report
        assert report is not None and report.case == "repeller"
        assert [o.name for o in report.outcomes] == ["i", "ii", "iii"]
        assert report.all_passed, choice.summary()
        assert report.products_equal and report.products_zero


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_every_choice_on_random_systems_validates_and_passes_the_claims(seed):
    s = random_valid_system(random.Random(seed))
    assume(s.dimension == 2 and s.orbits())
    for orbit in s.orbits():
        for choice in enumerate_choices_2d(s, orbit.name):
            result = apply_choice(s, choice)
            assert validate(result.system) == [], choice.summary()
            assert result.claims_report.all_passed, choice.summary()


def test_claims_report_carries_witnesses(fig3):
    report = apply_choice(fig3, fig3_choices(fig3)[0]).claims_report
    for outcome in report.outcomes:
        assert outcome.passed and outcome.witnesses == ()


def test_corrupted_result_fails_the_middle_claim(fig4):
    by_q_out = {c.q_out: c for c in enumerate_choices_2d(fig4, "gamma")}
    result = apply_choice(fig4, by_q_out[(("q0", 1), ("q1", 1))])
    assert result.claims_report.all_passed

    # Feed the new saddle from a source the orbit never knew: the middle
    # matrices stop agreeing and the claim check must notice.
    counts = dict(result.system.connections.items())
    counts[("p1", "q_gamma")] = 1
    corrupted = replace(result, system=replace(result.system, connections=ConnectionMap(counts)))
    report = verify_franks_claims(fig4, corrupted)
    outcomes = {o.name: o for o in report.outcomes}
    assert not outcomes["ii"].passed
    assert outcomes["ii"].witnesses == ("d_2[gamma-, p1]: 0 vs 1",)  # names the offending cell
    # The new entry also sits in the row of q_gamma, gamma-'s counterpart.
    assert outcomes["i"].witnesses == ("d_2[q_gamma, p1] = 1",)
    assert not report.all_passed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_line_witnesses_name_the_ones_of_one_row_or_column(seed):
    cx = build_complex(random_valid_system(random.Random(seed)))
    for k in range(1, cx.top_degree + 1):
        ones = cx.boundary(k).nonzero_entries()
        for axis, line in enumerate((cx.basis(k - 1), cx.basis(k))):
            for at, x in enumerate(line):
                expected = tuple(
                    f"d_{k}[{cx.basis(k - 1)[i].label}, {cx.basis(k)[j].label}] = 1" for i, j in ones if (i, j)[axis] == at
                )
                assert perturb_module._line_witnesses(cx, k, axis, x) == expected


# ---------------------------------------------------------------------------
# resolve_all_detailed


def test_resolve_all_fig3(fig3):
    systems = resolve_all_detailed(fig3)
    assert len(systems) == 6
    for out, _ in systems:
        assert not out.orbits()
        assert validate(out) == []
        assert check_d2(build_complex(out)) == []


def test_resolve_all_on_gradient_input_is_identity():
    s = load_fixture("fig4-X2.msf")
    (only,) = resolve_all_detailed(s)
    assert only == (s, ())


def test_resolve_all_detailed_pairs_choices_with_systems(fig3):
    detailed = resolve_all_detailed(fig3)
    assert len(detailed) == 6
    for system, choices in detailed:
        assert len(choices) == 1 and choices[0].orbit == "gamma"
        assert system == apply_choice(fig3, choices[0]).system


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_every_resolution_of_a_random_valid_system_validates_clean(seed):
    # Enumerated choices on a valid input skip validate_choice; the systems
    # they give must still pass every rule, and equal apply_choice's.
    s = random_valid_system(random.Random(seed))
    assume(s.dimension == 2 and s.orbits())
    for system, choices in resolve_all_detailed(s):
        assert validate(system) == [], [d.summary() for d in choices]
        checked = s
        for d in choices:
            checked = apply_choice(checked, d).system
        assert system == checked


def reference_resolutions(s):
    """Each orbit's choices enumerated afresh on every partial resolution."""
    results = [(s, ())]
    for orbit in [e.name for e in s.elements if e.is_orbit]:
        results = [
            (_replace_orbit(current, d), chosen + (d,))
            for current, chosen in results
            for d in enumerate_choices_2d(current, orbit)
        ]
    return results


def distinct_neighbourhoods(s) -> int:
    """Summed over the orbits, how many distinct (outgoing, incoming) counts
    each orbit has across the partial resolutions that reach it."""
    total, partials = 0, [s]
    for orbit in [e.name for e in s.elements if e.is_orbit]:
        cms = [c.connections for c in partials]
        total += len({(frozenset(cm.outgoing(orbit).items()), frozenset(cm.incoming(orbit).items())) for cm in cms})
        partials = [_replace_orbit(c, d) for c in partials for d in enumerate_choices_2d(c, orbit)]
    return total


def counting_enumeration(monkeypatch) -> list:
    """Patch enumerate_choices_2d where resolve_all_detailed calls it; the
    returned list gets one entry per call."""
    calls, original = [], perturb_module.enumerate_choices_2d

    def counted(s, orbit):
        calls.append(orbit)
        return original(s, orbit)

    monkeypatch.setattr(perturb_module, "enumerate_choices_2d", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(systems_with_orbits(feeding=True))
def test_shared_enumeration_matches_the_per_partial_one(s):
    # A repelling orbit feeds an attracting one, so the attracting orbit's
    # upstream counts, and with them its choices, differ between partial
    # resolutions; choices are enumerated once per distinct neighbourhood.
    assume(len(reference_resolutions(s)) <= 200)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counting_enumeration(monkeypatch)
        got = resolve_all_detailed(s)
    assert got == reference_resolutions(s)
    assert len(calls) == distinct_neighbourhoods(s) > len(s.orbits())


def test_family_enumerates_each_orbit_once(monkeypatch):
    # Three repelling orbits over six sinks, each over three of them: no
    # orbit's neighbourhood changes as the others are resolved, so three
    # enumerations serve all 216 resolutions (1 + 6 + 36 = 43, one per
    # partial resolution, before they were shared).
    s = orbits_over_sinks(3, 6, 3)
    calls = counting_enumeration(monkeypatch)
    got = resolve_all_detailed(s)
    assert calls == ["g0", "g1", "g2"]
    assert len(got) == 216 and got == reference_resolutions(s)


def reference_tree(s) -> list:
    """Each node's choices, depth-first and before its children, with the
    next orbit's choices enumerated afresh on the node's own partial
    resolution."""
    orbits = [e.name for e in s.elements if e.is_orbit]

    def walk(current, chosen):
        yield chosen
        if len(chosen) < len(orbits):
            for d in enumerate_choices_2d(current, orbits[len(chosen)]):
                yield from walk(_replace_orbit(current, d), chosen + (d,))

    return list(walk(s, ()))


@settings(max_examples=150, deadline=None)
@given(systems_with_orbits(feeding=True))
def test_the_tree_yields_every_node_as_a_per_partial_walk_does(s):
    # Internal nodes included: census reads each depth's choice off them.
    assume(len(reference_resolutions(s)) <= 200)
    assert list(_resolution_tree(s)) == reference_tree(s)


FED_ATTRACTOR_FIRST = (
    "dim 2\nrest r 2\norbit a 0 untwisted\norbit g 1 untwisted\nrest q0 0\n"
    "conn g a 2\nconn g q0 1\nconn r a 1\n"
)


def test_an_orbit_feeding_an_earlier_one_is_keyed_on_its_rerouted_outflow(monkeypatch):
    # The attracting orbit a is declared, so resolved, before the repelling
    # orbit g that feeds it: g's downstream edge to a goes to a's q and p,
    # and a's three choices feed p_a from g none, once or twice, so g has
    # one neighbourhood per choice of a.
    s = parse(FED_ATTRACTOR_FIRST)
    calls = counting_enumeration(monkeypatch)
    got = resolve_all_detailed(s)
    assert calls == ["a", "g", "g", "g"]
    assert len(calls) == distinct_neighbourhoods(s)
    assert len(got) == 9 and got == reference_resolutions(s)
    assert list(_resolution_tree(s)) == reference_tree(s)
    report = census(s)
    assert len(report.classes) == 9
    assert [cls.members for cls in report.classes] == reference_census(s)


def counting_builds(monkeypatch) -> list:
    """Patch _replace_orbit where the tree walk and resolve_all_detailed call
    it; the returned list gets the orbit of each call."""
    built, original = [], perturb_module._replace_orbit
    monkeypatch.setattr(perturb_module, "_replace_orbit", lambda s, d: built.append(d.orbit) or original(s, d))
    return built


def test_resolve_all_detailed_builds_each_system_once(monkeypatch):
    # Each node below the root is built once from its parent, 6 + 36 + 216 =
    # 258.  The tree builds a partial resolution of its own only to enumerate
    # a new neighbourhood, folding the choices taken into s: 0 + 1 + 2 = 3
    # builds for g0, g1 and g2.
    built = counting_builds(monkeypatch)
    assert len(resolve_all_detailed(orbits_over_sinks(3, 6, 3))) == 216
    assert len(built) == (6 + 36 + 216) + (0 + 1 + 2) == 261
    assert built.count("g2") == 216


def test_census_builds_no_leaf_system(monkeypatch):
    # census walks the same tree as resolve_all_detailed, sharing each
    # orbit's choices, and builds a partial resolution only where a new
    # neighbourhood's choices are enumerated, folding the choices taken into
    # s: 0 + 1 + 2 = 3 for g0, g1 and g2, none of the 216 leaves.
    calls = counting_enumeration(monkeypatch)
    built = counting_builds(monkeypatch)
    assert census(orbits_over_sinks(3, 6, 3)).total == 216
    assert calls == ["g0", "g1", "g2"]
    assert len(built) == 0 + 1 + 2


def test_a_gradient_input_is_its_own_resolution(monkeypatch, fig3):
    # With no orbit to resolve, the one resolution is the input itself, and
    # nothing is built or enumerated.
    gradient = apply_choice(fig3, enumerate_choices_2d(fig3, "gamma")[0]).system
    calls, built = counting_enumeration(monkeypatch), counting_builds(monkeypatch)
    [(system, chosen)] = resolve_all_detailed(gradient)
    assert system is gradient and chosen == ()
    assert calls == built == []


REST_CYCLE = "dim 2\norbit g 1 untwisted\nrest s1 1\nrest s2 1\nrest q0 0\nconn g q0 1\nconn s1 s2 1\nconn s2 s1 1\nconn s1 q0 2\n"
ORBIT_INTO_SOURCE = "dim 2\norbit g 1 untwisted\nrest r 2\nrest q0 0\nconn g r 1\nconn g q0 1\n"
ATTRACTING_ORBIT_WITH_OUTFLOW = "dim 2\nrest r 2\norbit a 0 untwisted\nrest q0 0\nconn r a 1\nconn a q0 1\n"
REPELLING_ORBIT_WITH_INFLOW = "dim 2\nrest r 2\norbit g 1 untwisted\nrest q0 0\nconn r g 1\nconn g q0 1\n"


@pytest.mark.parametrize(
    "text", [ORBIT_INTO_SOURCE, ATTRACTING_ORBIT_WITH_OUTFLOW, REPELLING_ORBIT_WITH_INFLOW],
    ids=["orbit-into-source", "attracting-orbit-with-outflow", "repelling-orbit-with-inflow"],
)
@pytest.mark.parametrize("resolve", [resolve_all_detailed, census])
def test_invalid_inputs_are_refused_by_each_resolution_as_before(text, resolve):
    # Each resolution refuses the input itself, with its own violations,
    # before any choice is enumerated or applied.
    s = parse(text)
    assert validate(s)
    with pytest.raises(InvalidSystemError) as refused:
        resolve(s)
    assert str(refused.value) == str(InvalidSystemError(validate(s)))


@settings(max_examples=500, deadline=None)
@given(soup_systems())
def test_each_resolution_answers_only_a_valid_input(s):
    violations = validate(s)
    for resolve in (resolve_all_detailed, census):
        try:
            resolve(s)
        except InvalidSystemError as refused:
            assert violations and str(refused) == str(InvalidSystemError(violations))
        except ValueError:
            assert s.dimension != 2 and s.orbits()  # no enumeration outside 2D
        else:
            assert not violations


def test_a_rest_point_cycle_away_from_the_orbit_is_refused_up_front():
    # The cycle runs through two saddles, away from the orbit, so each
    # choice would be admissible; the input is refused before any is made.
    for resolve in (resolve_all_detailed, census):
        with pytest.raises(InvalidSystemError) as refused:
            resolve(parse(REST_CYCLE))
        assert str(refused.value) == (
            "system fails validation: [dimension-rule] c(s1,s2)=1 requires u+s >= 3, got u(s1)=1, s(s2)=1; "
            "[dimension-rule] c(s2,s1)=1 requires u+s >= 3, got u(s2)=1, s(s1)=1; "
            "[acyclicity] connection digraph has a cycle: s1 -> s2 -> s1"
        )


def test_resolve_all_needs_descriptors_outside_dimension_two(fig6):
    with pytest.raises(ValueError) as refused:
        resolve_all_detailed(fig6)
    assert str(refused.value) == (
        "automatic choice enumeration is unsupported in dimension 3; "
        "apply one explicit choice per orbit with apply_choice or msflow perturb --choice"
    )


# Only the index-2 rest point p1 may feed the new index-1 saddle; the other
# feeders drop to the new sink.
FIG6_CHOICE = ChoiceDescriptor(
    orbit="gamma", p_name="p_g", q_name="q_g",
    p_in={"p1": 2}, q_in={"p2": 1, "p3": 1, "s1": 1, "s2": 2},
)


def test_apply_choice_with_an_explicit_descriptor_in_three_dimensions(fig6):
    system = apply_choice(fig6, FIG6_CHOICE).system
    assert not system.orbits()
    assert validate(system) == []
    assert system.connections.count("p_g", "q_g") == 2


def test_apply_choice_refuses_an_invalid_input_outside_dimension_two(fig6):
    # No claims run in 3D, so the input must be checked by apply_choice itself.
    bad = replace(fig6, connections=ConnectionMap({**dict(fig6.connections.items()), ("q0", "r1"): 1}))
    assert len(validate(bad)) == 3
    with pytest.raises(InvalidSystemError) as refused:
        apply_choice(bad, FIG6_CHOICE)
    assert str(refused.value) == str(InvalidSystemError(validate(bad)))


def test_claims_are_not_computed_outside_dimension_two(fig6):
    result = apply_choice(fig6, FIG6_CHOICE)
    assert result.claims_report is None


def test_nested_orbit_resolution_preserves_torus_homology():
    s = parse(
        "dim 2\n"
        "orbit outer 1 untwisted\n"
        "orbit inner 0 untwisted\n"
        "conn outer inner 2\n"
    )
    assert validate(s) == []
    assert betti(build_complex(s)) == [1, 2, 1]
    ((resolved, _),) = resolve_all_detailed(s)
    assert not resolved.orbits()
    assert validate(resolved, strict=True) == []
    assert betti(build_complex(resolved)) == [1, 2, 1]


# ---------------------------------------------------------------------------
# descriptor file format


def test_choice_round_trip(fig3):
    for choice in fig3_choices(fig3):
        assert parse_choice(serialize_choice(choice)) == choice


def test_choice_round_trip_with_inbound_sections():
    d = ChoiceDescriptor(
        orbit="g", p_name="p", q_name="q",
        p_in={"a": 2}, q_in={"a": 1, "b": 1},
    )
    text = serialize_choice(d)
    assert "orbit g" in text and "new p q" in text
    assert parse_choice(text) == d


# Names a descriptor might be handed: tokens, and text a .msc line would
# split, cut at a comment mark or drop, plus values that are not text.
NAMES = st.one_of(
    st.sampled_from(["g", "p", "q", "a", "b", "9x", "a b", "p#x", "#", "", " g", "g\n", "\u2028", "\x1c"]),
    st.text(max_size=3),
    st.integers(0, 9),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(NAMES, NAMES, NAMES),
    st.lists(
        st.dictionaries(
            st.one_of(st.sampled_from("abc"), NAMES),
            st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([1.0, 1.5, "1", None])),
            max_size=3,
        ),
        min_size=4, max_size=4,
    ),
)
def test_every_descriptor_that_constructs_survives_a_round_trip(names, maps):
    try:
        d = ChoiceDescriptor(*names, *maps)
    except ValueError:
        return
    assert parse_choice(serialize_choice(d)) == d


@pytest.mark.parametrize("names, p_out", [
    (("g h", "p", "q"), {}),
    (("g", "p", "q"), {"a b": 1}),
    (("g", "p#x", "q"), {}),
    (("g", "p", ""), {}),
    ((7, "p", "q"), {}),
    (("g", "p", "q"), {7: 1}),
], ids=["orbit-space", "key-space", "p-hash", "q-empty", "orbit-int", "key-int"])
def test_descriptor_names_that_would_not_read_back_are_refused(names, p_out):
    with pytest.raises(ValueError, match="must be one token"):
        ChoiceDescriptor(*names, p_out=p_out)


def test_parse_choice_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_choice("new p q\n")  # no orbit line
    with pytest.raises(ValueError):
        parse_choice("orbit g\nnew p q\npout a 0\n")  # non-positive count
    with pytest.raises(ValueError):
        parse_choice("orbit g\nnew p q\nfrob a 1\n")  # unknown directive


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0662", "1\u0661"])
def test_parse_choice_accepts_only_ascii_digit_counts(token):
    with pytest.raises(ParseError) as exc:
        parse_choice(f"orbit g\nnew p q\npout a {token}\n")
    assert exc.value.line == 3
