"""Orbit replacement: choice validation, application, enumeration of the
admissible reconnections, the three structural claims relating the complexes
before and after, and full resolution to gradient-like systems."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msflow import (
    ChoiceDescriptor,
    ChoiceError,
    ConnectionMap,
    apply_choice,
    betti,
    build_complex,
    census,
    check_d2,
    enumerate_choices_2d,
    parse,
    parse_choice,
    resolve_all,
    resolve_all_detailed,
    serialize,
    serialize_choice,
    validate,
    verify_franks_claims,
)
from msflow import ParseError
from msflow.perturb import validate_choice

from conftest import load_fixture, random_valid_system


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
    # q sits at index 1; a q -> saddle connection would need u+s = 1+1 >= 3
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p", q_name="q",
        p_out={"q0": 1, "q1": 1, "q2": 1, "s": 2}, q_out={"s": 2},
    )
    with pytest.raises(ChoiceError) as exc:
        validate_choice(fig3, d)
    assert exc.value.constraint == "dimension-rule"


# ---------------------------------------------------------------------------
# apply_choice


def test_apply_choice_reproduces_the_depicted_replacements(fig3):
    choices = fig3_choices(fig3)
    by_q_out = {c.q_out: c for c in choices}
    first = apply_choice(fig3, by_q_out[(("q0", 1), ("q1", 1))])
    second = apply_choice(fig3, by_q_out[(("q0", 1), ("q2", 1))])
    assert first.system.same_structure(load_fixture("fig3-X1.msf"))
    assert second.system.same_structure(load_fixture("fig3-X2.msf"))


def test_apply_choice_reproduces_all_three_bundled_variants(fig4):
    wanted = {
        "fig4-X1.msf": (("q0", 1), ("q1", 1)),
        "fig4-X2.msf": (("q0", 1), ("q2", 1)),
        "fig4-X3.msf": (("q0", 1), ("q3", 1)),
    }
    by_q_out = {c.q_out: c for c in enumerate_choices_2d(fig4, "gamma")}
    for name, q_out in wanted.items():
        result = apply_choice(fig4, by_q_out[q_out])
        assert result.system.same_structure(load_fixture(name)), name


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
    assert result.system.names == ("q0", "q1", "q2", "s", "p_gamma", "q_gamma")
    assert [(e.kind, e.index) for e in result.system.elements[-2:]] == [("rest", 2), ("rest", 1)]


def test_new_pair_coefficient_vanishes_in_the_complex(fig3):
    # c(p, q) = 2, so the boundary entry pairing p with q is 0 mod 2.
    for choice in fig3_choices(fig3):
        result = apply_choice(fig3, choice, check_claims=False)
        c = build_complex(result.system)
        col = [b.label for b in c.basis(2)].index("p_gamma")
        row = [b.label for b in c.basis(1)].index("q_gamma")
        assert c.boundary(2)[row, col] == 0


def test_apply_choice_results_validate(fig3):
    for choice in fig3_choices(fig3):
        result = apply_choice(fig3, choice, check_claims=False)
        assert validate(result.system) == []
        assert result.system.is_gradient_like()


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
        assert choice.p_out_counts() == {"q0": 1, "q1": 1, "q2": 1, "s": 2}
        assert sum(choice.q_out_counts().values()) == 2


def test_single_sink_orbit_enumerates_one_double_connection():
    s = parse("dim 2\nrest q 0\norbit g 1 untwisted\nconn g q 1\n")
    (only,) = enumerate_choices_2d(s, "g")
    assert only.q_out_counts() == {"q": 2}


def test_attracting_orbit_enumeration_mirrors():
    for twist, degree in (("untwisted", 0), ("twisted", 2)):
        s = parse(
            f"dim 2\nrest a 2\nrest b 2\norbit g 0 {twist}\n"
            "conn a g 1\nconn b g 1\n"
        )
        choices = enumerate_choices_2d(s, "g")
        assert len(choices) == 3  # multisets of size 2 over {a, b}
        for choice in choices:
            assert choice.q_in_counts() == {"a": 1, "b": 1}
            assert sum(choice.p_in_counts().values()) == 2
            result = apply_choice(s, choice)
            assert validate(result.system) == []
            assert result.attaching_degree == degree
            # index-0 orbit: new saddle p (index 1) and new sink q (index 0)
            assert (result.system.element("p_g").index, result.system.element("q_g").index) == (1, 0)
            assert result.claims_report.case == "attractor"
            assert result.claims_report.all_passed


def test_default_names_skip_names_already_taken():
    s = parse(
        "dim 2\nrest p_g 0\nrest q_g 0\nrest q_g_2 0\norbit g 1 untwisted\n"
        "conn g p_g 1\nconn g q_g 1\nconn g q_g_2 1\n"
    )
    for choice in enumerate_choices_2d(s, "g"):
        assert (choice.p_name, choice.q_name) == ("p_g_2", "q_g_3")
        assert validate(apply_choice(s, choice).system) == []
    explicit = enumerate_choices_2d(s, "g", p_name="p", q_name="q")
    assert {(c.p_name, c.q_name) for c in explicit} == {("p", "q")}


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
    assert len(resolve_all(renamed)) == 6


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
    assert outcomes["ii"].witnesses  # names the offending cell
    assert not report.all_passed


# ---------------------------------------------------------------------------
# resolve_all


def test_resolve_all_fig3(fig3):
    systems = resolve_all(fig3)
    assert len(systems) == 6
    for out in systems:
        assert out.is_gradient_like()
        assert validate(out) == []
        assert check_d2(build_complex(out)) == []


def test_resolve_all_on_gradient_input_is_identity():
    s = load_fixture("fig4-X2.msf")
    (only,) = resolve_all(s)
    assert only.same_structure(s)


def test_resolve_all_detailed_pairs_choices_with_systems(fig3):
    detailed = resolve_all_detailed(fig3)
    assert len(detailed) == 6
    for system, choices in detailed:
        assert len(choices) == 1 and choices[0].orbit == "gamma"
        assert system.same_structure(apply_choice(fig3, choices[0], check_claims=False).system)


def test_resolve_all_needs_descriptors_outside_dimension_two(fig6):
    with pytest.raises(ValueError):
        resolve_all(fig6)


def test_resolve_all_with_explicit_descriptor_in_three_dimensions(fig6):
    # Only the index-2 rest point p1 may feed the new index-1 saddle; the
    # other feeders drop to the new sink.
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p_g", q_name="q_g",
        p_in={"p1": 2}, q_in={"p2": 1, "p3": 1, "s1": 1, "s2": 2},
    )
    (pair,) = resolve_all_detailed(fig6, {"gamma": d})
    system, choices = pair
    assert choices == (d,)
    assert system.is_gradient_like()
    assert validate(system) == []
    assert system.connections.count("p_g", "q_g") == 2


def test_claims_are_not_computed_outside_dimension_two(fig6):
    d = ChoiceDescriptor(
        orbit="gamma", p_name="p_g", q_name="q_g",
        p_in={"p1": 2}, q_in={"p2": 1, "p3": 1, "s1": 1, "s2": 2},
    )
    result = apply_choice(fig6, d)
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
    (resolved,) = resolve_all(s)
    assert resolved.is_gradient_like()
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
