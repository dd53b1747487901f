"""Flow-system model: parsing, serialization, validation and reachability."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow import (
    ConnectionMap,
    CriticalElement,
    FlowSystem,
    ParseError,
    direct_downstream,
    direct_upstream,
    parse,
    parse_choice,
    parse_poset,
    reachability,
    serialize,
    validate,
)

from conftest import all_msf_fixtures, load_fixture, random_valid_system


# ---------------------------------------------------------------------------
# element and connection basics


def test_element_index_validation():
    CriticalElement("p", "rest", 2)
    CriticalElement("g", "orbit", 0, twisted=True)
    with pytest.raises(ValueError):
        CriticalElement("p", "rest", -1)
    with pytest.raises(ValueError):
        CriticalElement("p", "rest", 1, twisted=False)  # flag is orbit-only
    with pytest.raises(ValueError):
        CriticalElement("g", "orbit", 1)  # orbits must declare twistedness
    with pytest.raises(ValueError):
        CriticalElement("2bad", "rest", 0)


def test_unstable_and_stable_dimensions():
    saddle = CriticalElement("s", "rest", 1)
    orbit = CriticalElement("g", "orbit", 1, twisted=False)
    assert saddle.unstable_dim() == 1 and saddle.stable_dim(2) == 1
    assert orbit.unstable_dim() == 2 and orbit.stable_dim(2) == 1


def test_connection_map_rejects_self_pairs_and_bad_counts():
    with pytest.raises(ValueError):
        ConnectionMap({("a", "a"): 1})
    with pytest.raises(ValueError):
        ConnectionMap({("a", "b"): 0})
    with pytest.raises(ValueError):
        ConnectionMap({("a", "b"): -2})


def test_connection_map_count_and_parity():
    m = ConnectionMap({("a", "b"): 2, ("a", "c"): 3})
    assert m.count("a", "b") == 2 and m.parity("a", "b") == 0
    assert m.count("a", "c") == 3 and m.parity("a", "c") == 1
    assert m.count("x", "y") == 0 and m.parity("x", "y") == 0
    assert m.outgoing("a") == {"b": 2, "c": 3}
    assert m.incoming("c") == {"a": 3}


# ---------------------------------------------------------------------------
# parse


def test_parse_minimal_system():
    s = parse("dim 2\nrest q0 0\nrest s1 1\nconn s1 q0 2\n")
    assert s.dimension == 2
    assert s.names == ("q0", "s1")
    assert s.connections.count("s1", "q0") == 2


def test_parse_single_orbit():
    s = parse("dim 2\norbit g 1 untwisted\n")
    (g,) = s.elements
    assert g.is_orbit and g.index == 1 and g.twisted is False


def test_parse_twisted_flag():
    s = parse("dim 2\norbit g 0 twisted\n")
    assert s.element("g").twisted is True


def test_parse_accepts_comments_blank_lines_and_metadata():
    s = parse(
        "# a comment\n"
        "dim 2\n"
        "label demo\n"
        "expect-betti 1 0 1\n"
        "\n"
        "rest q 0\n"
    )
    assert s.label == "demo"
    assert s.expected_betti == (1, 0, 1)


def test_parse_accepts_bytes():
    s = parse(b"dim 2\nrest q 0\n")
    assert s.names == ("q",)


@pytest.mark.parametrize(
    "text, needle",
    [
        ("rest q 0\n", "dim"),  # dim must come first
        ("dim 2\ndim 3\n", "duplicate"),
        ("dim 2\nconn a b 1\n", "unknown element 'a'"),
        ("dim 2\nrest q 0\nrest q 1\n", "duplicate"),
        ("dim 2\nrest a 0\nrest b 1\nconn b a 1\nconn b a 2\n", "duplicate"),
        ("dim 2\nrest a 0\nrest b 1\nconn b a 0\n", "positive"),
        ("dim 2\nrest a 0\nconn a a 1\n", "self"),
        ("dim 2\nrest a 0 extra\n", "rest"),
        ("dim 2\norbit g 1\n", "twisted"),
        ("dim 2\nfrob a b\n", "unknown directive"),
        ("dim 2\nlabel x\nlabel y\n", "duplicate"),
        ("dim 2\nexpect-betti 1 0\n", "expect-betti"),
        ("dim 2\nrest 9lives 0\n", "name"),
    ],
)
def test_parse_errors_carry_line_and_reason(text, needle):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert needle in str(exc.value)
    assert exc.value.line >= 1


def test_parse_error_reports_offending_line_number():
    with pytest.raises(ParseError) as exc:
        parse("dim 2\nrest q 0\nconn q z 1\n")
    assert exc.value.line == 3


LAX_INTEGERS = ["1_0", "+1", "\u0662", "1\u0661"]  # int() accepts all of these


@pytest.mark.parametrize("token", LAX_INTEGERS)
def test_parse_accepts_only_ascii_digit_integers(token):
    for text, line in [
        (f"dim 2\nrest a 0\nrest b 1\nconn b a {token}\n", 4),
        (f"dim 2\nrest a {token}\n", 2),
        (f"dim {token}\n", 1),
        (f"dim 2\nexpect-betti 1 {token} 1\n", 2),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line


def test_integers_longer_than_int_converts_are_parse_errors():
    long = "1" * 5000  # past sys.get_int_max_str_digits()
    for parser, text, line in [
        (parse, f"dim 2\nrest a {long}\n", 2),
        (parse_choice, f"orbit g\nnew p q\npout a {long}\n", 3),
        (parse_poset, f"node a 0\nnode b {long}\n", 2),
    ]:
        with pytest.raises(ParseError) as exc:
            parser(text)
        assert exc.value.line == line


def test_parse_does_not_enforce_semantic_rules():
    # Index out of range and a saddle-to-saddle connection parse fine; they
    # are the validator's business.
    s = parse("dim 2\nrest p 5\nrest a 1\nrest b 1\nconn a b 1\n")
    assert validate(s)  # non-empty


# ---------------------------------------------------------------------------
# serialize


def test_serialize_empty_system():
    assert serialize(FlowSystem(dimension=3, elements=())) == "dim 3\n"


def test_serialize_orders_elements_by_declaration_and_conns_by_name():
    s = parse(
        "dim 2\nrest z 2\nrest a 0\norbit g 1 untwisted\n"
        "conn z a 1\nconn g a 1\n"
    )
    text = serialize(s)
    lines = text.splitlines()
    assert lines[0] == "dim 2"
    assert lines[1:4] == ["rest z 2", "rest a 0", "orbit g 1 untwisted"]
    assert lines[4:] == ["conn g a 1", "conn z a 1"]
    assert text.endswith("\n")


def test_serialize_twisted_orbit_line():
    s = FlowSystem(dimension=2, elements=(CriticalElement("g", "orbit", 0, twisted=True),))
    assert "orbit g 0 twisted" in serialize(s).splitlines()


@pytest.mark.parametrize("name", all_msf_fixtures())
def test_round_trip_on_fixtures(name):
    s = load_fixture(name)
    assert parse(serialize(s)).same_structure(s)


def test_round_trip_on_random_systems():
    rng = random.Random(42)
    for _ in range(50):
        s = random_valid_system(rng)
        again = parse(serialize(s))
        assert again.same_structure(s)
        assert again.label == s.label


def respaced(text: str, rng: random.Random) -> str:
    """``text`` with every separator space replaced by a random run of spaces
    and tabs; a label keeps its text exactly as written after the first."""
    run = lambda: "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))  # noqa: E731
    lines = []
    for line in text.splitlines():
        directive, _, rest = line.partition(" ")
        tokens = [directive, rest] if directive == "label" else [directive, *rest.split(" ")]
        lines.append(rng.choice(["", run()]) + "".join(tok + run() for tok in tokens[:-1]) + tokens[-1])
    return "\n".join(lines) + "\n"


def test_any_whitespace_separates_msf_tokens():
    rng = random.Random(5)
    systems = [load_fixture(name) for name in all_msf_fixtures()]
    systems += [random_valid_system(rng) for _ in range(50)]
    systems.append(replace(systems[0], label="Fig  3:\tdouble space, then a tab"))
    for s in systems:
        assert parse(respaced(serialize(s), rng)) == s
    assert parse("dim\t2\nlabel\tFig 3\nrest\ta 0\n") == FlowSystem(
        dimension=2, elements=(CriticalElement("a", "rest", 0),), label="Fig 3"
    )


# Names, digits, orbit flags, and odd tokens: every directive of the three
# formats, comment marks, and integers the formats refuse (non-ASCII digits,
# which int() reads, and more digits than int() converts).
FUZZ_ARGUMENTS = st.one_of(
    st.sampled_from(["a", "b", "g", "p", "q"]),
    st.sampled_from(["0", "1", "2", "3"]),
    st.sampled_from(["twisted", "untwisted"]),
    st.sampled_from(
        "dim label expect-betti rest orbit conn new pout qout pin qin node lt 07 9a # #a".split()
        + ["\u0662", "1\u0661", "1" * 5000]
    ),
)


@st.composite
def token_soup(draw, directives, headers=("",)):
    lines = draw(st.lists(st.tuples(st.sampled_from(directives), st.lists(FUZZ_ARGUMENTS, max_size=3)), max_size=10))
    separators = st.sampled_from([" ", "\t", "  ", " \t"])
    body = "\n".join("".join(word + draw(separators) for word in (first, *args)) for first, args in lines)
    return draw(st.sampled_from(headers)) + body


@pytest.mark.parametrize("parser, soup", [
    (parse, token_soup(["dim", "label", "expect-betti", "rest", "orbit", "conn", "frob", "#"], ("", "dim 2\n"))),
    (parse_choice, token_soup(["orbit", "new", "pout", "qout", "pin", "qin", "frob", "#"])),
    (parse_poset, token_soup(["node", "lt", "frob", "#"])),
], ids=["msf", "msc", "pos"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_refuse_only_with_parse_errors(parser, soup, data):
    text = data.draw(soup)
    try:
        parser(text)
    except ParseError:
        pass
    except ValueError as err:  # a .pos text may declare a cycle
        assert parser is parse_poset and str(err).startswith("not antisymmetric"), err


# ---------------------------------------------------------------------------
# validate


@pytest.mark.parametrize("name", all_msf_fixtures())
def test_fixtures_validate_clean(name):
    assert validate(load_fixture(name)) == []


def test_random_systems_validate_clean():
    rng = random.Random(7)
    for _ in range(50):
        assert validate(random_valid_system(rng)) == []


def test_duplicate_names_flagged():
    s = FlowSystem(
        dimension=2,
        elements=(CriticalElement("q", "rest", 0), CriticalElement("q", "rest", 1)),
    )
    assert any(v.rule == "duplicate-name" for v in validate(s))


def test_index_out_of_range_flagged():
    rest = FlowSystem(dimension=2, elements=(CriticalElement("p", "rest", 3),))
    orbit = FlowSystem(
        dimension=2, elements=(CriticalElement("g", "orbit", 2, twisted=False),)
    )
    assert any(v.rule == "index-range" for v in validate(rest))
    assert any(v.rule == "index-range" for v in validate(orbit))


def test_saddle_to_saddle_connection_breaks_dimension_rule():
    s = parse("dim 2\nrest a 1\nrest b 1\nconn a b 1\n")
    violations = validate(s)
    assert any(v.rule == "dimension-rule" for v in violations)
    message = next(str(v) for v in violations if v.rule == "dimension-rule")
    assert "a" in message and "b" in message


def test_incoming_connection_to_repelling_orbit_flagged():
    s = parse("dim 2\nrest p 2\norbit g 1 untwisted\nconn p g 1\n")
    assert any(v.rule == "repeller-rule" for v in validate(s))


def test_outgoing_connection_from_attracting_orbit_flagged():
    s = parse("dim 2\nrest q 0\norbit g 0 untwisted\nconn g q 1\n")
    assert any(v.rule == "attractor-rule" for v in validate(s))


def test_sink_with_outgoing_and_source_with_incoming_flagged():
    sink = parse("dim 2\nrest q 0\nrest r 0\nrest s 1\nconn q s 2\nconn s r 1\n")
    assert any(v.rule == "attractor-rule" for v in validate(sink))
    source = parse("dim 2\nrest p 2\nrest r 2\nconn p r 1\n")
    assert any(v.rule == "repeller-rule" for v in validate(source))


def test_connection_cycle_detected():
    # Two index-1 orbits in a 3-manifold may legally connect in either
    # direction (u=2, s=2, 2+2 >= 4), so a 2-cycle exercises acyclicity alone.
    s = parse(
        "dim 3\norbit g1 1 untwisted\norbit g2 1 untwisted\n"
        "conn g1 g2 1\nconn g2 g1 1\n"
    )
    violations = validate(s)
    assert any(v.rule == "acyclicity" for v in violations)
    # the two orbit rules are silent here: neither is an attractor/repeller
    assert all(v.rule == "acyclicity" for v in violations)


def test_strict_mode_requires_exactly_two_separatrices_each_way():
    # One saddle feeding a single sink once: 1 out, 0 in.
    s = parse("dim 2\nrest q 0\nrest s 1\nconn s q 1\n")
    assert validate(s) == []
    strict = validate(s, strict=True)
    assert any(v.rule == "saddle-degree" for v in strict)


def test_strict_mode_happy_case():
    s = parse(
        "dim 2\nrest q 0\nrest s 1\nrest p 2\n"
        "conn s q 2\nconn p s 2\nconn p q 1\n"
    )
    assert validate(s, strict=True) == []


def test_strict_mode_outside_dimension_two_raises():
    s = parse("dim 3\nrest q 0\n")
    with pytest.raises(ValueError):
        validate(s, strict=True)


# ---------------------------------------------------------------------------
# downstream / upstream / reachability


def test_direct_downstream_of_orbit(fig5):
    assert direct_downstream(fig5, "gamma") == {
        "q1": 1, "q2": 1, "q3": 1, "q4": 1, "s1": 2, "s2": 2,
    }


def test_direct_downstream_of_sink_is_empty(fig5):
    assert direct_downstream(fig5, "q1") == {}


def test_direct_downstream_in_three_dimensions(fig6):
    assert direct_downstream(fig6, "r1") == {"p1": 1, "p2": 1, "p3": 1}


def test_direct_upstream(fig5):
    assert direct_upstream(fig5, "s1") == {"gamma": 2}
    assert direct_upstream(fig5, "q3") == {"s2": 1, "gamma": 1}


def test_direct_downstream_unknown_element(fig5):
    with pytest.raises(ValueError):
        direct_downstream(fig5, "nope")


def test_reachability_is_transitive_closure():
    s = parse("dim 3\nrest a 2\nrest b 1\nrest c 0\nconn a b 1\nconn b c 1\n")
    reach = reachability(s)
    assert reach["a"] == {"a", "b", "c"}
    assert reach["b"] == {"b", "c"}
    assert reach["c"] == {"c"}


def test_reachability_of_empty_connections_is_discrete():
    s = parse("dim 2\nrest a 0\nrest b 2\n")
    assert reachability(s) == {"a": {"a"}, "b": {"b"}}


def test_every_sink_below_the_new_source():
    s = load_fixture("fig4-X1.msf")
    reach = reachability(s)
    sinks = {e.name for e in s.elements if e.is_rest and e.index == 0}
    assert sinks <= reach["p_gamma"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda e: e[0] != e[1])),
)))
def test_reachability_matches_a_search_from_every_element(graph):
    # Any digraph, cycles included; node n is a target no element declares,
    # reached but never left.
    n, edges = graph
    s = FlowSystem(
        dimension=2,
        elements=tuple(CriticalElement(f"e{i}", "rest", 0) for i in range(n)),
        connections=ConnectionMap({(f"e{a}", f"e{b}"): 1 for a, b in edges}),
    )
    expected = {}
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            for a, b in edges:
                if a == frontier[-1] < n and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                    break
            else:
                frontier.pop()
        expected[f"e{start}"] = {f"e{i}" for i in seen}
    assert reachability(s) == expected
