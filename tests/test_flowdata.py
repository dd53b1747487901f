"""Flow-system model: parsing, serialization, validation and reachability."""

import random
import re
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow import (
    ConnectionMap,
    CriticalElement,
    FlowSystem,
    ParseError,
    Violation,
    build_complex,
    face_poset,
    parse,
    parse_choice,
    parse_poset,
    serialize,
    validate,
)
import msflow
from msflow import flowdata
from msflow.flowdata import _find_cycle
from msflow.poset import closure_masks

from conftest import all_msf_fixtures, fixture_path, load_fixture, random_valid_system, soup_systems, torus_grid_text, unstable_dim


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


def test_connection_map_rejects_self_pairs_and_bad_counts():
    with pytest.raises(ValueError):
        ConnectionMap({("a", "a"): 1})
    with pytest.raises(ValueError):
        ConnectionMap({("a", "b"): 0})
    with pytest.raises(ValueError):
        ConnectionMap({("a", "b"): -2})


def test_connection_map_counts():
    m = ConnectionMap({("a", "b"): 2, ("a", "c"): 3})
    assert m.count("a", "b") == 2 and m.count("a", "c") == 3
    assert m.count("x", "y") == 0
    assert m.outgoing("a") == {"b": 2, "c": 3}
    assert m.incoming("c") == {"a": 3}


# ---------------------------------------------------------------------------
# parse


def test_parse_minimal_system():
    s = parse("dim 2\nrest q0 0\nrest s1 1\nconn s1 q0 2\n")
    assert s.dimension == 2
    assert [e.name for e in s.elements] == ["q0", "s1"]
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
    assert [e.name for e in s.elements] == ["q"]


BOM = "\ufeff".encode()


@pytest.mark.parametrize(
    "parser, text",
    [
        (parse, fixture_path("fig3.msf").read_bytes()),
        (parse_choice, b"orbit g\nnew p q\npout a 1\nqin b 2\n"),
        (parse_poset, fixture_path("fig2-Y.pos").read_bytes()),
    ],
    ids=["msf", "msc", "pos"],
)
def test_a_leading_byte_order_mark_is_dropped(parser, text):
    # As bytes, which the CLI reads, and as str, which read_text gives.
    assert parser(BOM + text) == parser(text)
    assert parser((BOM + text).decode()) == parser(text.decode()) == parser(text)


@pytest.mark.parametrize(
    "parser, text, line",
    [
        (parse, BOM + BOM + b"dim 2\n", 1),
        (parse, b"dim 2\n" + BOM + b"rest q 0\n", 2),
        (parse, b"dim 2\nrest q" + BOM + b" 0\n", 2),
        (parse_choice, b"orbit g\n" + BOM + b"new p q\n", 2),
        (parse_poset, b"node a 0\n" + BOM + b"node b 1\n", 2),
        (parse_poset, b"node a 0" + BOM + b"\n", 1),
    ],
)
def test_a_byte_order_mark_elsewhere_is_refused(parser, text, line):
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert exc.value.line == line


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


@pytest.mark.parametrize(
    "text, line",
    [
        # A refused count token is never remembered, so its first line names it.
        ("dim 2\nrest a 0\nrest b 1\nrest c 1\nconn b a +1\nconn c a +1\n", 5),
        ("dim 2\nrest a 1\nrest b 1\nconn a b 1\nconn b a +1\n", 5),
    ],
)
def test_count_errors_name_the_first_line_that_spells_them(text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line


def test_parsed_elements_cannot_be_told_from_constructed_ones():
    # parse builds its elements without __post_init__.  Forty-odd elements take
    # CPython's shared-key dict for the class past its first sizes.
    text = "dim 2\n" + "".join(f"rest r{i} {i % 3}\n" for i in range(40)) + "orbit g 1 twisted\norbit h 0 untwisted\n"
    parsed = parse(text).elements
    built = [CriticalElement(e.name, e.kind, e.index, e.twisted) for e in parsed]
    assert list(parsed) == built
    assert [hash(e) for e in parsed] == [hash(e) for e in built]
    assert [repr(e) for e in parsed] == [repr(e) for e in built]
    # An element with a dict of its own (vars(e).update) would be larger.
    assert [sys.getsizeof(vars(e)) for e in parsed] == [sys.getsizeof(vars(e)) for e in built]
    with pytest.raises(ValueError, match="invalid element name"):
        replace(parsed[0], name="9a")


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
    assert parse(serialize(s)) == s


def test_round_trip_on_random_systems():
    rng = random.Random(42)
    for _ in range(50):
        s = random_valid_system(rng)
        assert parse(serialize(s)) == s


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


@pytest.mark.parametrize("label", ["a # b", " pad", "pad ", "x\ny", "x\ry", "x\u2028y", "", "\t"])
def test_labels_that_would_not_read_back_are_refused(label):
    # Each would come back changed or not parse: the rest of the line after
    # '#' is a comment, edge whitespace is cut, and a line break ends the
    # label line.
    with pytest.raises(ValueError, match=r"^label .* must be one line of text"):
        FlowSystem(dimension=2, elements=(), label=label)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12))
def test_every_accepted_label_survives_a_round_trip(label):
    try:
        s = FlowSystem(dimension=2, elements=(CriticalElement("a", "rest", 0),), label=label)
    except ValueError:
        return
    assert parse(serialize(s)) == s


@pytest.mark.parametrize("name", ["a\n", "a\r\n", "a\nb", "\na", "a ", "a#", "2a", "_a", ""])
def test_names_that_would_not_read_back_are_refused(name):
    # A trailing newline used to pass (a '$' matches before it); the element
    # was then written as 'rest a\n 0', which parse refuses on line 2.
    with pytest.raises(ValueError, match=r"^invalid element name"):
        CriticalElement(name, "rest", 0)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab_1\n\r\t #", max_size=5))
def test_every_accepted_name_survives_a_round_trip(name):
    try:
        s = FlowSystem(dimension=2, elements=(CriticalElement(name, "rest", 0),))
    except ValueError:
        return
    assert parse(serialize(s)) == s


# Values a numeric field might be handed: ints in and out of range, and the
# bools, floats, strings and None that would serialize to text parse refuses.
NUMBERS = st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from([0.0, 1.0, 1.5, "1", None]))


@st.composite
def systems_from_any_numbers(draw):
    """A FlowSystem's constructor arguments, with unique element names and
    connections between declared elements, numbers drawn from NUMBERS."""
    names = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=4))
    elements = []
    for name in names:
        twisted = draw(st.none() | st.booleans())
        elements.append((name, "rest" if twisted is None else "orbit", draw(NUMBERS), twisted))
    pairs = [(a, b) for a in names for b in names if a != b]
    counts = draw(st.dictionaries(st.sampled_from(pairs), NUMBERS, max_size=4)) if pairs else {}
    betti = draw(st.none() | st.lists(NUMBERS, max_size=4))
    return draw(NUMBERS), elements, counts, betti


@settings(max_examples=300, deadline=None)
@given(systems_from_any_numbers())
def test_every_system_that_constructs_survives_a_round_trip(args):
    dimension, elements, counts, betti = args
    try:
        s = FlowSystem(dimension, tuple(CriticalElement(*e) for e in elements), ConnectionMap(counts), expected_betti=betti)
    except ValueError:
        return
    assert parse(serialize(s)) == s


def test_numeric_fields_refuse_what_parse_would_refuse():
    rest = (CriticalElement("a", "rest", 1),)
    for build in (
        lambda: FlowSystem(2.0, ()),
        lambda: FlowSystem(True, ()),
        lambda: FlowSystem(2, (), expected_betti=(1, 0, True)),
        lambda: FlowSystem(2, (), expected_betti=(1, 0)),
        lambda: FlowSystem(2, (), expected_betti=(1, -1, 1)),
        lambda: CriticalElement("a", "rest", 1.5),
        lambda: CriticalElement("a", "rest", False),
        lambda: ConnectionMap({("a", "b"): True}),
        lambda: ConnectionMap({("a", "b"): 1.0}),
    ):
        with pytest.raises(ValueError, match="integer"):
            build()
    assert FlowSystem(2, rest, expected_betti=[1, 0, 1]).expected_betti == (1, 0, 1)


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


MSF_SOUP = token_soup(["dim", "label", "expect-betti", "rest", "orbit", "conn", "frob", "#"], ("", "dim 2\n"))


@pytest.mark.parametrize("parser, soup", [
    (parse, MSF_SOUP),
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


# The parser before each line was read once, kept as the reference: its own
# line loop cuts the text after the directive from every line, a name is
# matched here and again by CriticalElement, and a regular expression reads
# the digits.
def reference_parse(text):
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    dimension = label = expected = None
    elements, names, counts = [], set(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        rest = line[len(directive):].lstrip()
        if directive != "dim" and dimension is None:
            raise ParseError(lineno, "the dim directive must come first")
        if directive == "dim":
            if dimension is not None:
                raise ParseError(lineno, "duplicate dim directive")
            if len(args) != 1:
                raise ParseError(lineno, "dim needs 1 argument(s)")
            dimension = reference_read_int(lineno, args[0])
            if dimension < 1:
                raise ParseError(lineno, f"dimension must be >= 1, got {dimension}")
        elif directive == "label":
            if label is not None:
                raise ParseError(lineno, "duplicate label directive")
            if not rest:
                raise ParseError(lineno, "label needs text")
            label = rest
        elif directive == "expect-betti":
            if expected is not None:
                raise ParseError(lineno, "duplicate expect-betti directive")
            if len(args) != dimension + 1:
                raise ParseError(lineno, f"expect-betti needs {dimension + 1} counts for dim {dimension}, got {len(args)}")
            expected = tuple(reference_read_int(lineno, a) for a in args)
        elif directive == "rest":
            if len(args) != 2:
                raise ParseError(lineno, f"rest needs <name> <index>, got {rest!r}")
            name, index = args[0], reference_read_int(lineno, args[1])
            reference_check_name(lineno, name, names)
            elements.append(CriticalElement(name, "rest", index))
            names.add(name)
        elif directive == "orbit":
            if len(args) != 3 or args[2] not in ("twisted", "untwisted"):
                raise ParseError(lineno, f"orbit needs <name> <index> <twisted|untwisted>, got {rest!r}")
            name, index = args[0], reference_read_int(lineno, args[1])
            reference_check_name(lineno, name, names)
            elements.append(CriticalElement(name, "orbit", index, twisted=args[2] == "twisted"))
            names.add(name)
        elif directive == "conn":
            if len(args) != 3:
                raise ParseError(lineno, f"conn needs <source> <target> <count>, got {rest!r}")
            src, dst = args[0], args[1]
            count = reference_read_int(lineno, args[2], minimum=1)
            for endpoint in (src, dst):
                if endpoint not in names:
                    raise ParseError(lineno, f"unknown element {endpoint!r}")
            if src == dst:
                raise ParseError(lineno, f"self-connection {src} -> {dst} is not allowed")
            if (src, dst) in counts:
                raise ParseError(lineno, f"duplicate conn line for {src} -> {dst}")
            counts[(src, dst)] = count
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if dimension is None:
        raise ParseError(1, "missing dim directive")
    return FlowSystem(dimension, tuple(elements), ConnectionMap(counts), label, expected)


def reference_check_name(lineno, name, seen):
    if not re.match(r"^[A-Za-z][A-Za-z0-9_]*$", name):
        raise ParseError(lineno, f"invalid name {name!r}")
    if name in seen:
        raise ParseError(lineno, f"duplicate element name {name!r}")


def reference_read_int(lineno, token, minimum=0):
    if not re.fullmatch(r"[0-9]+", token):
        raise ParseError(lineno, f"expected an integer (digits 0-9), got {token!r}")
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"integer of {len(token)} digits is too long") from None
    if value < minimum:
        raise ParseError(lineno, f"expected a positive integer, got {value}")
    return value


def parse_outcome(parser, text):
    """What a parser makes of ``text``: the system with its connections in
    stored order, or the refusal's line and message."""
    try:
        s = parser(text)
    except ParseError as err:
        return "refused", err.line, str(err)
    return "parsed", s, list(s.connections.items())


@settings(max_examples=500, deadline=None)
@given(MSF_SOUP)
def test_parse_matches_the_reference_on_token_soup(text):
    assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)


@pytest.mark.parametrize("name", all_msf_fixtures())
def test_parse_matches_the_reference_on_fixtures(name):
    text = fixture_path(name).read_text()
    assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)
    assert parse_outcome(parse, text.encode()) == parse_outcome(reference_parse, text)


@st.composite
def broken_grid_texts(draw):
    """A torus grid text, respaced, with up to three lines deleted,
    duplicated or moved, or with one token replaced by a fuzz argument or its
    last one by an integer that int() reads and parse must refuse."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = respaced(torus_grid_text(draw(st.integers(3, 4)), rng, orbit=draw(st.booleans())), rng).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "move", "token", "number"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "move":
            lines.insert(j, lines.pop(i))
        else:
            tokens = lines[i].split()
            at = len(tokens) - 1 if edit == "number" else draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(LAX_INTEGERS) if edit == "number" else FUZZ_ARGUMENTS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(broken_grid_texts())
def test_parse_matches_the_reference_on_random_grid_texts(text):
    assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)


CLOSE_NAMES = ["a", "a_1", "a1", "aB", "A", "ab", "a_", "A_1", "b", "aa"]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(CLOSE_NAMES), st.sampled_from(CLOSE_NAMES)).filter(lambda p: p[0] != p[1]),
        st.integers(1, 3),
    ),
    st.randoms(use_true_random=False),
)
def test_connection_map_keeps_pairs_in_sorted_order(counts, rng):
    # Names that share a prefix or differ by case, underscore or digit.  The
    # map sorts on its first ordered read, so each read gets a fresh map, built
    # from shuffled items, from sorted ones, and from sorted ones with the rest
    # appended, as a map with a replaced orbit's pairs added holds them.
    items = list(counts.items())
    rng.shuffle(items)
    k = rng.randint(0, len(items))
    ordered = dict(sorted(counts.items()))
    names = CLOSE_NAMES + ["zz"]
    reads = {
        "pairs": (lambda m: list(m.pairs()), list(ordered)),
        "items": (lambda m: list(m.items()), list(ordered.items())),
        "repr": (repr, f"ConnectionMap({ordered!r})"),
        "hash": (hash, hash(tuple(ordered.items()))),
        "outgoing": (
            lambda m: [list(m.outgoing(x).items()) for x in names],
            [[(dst, c) for (src, dst), c in ordered.items() if src == x] for x in names],
        ),
        "incoming": (
            lambda m: [list(m.incoming(x).items()) for x in names],
            [[(src, c) for (src, dst), c in ordered.items() if dst == x] for x in names],
        ),
    }
    for source in (items, sorted(items), sorted(items[k:]) + items[:k]):
        for name, (read, expected) in reads.items():
            m = ConnectionMap(dict(source))
            assert read(m) == expected, name
            assert read(m) == expected, name  # and again, once sorted
    assert ConnectionMap(dict(items)) == ConnectionMap(ordered)


@st.composite
def conn_shuffled_texts(draw):
    """.msf text with its conn lines in random order: a torus grid, or a soup
    system whose repeated names are declared once and whose undeclared
    endpoints are declared as sinks."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return torus_grid_text(draw(st.integers(3, 5)), rng, orbit=draw(st.booleans()))
    s = draw(soup_systems())
    elements = {name: CriticalElement(name, "rest", 0) for name in "abcde"} | {e.name: e for e in reversed(s.elements)}
    lines = serialize(replace(s, elements=tuple(elements.values()))).splitlines()
    head, conns = lines[: 1 + len(elements)], lines[1 + len(elements) :]
    rng.shuffle(conns)
    return "\n".join(head + conns) + "\n"


@settings(max_examples=200, deadline=None)
@given(conn_shuffled_texts())
def test_parse_builds_the_connection_map_the_public_constructor_builds(text):
    parsed = parse(text).connections
    public = ConnectionMap(dict(parsed.items()))
    assert parsed == public and hash(parsed) == hash(public)
    assert list(parsed.items()) == list(public.items())


BAD_CONN_LINES = {
    "self-pair": ("conn v0_0 v0_0 1", "self-connection v0_0 -> v0_0 is not allowed"),
    "count 0": ("conn h0_0 v0_0 0", "expected a positive integer, got 0"),
    "01x": ("conn h0_0 v0_0 01x", "expected an integer (digits 0-9), got '01x'"),
    "unknown source": ("conn zz v0_0 1", "unknown element 'zz'"),
    "unknown target": ("conn h0_0 zz 1", "unknown element 'zz'"),
    "duplicate": ("conn h0_0 v0_0 1", "duplicate conn line for h0_0 -> v0_0"),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BAD_CONN_LINES)), st.integers(0, 2**32), st.data())
def test_a_bad_conn_line_is_refused_at_its_line(kind, seed, data):
    lines = torus_grid_text(3, random.Random(seed)).splitlines()
    first_conn = next(i for i, line in enumerate(lines) if line.startswith("conn"))
    at = data.draw(st.integers(first_conn, len(lines)))
    if kind == "duplicate":  # h0_0 -> v0_0 is a grid edge, so the later of its two lines is refused
        lines.remove("conn h0_0 v0_0 1")
        lines.insert(data.draw(st.integers(first_conn, len(lines))), "conn h0_0 v0_0 1")
    bad, message = BAD_CONN_LINES[kind]
    lines.insert(at, bad)
    line = max(i for i, text in enumerate(lines, start=1) if text == bad)
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines) + "\n")
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


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


def test_connection_cycle_detected(monkeypatch):
    # Two index-1 orbits in a 3-manifold may legally connect in either
    # direction (u=2, s=2, 2+2 >= 4), so a 2-cycle exercises acyclicity alone.
    calls = counting_cycle_searches(monkeypatch)
    s = parse(
        "dim 3\norbit g1 1 untwisted\norbit g2 1 untwisted\n"
        "conn g1 g2 1\nconn g2 g1 1\n"
    )
    violations = validate(s)
    assert any(v.rule == "acyclicity" for v in violations)
    # the two orbit rules are silent here: neither is an attractor/repeller
    assert all(v.rule == "acyclicity" for v in violations)
    # orbits of one index keep their rank along a connection, so the digraph is searched
    assert calls == [s]


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


# The rule-by-rule validator the table-driven one replaced, kept as the
# reference: properties per connection and a name-keyed depth-first search.
def reference_validate(s, strict=False):
    n = s.dimension
    violations = []
    seen = set()
    for e in s.elements:
        if e.name in seen:
            violations.append(Violation("duplicate-name", (e.name,), f"element name {e.name!r} declared more than once"))
        seen.add(e.name)
    for e in s.elements:
        top = n if e.is_rest else n - 1
        if not (0 <= e.index <= top):
            message = f"{e.kind} {e.name} has index {e.index}, allowed range 0..{top} in dimension {n}"
            violations.append(Violation("index-range", (e.name,), message))
    known = {e.name: e for e in s.elements}
    for (src, dst), c in s.connections.items():
        missing = [x for x in (src, dst) if x not in known]
        if missing:
            message = f"connection {src} -> {dst} references unknown element(s) {missing}"
            violations.append(Violation("unknown-element", tuple(missing), message))
            continue
        a, b = known[src], known[dst]
        u, sd = unstable_dim(a), n - b.index
        if u + sd < n + 1:
            message = f"c({src},{dst})={c} requires u+s >= {n + 1}, got u({src})={u}, s({dst})={sd}"
            violations.append(Violation("dimension-rule", (src, dst), message))
        if (a.is_rest and a.index == 0) or (a.is_orbit and a.index == 0):
            message = f"attractor {src} ({a.kind}, index {a.index}) has an outgoing connection to {dst}"
            violations.append(Violation("attractor-rule", (src,), message))
        if (b.is_rest and b.index == n) or (b.is_orbit and b.index == n - 1):
            message = f"repeller {dst} ({b.kind}, index {b.index}) has an incoming connection from {src}"
            violations.append(Violation("repeller-rule", (dst,), message))
    cycle = reference_find_cycle(s)
    if cycle:
        violations.append(Violation("acyclicity", tuple(cycle), "connection digraph has a cycle: " + " -> ".join(cycle)))
    if strict:
        for e in s.elements:
            if e.is_rest and e.index == 1:
                out = sum(s.connections.outgoing(e.name).values())
                inc = sum(s.connections.incoming(e.name).values())
                if out != 2 or inc != 2:
                    message = f"saddle {e.name} has outgoing multiplicity {out} and incoming {inc}; strict mode wants exactly 2 and 2"
                    violations.append(Violation("saddle-degree", (e.name,), message))
    return violations


def reference_find_cycle(s):
    adjacency = {e.name: [] for e in s.elements}
    for src, dst in s.connections.pairs():
        if src in adjacency and dst in adjacency:
            adjacency[src].append(dst)
    color = {name: "white" for name in adjacency}
    for start in adjacency:
        if color[start] != "white":
            continue
        stack, path = [(start, iter(adjacency[start]))], [start]
        color[start] = "gray"
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == "gray":
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == "white":
                    color[nxt] = "gray"
                    stack.append((nxt, iter(adjacency[nxt])))
                    path.append(nxt)
                    break
            else:
                color[node] = "black"
                stack.pop()
                path.pop()
    return None


@settings(max_examples=500, deadline=None)
@given(soup_systems())
def test_validate_matches_the_rule_by_rule_reference(s):
    assert _find_cycle(s) == reference_find_cycle(s)
    if s.dimension == 2:
        assert validate(s, strict=True) == reference_validate(s, strict=True)
    assert validate(s) == reference_validate(s)


def broken_valid_system(rng: random.Random) -> tuple[FlowSystem, dict[tuple[str, str], int]]:
    """A random valid system and its counts with up to six connections added
    between random names, the undeclared zz among them: they may break the
    dimension, attractor and repeller rules, name an unknown element, or
    close a cycle."""
    s = random_valid_system(rng)
    names = [e.name for e in s.elements] + ["zz"]
    counts = dict(s.connections.items())
    for _ in range(rng.randint(0, 6)):
        src, dst = rng.sample(names, 2)
        counts[src, dst] = rng.randint(1, 3)
    return s, counts


def test_broken_valid_systems_break_every_connection_rule():
    rules = set()
    for seed in range(300):
        s, counts = broken_valid_system(random.Random(seed))
        rules.update(v.rule for v in validate(replace(s, connections=counts)))
    assert rules == {"dimension-rule", "attractor-rule", "repeller-rule", "unknown-element", "acyclicity"}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_validate_reports_connections_in_order_whatever_order_the_map_holds(seed, rng):
    # A map keeps its items in the order given until something reads them in
    # order; validate is the first reader here, and must not depend on it.
    s, counts = broken_valid_system(random.Random(seed))
    items = list(counts.items())
    rng.shuffle(items)
    shuffled = replace(s, connections=ConnectionMap(dict(items)))
    ordered = replace(s, connections=ConnectionMap(dict(sorted(items))))
    assert validate(shuffled) == validate(ordered) == reference_validate(ordered)
    if s.dimension == 2:
        assert validate(shuffled, strict=True) == validate(ordered, strict=True) == reference_validate(ordered, strict=True)


def counting_cycle_searches(monkeypatch):
    """A list that gets one entry per depth-first search for a cycle."""
    calls = []
    find = flowdata._find_cycle
    monkeypatch.setattr(flowdata, "_find_cycle", lambda s: calls.append(s) or find(s))
    return calls


def test_ranked_systems_are_not_searched_for_cycles(monkeypatch):
    calls = counting_cycle_searches(monkeypatch)
    systems = [load_fixture(name) for name in all_msf_fixtures()] + [parse(torus_grid_text(6, random.Random(2), orbit=True))]
    for s in systems:
        assert validate(s) == []
    assert calls == []


def test_a_cycle_closed_by_broken_dimension_rules_is_found(monkeypatch):
    calls = counting_cycle_searches(monkeypatch)
    s = parse("dim 2\nrest a 1\nrest b 1\nconn a b 1\nconn b a 1\n")
    assert validate(s) == [
        Violation("dimension-rule", ("a", "b"), "c(a,b)=1 requires u+s >= 3, got u(a)=1, s(b)=1"),
        Violation("dimension-rule", ("b", "a"), "c(b,a)=1 requires u+s >= 3, got u(b)=1, s(a)=1"),
        Violation("acyclicity", ("a", "b", "a"), "connection digraph has a cycle: a -> b -> a"),
    ]
    assert calls == [s]


def test_validate_matches_the_reference_on_fixtures_and_random_systems():
    rng = random.Random(11)
    systems = [load_fixture(name) for name in all_msf_fixtures()] + [random_valid_system(rng) for _ in range(30)]
    for s in systems:
        assert validate(s) == reference_validate(s) == []


def counting_checks(monkeypatch):
    """A list that gets one entry per run of the rule checker."""
    calls = []
    check = flowdata._check
    monkeypatch.setattr(flowdata, "_check", lambda s: calls.append(s) or check(s))
    return calls


def test_a_system_is_checked_once(monkeypatch):
    calls = counting_checks(monkeypatch)
    s = load_fixture("fig5.msf")
    validate(s)
    build_complex(s)
    validate(s, strict=True)
    assert calls == [s]


def test_validate_hands_out_a_fresh_list_each_call():
    s = parse("dim 2\nrest a 1\nrest b 1\nconn a b 1\n")
    first = validate(s)
    assert [v.rule for v in first] == ["dimension-rule"]
    first.clear()
    assert [v.rule for v in validate(s)] == ["dimension-rule"]
    assert validate(s) is not validate(s)


def test_a_replaced_system_is_checked_afresh(monkeypatch):
    calls = counting_checks(monkeypatch)
    s = parse("dim 2\nrest a 0\nrest b 1\nconn b a 2\n")
    assert validate(s) == []
    broken = replace(s, elements=s.elements + (CriticalElement("a", "rest", 1),))
    assert [v.rule for v in validate(broken)] == ["duplicate-name", "dimension-rule"]
    assert calls == [s, broken]


def test_checking_leaves_fields_equality_hash_and_repr_alone():
    text = "dim 2\nlabel x\nrest a 0\nrest b 1\nconn b a 2\n"
    s, t = parse(text), parse(text)
    before = hash(s), repr(s)
    validate(s)
    build_complex(s).squares  # the complex, and its d.d products, are kept too
    assert s == t and (hash(s), repr(s)) == before == (hash(t), repr(t))
    assert [f.name for f in fields(s)] == ["dimension", "elements", "connections", "label", "expected_betti"]
    assert serialize(s) == text


# ---------------------------------------------------------------------------
# direct connections (what perturb reads) and reachability


def test_direct_downstream_of_orbit(fig5):
    assert fig5.connections.outgoing("gamma") == {
        "q1": 1, "q2": 1, "q3": 1, "q4": 1, "s1": 2, "s2": 2,
    }


def test_direct_downstream_of_sink_is_empty(fig5):
    assert fig5.connections.outgoing("q1") == {}


def test_direct_downstream_in_three_dimensions(fig6):
    assert fig6.connections.outgoing("r1") == {"p1": 1, "p2": 1, "p3": 1}


def test_direct_upstream(fig5):
    assert fig5.connections.incoming("s1") == {"gamma": 2}
    assert fig5.connections.incoming("q3") == {"s2": 1, "gamma": 1}


def test_public_names_match_the_package_imports():
    # Every listed name resolves, and every public name the package imports
    # (its submodules aside) is listed.
    assert len(set(msflow.__all__)) == len(msflow.__all__)
    for name in msflow.__all__:
        assert hasattr(msflow, name), name
    public = {
        name for name, value in vars(msflow).items()
        if not name.startswith("_") and not isinstance(value, type(msflow))
    }
    assert public == set(msflow.__all__) - {"__version__"}


def test_every_sink_below_the_new_source():
    s = load_fixture("fig4-X1.msf")
    sinks = {e.name for e in s.elements if e.is_rest and e.index == 0}
    assert sinks <= face_poset(s).downset("p_gamma")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])),
)))
def test_reachability_matches_a_search_from_every_element(graph):
    # closure_masks on any digraph, cycles included, so that the nodes of a
    # strongly connected component must share their union both ways.
    n, edges = graph
    reached = []
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            for a, b in edges:
                if a == frontier[-1] and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                    break
            else:
                frontier.pop()
        reached.append(seen)
    mask = lambda nodes: sum(1 << i for i in nodes)  # noqa: E731
    down, up = closure_masks([[b for a, b in sorted(edges) if a == i] for i in range(n)])
    assert down == [mask(reached[i]) for i in range(n)]
    assert up == [mask(j for j in range(n) if i in reached[j]) for i in range(n)]
