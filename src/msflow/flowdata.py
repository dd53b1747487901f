"""Combinatorial models of Morse-Smale flows.

A flow system is a manifold dimension, an ordered list of critical elements
(rest points and closed orbits, each carrying an index), and a sparse map of
positive integer connection counts c(src, dst) — the number of connected
components of the unstable/stable manifold intersection for that ordered
pair.  Mod-2 reductions of the counts feed the chain-complex construction;
the integer values matter for perturbation bookkeeping.

The module also owns the ``.msf`` text format (parser + serializer), the
line reader the ``.msc`` and ``.pos`` parsers share, and the structural
validator.  Parsing is deliberately permissive beyond syntax so
that broken systems can be loaded and then diagnosed by ``validate``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")  # \Z, not $: a final newline is no part of a name

REST = "rest"
ORBIT = "orbit"


class ParseError(ValueError):
    """Syntax or reference error in a .msf / .msc / .pos text, with line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CriticalElement:
    """A rest point or a closed orbit.

    ``index`` is the dimension of the unstable manifold for rest points; for a
    closed orbit of index k the unstable manifold has dimension k+1.  The
    ``twisted`` flag is meaningful (and required) only for orbits.
    """

    name: str
    kind: str  # REST or ORBIT
    index: int
    twisted: bool | None = None

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ValueError(f"invalid element name {self.name!r}")
        if self.kind not in (REST, ORBIT):
            raise ValueError(f"invalid element kind {self.kind!r}")
        if type(self.index) is not int or self.index < 0:  # a bool or float would not read back
            raise ValueError(f"element {self.name}: index must be a non-negative integer, got {self.index!r}")
        if self.kind == REST and self.twisted is not None:
            raise ValueError(f"rest point {self.name} cannot carry a twisted flag")
        if self.kind == ORBIT and self.twisted is None:
            raise ValueError(f"orbit {self.name} needs an explicit twisted flag")

    @property
    def is_rest(self) -> bool:
        return self.kind == REST

    @property
    def is_orbit(self) -> bool:
        return self.kind == ORBIT


class ConnectionMap:
    """Sparse map (source name, target name) -> positive integer count.

    Absent pairs mean count 0.  The map refuses a self-pair and a count that
    is not a positive int; parse and validate check that the names are
    declared.  Pairs are read in (source, target) order, sorted on the first
    read that needs the order; immutable and hashable.
    """

    __slots__ = ("_counts", "_sorted")

    def __init__(self, counts: Mapping[tuple[str, str], int] | Iterable[tuple[tuple[str, str], int]] = ()):
        items = dict(counts)
        for (src, dst), c in items.items():
            if src == dst:
                raise ValueError(f"self-connection {src} -> {dst} is not representable")
            if type(c) is not int or c < 1:
                raise ValueError(f"connection {src} -> {dst}: count must be a positive integer, got {c!r}")
        self._adopt(items)

    def _adopt(self, items: dict[tuple[str, str], int]) -> "ConnectionMap":
        """Take a dict of counts whose pairs and values are checked already, in any order."""
        self._counts, self._sorted = items, False
        return self

    def _ordered(self) -> dict[tuple[str, str], int]:
        """The counts in (source, target) order, sorted on the first call."""
        if not self._sorted:
            counts = self._counts
            self._counts, self._sorted = {pair: counts[pair] for pair in sorted(counts)}, True
        return self._counts

    def _any_order(self) -> Iterable[tuple[tuple[str, str], int]]:
        """The (pair, count) items in no promised order, for scans whose result does not depend on it."""
        return self._counts.items()

    def count(self, src: str, dst: str) -> int:
        return self._counts.get((src, dst), 0)

    def items(self) -> Iterator[tuple[tuple[str, str], int]]:
        return iter(self._ordered().items())

    def pairs(self) -> Iterator[tuple[str, str]]:
        return iter(self._ordered())

    def outgoing(self, name: str) -> dict[str, int]:
        return {dst: c for (src, dst), c in self._ordered().items() if src == name}

    def incoming(self, name: str) -> dict[str, int]:
        return {src: c for (src, dst), c in self._ordered().items() if dst == name}

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConnectionMap):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(tuple(self._ordered().items()))

    def __repr__(self) -> str:
        return f"ConnectionMap({self._ordered()!r})"


@dataclass(frozen=True)
class Violation:
    """One failed validation rule, as data (never raised)."""

    rule: str
    elements: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass(frozen=True)
class FlowSystem:
    """An immutable combinatorial flow: dimension, elements, connections."""

    dimension: int
    elements: tuple[CriticalElement, ...]
    connections: ConnectionMap = field(default_factory=ConnectionMap)
    label: str | None = None
    expected_betti: tuple[int, ...] | None = None

    def __post_init__(self):
        if type(self.dimension) is not int or self.dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dimension!r}")
        # A label is written as one 'label' line, so it must read back whole.
        label = self.label
        if label is not None and (label != label.strip() or "#" in label or len(label.splitlines()) != 1):
            raise ValueError(
                f"label {label!r} must be one line of text with no '#' and no leading or trailing whitespace"
            )
        object.__setattr__(self, "elements", tuple(self.elements))
        if not isinstance(self.connections, ConnectionMap):
            object.__setattr__(self, "connections", ConnectionMap(self.connections))
        if self.expected_betti is not None:
            betti = tuple(self.expected_betti)
            if len(betti) != self.dimension + 1 or any(type(b) is not int or b < 0 for b in betti):
                raise ValueError(f"expected_betti must be {self.dimension + 1} non-negative integers, got {betti!r}")
            object.__setattr__(self, "expected_betti", betti)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """validate's non-strict findings: an immutable system is checked once, on first use."""
        return tuple(_check(self))

    def has_element(self, name: str) -> bool:
        return any(e.name == name for e in self.elements)

    def element(self, name: str) -> CriticalElement:
        for e in self.elements:
            if e.name == name:
                return e
        raise ValueError(f"unknown element {name!r}")

    def rest_points(self) -> tuple[CriticalElement, ...]:
        return tuple(e for e in self.elements if e.is_rest)

    def orbits(self) -> tuple[CriticalElement, ...]:
        return tuple(e for e in self.elements if e.is_orbit)


# ---------------------------------------------------------------------------
# Text formats: the line reader .msf, .msc and .pos share, and .msf itself


def directive_lines(text: str | bytes) -> Iterator[tuple[int, list[str], str]]:
    """(line number, tokens, raw line) for each line of a .msf, .msc or .pos
    text that holds a token before its ``#`` comment; the first token is the
    directive.  Tokens are separated by any run of whitespace.  This is the
    one reader of the three formats, and it checks nothing: each parser
    checks its own directives and arguments.  The text, bytes or str, may
    start with one UTF-8 byte-order mark, which is dropped."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if tokens:
            yield lineno, tokens, raw


def _rest(raw: str) -> str:
    """The text after a raw line's directive, without its comment and edge whitespace."""
    return (raw.split("#", 1)[0].split(None, 1) + [""])[1].rstrip()


def parse(text: str | bytes) -> FlowSystem:
    """Parse .msf text into a FlowSystem.

    Only syntax and referential integrity are checked here; semantic rules
    (index ranges, dimension rule, ...) are the validator's job, so malformed
    systems can be loaded for diagnosis.  ``read_int`` checks each number
    (each distinct conn count token once a call), ``NAME_RE`` the spelling of
    each name, and parse the directives, argument counts, references,
    self-pairs and duplicates.  So each element is built from checked fields
    without ``CriticalElement.__post_init__``, which guards the public
    constructor only, and ConnectionMap takes the counts as they are, to be
    sorted only if something reads them in order.
    """
    dimension: int | None = None
    label: str | None = None
    expected: tuple[int, ...] | None = None
    elements: list[CriticalElement] = []
    names: set[str] = set()
    counts: dict[tuple[str, str], int] = {}
    values: dict[str, int] = {}  # conn count token -> its value; index tokens may be 0, so they keep out

    for lineno, tokens, raw in directive_lines(text):
        directive = tokens[0]
        if directive == "conn" and dimension is not None:  # two thirds of a grid file's lines
            if len(tokens) != 4:
                raise ParseError(lineno, f"conn needs <source> <target> <count>, got {_rest(raw)!r}")
            _, src, dst, token = tokens
            count = values.get(token)
            if count is None:  # read_int raises on a refused token, so only accepted ones are stored
                count = values[token] = read_int(lineno, token, minimum=1)
            if src not in names or dst not in names:
                raise ParseError(lineno, f"unknown element {src if src not in names else dst!r}")
            if src == dst:
                raise ParseError(lineno, f"self-connection {src} -> {dst} is not allowed")
            if (pair := (src, dst)) in counts:
                raise ParseError(lineno, f"duplicate conn line for {src} -> {dst}")
            counts[pair] = count
        elif dimension is None and directive != "dim":
            raise ParseError(lineno, "the dim directive must come first")
        elif directive == "dim":
            if dimension is not None:
                raise ParseError(lineno, "duplicate dim directive")
            if len(tokens) != 2:
                raise ParseError(lineno, "dim needs 1 argument(s)")
            dimension = read_int(lineno, tokens[1])
            if dimension < 1:
                raise ParseError(lineno, f"dimension must be >= 1, got {dimension}")
        elif directive == "label":
            if label is not None:
                raise ParseError(lineno, "duplicate label directive")
            label = _rest(raw)
            if not label:
                raise ParseError(lineno, "label needs text")
        elif directive == "expect-betti":
            if expected is not None:
                raise ParseError(lineno, "duplicate expect-betti directive")
            if len(tokens) != dimension + 2:
                raise ParseError(lineno, f"expect-betti needs {dimension + 1} counts for dim {dimension}, got {len(tokens) - 1}")
            expected = tuple(read_int(lineno, a) for a in tokens[1:])
        elif directive == REST or directive == ORBIT:
            orbit = directive == ORBIT
            if len(tokens) != 3 + orbit or orbit and tokens[3] not in ("twisted", "untwisted"):
                usage = "<name> <index> <twisted|untwisted>" if orbit else "<name> <index>"
                raise ParseError(lineno, f"{directive} needs {usage}, got {_rest(raw)!r}")
            name, index = tokens[1], read_int(lineno, tokens[2])
            if not NAME_RE.match(name):
                raise ParseError(lineno, f"invalid name {name!r}")
            elements.append(_element(name, directive, index, tokens[3] == "twisted" if orbit else None))
            if name in names:
                raise ParseError(lineno, f"duplicate element name {name!r}")
            names.add(name)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")

    if dimension is None:
        raise ParseError(1, "missing dim directive")

    return FlowSystem(
        dimension=dimension,
        elements=tuple(elements),
        connections=ConnectionMap.__new__(ConnectionMap)._adopt(counts),
        label=label,
        expected_betti=expected,
    )


_new, _set = object.__new__, object.__setattr__  # looked up once: _element runs once per element


def _element(name: str, kind: str, index: int, twisted: bool | None) -> CriticalElement:
    """A CriticalElement of fields parse has checked, set one by one in the
    dataclass ``__init__``'s order, so it keeps the class's shared-key dict."""
    e = _new(CriticalElement)
    _set(e, "name", name)
    _set(e, "kind", kind)
    _set(e, "index", index)
    _set(e, "twisted", twisted)
    return e


def read_int(lineno: int, token: str, minimum: int = 0) -> int:
    """The integer spelled by ``token``, which must be ASCII digits only, so
    that every accepted file serializes back to the same text."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(lineno, f"expected an integer (digits 0-9), got {token!r}")
    try:
        value = int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(lineno, f"integer of {len(token)} digits is too long") from None
    if value < minimum:
        raise ParseError(lineno, f"expected a positive integer, got {value}")
    return value


def serialize(s: FlowSystem) -> str:
    """Deterministic .msf text: declaration order for elements, conn lines
    in (source, target) order, as ConnectionMap reads them.
    parse(serialize(s)) is structurally s."""
    lines = [f"dim {s.dimension}"]
    if s.label is not None:
        lines.append(f"label {s.label}")
    if s.expected_betti is not None:
        lines.append("expect-betti " + " ".join(str(b) for b in s.expected_betti))
    for e in s.elements:
        if e.is_rest:
            lines.append(f"rest {e.name} {e.index}")
        else:
            lines.append(f"orbit {e.name} {e.index} {'twisted' if e.twisted else 'untwisted'}")
    for (src, dst), c in s.connections.items():
        lines.append(f"conn {src} {dst} {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def validate(s: FlowSystem, strict: bool = False) -> list[Violation]:
    """Check structural invariants; returns violations as data.

    Non-strict rules: unique names, index ranges, the dimension rule
    u(src) + s(dst) >= n+1 for every connection, no outgoing connections from
    attractors (sinks, index-0 orbits), no incoming connections to repellers
    (sources, index-(n-1) orbits), and acyclicity of the connection digraph.

    Acyclicity is the Smale ordering that transversality forces: where the
    dimension rule holds, the rank 2 * index (+1 for an orbit) strictly falls
    along a connection, unless it joins two orbits of one index.  So the
    digraph is searched for a cycle only when some connection breaks the
    rule or joins two such orbits.

    Strict mode (2D only) additionally requires every saddle to have total
    outgoing multiplicity exactly 2 and total incoming multiplicity exactly 2
    (one per separatrix).
    """
    if strict and s.dimension != 2:
        raise ValueError("strict mode only applies to 2-dimensional systems")

    violations = list(s._violations)
    if strict:
        outs: dict[str, int] = {}
        ins: dict[str, int] = {}
        for (src, dst), c in s.connections._any_order():
            outs[src] = outs.get(src, 0) + c
            ins[dst] = ins.get(dst, 0) + c
        for e in s.elements:
            if e.is_rest and e.index == 1:
                out, inc = outs.get(e.name, 0), ins.get(e.name, 0)
                if out != 2 or inc != 2:
                    violations.append(
                        Violation(
                            "saddle-degree",
                            (e.name,),
                            f"saddle {e.name} has outgoing multiplicity {out} and incoming {inc}; strict mode wants exactly 2 and 2",
                        )
                    )
    return violations


def _check(s: FlowSystem) -> list[Violation]:
    """The non-strict violations of s, rule by rule, in validate's order."""
    n = s.dimension
    duplicates: list[Violation] = []
    ranges: list[Violation] = []
    # name -> (element, unstable dim, stable dim, attractor?, repeller?, rank) of its last declaration
    table: dict[str, tuple[CriticalElement, int, int, bool, bool, int]] = {}
    for e in s.elements:
        if e.name in table:
            duplicates.append(Violation("duplicate-name", (e.name,), f"element name {e.name!r} declared more than once"))
        orbit = e.kind == ORBIT
        top = n - 1 if orbit else n
        if not (0 <= e.index <= top):
            message = f"{e.kind} {e.name} has index {e.index}, allowed range 0..{top} in dimension {n}"
            ranges.append(Violation("index-range", (e.name,), message))
        table[e.name] = (e, e.index + 1 if orbit else e.index, n - e.index, e.index == 0, e.index == top, 2 * e.index + orbit)
    violations = duplicates + ranges
    ranked = True  # the rank falls along every connection between known elements, so there is no cycle

    # Each connection's findings go with its pair; a stable sort by pair then
    # reports them in (source, target) order, whatever order the map holds.
    found: list[tuple[tuple[str, str], Violation]] = []
    for pair, c in s.connections._any_order():
        src, dst = pair
        if src not in table or dst not in table:
            missing = [x for x in (src, dst) if x not in table]
            found.append(
                (pair, Violation("unknown-element", tuple(missing), f"connection {src} -> {dst} references unknown element(s) {missing}"))
            )
            continue
        a, u, _, attractor, _, rank = table[src]
        b, _, sd, _, repeller, below = table[dst]
        ranked = ranked and below < rank
        if u + sd < n + 1:
            message = f"c({src},{dst})={c} requires u+s >= {n + 1}, got u({src})={u}, s({dst})={sd}"
            found.append((pair, Violation("dimension-rule", (src, dst), message)))
        if attractor:
            found.append(
                (pair, Violation("attractor-rule", (src,), f"attractor {src} ({a.kind}, index {a.index}) has an outgoing connection to {dst}"))
            )
        if repeller:
            found.append(
                (pair, Violation("repeller-rule", (dst,), f"repeller {dst} ({b.kind}, index {b.index}) has an incoming connection from {src}"))
            )
    found.sort(key=itemgetter(0))
    violations += [v for _, v in found]

    cycle = None if ranked else _find_cycle(s)
    if cycle:
        violations.append(
            Violation("acyclicity", tuple(cycle), "connection digraph has a cycle: " + " -> ".join(cycle))
        )
    return violations


def _find_cycle(s: FlowSystem) -> list[str] | None:
    """First cycle of the direct-connection digraph, or None."""
    names = list(dict.fromkeys(e.name for e in s.elements))
    index = {name: i for i, name in enumerate(names)}
    children: list[list[int]] = [[] for _ in names]
    for src, dst in s.connections.pairs():
        if src in index and dst in index:
            children[index[src]].append(index[dst])

    position = [-1] * len(names)  # place on the current path while on it; -1 unseen, -2 done
    for root in range(len(names)):
        if position[root] != -1:
            continue
        path, stack = [root], [iter(children[root])]
        position[root] = 0
        while stack:
            for w in stack[-1]:
                if position[w] >= 0:
                    return [names[v] for v in path[position[w] :]] + [names[w]]
                if position[w] == -1:
                    position[w] = len(path)
                    path.append(w)
                    stack.append(iter(children[w]))
                    break
            else:
                position[path.pop()] = -2
                stack.pop()
    return None
