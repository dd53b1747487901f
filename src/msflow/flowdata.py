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
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .gf2 import bits

NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
DIGITS_RE = re.compile(r"[0-9]+")

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
        if self.index < 0:
            raise ValueError(f"element {self.name}: index must be non-negative")
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

    def unstable_dim(self) -> int:
        """Dimension of the unstable manifold (index, or index+1 for orbits)."""
        return self.index + 1 if self.is_orbit else self.index

    def stable_dim(self, n: int) -> int:
        """Dimension of the stable manifold in an n-manifold."""
        return n - self.index


class ConnectionMap:
    """Sparse map (source name, target name) -> positive integer count.

    Absent pairs mean count 0.  Self-pairs are unrepresentable: attempting to
    store one raises.  Instances are immutable and hashable.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[tuple[str, str], int] | Iterable[tuple[tuple[str, str], int]] = ()):
        items = dict(counts)
        for (src, dst), c in items.items():
            if src == dst:
                raise ValueError(f"self-connection {src} -> {dst} is not representable")
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"connection {src} -> {dst}: count must be a positive integer, got {c!r}")
        self._counts = dict(sorted(items.items()))

    def count(self, src: str, dst: str) -> int:
        return self._counts.get((src, dst), 0)

    def parity(self, src: str, dst: str) -> int:
        """The connection count mod 2 (the chain-complex coefficient)."""
        return self.count(src, dst) & 1

    def items(self) -> Iterator[tuple[tuple[str, str], int]]:
        return iter(self._counts.items())

    def pairs(self) -> Iterator[tuple[str, str]]:
        return iter(self._counts)

    def outgoing(self, name: str) -> dict[str, int]:
        return {dst: c for (src, dst), c in self._counts.items() if src == name}

    def incoming(self, name: str) -> dict[str, int]:
        return {src: c for (src, dst), c in self._counts.items() if dst == name}

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConnectionMap):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(tuple(self._counts.items()))

    def __repr__(self) -> str:
        return f"ConnectionMap({self._counts!r})"


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
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "elements", tuple(self.elements))
        if not isinstance(self.connections, ConnectionMap):
            object.__setattr__(self, "connections", ConnectionMap(self.connections))
        if self.expected_betti is not None:
            object.__setattr__(self, "expected_betti", tuple(self.expected_betti))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.elements)

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

    def is_gradient_like(self) -> bool:
        """True when the system has no closed orbits."""
        return not self.orbits()

    def same_structure(self, other: "FlowSystem") -> bool:
        """Equality of dimension, element list, and connections (label and
        expected Betti numbers are presentation metadata and are ignored)."""
        return (
            self.dimension == other.dimension
            and self.elements == other.elements
            and self.connections == other.connections
        )


# ---------------------------------------------------------------------------
# Text formats: the line reader .msf, .msc and .pos share, and .msf itself


def directive_lines(text: str | bytes) -> Iterator[tuple[int, str, list[str], str]]:
    """(line number, directive, argument tokens, text after the directive)
    for each line of a .msf, .msc or .pos text that is not blank once its
    ``#`` comment is cut.  Tokens are separated by any run of whitespace."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens = line.split()
            yield lineno, tokens[0], tokens[1:], line[len(tokens[0]) :].lstrip()


def parse(text: str | bytes) -> FlowSystem:
    """Parse .msf text into a FlowSystem.

    Only syntax and referential integrity are checked here; semantic rules
    (index ranges, dimension rule, ...) are the validator's job, so malformed
    systems can be loaded for diagnosis.
    """
    dimension: int | None = None
    label: str | None = None
    expected: tuple[int, ...] | None = None
    elements: list[CriticalElement] = []
    names: set[str] = set()
    counts: dict[tuple[str, str], int] = {}

    for lineno, directive, args, rest in directive_lines(text):
        if directive != "dim" and dimension is None:
            raise ParseError(lineno, "the dim directive must come first")

        if directive == "dim":
            if dimension is not None:
                raise ParseError(lineno, "duplicate dim directive")
            if len(args) != 1:
                raise ParseError(lineno, "dim needs 1 argument(s)")
            dimension = read_int(lineno, args[0])
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
            expected = tuple(read_int(lineno, a) for a in args)
        elif directive == "rest":
            if len(args) != 2:
                raise ParseError(lineno, f"rest needs <name> <index>, got {rest!r}")
            name, index = args[0], read_int(lineno, args[1])
            _check_name(lineno, name, names)
            elements.append(CriticalElement(name, REST, index))
            names.add(name)
        elif directive == "orbit":
            if len(args) != 3 or args[2] not in ("twisted", "untwisted"):
                raise ParseError(lineno, f"orbit needs <name> <index> <twisted|untwisted>, got {rest!r}")
            name, index = args[0], read_int(lineno, args[1])
            _check_name(lineno, name, names)
            elements.append(CriticalElement(name, ORBIT, index, twisted=args[2] == "twisted"))
            names.add(name)
        elif directive == "conn":
            if len(args) != 3:
                raise ParseError(lineno, f"conn needs <source> <target> <count>, got {rest!r}")
            src, dst = args[0], args[1]
            count = read_int(lineno, args[2], minimum=1)
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

    return FlowSystem(
        dimension=dimension,
        elements=tuple(elements),
        connections=ConnectionMap(counts),
        label=label,
        expected_betti=expected,
    )


def _check_name(lineno: int, name: str, seen: set[str]) -> None:
    if not NAME_RE.match(name):
        raise ParseError(lineno, f"invalid name {name!r}")
    if name in seen:
        raise ParseError(lineno, f"duplicate element name {name!r}")


def read_int(lineno: int, token: str, minimum: int = 0) -> int:
    """The integer spelled by ``token``, which must be ASCII digits only, so
    that every accepted file serializes back to the same text."""
    if not DIGITS_RE.fullmatch(token):
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
    sorted by (source, target).  parse(serialize(s)) is structurally s."""
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
    for (src, dst), c in sorted(s.connections.items()):
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

    Strict mode (2D only) additionally requires every saddle to have total
    outgoing multiplicity exactly 2 and total incoming multiplicity exactly 2
    (one per separatrix).
    """
    if strict and s.dimension != 2:
        raise ValueError("strict mode only applies to 2-dimensional systems")

    n = s.dimension
    violations: list[Violation] = []

    seen: set[str] = set()
    for e in s.elements:
        if e.name in seen:
            violations.append(Violation("duplicate-name", (e.name,), f"element name {e.name!r} declared more than once"))
        seen.add(e.name)

    for e in s.elements:
        top = n if e.is_rest else n - 1
        if not (0 <= e.index <= top):
            violations.append(
                Violation(
                    "index-range",
                    (e.name,),
                    f"{e.kind} {e.name} has index {e.index}, allowed range 0..{top} in dimension {n}",
                )
            )

    known = {e.name: e for e in s.elements}
    for (src, dst), c in s.connections.items():
        missing = [x for x in (src, dst) if x not in known]
        if missing:
            violations.append(
                Violation("unknown-element", tuple(missing), f"connection {src} -> {dst} references unknown element(s) {missing}")
            )
            continue
        a, b = known[src], known[dst]
        u, sd = a.unstable_dim(), b.stable_dim(n)
        if u + sd < n + 1:
            violations.append(
                Violation(
                    "dimension-rule",
                    (src, dst),
                    f"c({src},{dst})={c} requires u+s >= {n + 1}, got u({src})={u}, s({dst})={sd}",
                )
            )
        if (a.is_rest and a.index == 0) or (a.is_orbit and a.index == 0):
            violations.append(
                Violation("attractor-rule", (src,), f"attractor {src} ({a.kind}, index {a.index}) has an outgoing connection to {dst}")
            )
        if (b.is_rest and b.index == n) or (b.is_orbit and b.index == n - 1):
            violations.append(
                Violation("repeller-rule", (dst,), f"repeller {dst} ({b.kind}, index {b.index}) has an incoming connection from {src}")
            )

    cycle = _find_cycle(s)
    if cycle:
        violations.append(
            Violation("acyclicity", tuple(cycle), "connection digraph has a cycle: " + " -> ".join(cycle))
        )

    if strict:
        for e in s.elements:
            if e.is_rest and e.index == 1:
                out = sum(s.connections.outgoing(e.name).values())
                inc = sum(s.connections.incoming(e.name).values())
                if out != 2 or inc != 2:
                    violations.append(
                        Violation(
                            "saddle-degree",
                            (e.name,),
                            f"saddle {e.name} has outgoing multiplicity {out} and incoming {inc}; strict mode wants exactly 2 and 2",
                        )
                    )

    return violations


def _find_cycle(s: FlowSystem) -> list[str] | None:
    """First cycle of the direct-connection digraph, or None."""
    adjacency: dict[str, list[str]] = {e.name: [] for e in s.elements}
    for (src, dst) in s.connections.pairs():
        if src in adjacency and dst in adjacency:
            adjacency[src].append(dst)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in adjacency}

    def dfs(start: str) -> list[str] | None:
        stack: list[tuple[str, Iterator[str]]] = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    i = path.index(nxt)
                    return path[i:] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(adjacency[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
        return None

    for name in adjacency:
        if color[name] == WHITE:
            found = dfs(name)
            if found:
                return found
    return None


# ---------------------------------------------------------------------------
# Flow queries


def direct_downstream(s: FlowSystem, name: str) -> dict[str, int]:
    """Directly connected targets of ``name`` with their counts."""
    s.element(name)
    return s.connections.outgoing(name)


def direct_upstream(s: FlowSystem, name: str) -> dict[str, int]:
    """Directly connected sources into ``name`` with their counts."""
    s.element(name)
    return s.connections.incoming(name)


def closure_masks(children: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Reflexive-transitive closure of the digraph on nodes 0..n-1 given by
    ``children``, both ways, as int masks: bit j of ``down[i]`` is set when j
    is reachable from i, and bit j of ``up[i]`` when i is reachable from j.

    One iterative depth-first pass ORs each node's children's masks into its
    ``down``; the nodes of a cycle (a strongly connected component, found as
    in Tarjan's algorithm) all get the union of theirs.  Components close
    after every component they reach, so a pass over them in reverse order
    hands each finished ``up`` on to the children."""
    n = len(children)
    down = [1 << i for i in range(n)]
    low = [0] * n  # 0 unseen; while open, the lowest open position (from 1) it reaches; n + 1 once closed
    open_nodes: list[int] = []
    closed: list[list[int]] = []
    for root in range(n):
        if low[root]:
            continue
        open_nodes.append(root)
        low[root] = 1
        stack = [(root, iter(children[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not low[w]:
                    open_nodes.append(w)
                    low[w] = len(open_nodes)
                    stack.append((w, iter(children[w])))
                    break
                down[v] |= down[w]
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                stack.pop()
                if open_nodes[low[v] - 1] == v:  # v is the first open node of its component
                    members = open_nodes[low[v] - 1 :]
                    del open_nodes[low[v] - 1 :]
                    union = reduce(or_, [down[w] for w in members])
                    for w in members:
                        down[w], low[w] = union, n + 1
                    closed.append(members)
                if stack:
                    u = stack[-1][0]
                    down[u] |= down[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
    up = [1 << i for i in range(n)]
    for members in reversed(closed):
        union = reduce(or_, [up[w] for w in members])
        for w in members:
            up[w] = union
            for child in children[w]:
                up[child] |= union
    return down, up


def reachability(s: FlowSystem) -> dict[str, frozenset[str]]:
    """Reflexive-transitive closure of the direct-connection relation.

    reachability(s)[a] is the set of all elements reachable from a along
    connections, including a itself.  For valid (acyclic) systems this is a
    partial order: b in reachability(s)[a] reads "b lies below a".
    """
    names = list(dict.fromkeys(e.name for e in s.elements))
    declared = len(names)
    # A connection's undeclared target is reached, but never left.
    names += sorted({dst for _, dst in s.connections.pairs()} - set(names))
    index = {name: i for i, name in enumerate(names)}
    children: list[list[int]] = [[] for _ in names]
    for src, dst in s.connections.pairs():
        if index.get(src, declared) < declared:
            children[index[src]].append(index[dst])
    down, _ = closure_masks(children)
    return {name: frozenset(names[j] for j in bits(down[i])) for i, name in enumerate(names[:declared])}
