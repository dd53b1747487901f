"""Closed-orbit removal: replace an orbit by a rest-point pair.

An orbit of index k is traded for rest points p (index k+1) and q (index k)
joined by exactly two flow lines.  The orbit's former connections must be
redistributed onto p and q; a ChoiceDescriptor pins down one redistribution.
In 2D the admissible redistributions can be enumerated outright — that
enumeration deliberately over-approximates geometric realizability, emitting
every combinatorially admissible choice.

``verify_franks_claims`` checks the three structural facts that make the
before/after chain complexes agree: the doomed line of the middle boundary
matrix is zero, the middle matrices coincide under the orbit-to-pair
correspondence, and the outer matrices differ in that one line only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations_with_replacement
from typing import Iterator

from .ejcomplex import (
    BasisElement,
    DiffCell,
    InvalidSystemError,
    MINUS,
    PLAIN,
    PLUS,
    _alignment,
    _diff,
    build_complex,
    multiply,  # noqa: F401  (unused here; the benchmark's tracer tests check that it patches this binding too)
)
from .flowdata import (
    REST,
    ConnectionMap,
    CriticalElement,
    FlowSystem,
    NAME_RE,
    ParseError,
    directive_lines,
    read_int,
    validate,
)


class ChoiceError(ValueError):
    """A descriptor violates one of the admissibility constraints."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


def _check_token(name) -> None:
    """Refuse a name that a .msc line would not read back as the one token it
    is.  An identifier always is one, and is the cheap common case."""
    if not (isinstance(name, str) and (name.isidentifier() or (name.split() == [name] and "#" not in name))):
        raise ValueError(f"name {name!r} must be one token with no whitespace and no '#'")


def _freeze_counts(counts) -> tuple[tuple[str, int], ...]:
    items = dict(counts)
    for name, c in items.items():
        _check_token(name)
        if type(c) is not int or c < 1:
            raise ValueError(f"count for {name!r} must be a positive integer, got {c!r}")
    return tuple(sorted(items.items()))


@dataclass(frozen=True)
class ChoiceDescriptor:
    """How one orbit's connections are redistributed onto the pair (p, q).

    The four maps may be given as dicts or item iterables; they are stored
    as sorted tuples so descriptors hash and compare by content.
    """

    orbit: str
    p_name: str
    q_name: str
    p_out: tuple[tuple[str, int], ...] = ()
    q_out: tuple[tuple[str, int], ...] = ()
    p_in: tuple[tuple[str, int], ...] = ()
    q_in: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for name in (self.orbit, self.p_name, self.q_name):
            _check_token(name)
        for field_name in ("p_out", "q_out", "p_in", "q_in"):
            object.__setattr__(self, field_name, _freeze_counts(getattr(self, field_name)))

    def summary(self) -> str:
        parts = [f"orbit {self.orbit} -> ({self.p_name}, {self.q_name})"]
        for tag, items in (("p_out", self.p_out), ("q_out", self.q_out), ("p_in", self.p_in), ("q_in", self.q_in)):
            if items:
                inner = ", ".join(f"{name}:{c}" for name, c in items)
                parts.append(f"{tag}={{{inner}}}")
        return " ".join(parts)


@dataclass(frozen=True)
class ClaimOutcome:
    name: str
    description: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClaimsReport:
    """Outcome of the three before/after matrix claims plus the consequence
    they are for: equality (and vanishing) of the composed boundaries."""

    case: str  # "repeller" or "attractor"
    outcomes: tuple[ClaimOutcome, ...]
    products_equal: bool
    products_zero: bool

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


@dataclass(frozen=True)
class PerturbationResult:
    system: FlowSystem
    choice: ChoiceDescriptor
    attaching_degree: int  # 0 untwisted, 2 twisted
    claims_report: ClaimsReport | None = None


def validate_choice(s: FlowSystem, d: ChoiceDescriptor) -> None:
    """Raise ChoiceError unless d names an orbit of s, a fresh pair of valid
    names, and a redistribution onto exactly the orbit's neighbours.  The
    flow rules (the dimension rule above all) are validate's, and
    apply_choice asks it on the system it builds."""
    gamma = s.element(d.orbit)
    if not gamma.is_orbit:
        raise ChoiceError("orbit", f"{d.orbit} is not a closed orbit")
    if d.p_name == d.q_name:
        raise ChoiceError("name-collision", f"p and q are both named {d.p_name!r}")
    for fresh in (d.p_name, d.q_name):
        if not NAME_RE.match(fresh):
            raise ChoiceError("name-collision", f"invalid name {fresh!r}")
        if s.has_element(fresh) and fresh != d.orbit:
            raise ChoiceError("name-collision", f"{fresh!r} already names an element")

    down = s.connections.outgoing(d.orbit)
    up = s.connections.incoming(d.orbit)

    for tag, counts, allowed in (
        ("p_out", dict(d.p_out), down),
        ("q_out", dict(d.q_out), down),
        ("p_in", dict(d.p_in), up),
        ("q_in", dict(d.q_in), up),
    ):
        stray = sorted(set(counts) - set(allowed))
        if stray:
            direction = "downstream" if tag.endswith("out") else "upstream"
            raise ChoiceError("support", f"{tag} targets {stray} are not {direction} of {d.orbit}")

    uncovered_down = sorted(set(down).difference(dict(d.p_out), dict(d.q_out)))
    if uncovered_down:
        raise ChoiceError("coverage", f"downstream element(s) {uncovered_down} of {d.orbit} received no new connection")
    uncovered_up = sorted(set(up).difference(dict(d.p_in), dict(d.q_in)))
    if uncovered_up:
        raise ChoiceError("coverage", f"upstream element(s) {uncovered_up} of {d.orbit} received no new connection")


def apply_choice(s: FlowSystem, d: ChoiceDescriptor) -> PerturbationResult:
    """Replace the orbit γ of index k named by d with rest points p (index
    k+1) and q (index k) in γ's declaration slot, joined by c(p, q) = 2, and
    hand γ's connections on to p and q as d says.  Every connection not
    touching γ is left untouched.

    An invalid s is refused with InvalidSystemError, and a result that
    breaks a flow rule with ChoiceError naming validate's first violation."""
    if violations := validate(s):
        raise InvalidSystemError(violations)
    validate_choice(s, d)
    system = _replace_orbit(s, d)
    if violations := validate(system):
        raise ChoiceError(violations[0].rule, violations[0].message)
    result = PerturbationResult(system=system, choice=d, attaching_degree=2 if s.element(d.orbit).twisted else 0)
    if s.dimension == 2:
        result = replace(result, claims_report=verify_franks_claims(s, result))
    return result


def _replace_orbit(s: FlowSystem, d: ChoiceDescriptor) -> FlowSystem:
    """The system apply_choice builds, for a d that validate_choice admits."""
    gamma = s.element(d.orbit)
    elements: list[CriticalElement] = []
    for e in s.elements:
        if e.name == d.orbit:
            elements.append(CriticalElement(d.p_name, REST, gamma.index + 1))
            elements.append(CriticalElement(d.q_name, REST, gamma.index))
        else:
            elements.append(e)

    counts = {pair: c for pair, c in s.connections._any_order() if d.orbit not in pair}
    counts[(d.p_name, d.q_name)] = 2
    for target, c in d.p_out:
        counts[(d.p_name, target)] = c
    for target, c in d.q_out:
        counts[(d.q_name, target)] = c
    for source, c in d.p_in:
        counts[(source, d.p_name)] = c
    for source, c in d.q_in:
        counts[(source, d.q_name)] = c
    return replace(s, elements=tuple(elements), connections=ConnectionMap(counts))


def enumerate_choices_2d(s: FlowSystem, orbit_name: str) -> list[ChoiceDescriptor]:
    """All admissible redistribution choices for a 2D orbit.

    Repelling orbit (index 1): the new source p inherits every downstream
    count, and the new saddle's two free separatrices land on any size-2
    multiset of index-0 elements downstream of the orbit.  Attracting orbit
    (index 0): mirror image — the new sink q inherits the upstream counts and
    the new saddle p is fed by any size-2 multiset of index-2 rest points or
    repelling orbits upstream; p's only outgoing flow is the double
    connection to q that every replacement carries.

    p and q are named ``p_<orbit>`` and ``q_<orbit>``, or, when s already
    has an element of that name, the first free ``p_<orbit>_<k>`` (k = 2,
    3, ...), and likewise for q.
    """
    if s.dimension != 2:
        raise ValueError(f"choice enumeration is only defined in dimension 2 (got {s.dimension})")
    gamma = s.element(orbit_name)
    if not gamma.is_orbit:
        raise ValueError(f"{orbit_name} is not a closed orbit")
    if gamma.index not in (0, s.dimension - 1):
        raise ValueError(f"orbit index {gamma.index} outside the handled range {{0, {s.dimension - 1}}}")

    p_name = _fresh_name(s, f"p_{orbit_name}")
    q_name = _fresh_name(s, f"q_{orbit_name}")
    down = s.connections.outgoing(orbit_name)
    up = s.connections.incoming(orbit_name)
    choices: list[ChoiceDescriptor] = []

    if gamma.index == s.dimension - 1:  # repelling orbit
        if up:
            raise ValueError(f"repelling orbit {orbit_name} has upstream connections; system is invalid")
        landing = [e.name for e in s.elements if e.name in down and e.index == 0]
        for pair in combinations_with_replacement(landing, 2):
            choices.append(ChoiceDescriptor(orbit_name, p_name, q_name, p_out=down, q_out=Counter(pair)))
    else:  # attracting orbit
        if down:
            raise ValueError(f"attracting orbit {orbit_name} has downstream connections; system is invalid")
        feeders = [
            e.name
            for e in s.elements
            if e.name in up and ((e.is_rest and e.index == s.dimension) or (e.is_orbit and e.index == s.dimension - 1))
        ]
        for pair in combinations_with_replacement(feeders, 2):
            choices.append(ChoiceDescriptor(orbit_name, p_name, q_name, q_in=up, p_in=Counter(pair)))
    return choices


def _fresh_name(s: FlowSystem, stem: str) -> str:
    """``stem`` if no element of s has that name, else the first free
    ``stem_2``, ``stem_3``, ..."""
    name, k = stem, 2
    while s.has_element(name):
        name, k = f"{stem}_{k}", k + 1
    return name


def _basis_bijection(before_cx, orbit: str, p_name: str, q_name: str) -> dict[BasisElement, BasisElement]:
    """The orbit's lower copy to q and its upper copy to p; every other generator to itself."""
    pair = {MINUS: q_name, PLUS: p_name}
    return {x: BasisElement(pair[x.flavor], PLAIN, x.degree) if x.origin == orbit else x for level in before_cx.bases for x in level}


def verify_franks_claims(before: FlowSystem, after: PerturbationResult) -> ClaimsReport:
    """Evaluate the three replacement claims on the actual complexes.

    Claim (i): the boundary line through the doomed orbit copy is zero on
    both sides (the row of the lower copy for a repeller, the column of the
    upper copy for an attractor).  Claim (ii): the boundary matrices of the
    degree holding both copies agree under the correspondence upper->p,
    lower->q.  Claim (iii): the adjacent boundary matrices differ at most in
    the line belonging to the replaced copy.
    """
    if before.dimension != 2:
        raise ValueError("claim verification is defined for 2-dimensional systems")
    d = after.choice
    gamma = before.element(d.orbit)
    if not gamma.is_orbit:
        raise ValueError(f"{d.orbit} is not a closed orbit")
    k = gamma.index
    case = "repeller" if k == before.dimension - 1 else "attractor"

    cx_before = build_complex(before)
    cx_after = build_complex(after.system)
    bijection = _basis_bijection(cx_before, d.orbit, d.p_name, d.q_name)
    perms = _alignment(cx_before, cx_after, bijection)  # once, for the matrices and the products
    diff = _diff(cx_before, cx_after, perms)

    lower = BasisElement(d.orbit, MINUS, k)
    upper = BasisElement(d.orbit, PLUS, k + 1)
    mid = k + 1  # the boundary degree touching both orbit copies

    if case == "repeller":
        witnesses_i = _line_witnesses(cx_before, mid, 0, lower) + _line_witnesses(cx_after, mid, 0, bijection[lower])
        outer = k
        in_line = lambda cell: cell.col == lower  # noqa: E731
        line_desc = f"column of {lower.label}"
        zero_desc = f"row of {lower.label} in d_{mid}"
    else:
        witnesses_i = _line_witnesses(cx_before, mid, 1, upper) + _line_witnesses(cx_after, mid, 1, bijection[upper])
        outer = k + 2
        in_line = lambda cell: cell.row == upper  # noqa: E731
        line_desc = f"row of {upper.label}"
        zero_desc = f"column of {upper.label} in d_{mid}"

    # In dimension 2 every differing cell lies in d_mid or d_outer.
    mid_cells = tuple(c for c in diff if c.degree == mid)
    off_line = tuple(c for c in diff if c.degree == outer and not in_line(c))

    claims = (  # each claim holds exactly when it has no witness
        ("i", f"{zero_desc} is zero on both sides", witnesses_i),
        ("ii", f"d_{mid} agrees on both sides under the correspondence", tuple(map(_cell_str, mid_cells))),
        ("iii", f"d_{outer} differs only in the {line_desc}", tuple(map(_cell_str, off_line))),
    )
    outcomes = tuple(ClaimOutcome(name, text, not witnesses, witnesses) for name, text, witnesses in claims)

    (prod_before,), (prod_after,) = cx_before.squares, cx_after.squares  # d_1 . d_2, the one product in dimension 2
    products_zero = prod_before.is_zero() and prod_after.is_zero()
    # Only a nonzero product is permuted: after's onto before's bases of degrees 0 and 2.
    products_equal = products_zero or prod_after.permuted(*perms[::2]) == prod_before

    return ClaimsReport(case=case, outcomes=outcomes, products_equal=products_equal, products_zero=products_zero)


def _line_witnesses(cx, degree: int, axis: int, x: BasisElement) -> tuple[str, ...]:
    """Nonzero entries of d_degree along the row (axis 0) or the column (axis 1) of x."""
    rows, cols = axes = cx.basis(degree - 1), cx.basis(degree)
    # An origin names one generator of a degree at most (an orbit's two copies
    # sit in adjacent degrees), so x is found by a str compare, not a dataclass ==.
    at = [b.origin for b in axes[axis]].index(x.origin)
    d, line = cx.boundary(degree), range(len(axes[1 - axis]))
    cells = [(at, j) for j in line] if axis == 0 else [(i, at) for i in line]
    return tuple(f"d_{degree}[{rows[i].label}, {cols[j].label}] = 1" for i, j in cells if d[i, j])


def _cell_str(cell: DiffCell) -> str:
    return f"d_{cell.degree}[{cell.row.label}, {cell.col.label}]: {cell.left} vs {cell.right}"


def resolve_all_detailed(s: FlowSystem) -> list[tuple[FlowSystem, tuple[ChoiceDescriptor, ...]]]:
    """Every gradient-like resolution of s together with the choices taken:
    the deepest nodes of _resolution_tree in its order (s itself when s has
    no orbit).  A later orbit's choices depend on the choice of an earlier
    orbit joined to it, so this is a product of per-orbit choice lists only
    when no two orbits are joined.  Each node's system is built once, from
    its parent's, kept on a path of one system per depth."""
    orbits = sum(e.is_orbit for e in s.elements)
    path, leaves = [s], []
    for chosen in _resolution_tree(s):
        if chosen:
            del path[len(chosen):]
            path.append(_replace_orbit(path[-1], chosen[-1]))
        if len(chosen) == orbits:
            leaves.append((path[-1], chosen))
    return leaves


def _resolution_tree(s: FlowSystem) -> Iterator[tuple[ChoiceDescriptor, ...]]:
    """The choices taken at each node of the tree of choices, depth-first
    and before its children, from () at the root; orbits are resolved in
    declaration order.

    An invalid s is refused with its violations.  Each choice is applied
    unchecked: an enumerated choice for a valid system is admissible and its
    result valid again (p and q get fresh names and indices in range, every
    new connection keeps the dimension rule and with it the attractor and
    repeller rules, and a cycle through p or q would have run through the
    orbit).  Partial resolutions after equally many steps have the same
    elements in the same order, a step putting a pair named from the names
    already there in the orbit's slot, so an orbit's choices depend only on
    its (outgoing, incoming) counts.  Those are s's, except that an edge to
    an earlier orbit goes to its p and q with the counts in that orbit's
    choice.  So the choices are keyed on those counts, read off the choices
    of the earlier orbits joined to it, and enumerated once per distinct
    key; only then is the partial resolution built, to enumerate them on."""
    orbit_names = [e.name for e in s.elements if e.is_orbit]
    if orbit_names and s.dimension != 2:
        raise ValueError(
            f"automatic choice enumeration is unsupported in dimension {s.dimension}; "
            "apply one explicit choice per orbit with apply_choice or msflow perturb --choice"
        )
    if violations := validate(s):
        raise InvalidSystemError(violations)

    cm = s.connections
    joined = [[j for j, o in enumerate(orbit_names[:i]) if cm.count(x, o) or cm.count(o, x)] for i, x in enumerate(orbit_names)]
    choices: dict[tuple, list[ChoiceDescriptor]] = {}  # (orbit, its counts in each joined earlier choice) -> its choices
    stack: list[tuple[ChoiceDescriptor, ...]] = [()]
    while stack:
        yield (chosen := stack.pop())
        if (depth := len(chosen)) < len(orbit_names):
            orbit = orbit_names[depth]
            earlier = map(chosen.__getitem__, joined[depth])
            key = (orbit, *(dict(side).get(orbit) for d in earlier for side in (d.p_out, d.q_out, d.p_in, d.q_in)))
            if key not in choices:
                choices[key] = enumerate_choices_2d(reduce(_replace_orbit, chosen, s), orbit)
            stack += [chosen + (d,) for d in reversed(choices[key])]


# ---------------------------------------------------------------------------
# .msc descriptor files


def parse_choice(text: str | bytes) -> ChoiceDescriptor:
    """Parse a .msc choice descriptor."""
    orbit: str | None = None
    p_name: str | None = None
    q_name: str | None = None
    maps: dict[str, dict[str, int]] = {"pout": {}, "qout": {}, "pin": {}, "qin": {}}

    for lineno, (directive, *args), _ in directive_lines(text):
        if directive == "orbit":
            if orbit is not None:
                raise ParseError(lineno, "duplicate orbit directive")
            if len(args) != 1:
                raise ParseError(lineno, "orbit needs <name>")
            orbit = args[0]
        elif directive == "new":
            if p_name is not None:
                raise ParseError(lineno, "duplicate new directive")
            if len(args) != 2:
                raise ParseError(lineno, "new needs <p-name> <q-name>")
            p_name, q_name = args
        elif directive in maps:
            if len(args) != 2:
                raise ParseError(lineno, f"{directive} needs <element> <count>")
            name, count = args[0], read_int(lineno, args[1], minimum=1)
            if name in maps[directive]:
                raise ParseError(lineno, f"duplicate {directive} line for {name!r}")
            maps[directive][name] = count
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")

    if orbit is None:
        raise ParseError(1, "missing orbit directive")
    if p_name is None or q_name is None:
        raise ParseError(1, "missing new directive")
    return ChoiceDescriptor(
        orbit=orbit,
        p_name=p_name,
        q_name=q_name,
        p_out=maps["pout"],
        q_out=maps["qout"],
        p_in=maps["pin"],
        q_in=maps["qin"],
    )

