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

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

from .ejcomplex import (
    BasisElement,
    DiffCell,
    MINUS,
    PLAIN,
    PLUS,
    build_complex,
    compare_matrices,
    diff_cells,
    multiply,
)
from .flowdata import (
    REST,
    ConnectionMap,
    CriticalElement,
    FlowSystem,
    NAME_RE,
    ParseError,
    direct_downstream,
    direct_upstream,
    directive_lines,
    read_int,
)


class ChoiceError(ValueError):
    """A descriptor violates one of the admissibility constraints."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


def _freeze_counts(counts) -> tuple[tuple[str, int], ...]:
    items = dict(counts)
    for name, c in items.items():
        if not isinstance(c, int) or c < 1:
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
        for field_name in ("p_out", "q_out", "p_in", "q_in"):
            object.__setattr__(self, field_name, _freeze_counts(getattr(self, field_name)))

    def p_out_counts(self) -> dict[str, int]:
        return dict(self.p_out)

    def q_out_counts(self) -> dict[str, int]:
        return dict(self.q_out)

    def p_in_counts(self) -> dict[str, int]:
        return dict(self.p_in)

    def q_in_counts(self) -> dict[str, int]:
        return dict(self.q_in)

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
    """Raise ChoiceError unless d is admissible for s."""
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

    down = direct_downstream(s, d.orbit)
    up = direct_upstream(s, d.orbit)

    for tag, counts, allowed in (
        ("p_out", d.p_out_counts(), down),
        ("q_out", d.q_out_counts(), down),
        ("p_in", d.p_in_counts(), up),
        ("q_in", d.q_in_counts(), up),
    ):
        stray = sorted(set(counts) - set(allowed))
        if stray:
            direction = "downstream" if tag.endswith("out") else "upstream"
            raise ChoiceError("support", f"{tag} targets {stray} are not {direction} of {d.orbit}")

    uncovered_down = sorted(set(down) - set(d.p_out_counts()) - set(d.q_out_counts()))
    if uncovered_down:
        raise ChoiceError("coverage", f"downstream element(s) {uncovered_down} of {d.orbit} received no new connection")
    uncovered_up = sorted(set(up) - set(d.p_in_counts()) - set(d.q_in_counts()))
    if uncovered_up:
        raise ChoiceError("coverage", f"upstream element(s) {uncovered_up} of {d.orbit} received no new connection")

    n = s.dimension
    k = gamma.index
    u_dims = {d.p_name: k + 1, d.q_name: k}
    for tag, counts in (("p_out", d.p_out_counts()), ("q_out", d.q_out_counts())):
        new_src = d.p_name if tag == "p_out" else d.q_name
        for target in counts:
            u, sd = u_dims[new_src], s.element(target).stable_dim(n)
            if u + sd < n + 1:
                raise ChoiceError(
                    "dimension-rule",
                    f"{tag} connection {new_src} -> {target} has u+s = {u}+{sd} < {n + 1}",
                )
    for tag, counts in (("p_in", d.p_in_counts()), ("q_in", d.q_in_counts())):
        new_dst = d.p_name if tag == "p_in" else d.q_name
        sd = n - u_dims[new_dst]
        for source in counts:
            u = s.element(source).unstable_dim()
            if u + sd < n + 1:
                raise ChoiceError(
                    "dimension-rule",
                    f"{tag} connection {source} -> {new_dst} has u+s = {u}+{sd} < {n + 1}",
                )


def apply_choice(s: FlowSystem, d: ChoiceDescriptor, check_claims: bool = True) -> PerturbationResult:
    """Replace the orbit γ of index k named by d with rest points p (index
    k+1) and q (index k) in γ's declaration slot, joined by c(p, q) = 2, and
    hand γ's connections on to p and q as d says.  Every connection not
    touching γ is left untouched."""
    validate_choice(s, d)
    gamma = s.element(d.orbit)
    elements: list[CriticalElement] = []
    for e in s.elements:
        if e.name == d.orbit:
            elements.append(CriticalElement(d.p_name, REST, gamma.index + 1))
            elements.append(CriticalElement(d.q_name, REST, gamma.index))
        else:
            elements.append(e)

    counts = {pair: c for pair, c in s.connections.items() if d.orbit not in pair}
    counts[(d.p_name, d.q_name)] = 2
    for target, c in d.p_out:
        counts[(d.p_name, target)] = c
    for target, c in d.q_out:
        counts[(d.q_name, target)] = c
    for source, c in d.p_in:
        counts[(source, d.p_name)] = c
    for source, c in d.q_in:
        counts[(source, d.q_name)] = c

    result = PerturbationResult(
        system=replace(s, elements=tuple(elements), connections=ConnectionMap(counts)),
        choice=d,
        attaching_degree=2 if gamma.twisted else 0,
    )
    if check_claims and s.dimension == 2:
        result = replace(result, claims_report=verify_franks_claims(s, result))
    return result


def enumerate_choices_2d(
    s: FlowSystem,
    orbit_name: str,
    p_name: str | None = None,
    q_name: str | None = None,
) -> list[ChoiceDescriptor]:
    """All admissible redistribution choices for a 2D orbit.

    Repelling orbit (index 1): the new source p inherits every downstream
    count, and the new saddle's two free separatrices land on any size-2
    multiset of index-0 elements downstream of the orbit.  Attracting orbit
    (index 0): mirror image — the new sink q inherits the upstream counts and
    the new saddle p is fed by any size-2 multiset of index-2 rest points or
    repelling orbits upstream; p's only outgoing flow is the double
    connection to q that every replacement carries.

    Unless given, p and q are named ``p_<orbit>`` and ``q_<orbit>``, or, when
    s already has an element of that name, the first free ``p_<orbit>_<k>``
    (k = 2, 3, ...), and likewise for q.
    """
    if s.dimension != 2:
        raise ValueError(f"choice enumeration is only defined in dimension 2 (got {s.dimension})")
    gamma = s.element(orbit_name)
    if not gamma.is_orbit:
        raise ValueError(f"{orbit_name} is not a closed orbit")
    if gamma.index not in (0, s.dimension - 1):
        raise ValueError(f"orbit index {gamma.index} outside the handled range {{0, {s.dimension - 1}}}")

    p_name = p_name or _fresh_name(s, f"p_{orbit_name}")
    q_name = q_name or _fresh_name(s, f"q_{orbit_name}")
    down = direct_downstream(s, orbit_name)
    up = direct_upstream(s, orbit_name)
    choices: list[ChoiceDescriptor] = []

    if gamma.index == s.dimension - 1:  # repelling orbit
        if up:
            raise ValueError(f"repelling orbit {orbit_name} has upstream connections; system is invalid")
        landing = [e.name for e in s.elements if e.name in down and e.index == 0]
        for pair in combinations_with_replacement(landing, 2):
            q_out = {pair[0]: 2} if pair[0] == pair[1] else {pair[0]: 1, pair[1]: 1}
            choices.append(
                ChoiceDescriptor(orbit=orbit_name, p_name=p_name, q_name=q_name, p_out=down, q_out=q_out)
            )
    else:  # attracting orbit
        if down:
            raise ValueError(f"attracting orbit {orbit_name} has downstream connections; system is invalid")
        feeders = [
            e.name
            for e in s.elements
            if e.name in up and ((e.is_rest and e.index == s.dimension) or (e.is_orbit and e.index == s.dimension - 1))
        ]
        for pair in combinations_with_replacement(feeders, 2):
            p_in = {pair[0]: 2} if pair[0] == pair[1] else {pair[0]: 1, pair[1]: 1}
            choices.append(
                ChoiceDescriptor(orbit=orbit_name, p_name=p_name, q_name=q_name, q_in=up, p_in=p_in)
            )
    return choices


def _fresh_name(s: FlowSystem, stem: str) -> str:
    """``stem`` if no element of s has that name, else the first free
    ``stem_2``, ``stem_3``, ..."""
    name, k = stem, 2
    while s.has_element(name):
        name, k = f"{stem}_{k}", k + 1
    return name


def _basis_bijection(before_cx, orbit: str, p_name: str, q_name: str) -> dict[BasisElement, BasisElement]:
    mapping: dict[BasisElement, BasisElement] = {}
    for k in range(before_cx.top_degree + 1):
        for x in before_cx.basis(k):
            if x.origin == orbit and x.flavor == MINUS:
                mapping[x] = BasisElement(q_name, PLAIN, k)
            elif x.origin == orbit and x.flavor == PLUS:
                mapping[x] = BasisElement(p_name, PLAIN, k)
            else:
                mapping[x] = x
    return mapping


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
    diff = compare_matrices(cx_before, cx_after, bijection)

    lower = BasisElement(d.orbit, MINUS, k)
    upper = BasisElement(d.orbit, PLUS, k + 1)
    mid = k + 1  # the boundary degree touching both orbit copies

    if case == "repeller":
        witnesses_i = _line_witnesses(cx_before, mid, row=lower) + _line_witnesses(cx_after, mid, row=bijection[lower])
        outer = k
        in_line = lambda cell: cell.col == lower  # noqa: E731
        line_desc = f"column of {lower.label}"
        zero_desc = f"row of {lower.label} in d_{mid}"
    else:
        witnesses_i = _line_witnesses(cx_before, mid, col=upper) + _line_witnesses(cx_after, mid, col=bijection[upper])
        outer = k + 2
        in_line = lambda cell: cell.row == upper  # noqa: E731
        line_desc = f"row of {upper.label}"
        zero_desc = f"column of {upper.label} in d_{mid}"

    mid_cells = tuple(c for c in diff.cells if c.degree == mid)
    outer_cells = tuple(c for c in diff.cells if c.degree == outer)
    off_line = tuple(c for c in outer_cells if not in_line(c))
    other_cells = tuple(c for c in diff.cells if c.degree not in (mid, outer))

    outcomes = (
        ClaimOutcome(
            name="i",
            description=f"{zero_desc} is zero on both sides",
            passed=not witnesses_i,
            witnesses=witnesses_i,
        ),
        ClaimOutcome(
            name="ii",
            description=f"d_{mid} agrees on both sides under the correspondence",
            passed=not mid_cells,
            witnesses=tuple(_cell_str(c) for c in mid_cells),
        ),
        ClaimOutcome(
            name="iii",
            description=f"d_{outer} differs only in the {line_desc}",
            passed=not off_line and not other_cells,
            witnesses=tuple(_cell_str(c) for c in off_line + other_cells),
        ),
    )

    products_equal = products_zero = True
    for j in range(2, cx_before.top_degree + 1):
        prod_before = multiply(cx_before.boundary(j - 1), cx_before.boundary(j))
        prod_after = multiply(cx_after.boundary(j - 1), cx_after.boundary(j))
        products_zero = products_zero and prod_before.is_zero() and prod_after.is_zero()
        axes = [(cx.basis(j - 2), cx.basis(j)) for cx in (cx_before, cx_after)]
        products_equal = products_equal and not diff_cells(j, prod_before, prod_after, *axes, bijection)

    return ClaimsReport(case=case, outcomes=outcomes, products_equal=products_equal, products_zero=products_zero)


def _line_witnesses(cx, degree: int, row: BasisElement | None = None, col: BasisElement | None = None) -> tuple[str, ...]:
    """Nonzero entries along one row or column of a boundary matrix."""
    rows, cols = cx.basis(degree - 1), cx.basis(degree)
    return tuple(
        f"d_{degree}[{rows[i].label}, {cols[j].label}] = 1"
        for i, j in cx.boundary(degree).nonzero_entries()
        if rows[i] == row or cols[j] == col
    )


def _cell_str(cell: DiffCell) -> str:
    return f"d_{cell.degree}[{cell.row.label}, {cell.col.label}]: {cell.left} vs {cell.right}"


def resolve_all_detailed(
    s: FlowSystem, descriptors: Mapping[str, ChoiceDescriptor] | None = None
) -> list[tuple[FlowSystem, tuple[ChoiceDescriptor, ...]]]:
    """Every gradient-like resolution of s together with the choices taken.

    Orbits are resolved in declaration order; without explicit descriptors the
    2D enumeration runs at each step, so the output is the Cartesian product
    of the per-orbit choice lists (re-enumerated on each intermediate system).
    """
    orbit_names = [e.name for e in s.elements if e.is_orbit]
    if descriptors is None:
        if orbit_names and s.dimension != 2:
            raise ValueError(
                f"automatic choice enumeration is unsupported in dimension {s.dimension}; supply an explicit descriptor per orbit"
            )
    else:
        missing = [o for o in orbit_names if o not in descriptors]
        if missing:
            raise ValueError(f"no descriptor supplied for orbit(s) {missing}")

    # One orbit at a time, extending every partial resolution by each of its
    # choices in turn: the same order as a depth-first walk.
    results: list[tuple[FlowSystem, tuple[ChoiceDescriptor, ...]]] = [(s, ())]
    for orbit in orbit_names:
        results = [
            (apply_choice(current, d, check_claims=False).system, chosen + (d,))
            for current, chosen in results
            for d in ([descriptors[orbit]] if descriptors is not None else enumerate_choices_2d(current, orbit))
        ]
    return results


def resolve_all(s: FlowSystem, descriptors: Mapping[str, ChoiceDescriptor] | None = None) -> list[FlowSystem]:
    """Gradient-like systems obtained by resolving every orbit (see
    resolve_all_detailed); a gradient input resolves to itself."""
    return [system for system, _ in resolve_all_detailed(s, descriptors)]


# ---------------------------------------------------------------------------
# .msc descriptor files


def parse_choice(text: str | bytes) -> ChoiceDescriptor:
    """Parse a .msc choice descriptor."""
    orbit: str | None = None
    p_name: str | None = None
    q_name: str | None = None
    maps: dict[str, dict[str, int]] = {"pout": {}, "qout": {}, "pin": {}, "qin": {}}

    for lineno, directive, args, _ in directive_lines(text):
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


def serialize_choice(d: ChoiceDescriptor) -> str:
    """Deterministic .msc text for a descriptor."""
    lines = [f"orbit {d.orbit}", f"new {d.p_name} {d.q_name}"]
    for tag, items in (("pout", d.p_out), ("qout", d.q_out), ("pin", d.p_in), ("qin", d.q_in)):
        for name, c in items:
            lines.append(f"{tag} {name} {c}")
    return "\n".join(lines) + "\n"
