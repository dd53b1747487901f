"""GF(2) chain complexes generated by rest points and closed-orbit copies.

Degree k is spanned by the rest points of index k together with one copy of
every closed orbit of index k (written ``gamma-``) and one copy of every
closed orbit of index k-1 (written ``gamma+``).  The boundary coefficient
between two basis elements is the mod-2 connection count of their originating
critical elements, and 0 when both copies come from the same orbit.

The composed boundary need not vanish: ``check_d2`` hunts for the witnesses,
and ``betti`` refuses to compute homology while any exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .flowdata import FlowSystem, Violation, validate
from .gf2 import MatrixGF2, add, multiply, rank

PLAIN = "plain"
MINUS = "minus"
PLUS = "plus"

_SUFFIX = {PLAIN: "", MINUS: "-", PLUS: "+"}


@dataclass(frozen=True)
class BasisElement:
    """One generator: a rest point, or the lower/upper copy of an orbit."""

    origin: str
    flavor: str  # PLAIN, MINUS or PLUS
    degree: int

    def __post_init__(self):
        if self.flavor not in _SUFFIX:
            raise ValueError(f"invalid flavor {self.flavor!r}")

    @property
    def label(self) -> str:
        """Display name: origin with a +/- suffix for orbit copies."""
        return self.origin + _SUFFIX[self.flavor]


@dataclass(frozen=True)
class ChainComplexGF2:
    """Graded ordered bases plus boundary matrices.

    ``boundary(k)`` maps degree k to degree k-1: rows are indexed by the
    degree-(k-1) basis, columns by the degree-k basis.  The degree-0 boundary
    is the empty matrix with zero rows.
    """

    top_degree: int
    bases: tuple[tuple[BasisElement, ...], ...]
    boundaries: tuple[MatrixGF2, ...]

    def basis(self, k: int) -> tuple[BasisElement, ...]:
        if 0 <= k <= self.top_degree:
            return self.bases[k]
        return ()

    def boundary(self, k: int) -> MatrixGF2:
        if 0 <= k <= self.top_degree:
            return self.boundaries[k]
        # Outside the graded range every boundary is an empty zero map.
        cols = len(self.basis(k))
        rows = len(self.basis(k - 1))
        return MatrixGF2.zeros(rows, cols)

    @cached_property
    def squares(self) -> tuple[MatrixGF2, ...]:
        """The composed boundaries d_{k-1} . d_k, k = 2..top_degree, multiplied out once."""
        return tuple(multiply(self.boundary(k - 1), self.boundary(k)) for k in range(2, self.top_degree + 1))


@dataclass(frozen=True)
class D2Violation:
    """A nonzero entry of a composed boundary: d_{k-1} . d_k applied to
    ``source`` (degree k) hits ``target`` (degree k-2)."""

    degree: int
    source: BasisElement
    target: BasisElement

    def __str__(self) -> str:
        return f"d{self.degree - 1}.d{self.degree} != 0 at column {self.source.label}, row {self.target.label}"


class InvalidSystemError(ValueError):
    """Raised when a complex is requested for a system that fails validation."""

    def __init__(self, violations: list[Violation]):
        super().__init__("system fails validation: " + "; ".join(str(v) for v in violations))
        self.violations = violations


class D2Error(Exception):
    """Raised when homology is requested but the boundary does not square to zero."""

    def __init__(self, violations: list[D2Violation]):
        super().__init__("differential does not square to zero: " + "; ".join(str(v) for v in violations))
        self.violations = violations


def build_complex(s: FlowSystem) -> ChainComplexGF2:
    """Assemble the chain complex of a valid system.

    Basis order in each degree: rest points first, then lower orbit copies,
    then upper orbit copies, each group in declaration order — so matrices
    are reproducible byte for byte.  A system is immutable, so its complex
    is built on first use and kept on it, as its violations are.
    """
    violations = validate(s)
    if violations:
        raise InvalidSystemError(violations)
    if "_complex" in vars(s):
        return vars(s)["_complex"]

    n = s.dimension
    groups: list[tuple[list, list, list]] = [([], [], []) for _ in range(n + 1)]  # rest points, lower, upper copies
    for e in s.elements:
        if e.is_rest:
            groups[e.index][0].append(BasisElement(e.name, PLAIN, e.index))
        else:
            groups[e.index][1].append(BasisElement(e.name, MINUS, e.index))
            groups[e.index + 1][2].append(BasisElement(e.name, PLUS, e.index + 1))
    bases = [tuple(rest + lower + upper) for rest, lower, upper in groups]
    at = [{x.origin: i for i, x in enumerate(level)} for level in bases]  # origin -> position, per degree

    # Entry (row, col) of d_k is the parity of c(col.origin, row.origin), so d_k
    # holds the odd connections from a copy in degree k to one in degree k-1.
    # The two copies of one orbit get 0 because self-connections are unrepresentable.
    odd = [pair for pair, c in s.connections.items() if c & 1]
    boundaries = [
        MatrixGF2.from_ones(len(rows), len(cols), [(rows[dst], cols[src]) for src, dst in odd if dst in rows and src in cols])
        for rows, cols in zip([{}] + at, at)
    ]
    vars(s)["_complex"] = cx = ChainComplexGF2(top_degree=n, bases=tuple(bases), boundaries=tuple(boundaries))
    return cx


def check_d2(c: ChainComplexGF2) -> list[D2Violation]:
    """All witnesses that the composed boundary is nonzero, in degree order."""
    return [
        D2Violation(degree=k, source=c.basis(k)[j], target=c.basis(k - 2)[i])
        for k, product in enumerate(c.squares, start=2)
        for i, j in product.nonzero_entries()
    ]


def betti(c: ChainComplexGF2) -> list[int]:
    """GF(2) Betti numbers b_0..b_n; refuses (raises D2Error) when d^2 != 0."""
    violations = check_d2(c)
    if violations:
        raise D2Error(violations)
    numbers = []
    for k in range(c.top_degree + 1):
        rank_in = rank(c.boundary(k + 1)) if k < c.top_degree else 0
        numbers.append(len(c.basis(k)) - rank(c.boundary(k)) - rank_in)
    return numbers


def euler_characteristic(c: ChainComplexGF2) -> int:
    """Alternating sum of basis sizes.  Each orbit lands in two consecutive
    degrees and cancels, so this equals the alternating rest-point count."""
    return sum((-1) ** k * len(c.basis(k)) for k in range(c.top_degree + 1))


@dataclass(frozen=True)
class DiffCell:
    """One boundary-matrix entry that differs between two complexes,
    addressed in the first complex's basis."""

    degree: int
    row: BasisElement
    col: BasisElement
    left: int
    right: int


def compare_matrices(
    a: ChainComplexGF2,
    b: ChainComplexGF2,
    correspondence: Mapping[BasisElement, BasisElement],
) -> tuple[DiffCell, ...]:
    """Entry-by-entry comparison of boundary matrices under a
    degree-preserving basis bijection from a to b: the entries where they
    disagree, by degree and then row-major."""
    perms = _alignment(a, b, correspondence)
    cells = []
    for k in range(1, a.top_degree + 1):
        rows, cols, left = a.basis(k - 1), a.basis(k), a.boundary(k)
        aligned = b.boundary(k).permuted(perms[k - 1], perms[k])
        cells += [DiffCell(k, rows[i], cols[j], left[i, j], aligned[i, j]) for i, j in add(left, aligned).nonzero_entries()]
    return tuple(cells)


def _alignment(a: ChainComplexGF2, b: ChainComplexGF2, correspondence: Mapping[BasisElement, BasisElement]) -> list[list[int]]:
    """Per degree, the position in b's basis of the image of each of a's
    generators; refuses a correspondence that is not a degree-preserving
    bijection of the bases."""
    if a.top_degree != b.top_degree:
        raise ValueError(f"top degrees differ: {a.top_degree} vs {b.top_degree}")

    for x, y in correspondence.items():
        if x.degree != y.degree:
            raise ValueError(f"correspondence is not degree-preserving: {x.label} (degree {x.degree}) -> {y.label} (degree {y.degree})")

    perms: list[list[int]] = []
    for k in range(a.top_degree + 1):
        left, right = a.basis(k), b.basis(k)
        if len(left) != len(right):
            raise ValueError(f"basis sizes differ in degree {k}: {len(left)} vs {len(right)}")
        images = [correspondence.get(x) for x in left]
        if any(y is None for y in images):
            missing = [x.label for x, y in zip(left, images) if y is None]
            raise ValueError(f"correspondence misses basis element(s) {missing} in degree {k}")
        at = {y: j for j, y in enumerate(right)}
        perms.append([at.get(y) for y in images])
        if None in perms[k] or len(set(perms[k])) != len(at):  # the images are exactly the elements of b's basis
            raise ValueError(f"correspondence is not a bijection onto the second basis in degree {k}")
    return perms
