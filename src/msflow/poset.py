"""Labeled posets: face-poset extraction, isomorphism, equivalence verdicts.

The face poset of a gradient-like system has the rest points as nodes,
labeled by index, ordered by reachability.  Poset isomorphism (label- and
order-preserving bijection) is a computable *necessary* condition for two
cell structures to be equivalent, and that asymmetry is baked into the
verdict vocabulary: a mismatch certifies NOT equivalent, a match is only
"necessary conditions pass (inconclusive)".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .ejcomplex import InvalidSystemError
from .flowdata import NAME_RE, FlowSystem, ParseError, read_int, validate
from .perturb import ChoiceDescriptor, resolve_all_detailed


class LabeledPoset:
    """Finite poset with integer-labeled nodes.

    Construct from node labels and a list of (a, b) relations meaning a <= b;
    the reflexive-transitive closure is computed and antisymmetry enforced.
    """

    __slots__ = ("_nodes", "_label", "_down")

    def __init__(
        self,
        labels: Mapping[str, int] | Iterable[tuple[str, int]],
        relations: Iterable[tuple[str, str]] = (),
    ):
        label_map = dict(labels)
        self._nodes = tuple(label_map)
        self._label = label_map

        children: dict[str, set[str]] = {name: set() for name in self._nodes}
        for a, b in relations:
            for x in (a, b):
                if x not in label_map:
                    raise ValueError(f"relation references unknown node {x!r}")
            if a != b:
                children[b].add(a)

        down: dict[str, frozenset[str]] = {}
        for name in self._nodes:
            seen = {name}
            frontier = [name]
            while frontier:
                node = frontier.pop()
                for lower in children[node]:
                    if lower not in seen:
                        seen.add(lower)
                        frontier.append(lower)
            down[name] = frozenset(seen)
        self._down = down

        for a in self._nodes:
            for b in down[a]:
                if b != a and a in down[b]:
                    raise ValueError(f"not antisymmetric: {a} <= {b} and {b} <= {a}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._label

    def label(self, name: str) -> int:
        if name not in self._label:
            raise ValueError(f"unknown node {name!r}")
        return self._label[name]

    def labels(self) -> dict[str, int]:
        return dict(self._label)

    def leq(self, a: str, b: str) -> bool:
        """True when a <= b."""
        if a not in self._label or b not in self._label:
            raise ValueError(f"unknown node in leq({a!r}, {b!r})")
        return a in self._down[b]

    def downset(self, name: str) -> frozenset[str]:
        if name not in self._label:
            raise ValueError(f"unknown node {name!r}")
        return self._down[name]

    def upset(self, name: str) -> frozenset[str]:
        if name not in self._label:
            raise ValueError(f"unknown node {name!r}")
        return frozenset(b for b in self._nodes if name in self._down[b])

    def covers(self) -> list[tuple[str, str]]:
        """Hasse diagram: pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for b in self._nodes:
            for a in self._down[b]:
                if a == b:
                    continue
                between = any(c != a and c != b and a in self._down[c] and c in self._down[b] for c in self._down[b])
                if not between:
                    out.append((a, b))
        return sorted(out)

    def renamed(self, mapping: Mapping[str, str], order: Sequence[str] | None = None) -> "LabeledPoset":
        """The same poset with nodes renamed (and optionally re-ordered) —
        handy for building known-isomorphic copies."""
        if sorted(mapping) != sorted(self._nodes) or len(set(mapping.values())) != len(self._nodes):
            raise ValueError("mapping must be a bijection on the node set")
        new_labels = {mapping[name]: self._label[name] for name in (order or self._nodes)}
        relations = [(mapping[a], mapping[b]) for b in self._nodes for a in self._down[b] if a != b]
        return LabeledPoset(new_labels, relations)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPoset):
            return NotImplemented
        return self._label == other._label and self._down == other._down

    def __hash__(self):
        return hash((tuple(sorted(self._label.items())), tuple(sorted((k, v) for k, v in self._down.items()))))

    def __repr__(self) -> str:
        return f"LabeledPoset({len(self._nodes)} nodes)"


# ---------------------------------------------------------------------------
# Construction


def face_poset(s: FlowSystem) -> LabeledPoset:
    """Rest points labeled by index, ordered by reachability (target below
    source).  Only defined for valid gradient-like systems."""
    if s.orbits():
        names = ", ".join(e.name for e in s.orbits())
        raise ValueError(f"system contains closed orbits ({names}); resolve them first")
    violations = validate(s)
    if violations:
        raise InvalidSystemError(violations)
    labels = {e.name: e.index for e in s.elements}
    relations = [(dst, src) for (src, dst) in s.connections.pairs()]
    return LabeledPoset(labels, relations)


def base(p: LabeledPoset, e: str) -> frozenset[str]:
    """The downset of e: the smallest order-closed subset containing e."""
    return p.downset(e)


def parse_poset(text: str | bytes) -> LabeledPoset:
    """Parse .pos text: 'node <name> <label>' and 'lt <a> <b>' (a below b)."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    labels: dict[str, int] = {}
    relations: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "node":
            if len(args) != 2:
                raise ParseError(lineno, "node needs <name> <label>")
            name = args[0]
            if not NAME_RE.match(name):
                raise ParseError(lineno, f"invalid name {name!r}")
            if name in labels:
                raise ParseError(lineno, f"duplicate node {name!r}")
            labels[name] = read_int(lineno, args[1])
        elif directive == "lt":
            if len(args) != 2:
                raise ParseError(lineno, "lt needs <a> <b>")
            for x in args:
                if x not in labels:
                    raise ParseError(lineno, f"unknown node {x!r}")
            if args[0] == args[1]:
                raise ParseError(lineno, f"lt needs two distinct nodes, got {args[0]!r} twice")
            relations.append((args[0], args[1]))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    return LabeledPoset(labels, relations)


# ---------------------------------------------------------------------------
# Invariants and isomorphism


def _fmt_multiset(values: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


@dataclass(frozen=True)
class Profile:
    """Canonical isomorphism invariants; equality is necessary for any
    label-preserving order isomorphism."""

    label_counts: tuple[tuple[int, int], ...]
    downset_sizes: tuple[tuple[int, tuple[int, ...]], ...]
    incidence: tuple[tuple[int, int, tuple[int, ...]], ...]
    signatures: tuple[tuple, ...]


def _signature(p: LabeledPoset, name: str):
    down = Counter(p.label(x) for x in p.downset(name))
    up = Counter(p.label(x) for x in p.upset(name))
    return (p.label(name), tuple(sorted(down.items())), tuple(sorted(up.items())))


def invariant_profile(p: LabeledPoset) -> Profile:
    labels = sorted({p.label(x) for x in p.nodes})
    by_label = {l: [x for x in p.nodes if p.label(x) == l] for l in labels}

    label_counts = tuple((l, len(by_label[l])) for l in labels)
    downset_sizes = tuple((l, tuple(sorted(len(p.downset(x)) for x in by_label[l]))) for l in labels)

    incidence = []
    for low in labels:
        for high in labels:
            if low >= high:
                continue
            counts = tuple(
                sorted(sum(1 for y in p.upset(x) if p.label(y) == high) for x in by_label[low])
            )
            incidence.append((low, high, counts))

    signatures = tuple(sorted(_signature(p, x) for x in p.nodes))
    return Profile(
        label_counts=label_counts,
        downset_sizes=downset_sizes,
        incidence=tuple(incidence),
        signatures=signatures,
    )


@dataclass(frozen=True)
class IsoVerdict:
    """Either a witness mapping (isomorphic) or a mismatch certificate (not)."""

    isomorphic: bool
    mapping: tuple[tuple[str, str], ...] | None = None
    certificate: str | None = None

    def mapping_dict(self) -> dict[str, str]:
        return dict(self.mapping or ())


def check_mapping(a: LabeledPoset, b: LabeledPoset, mapping: Mapping[str, str]) -> bool:
    """Is the given node bijection a label-preserving order isomorphism?"""
    m = dict(mapping)
    if sorted(m) != sorted(a.nodes) or sorted(m.values()) != sorted(b.nodes):
        return False
    for x in a.nodes:
        if a.label(x) != b.label(m[x]):
            return False
    for x in a.nodes:
        for y in a.nodes:
            if a.leq(x, y) != b.leq(m[x], m[y]):
                return False
    return True


def _profile_certificate(a: LabeledPoset, b: LabeledPoset) -> str | None:
    pa, pb = invariant_profile(a), invariant_profile(b)
    if pa.label_counts != pb.label_counts:
        fmt = lambda p: "{" + ", ".join(f"{l}:{c}" for l, c in p.label_counts) + "}"  # noqa: E731
        return f"node counts per label differ: {fmt(pa)} vs {fmt(pb)}"
    if pa.downset_sizes != pb.downset_sizes:
        for (l, left), (_, right) in zip(pa.downset_sizes, pb.downset_sizes):
            if left != right:
                return f"downset-size multisets for label {l} differ: {_fmt_multiset(left)} vs {_fmt_multiset(right)}"
    if pa.incidence != pb.incidence:
        for (low, high, left), (_, _, right) in zip(pa.incidence, pb.incidence):
            if left != right:
                return (
                    f"label {low}/label {high} incidence multisets differ: "
                    f"{_fmt_multiset(left)} vs {_fmt_multiset(right)}"
                )
    if pa.signatures != pb.signatures:
        return "per-node signature multisets differ"
    return None


def _search_isomorphism(a: LabeledPoset, b: LabeledPoset) -> dict[str, str] | None:
    sig_a = {x: _signature(a, x) for x in a.nodes}
    sig_b = {y: _signature(b, y) for y in b.nodes}
    candidates = {x: [y for y in b.nodes if sig_b[y] == sig_a[x]] for x in a.nodes}
    if any(not c for c in candidates.values()):
        return None

    # Most-constrained node first; among candidates try the same name first so
    # self-comparisons return the identity.
    order = sorted(a.nodes, key=lambda x: (len(candidates[x]), x))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str, y: str) -> bool:
        for x0, y0 in assignment.items():
            if a.leq(x, x0) != b.leq(y, y0) or a.leq(x0, x) != b.leq(y0, y):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        options = sorted(candidates[x], key=lambda y: (y != x, y))
        for y in options:
            if y in used or not consistent(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assignment[x]
            used.remove(y)
        return False

    return dict(assignment) if extend(0) else None


def is_isomorphic(a: LabeledPoset, b: LabeledPoset) -> IsoVerdict:
    """Decide label-preserving order isomorphism.

    Cheap invariant mismatches are reported as certificates (node counts,
    downset sizes, incidence multisets, signatures); otherwise a backtracking
    search either produces a witness mapping or reports exhaustion.
    """
    certificate = _profile_certificate(a, b)
    if certificate is not None:
        return IsoVerdict(isomorphic=False, certificate=certificate)
    mapping = _search_isomorphism(a, b)
    if mapping is None:
        return IsoVerdict(
            isomorphic=False,
            certificate="invariant profiles agree but no label-preserving order isomorphism exists",
        )
    return IsoVerdict(isomorphic=True, mapping=tuple(sorted(mapping.items())))


# ---------------------------------------------------------------------------
# Cell-equivalence necessary conditions


NOT_EQUIVALENT = "NOT cell equivalent"
INCONCLUSIVE = "necessary conditions pass (inconclusive)"


@dataclass(frozen=True)
class Verdict:
    possibly_equivalent: bool
    summary: str
    certificate: str | None = None
    iso: IsoVerdict | None = None


def cell_equivalence_verdict(a: FlowSystem, b: FlowSystem) -> Verdict:
    """Necessary-condition check only: a failed count or poset comparison
    certifies NOT cell equivalent; passing is never a claim of equivalence."""
    for s in (a, b):
        if s.orbits():
            raise ValueError("cell-equivalence verdicts need gradient-like systems; resolve orbits first")
    counts_a = Counter(e.index for e in a.rest_points())
    counts_b = Counter(e.index for e in b.rest_points())
    if counts_a != counts_b:
        fmt = lambda c: "{" + ", ".join(f"{k}:{v}" for k, v in sorted(c.items())) + "}"  # noqa: E731
        return Verdict(
            possibly_equivalent=False,
            summary=NOT_EQUIVALENT,
            certificate=f"cell counts per dimension differ: {fmt(counts_a)} vs {fmt(counts_b)}",
        )
    verdict = is_isomorphic(face_poset(a), face_poset(b))
    if not verdict.isomorphic:
        return Verdict(
            possibly_equivalent=False,
            summary=NOT_EQUIVALENT,
            certificate=verdict.certificate,
            iso=verdict,
        )
    return Verdict(possibly_equivalent=True, summary=INCONCLUSIVE, iso=verdict)


# ---------------------------------------------------------------------------
# Census of resolutions


@dataclass(frozen=True)
class CensusClass:
    representative: FlowSystem
    poset: LabeledPoset
    members: tuple[tuple[ChoiceDescriptor, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CensusReport:
    total: int
    classes: tuple[CensusClass, ...]


def census(s: FlowSystem) -> CensusReport:
    """Resolve every orbit in all enumerable ways and group the resulting
    gradient-like systems by face-poset isomorphism.  Classes are reported in
    order of first appearance; a gradient input yields a single class."""
    resolutions = resolve_all_detailed(s)
    classes: list[dict] = []
    for system, choices in resolutions:
        poset = face_poset(system)
        for cls in classes:
            if is_isomorphic(cls["poset"], poset).isomorphic:
                cls["members"].append(choices)
                break
        else:
            classes.append({"representative": system, "poset": poset, "members": [choices]})
    return CensusReport(
        total=len(resolutions),
        classes=tuple(
            CensusClass(representative=c["representative"], poset=c["poset"], members=tuple(c["members"]))
            for c in classes
        ),
    )
