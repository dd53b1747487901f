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
from dataclasses import dataclass, field
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
        """Hasse diagram: pairs (a, b) with a < b and nothing strictly between.

        Walking b's strict down-set from the largest down-set to the smallest
        meets every c above a before a itself, so a is a cover exactly when
        no cover kept so far has it below."""
        out = []
        down = self._down
        for b in self._nodes:
            below = sorted((a for a in down[b] if a != b), key=lambda a: len(down[a]), reverse=True)
            covered: set[str] = set()
            for a in below:
                if a not in covered:
                    out.append((a, b))
                    covered |= down[a]
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
    # Node -> signature, handed on to the search when two profiles agree.
    _by_node: Mapping[str, tuple] = field(default_factory=dict, compare=False, repr=False)


def _signatures(p: LabeledPoset) -> dict[str, tuple]:
    """Node -> (label, label counts of its down-set, label counts of its
    up-set); both sets include the node itself."""
    label, down = p._label, p._down
    up_labels: dict[str, list[int]] = {x: [] for x in p.nodes}
    for y in p.nodes:
        for x in down[y]:
            up_labels[x].append(label[y])
    return {
        x: (
            label[x],
            tuple(sorted(Counter(label[z] for z in down[x]).items())),
            tuple(sorted(Counter(up_labels[x]).items())),
        )
        for x in p.nodes
    }


def _profile(signatures: Mapping[str, tuple]) -> Profile:
    """The profile read off the signatures: a down-set's size is the sum of
    its label counts, and the incidence of x with label ``high`` is x's
    up-set count at ``high``."""
    by_label: dict[int, list[tuple]] = {}
    for sig in signatures.values():
        by_label.setdefault(sig[0], []).append(sig)
    labels = sorted(by_label)
    return Profile(
        label_counts=tuple((l, len(by_label[l])) for l in labels),
        downset_sizes=tuple(
            (l, tuple(sorted(sum(c for _, c in down) for _, down, _ in by_label[l]))) for l in labels
        ),
        incidence=tuple(
            (low, high, tuple(sorted(dict(up).get(high, 0) for _, _, up in by_label[low])))
            for low in labels
            for high in labels
            if low < high
        ),
        signatures=tuple(sorted(signatures.values())),
        _by_node=signatures,
    )


def invariant_profile(p: LabeledPoset) -> Profile:
    return _profile(_signatures(p))


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


def _profile_certificate(pa: Profile, pb: Profile) -> str | None:
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


def _search_isomorphism(
    a: LabeledPoset, b: LabeledPoset, sig_a: Mapping[str, tuple], sig_b: Mapping[str, tuple]
) -> dict[str, str] | None:
    """Backtracking search for a label-preserving order isomorphism that maps
    each node onto one of equal signature; ``sig_a``/``sig_b`` are the
    nodes' signatures (see _signatures).  The stack is explicit, so long
    chains need no recursion."""
    by_sig: dict[tuple, list[str]] = {}
    for y in b.nodes:
        by_sig.setdefault(sig_b[y], []).append(y)
    candidates = {x: by_sig.get(sig_a[x], []) for x in a.nodes}
    if any(not c for c in candidates.values()):
        return None

    # Most-constrained node first; among candidates try the same name first so
    # self-comparisons return the identity.
    order = sorted(a.nodes, key=lambda x: (len(candidates[x]), x))
    options = [sorted(candidates[x], key=lambda y, x=x: (y != x, y)) for x in order]
    down_a, down_b = a._down, b._down
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str, y: str) -> bool:
        below_x, below_y = down_a[x], down_b[y]
        for x0, y0 in assignment.items():
            if (x in down_a[x0]) != (y in down_b[y0]) or (x0 in below_x) != (y0 in below_y):
                return False
        return True

    # next_option[i]: where the search resumes among options[i] when it
    # comes back to depth i.
    next_option = [0] * len(order)
    depth = 0
    while 0 <= depth < len(order):
        x, opts = order[depth], options[depth]
        i = next_option[depth]
        while i < len(opts) and (opts[i] in used or not consistent(x, opts[i])):
            i += 1
        if i == len(opts):
            next_option[depth] = 0
            depth -= 1
            if depth >= 0:
                used.remove(assignment.pop(order[depth]))
            continue
        next_option[depth] = i + 1
        assignment[x] = opts[i]
        used.add(opts[i])
        depth += 1
    return assignment if depth == len(order) else None


def is_isomorphic(a: LabeledPoset, b: LabeledPoset) -> IsoVerdict:
    """Decide label-preserving order isomorphism.

    Cheap invariant mismatches are reported as certificates (node counts,
    downset sizes, incidence multisets, signatures); otherwise a backtracking
    search either produces a witness mapping or reports exhaustion.
    """
    pa, pb = invariant_profile(a), invariant_profile(b)
    certificate = _profile_certificate(pa, pb)
    if certificate is not None:
        return IsoVerdict(isomorphic=False, certificate=certificate)
    mapping = _search_isomorphism(a, b, pa._by_node, pb._by_node)
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
    order of first appearance; a gradient input yields a single class.

    Each face poset's node signatures are computed once.  Isomorphic posets
    have equal signature multisets, so a new poset is searched against only
    the classes that share its sorted signatures, its key."""
    resolutions = resolve_all_detailed(s)
    classes: list[dict] = []
    by_key: dict[tuple, list[dict]] = {}
    for system, choices in resolutions:
        poset = face_poset(system)
        signatures = _signatures(poset)
        bucket = by_key.setdefault(tuple(sorted(signatures.values())), [])
        for cls in bucket:
            if _search_isomorphism(cls["poset"], poset, cls["signatures"], signatures) is not None:
                cls["members"].append(choices)
                break
        else:
            cls = {"representative": system, "poset": poset, "signatures": signatures, "members": [choices]}
            bucket.append(cls)
            classes.append(cls)
    return CensusReport(
        total=len(resolutions),
        classes=tuple(
            CensusClass(representative=c["representative"], poset=c["poset"], members=tuple(c["members"]))
            for c in classes
        ),
    )
