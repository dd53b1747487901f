"""Labeled posets: face-poset extraction, isomorphism, equivalence verdicts.

The face poset of a gradient-like system has the rest points as nodes,
labeled by index, ordered by reachability.  Poset isomorphism (label- and
order-preserving bijection) is a computable *necessary* condition for two
cell structures to be equivalent, and that asymmetry is baked into the
verdict vocabulary: a mismatch certifies NOT equivalent, a match is only
"necessary conditions pass (inconclusive)".
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .ejcomplex import InvalidSystemError
from .flowdata import NAME_RE, FlowSystem, ParseError, closure_masks, directive_lines, read_int, validate
from .gf2 import bits
from .perturb import ChoiceDescriptor, _resolution_tree


class LabeledPoset:
    """Finite poset with integer-labeled nodes.

    Construct from node labels and a list of (a, b) relations meaning a <= b;
    the reflexive-transitive closure is computed and antisymmetry enforced.
    Node i is named ``_nodes[i]``, ``_index`` maps names back to indices,
    its label is ``_labels[i]`` and its down-set and up-set are the int masks
    ``_down[i]`` and ``_up[i]`` over node indices (bit j is node j).
    """

    __slots__ = ("_nodes", "_labels", "_index", "_down", "_up")

    def __init__(self, labels: Mapping[str, int] | Iterable[tuple[str, int]], relations: Iterable[tuple[str, str]] = ()):
        label_map = dict(labels)
        nodes = tuple(label_map)
        index = {name: i for i, name in enumerate(nodes)}
        children: list[list[int]] = [[] for _ in nodes]
        for a, b in relations:
            if a not in index or b not in index:
                raise ValueError(f"relation references unknown node {a if a not in index else b!r}")
            if a != b:
                children[index[b]].append(index[a])
        self._adopt(nodes, tuple(label_map.values()), index, *closure_masks(children))

    def _adopt(self, nodes, labels, index, down, up) -> "LabeledPoset":
        """Take nodes, labels, name->index map and closed, reflexive masks
        (bit i set in down[i] and in up[i]) as they are, once antisymmetry holds."""
        self._nodes, self._labels, self._index, self._down, self._up = nodes, labels, index, down, up
        # The masks are reflexive, so each node's down-set and up-set meet in
        # the node itself; they meet nowhere else exactly when this sum is one
        # per node.  The loop names a pair.
        if sum(map(int.bit_count, map(and_, down, up))) != len(nodes):
            for i, a in enumerate(nodes):
                if cycle := down[i] & up[i] & ~(1 << i):
                    b = nodes[bits(cycle)[0]]
                    raise ValueError(f"not antisymmetric: {a} <= {b} and {b} <= {a}")
        return self

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def _at(self, name: str) -> int:
        """The index of node ``name``."""
        if name not in self._index:
            raise ValueError(f"unknown node {name!r}")
        return self._index[name]

    def label(self, name: str) -> int:
        return self._labels[self._at(name)]

    def labels(self) -> dict[str, int]:
        return dict(zip(self._nodes, self._labels))

    def leq(self, a: str, b: str) -> bool:
        """True when a <= b."""
        try:
            return bool(self._down[self._at(b)] >> self._at(a) & 1)
        except ValueError:
            raise ValueError(f"unknown node in leq({a!r}, {b!r})") from None

    def downset(self, name: str) -> frozenset[str]:
        return frozenset(self._nodes[i] for i in bits(self._down[self._at(name)]))

    def upset(self, name: str) -> frozenset[str]:
        return frozenset(self._nodes[i] for i in bits(self._up[self._at(name)]))

    def covers(self) -> list[tuple[str, str]]:
        """Hasse diagram: pairs (a, b) with a < b and nothing strictly between.

        The covers of b are the maximal nodes of its strict down-set: climb
        from any node left to one with nothing above it there, take it, and
        drop everything below it."""
        out = []
        down, up = self._down, self._up
        for b, name in enumerate(self._nodes):
            strict = todo = down[b] ^ 1 << b
            while todo:
                a = todo.bit_length() - 1
                while higher := up[a] & strict ^ 1 << a:
                    a = (higher & -higher).bit_length() - 1
                out.append((self._nodes[a], name))
                todo &= ~down[a]
        return sorted(out)

    def renamed(self, mapping: Mapping[str, str]) -> "LabeledPoset":
        """The same poset with nodes renamed — handy for building
        known-isomorphic copies."""
        if sorted(mapping) != sorted(self._nodes) or len(set(mapping.values())) != len(self._nodes):
            raise ValueError("mapping must be a bijection on the node set")
        index = {mapping[name]: i for i, name in enumerate(self._nodes)}
        return LabeledPoset.__new__(LabeledPoset)._adopt(tuple(index), self._labels, index, self._down, self._up)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPoset):
            return NotImplemented
        return self.labels() == other.labels() and _preserves_order(self, other, [other._at(x) for x in self._nodes])

    def __hash__(self):
        return hash(tuple(sorted((x, l, down.bit_count()) for x, l, down in zip(self._nodes, self._labels, self._down))))

    def __repr__(self) -> str:
        return f"LabeledPoset({len(self._nodes)} nodes)"


def _preserves_order(a: LabeledPoset, b: LabeledPoset, perm: Sequence[int]) -> bool:
    """Does sending a's node i to b's node ``perm[i]`` carry a's down-sets onto b's?"""
    return all(sum(1 << perm[j] for j in bits(down)) == b._down[perm[i]] for i, down in enumerate(a._down))


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
    return LabeledPoset({e.name: e.index for e in s.elements}, [(dst, src) for (src, dst) in s.connections.pairs()])


def parse_poset(text: str | bytes) -> LabeledPoset:
    """Parse .pos text: 'node <name> <label>' and 'lt <a> <b>' (a below b)."""
    labels: dict[str, int] = {}
    relations: list[tuple[str, str]] = []
    for lineno, (directive, *args), _ in directive_lines(text):
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
    # Node i's signature, handed on to the search when two profiles agree.
    _by_node: Sequence[tuple] = field(default=(), compare=False, repr=False)


def _label_masks(labels: Sequence[int]) -> tuple[list[int], list[int]]:
    """The labels present, in ascending order, and the mask of each one's nodes."""
    present = sorted(set(labels))
    return present, [sum(1 << i for i, k in enumerate(labels) if k == l) for l in present]


def _signatures(p: LabeledPoset, masks: Sequence[int]) -> list[tuple]:
    """Each node's signature, by node index: its label, then how many of
    each mask's nodes (see _label_masks) lie in its down-set, then in its
    up-set, zeros included; both sets include the node itself."""
    return list(zip(p._labels, *(map(int.bit_count, map(m.__and__, side)) for side in (p._down, p._up) for m in masks)))


def _profile(signatures: Sequence[tuple], present: Sequence[int]) -> Profile:
    """The profile read off each distinct signature once, in order, for
    every node that has it: a down-set's size is the sum of its down-set
    counts, and the incidence of label ``low`` with label ``high`` is the
    up-set count of ``high`` on each node labeled ``low``."""
    k = len(present)
    ordered, sizes = [], {l: [] for l in present}  # sorted signatures; down-set sizes by label
    incidence = {(low, high): [] for low in present for high in present if low < high}
    for sig, n in sorted(Counter(signatures).items()):
        l = sig[0]
        ordered += [sig] * n
        sizes[l] += [sum(sig[1 : k + 1])] * n
        for high, c in zip(present, sig[k + 1 :]):
            if l < high:
                incidence[l, high] += [c] * n
    return Profile(
        label_counts=tuple((l, len(got)) for l, got in sizes.items()),
        downset_sizes=tuple((l, tuple(sorted(got))) for l, got in sizes.items()),
        incidence=tuple((low, high, tuple(sorted(got))) for (low, high), got in incidence.items()),
        signatures=tuple(ordered),
        _by_node=signatures,
    )


def invariant_profile(p: LabeledPoset) -> Profile:
    present, masks = _label_masks(p._labels)
    return _profile(_signatures(p, masks), present)


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
    return all(a.label(x) == b.label(m[x]) for x in a.nodes) and _preserves_order(a, b, [b._at(m[x]) for x in a.nodes])


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


def _search_plan(a: LabeledPoset, sig_a: Sequence) -> tuple:
    """The part of the search that depends on side a alone: a's node indices
    in search order, most constrained first (fewest nodes of equal
    signature, then by name); their signatures; and, per depth, bytes of 2
    (apart) for the deeper nodes with 0 or 1 written where one lies below or
    above that depth's node, so only comparable pairs cost a Python step."""
    count = Counter(sig_a)
    order = sorted(range(len(a)), key=lambda i: (count[sig_a[i]], a._nodes[i]))
    at = sorted(range(len(order)), key=order.__getitem__)  # each node's depth
    stands, deeper = [], (1 << len(order)) - 1
    for depth, i in enumerate(order):
        deeper ^= 1 << i
        row = bytearray(b"\2") * len(order)
        for stand, related in ((0, a._down[i]), (1, a._up[i])):
            for k in bits(related & deeper):
                row[at[k]] = stand
        stands.append(bytes(row[depth + 1 :]))
    return order, [sig_a[i] for i in order], stands


def _search_isomorphism(
    a: LabeledPoset, b: LabeledPoset, plan: tuple, sig_b: Sequence, order: Sequence[int]
) -> list[int] | None:
    """Backtracking search for a label-preserving order isomorphism that maps
    each node onto one of equal signature: b's node index for each of a's
    nodes in plan order, or None.  ``plan`` is ``_search_plan(a, sig_a)``;
    ``sig_a``/``sig_b`` list the nodes' signatures by index (see
    _signatures); ``order`` is b's node indices in name order.  The caller
    vouches that the two signature multisets agree: is_isomorphic searches
    only when the profiles do, census only within a key.  The stack is
    explicit, so long chains need no recursion.

    Forward checking (Haralick & Elliott, 1980): each depth keeps a domain,
    the mask of b's nodes still open to it.  Assigning x -> y narrows every
    deeper domain to the nodes that stand to y as that node stands to x, y
    is skipped if a domain empties, and as only subtrees without a solution
    are cut, the witness is the one plain backtracking in this order finds."""
    nodes, sigs, stands = plan
    groups, masks = {}, {}  # signature -> b's nodes with it in name order, and their mask
    for j in order:
        sig = sig_b[j]
        groups.setdefault(sig, []).append(j)
        masks[sig] = masks.get(sig, 0) | 1 << j

    # Among candidates (in name order) try the same name first so
    # self-comparisons return the identity.
    options = []
    for i, sig in zip(nodes, sigs):
        group = groups[sig]
        if (j := b._index.get(a._nodes[i])) is not None and masks[sig] >> j & 1:
            at = group.index(j)
            group = [j] + group[:at] + group[at + 1 :]
        options.append(group)
    domain = [masks[sig] for sig in sigs]
    trail: list[tuple[int, int, int]] = []  # (depth that narrowed, deeper depth, its old domain)

    def undo(depth: int) -> None:
        while trail and trail[-1][0] >= depth:
            _, deeper, old = trail.pop()
            domain[deeper] = old

    def narrow(depth: int, y: int) -> bool:
        below, above = b._down[y], b._up[y]
        by_stand = (below & ~above, above & ~below, ~(below | above))
        for deeper, stand in enumerate(stands[depth], depth + 1):
            old = domain[deeper]
            if (new := old & by_stand[stand]) != old:
                if not new:
                    undo(depth)
                    return False
                trail.append((depth, deeper, old))
                domain[deeper] = new
        return True

    # next_option[d]: where the search resumes among options[d] when it
    # comes back to depth d.
    next_option = [0] * len(nodes)
    depth = 0
    while 0 <= depth < len(nodes):
        opts, i = options[depth], next_option[depth]
        while i < len(opts) and not (domain[depth] >> opts[i] & 1 and narrow(depth, opts[i])):
            i += 1
        if i == len(opts):
            next_option[depth] = 0
            depth -= 1
            undo(depth)
        else:
            next_option[depth] = i + 1
            depth += 1
    return None if depth < 0 else [opts[k - 1] for opts, k in zip(options, next_option)]


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
    plan = _search_plan(a, pa._by_node)
    images = _search_isomorphism(a, b, plan, pb._by_node, sorted(range(len(b)), key=b._nodes.__getitem__))
    if images is None:
        return IsoVerdict(
            isomorphic=False,
            certificate="invariant profiles agree but no label-preserving order isomorphism exists",
        )
    return IsoVerdict(isomorphic=True, mapping=tuple(sorted((a._nodes[i], b._nodes[j]) for i, j in zip(plan[0], images))))


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

    census walks _resolution_tree, which refuses an invalid input, and
    builds no leaf system.  Every resolution has the same nodes in the same
    order, an orbit's p and q in its slot, so the orbit-free part is closed
    once and each step down adds q and then p to a copy of the parent's
    masks, leaving out edges to orbits not yet resolved: they come back
    with that orbit's choice.  A choice's neighbours are looked up once per
    call, as every branch gives a name the same index.  A leaf's face poset
    is read off its masks, and each node's signature (see _signatures, on
    label masks built once per call) is interned as an int local to the
    call.  A leaf is searched only against the classes whose key, the
    sorted ids, it shares, from a plan built on each class's first poset at
    its first search."""
    at, slots, labels = {}, {}, []  # each node's index and each orbit's p index, by name; the final labels
    for e in s.elements:
        (slots if e.is_orbit else at)[e.name] = len(labels)
        labels += [e.index + 1, e.index] if e.is_orbit else [e.index]
    orbits = list(slots)
    children: list[list[int]] = [[] for _ in labels]
    for src, dst in s.connections.pairs():
        if src in at and dst in at:
            children[at[src]].append(at[dst])
    masks = [closure_masks(children)]  # (down, up) at each depth of the current branch
    classes: list[list] = []  # each class's members
    by_key: dict[tuple[int, ...], list[list]] = {}  # key -> [first poset, its ids, its plan, members] per class
    intern = defaultdict(itertools.count().__next__)  # a signature -> the next int, at its first lookup
    rows: dict[int, tuple] = {}  # id(choice) -> (the choice, kept so its id is not reused; (index, below, above) of q, p)
    order = []
    for chosen, _ in _resolution_tree(s):
        if depth := len(chosen):
            d = chosen[-1]
            if id(d) not in rows:
                p = at[d.p_name] = slots[d.orbit]
                at[d.q_name] = p + 1
                later = orbits[depth:]  # edges to these come back with their choices
                look = lambda side: [at[x] for x, _ in side if x not in later]  # noqa: E731
                rows[id(d)] = d, ((p + 1, look(d.q_out), look(d.q_in)), (p, look(((d.q_name, 2),) + d.p_out), look(d.p_in)))
            down, up = map(list, masks[depth - 1])
            for v, below, above in rows[id(d)][1]:
                dv = reduce(or_, map(down.__getitem__, below), 1 << v)
                uv = reduce(or_, map(up.__getitem__, above), 1 << v)
                for x in bits(uv):
                    down[x] |= dv
                for y in bits(dv):
                    up[y] |= uv
            masks[depth:] = [(down, up)]
        if depth < len(orbits):
            continue
        if not order:
            nodes, labels = tuple(sorted(at, key=at.get)), tuple(labels)
            order, by_label = sorted(range(len(nodes)), key=nodes.__getitem__), _label_masks(labels)[1]
        poset = LabeledPoset.__new__(LabeledPoset)._adopt(nodes, labels, at, *masks[-1])
        ids = list(map(intern.__getitem__, _signatures(poset, by_label)))
        bucket = by_key.setdefault(tuple(sorted(ids)), [])
        for cls in bucket:
            first, first_ids, plan, members = cls
            cls[2] = plan = plan or _search_plan(first, first_ids)
            if _search_isomorphism(first, poset, plan, ids, order) is not None:
                members.append(chosen)
                break
        else:
            bucket.append([poset, ids, (), [chosen]])
            classes.append(bucket[-1][3])
    return CensusReport(total=sum(map(len, classes)), classes=tuple(CensusClass(tuple(members)) for members in classes))
