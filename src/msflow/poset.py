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
from heapq import heappop, heappush
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .ejcomplex import InvalidSystemError
from .flowdata import NAME_RE, FlowSystem, ParseError, directive_lines, read_int, validate
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

    def _at(self, name: str) -> int:
        """The index of node ``name``."""
        if name not in self._index:
            raise ValueError(f"unknown node {name!r}")
        return self._index[name]

    def label(self, name: str) -> int:
        return self._labels[self._at(name)]

    def labels(self) -> dict[str, int]:
        return dict(zip(self._nodes, self._labels))

    def downset(self, name: str) -> frozenset[str]:
        return frozenset(self._nodes[i] for i in bits(self._down[self._at(name)]))

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
# Transitive closure


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
    in search order, their signatures, and per depth that node's stand: the
    open nodes below it, those above it, and how many placed nodes it is
    comparable to.  The order (VF2++'s; Juttner & Madarasi, 2018) starts at
    the node of fewest of equal signature, then by name, and goes on to the
    open node comparable to the most placed ones, ties by that rank."""
    n, count = len(a), Counter(sig_a)
    rank = sorted(range(n), key=lambda i: (count[sig_a[i]], a._nodes[i]))
    key = [0] * n  # each node's latest heap entry: rank - n * placed comparable nodes
    for r, i in enumerate(rank):
        key[i] = r
    heap, open_, order, stands = list(range(n)), (1 << n) - 1, [], []
    while heap:
        entry = heappop(heap)
        if entry != key[i := rank[entry % n]]:
            continue
        open_ ^= 1 << i
        below, above = bits(a._down[i] & open_), bits(a._up[i] & open_)
        for k in below + above:
            key[k] -= n
            heappush(heap, key[k])
        order.append(i)
        stands.append((below, above, (entry % n - entry) // n))
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

    Forward checking (Haralick & Elliott, 1980): each of a's nodes keeps a
    domain, the mask of b's nodes still open to it.  Placing x on y narrows
    the domains of the open nodes below x to b's nodes below y, of those
    above x to those above y, and skips y if one empties.  Apart pairs cost
    nothing: ``used`` keeps the map one-to-one, and y must be comparable to
    as many placed nodes as x, which narrowing has paired off.  Only
    subtrees without a solution are cut, so the witness is the one plain
    backtracking in this order finds."""
    nodes, sigs, stands = plan
    groups = {}  # signature -> [b's nodes with it in name order, their mask]
    for j in order:
        if (group := groups.get(sig := sig_b[j])) is None:
            groups[sig] = [[j], 1 << j]
        else:
            group[0].append(j)
            group[1] |= 1 << j

    # Same name first among candidates (in name order): self-comparisons map
    # by identity.  Depths share a group unless its same-name node must move.
    options, domain = [], [0] * len(nodes)
    for i, sig in zip(nodes, sigs):
        group, domain[i] = groups[sig]
        if len(group) > 1 and (j := b._index.get(a._nodes[i])) != group[0] and j is not None and domain[i] >> j & 1:
            group = [j, *group]
            del group[group.index(j, 1)]
        options.append(group)
    down, up, trail = b._down, b._up, []  # trail: (depth that narrowed, a's node, its old domain)

    def undo(depth: int) -> None:
        while trail and trail[-1][0] >= depth:
            _, k, domain[k] = trail.pop()

    def narrow(depth: int, related: list[int], side: int) -> bool:
        for k in related:
            old = domain[k]
            if (new := old & side) != old:
                if not new:
                    undo(depth)
                    return False
                trail.append((depth, k, old))
                domain[k] = new
        return True

    # next_option[d]: where the search resumes among options[d] when it
    # comes back to depth d; used: b's nodes taken by depths above it.
    next_option, used, depth = [0] * len(nodes), 0, 0
    while 0 <= depth < len(nodes):
        opts, i = options[depth], next_option[depth]
        if i:  # back from a failed deeper depth: take this depth's choice back
            undo(depth)
            used ^= 1 << opts[i - 1]
        free, (below, above, placed) = domain[nodes[depth]] & ~used, stands[depth]
        while i < len(opts) and not (
            free >> (y := opts[i]) & 1 and ((down[y] | up[y]) & used).bit_count() == placed
            and narrow(depth, below, down[y]) and narrow(depth, above, up[y])
        ):
            i += 1
        if i == len(opts):
            next_option[depth] = 0
            depth -= 1
        else:
            next_option[depth] = i + 1
            used |= 1 << opts[i]
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
        return Verdict(possibly_equivalent=False, summary=NOT_EQUIVALENT, certificate=verdict.certificate)
    return Verdict(possibly_equivalent=True, summary=INCONCLUSIVE)


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


def _neighbourhoods(s: FlowSystem) -> defaultdict:
    """Each element's (direction, neighbour, count) list, direction 1 out of it and 0 into it."""
    hood = defaultdict(list)
    for (src, dst), c in s.connections._any_order():
        hood[src].append((1, dst, c))
        hood[dst].append((0, src, c))
    return hood


def _twins(s: FlowSystem, hood: Mapping) -> list[list[str]]:
    """Each class of twins next to a closed orbit, in declaration order:
    rest points of one index and one neighbourhood (see _neighbourhoods).
    Swapping two maps s onto itself; no twin is its own neighbour."""
    orbits, groups = {e.name for e in s.elements if e.is_orbit}, defaultdict(list)
    for e in s.elements:
        if e.is_rest and orbits.intersection(x for _, x, _ in hood[e.name]):
            groups[e.index, tuple(sorted(hood[e.name]))].append(e.name)
    return [g for g in groups.values() if len(g) > 1]


def _automorphisms(s: FlowSystem, hood: Mapping, twins: Sequence[Sequence[str]], budget: int | None = None) -> list[dict]:
    """The local automorphisms of s but the identity, as maps from the names
    they move to their images: permutations of the orbits and their
    neighbours (the support) that keep each element's kind, index and
    twisted flag and every connection count, all else fixed, up to swaps of
    twins (a class, see _twins, goes onto its image member by member).  A
    backtracking places each orbit and then its neighbours, a twin class's
    first member standing for it, onto images of equal signature in at
    most ``budget`` placements (64 per connection at the support by
    default) and keeps what it found; joined orbits all stay in place."""
    orbits = [e.name for e in s.elements if e.is_orbit]
    support, members = {*orbits, *(x for o in orbits for _, x, _ in hood[o])}, {g[0]: g for g in twins}
    kind, followers = {e.name: (e.kind, e.index, e.twisted) for e in s.elements}, {x for g in twins for x in g[1:]}
    # each orbit, then its neighbours, so a wrong image fails early; signatures name only neighbours outside the support
    reps = [*dict.fromkeys(x for o in orbits for x in (o, *(y for _, y, _ in hood[o])) if x not in followers)]
    sig = {x: (kind.get(x), len(members.get(x, ())), sorted((d, c, "" if y in support else y) for d, y, c in hood[x])) for x in reps}
    linked = any(y in orbits for o in orbits for _, y, _ in hood[o])
    options = [[x] if linked and x in orbits else [y for y in reps if sig[y] == sig[x]] for x in reps]
    budget = 64 * sum(len(hood[x]) for x in support) if budget is None else budget
    image, inverse, found, depth, next_option = {}, {}, [], 0, [0] * len(reps)
    while 0 <= depth < len(reps) and budget > 0:
        if (x := reps[depth]) in image:  # back from a deeper depth: take this depth's choice back
            del inverse[image.pop(x)]
        placed = sorted((d, image[w], c) for d, w, c in hood[x] if w in image)  # y fits x if its links to the images match
        for i in range(next_option[depth], len(options[depth])):
            if (y := options[depth][i]) not in inverse and placed == sorted((d, z, c) for d, z, c in hood[y] if z in inverse):
                next_option[depth], image[x], inverse[y], budget, depth = i + 1, y, x, budget - 1, depth + 1
                break
        else:
            next_option[depth], depth = 0, depth - 1
        if depth == len(reps):  # a whole automorphism: keep what it moves, then look for the next
            found.append({a: b for x, y in image.items() for a, b in zip(members.get(x, [x]), members.get(y, [y])) if a != b})
            depth -= 1
    return [moved for moved in found if moved]


def census(s: FlowSystem) -> CensusReport:
    """Resolve every orbit in all enumerable ways and group the resulting
    gradient-like systems by face-poset isomorphism.  Classes are reported in
    order of first appearance; a gradient input yields a single class.

    census builds no leaf system (the walk builds a partial one only to
    enumerate an orbit's choices it has not met); every resolution has the
    same nodes in the same order, an orbit's p and q in its slot.  Pass 1
    reads each node's choices off _resolution_tree, which refuses an invalid
    input, and keeps each leaf's ids by depth.  A choice gets its id at the
    first node that takes it, interned from its orbit and sides, with its q
    and p rows (edges to orbits not yet resolved left out: they come back
    with that orbit's choice) and its image's id under each generator: each
    symmetry of s next to its orbits (see _automorphisms) and each swap of
    two twins adjacent in their class (see _twins).  These generate every
    local symmetry, and the walk commutes with each, so a generator carries
    a leaf onto the leaf whose ids are its ids mapped, depths moved with
    the orbits (orbits stay put where two are joined, see _automorphisms).
    Those images are looked up in bulk off the leaves' id columns, and one
    breadth-first search labels each leaf with the first leaf of its orbit.

    Pass 2 takes the leaves in order.  A leaf that is not the first of its
    orbit joins that leaf's class with no masks, poset or search.  Any
    other leaf grows the previous such leaf's masks (the orbit-free part is
    closed once) from the first depth where their ids differ, adding q and
    then p at each depth, and reads its face poset off them.  Each node's
    signature (see _signatures, on label masks built once per call) is
    interned as an int local to the call, and the poset is searched only
    against the classes whose key, the sorted ids, it shares, from a plan
    built on each class's first poset at its first search."""
    at, slots, labels = {}, {}, []  # each node's index and each orbit's p index, by name; the final labels
    for e in s.elements:
        (slots if e.is_orbit else at)[e.name] = len(labels)
        labels += [e.index + 1, e.index] if e.is_orbit else [e.index]
    orbits = list(slots)
    children: list[list[int]] = [[] for _ in labels]
    for src, dst in s.connections.pairs():
        if src in at and dst in at:
            children[at[src]].append(at[dst])
    twins = _twins(s, hood := _neighbourhoods(s))
    moves = _automorphisms(s, hood, twins) + [{a: b, b: a} for g in twins for a, b in zip(g, g[1:])]
    content = defaultdict(itertools.count().__next__)  # a choice's (orbit, sides) -> its id, at its first lookup
    known, rows, images = {}, {}, [{} for _ in moves]  # id(choice) -> its id; per id, q's and p's rows, and its image's id per move
    leaves, keys, path = [], [], [0] * len(orbits)  # each leaf's choices and its ids by depth
    for chosen in _resolution_tree(s):
        if depth := len(chosen):
            if (c := known.get(id(d := chosen[-1]))) is None:
                p = at[d.p_name] = slots[d.orbit]
                at[d.q_name] = p + 1
                later = orbits[depth:]  # edges to these come back with their choices
                look = lambda side: [at[x] for x, _ in side if x not in later]  # noqa: E731
                sides = (d.p_out, d.q_out, d.p_in, d.q_in)
                c = known[id(d)] = content[(d.orbit, *sides)]
                rows[c] = (p + 1, look(d.q_out), look(d.q_in)), (p, look(((d.q_name, 2),) + d.p_out), look(d.p_in))
                for to, image in zip(moves, images):
                    image[c] = content[(to.get(d.orbit, d.orbit), *(tuple(sorted((to.get(x, x), n) for x, n in side)) for side in sides))]
            path[depth - 1] = c
        if depth == len(orbits):
            leaves.append(chosen)
            keys.append(tuple(path))
    index, arrows = dict(zip(keys, itertools.count())), []  # arrows[k][i]: the leaf moves[k] carries leaf i onto
    for to, image in zip(moves, images):
        cols = [()] * len(orbits)
        for o, col in zip(orbits, zip(*keys)):
            cols[orbits.index(to.get(o, o))] = map(image.__getitem__, col)
        arrows.append(list(map(index.get, zip(*cols))))
    first = [None] * len(leaves)  # each leaf's first leaf of its orbit
    for i in range(len(leaves)):
        if first[i] is None:
            first[i], queue = i, [i]
            for x in queue:
                for arrow in arrows:
                    if (y := arrow[x]) is not None and first[y] is None:
                        first[y] = i
                        queue.append(y)
    nodes, labels = tuple(sorted(at, key=at.get)), tuple(labels)
    order, by_label = sorted(range(len(nodes)), key=nodes.__getitem__), _label_masks(labels)[1]
    masks, done = [closure_masks(children)], ()  # (down, up) at each depth of the last searched leaf, and its ids
    classes: list[list] = []  # each class's members
    class_of: dict[int, list] = {}  # a first leaf -> its class's members
    by_key: dict[tuple[int, ...], list[list]] = {}  # key -> [first poset, its ids, its plan, members] per class
    intern = defaultdict(itertools.count().__next__)  # a signature -> the next int, at its first lookup
    for i, (chosen, key) in enumerate(zip(leaves, keys)):
        if first[i] != i:
            class_of[first[i]].append(chosen)
            continue
        common = next((j for j, (a, b) in enumerate(zip(key, done)) if a != b), len(done))
        del masks[common + 1:]
        for c in key[common:]:
            down, up = map(list, masks[-1])
            for v, below, above in rows[c]:
                dv = reduce(or_, map(down.__getitem__, below), 1 << v)
                uv = reduce(or_, map(up.__getitem__, above), 1 << v)
                for x in bits(uv):
                    down[x] |= dv
                for y in bits(dv):
                    up[y] |= uv
            masks.append((down, up))
        poset, done = LabeledPoset.__new__(LabeledPoset)._adopt(nodes, labels, at, *masks[-1]), key
        ids = list(map(intern.__getitem__, _signatures(poset, by_label)))
        bucket = by_key.setdefault(tuple(sorted(ids)), [])
        for cls in bucket:
            first_poset, first_ids, plan, members = cls
            cls[2] = plan = plan or _search_plan(first_poset, first_ids)
            if _search_isomorphism(first_poset, poset, plan, ids, order) is not None:
                members.append(chosen)
                break
        else:
            bucket.append([poset, ids, (), members := [chosen]])
            classes.append(members)
        class_of[i] = members
    return CensusReport(total=sum(map(len, classes)), classes=tuple(CensusClass(tuple(members)) for members in classes))
