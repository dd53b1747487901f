"""Answer checks that never call msflow.

Each oracle works from the benchmark's own ``gen.System`` description of an
input, so a wrong answer from msflow cannot also slip into the expected one.
"""

from __future__ import annotations

import itertools
from math import comb

from gen import System


def torus_betti(dim: int) -> list[int]:
    """GF(2) Betti numbers of the dim-torus: b_k = C(dim, k)."""
    return [comb(dim, k) for k in range(dim + 1)]


def resolution_count(k: int, d: int) -> int:
    """Resolutions of k repelling orbits each over d sinks: every orbit picks
    a size-2 multiset of its sinks, C(d+1, 2) ways."""
    return comb(d + 1, 2) ** k


# ---------------------------------------------------------------------------
# d^2 witnesses by a bit-int GF(2) product


def d2_witnesses(system: System) -> set[tuple[int, str, str]]:
    """Every (degree, source label, target label) where the composed boundary
    of the system's GF(2) complex is nonzero.

    Degree k holds the index-k rest points, the lower copy ``name-`` of each
    index-k orbit and the upper copy ``name+`` of each index-(k-1) orbit; the
    coefficient is the connection count mod 2, and 0 between two copies of
    one orbit.  Columns are Python ints with one bit per row.
    """
    basis: list[list[tuple[str, str]]] = [[] for _ in range(system.dim + 1)]
    for name, (index, orbit) in system.elements.items():
        if orbit:
            basis[index].append((name, name + "-"))
            basis[index + 1].append((name, name + "+"))
        else:
            basis[index].append((name, name))

    def boundary(k: int) -> list[int]:
        rows = basis[k - 1]
        return [
            sum(1 << i for i, (row, _) in enumerate(rows) if row != col and system.conns.get((col, row), 0) & 1)
            for col, _ in basis[k]
        ]

    found = set()
    for k in range(2, system.dim + 1):
        lower, upper = boundary(k - 1), boundary(k)
        for j, column in enumerate(upper):
            product = 0
            for i, bits in enumerate(lower):
                if column >> i & 1:
                    product ^= bits
            for i, (_, target) in enumerate(basis[k - 2]):
                if product >> i & 1:
                    found.add((k, basis[k][j][1], target))
    return found


# ---------------------------------------------------------------------------
# Face posets as networkx graphs


# networkx is imported on first use, so that set-up timings never include it.
def poset_graph(labels: dict[str, int], below: dict[str, set[str]]):
    """The strict order relation as a labelled DiGraph (edge x -> y: y < x)."""
    import networkx as nx

    g = nx.DiGraph()
    for x, label in labels.items():
        g.add_node(x, label=label)
    g.add_edges_from((x, y) for x, ys in below.items() for y in ys if y != x)
    return g


def gradient_graph(system: System):
    """Order graph of a gradient system's face poset (reachability)."""
    children: dict[str, list[str]] = {x: [] for x in system.elements}
    for src, dst in system.conns:
        children[src].append(dst)
    below: dict[str, set[str]] = {}
    for x in system.elements:
        seen, frontier = {x}, [x]
        while frontier:
            for y in children[frontier.pop()]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        below[x] = seen
    return poset_graph({x: index for x, (index, _) in system.elements.items()}, below)


def _match(a, b) -> bool:
    from networkx.algorithms.isomorphism import DiGraphMatcher

    return DiGraphMatcher(a, b, node_match=lambda u, v: u["label"] == v["label"]).is_isomorphic()


def nx_isomorphic(a: System, b: System) -> bool:
    return _match(gradient_graph(a), gradient_graph(b))


def family_class_sizes(system: System) -> list[int]:
    """Sorted class sizes of the census of a system whose orbits are all
    repelling and drain only to sinks.

    Orbits resolve in declaration order, the first one varying slowest; an
    orbit becomes a source p over all its sinks and a saddle q below p that
    lands on a size-2 multiset of those sinks.
    """
    sinks = [x for x, (index, orbit) in system.elements.items() if not orbit]
    orbits = [x for x, (_, orbit) in system.elements.items() if orbit]
    down = {o: [s for s in sinks if (o, s) in system.conns] for o in orbits}
    options = [list(itertools.combinations_with_replacement(down[o], 2)) for o in orbits]

    classes: list[list] = []  # [graph, size]
    buckets: dict[tuple, list[int]] = {}
    for picks in itertools.product(*options):
        labels = {s: 0 for s in sinks}
        below: dict[str, set[str]] = {}
        for o, pair in zip(orbits, picks):
            labels["p" + o], labels["q" + o] = 2, 1
            below["q" + o] = set(pair)
            below["p" + o] = {"q" + o, *down[o]}
        g = poset_graph(labels, below)
        key = tuple(sorted((g.nodes[x]["label"], g.in_degree(x), g.out_degree(x)) for x in g))
        for idx in buckets.setdefault(key, []):
            if _match(classes[idx][0], g):
                classes[idx][1] += 1
                break
        else:
            buckets[key].append(len(classes))
            classes.append([g, 1])
    return sorted(size for _, size in classes)


# ---------------------------------------------------------------------------
# Isomorphism witnesses


def is_cover_isomorphism(a: System, b: System, mapping: dict[str, str]) -> bool:
    """Does ``mapping`` carry the face poset of gradient grid system a onto
    that of b?  Grid connections are exactly the covering relations, so a
    label-preserving bijection that maps covers onto covers is an order
    isomorphism."""
    if sorted(mapping) != sorted(a.elements) or sorted(mapping.values()) != sorted(b.elements):
        return False
    if any(a.elements[x] != b.elements[y] for x, y in mapping.items()):
        return False
    return {(mapping[x], mapping[y]) for x, y in a.conns} == set(b.conns)
