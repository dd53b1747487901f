import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from msflow import ChoiceDescriptor, ConnectionMap, CriticalElement, FlowSystem, LabeledPoset, parse
from msflow.cli import fixtures_dir
from msflow.poset import _preserves_order

GOLDEN_DIR = Path(__file__).parent / "golden"


def fixture_path(name: str) -> Path:
    return fixtures_dir() / name


def load_fixture(name: str) -> FlowSystem:
    return parse(fixture_path(name).read_text())


@pytest.fixture
def fig3():
    return load_fixture("fig3.msf")


@pytest.fixture
def fig4():
    return load_fixture("fig4.msf")


@pytest.fixture
def fig5():
    return load_fixture("fig5.msf")


@pytest.fixture
def fig6():
    return load_fixture("fig6.msf")


def structure(s: FlowSystem) -> tuple:
    """What a system says about the flow: its label and declared Betti
    numbers are left out."""
    return s.dimension, s.elements, s.connections


def unstable_dim(e: CriticalElement) -> int:
    """Dimension of e's unstable manifold: its index, plus one for an orbit."""
    return e.index + 1 if e.is_orbit else e.index


def shuffled(p: LabeledPoset, mapping: dict[str, str], order: list[str]) -> LabeledPoset:
    """A copy of p with nodes renamed by ``mapping`` and declared in ``order``."""
    return LabeledPoset({mapping[x]: p.label(x) for x in order}, [(mapping[a], mapping[b]) for a, b in p.covers()])


def check_mapping(a: LabeledPoset, b: LabeledPoset, mapping: dict[str, str]) -> bool:
    """Is the given node bijection a label-preserving order isomorphism?"""
    m = dict(mapping)
    if sorted(m) != sorted(a.nodes) or sorted(m.values()) != sorted(b.nodes):
        return False
    return all(a.label(x) == b.label(m[x]) for x in a.nodes) and _preserves_order(a, b, [b._at(m[x]) for x in a.nodes])


def serialize_choice(d: ChoiceDescriptor) -> str:
    """Deterministic .msc text for a descriptor, for round trips through parse_choice."""
    lines = [f"orbit {d.orbit}", f"new {d.p_name} {d.q_name}"]
    for tag, items in (("pout", d.p_out), ("qout", d.q_out), ("pin", d.p_in), ("qin", d.q_in)):
        for name, c in items:
            lines.append(f"{tag} {name} {c}")
    return "\n".join(lines) + "\n"


def all_msf_fixtures() -> list[str]:
    return sorted(p.name for p in fixtures_dir().glob("*.msf"))


def random_valid_system(rng: random.Random, *, max_elements: int = 8) -> FlowSystem:
    """A random system that satisfies every non-strict validation rule.

    Elements are ordered by strictly decreasing unstable dimension and
    connections only run downward in that order, so the dimension rule plus
    acyclicity plus the attractor/repeller rules hold by construction.
    """
    n = rng.choice([2, 3])
    count = rng.randint(1, max_elements)
    elements = []
    for i in range(count):
        name = f"e{i}"
        if rng.random() < 0.3:
            index = rng.randint(0, n - 1)
            elements.append(CriticalElement(name, "orbit", index, twisted=rng.random() < 0.5))
        else:
            index = rng.randint(0, n)
            elements.append(CriticalElement(name, "rest", index))

    counts = {}
    for a in elements:
        if a.is_orbit and a.index == 0:
            continue  # attracting orbit: no outgoing connections
        for b in elements:
            if a.name == b.name:
                continue
            if b.is_rest and b.index == n:
                continue  # source: no incoming
            if b.is_orbit and b.index == n - 1:
                continue  # repelling orbit: no incoming
            if unstable_dim(a) <= unstable_dim(b):
                continue  # keep the digraph acyclic
            if unstable_dim(a) + n - b.index < n + 1:
                continue  # dimension rule
            if rng.random() < 0.5:
                counts[(a.name, b.name)] = rng.randint(1, 3)

    label = f"random_{rng.randint(0, 10**6)}" if rng.random() < 0.5 else None
    return FlowSystem(dimension=n, elements=elements, connections=counts, label=label)


@st.composite
def soup_systems(draw):
    """Any system that constructs: repeated names, indices past the top,
    connections to the undeclared name e, and cycles."""
    elements = []
    for name in draw(st.lists(st.sampled_from("abcd"), max_size=7)):
        index = draw(st.integers(0, 4))
        twisted = draw(st.none() | st.booleans())
        elements.append(CriticalElement(name, "rest" if twisted is None else "orbit", index, twisted))
    pairs = [(a, b) for a in "abcde" for b in "abcde" if a != b]
    counts = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3), max_size=12))
    return FlowSystem(draw(st.integers(1, 3)), tuple(elements), ConnectionMap(counts))


@st.composite
def systems_with_orbits(draw, feeding: bool = False):
    """Valid 2D systems with 1-3 closed orbits, each with at least one
    admissible choice.  Elements are declared in order of falling unstable
    dimension (sources and repelling orbits, saddles and attracting orbits,
    sinks) and connections run only down that order where the dimension
    rule allows them.

    With ``feeding``, 2-3 orbits, and the first repelling orbit drains into
    the first attracting orbit and a sink: its choices land the new saddle's
    separatrices on the orbit twice, once or not at all, so the attracting
    orbit's upstream counts differ between partial resolutions."""
    if feeding:
        orbits = ["orbit 1", "orbit 0"] + draw(st.lists(st.sampled_from(["orbit 1", "orbit 0"]), max_size=1))
    else:
        orbits = draw(st.lists(st.sampled_from(["orbit 1", "orbit 0"]), min_size=1, max_size=3))
    kinds = (
        ["rest 2"] * draw(st.integers(1 if "orbit 0" in orbits else 0, 2))
        + ["rest 1"] * draw(st.integers(0, 2))
        + ["rest 0"] * draw(st.integers(1, 3))
        + orbits
    )
    unstable = {"rest 2": 2, "orbit 1": 2, "rest 1": 1, "orbit 0": 1, "rest 0": 0}
    kinds.sort(key=lambda k: -unstable[k])
    names = [f"e{i}" for i in range(len(kinds))]
    of_kind = lambda *ks: [n for n, k in zip(names, kinds) if k in ks]  # noqa: E731
    targets = {n: set() for n in names}
    for a in of_kind("rest 2", "orbit 1", "rest 1"):
        allowed = of_kind("orbit 0", "rest 0") + (of_kind("rest 1") if unstable[kinds[names.index(a)]] == 2 else [])
        targets[a] = {b for b in allowed if draw(st.booleans())}
    # Every orbit needs something to reconnect to: a repelling orbit one or
    # two index-0 elements downstream, an attracting one a source or
    # repelling orbit upstream.
    for a in of_kind("orbit 1"):
        targets[a].update(draw(st.lists(st.sampled_from(of_kind("orbit 0", "rest 0")), min_size=1, max_size=2)))
    for b in of_kind("orbit 0"):
        targets[draw(st.sampled_from(of_kind("rest 2", "orbit 1")))].add(b)
    if feeding:
        targets[of_kind("orbit 1")[0]].update([of_kind("orbit 0")[0], of_kind("rest 0")[0]])
    lines = ["dim 2"]
    lines += [f"{k.split()[0]} {n} {k.split()[1]}" + (" untwisted" if k.startswith("orbit") else "") for n, k in zip(names, kinds)]
    lines += [f"conn {a} {b} {draw(st.integers(1, 2))}" for a in names for b in sorted(targets[a])]
    return parse("\n".join(lines) + "\n")


def orbits_over_sinks(k: int, m: int, d: int):
    """k repelling orbits over m sinks, orbit i joined to sinks i..i+d-1
    (mod m)."""
    lines = ["dim 2"] + [f"rest q{j} 0" for j in range(m)] + [f"orbit g{i} 1 untwisted" for i in range(k)]
    lines += [f"conn g{i} q{(i + j) % m} 1" for i in range(k) for j in range(d)]
    return parse("\n".join(lines) + "\n")


def torus_grid_text(m: int, rng: random.Random, orbit: bool = False) -> str:
    """.msf text of the gradient flow of the cubical m x m grid of the
    2-torus (m >= 3): a rest point per cell, indexed by the cell's dimension,
    and a connection from each cell to each of its faces, with element and
    conn lines shuffled.  ``orbit`` adds the repelling orbit ``g`` draining
    to three vertices."""
    def v(i, j):  # the vertex (i, j)
        return f"v{i % m}_{j % m}"

    def h(i, j):  # the edge from (i, j) to (i + 1, j)
        return f"h{i % m}_{j % m}"

    def e(i, j):  # the edge from (i, j) to (i, j + 1)
        return f"e{i % m}_{j % m}"

    elements, conns = [], []
    for i in range(m):
        for j in range(m):
            face = f"f{i}_{j}"
            elements += [f"rest {v(i, j)} 0", f"rest {h(i, j)} 1", f"rest {e(i, j)} 1", f"rest {face} 2"]
            conns += [(h(i, j), v(i, j)), (h(i, j), v(i + 1, j)), (e(i, j), v(i, j)), (e(i, j), v(i, j + 1))]
            conns += [(face, h(i, j)), (face, h(i, j + 1)), (face, e(i, j)), (face, e(i + 1, j))]
    if orbit:
        elements.append("orbit g 1 untwisted")
        conns += [("g", v(i, j)) for i, j in rng.sample([(i, j) for i in range(m) for j in range(m)], 3)]
    rng.shuffle(elements)
    rng.shuffle(conns)
    return "\n".join(["dim 2", *elements, *(f"conn {a} {b} 1" for a, b in conns)]) + "\n"
