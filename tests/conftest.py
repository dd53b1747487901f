import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from msflow import ConnectionMap, CriticalElement, FlowSystem, LabeledPoset, parse
from msflow.cli import fixtures_dir

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


def shuffled(p: LabeledPoset, mapping: dict[str, str], order: list[str]) -> LabeledPoset:
    """A copy of p with nodes renamed by ``mapping`` and declared in ``order``."""
    return LabeledPoset({mapping[x]: p.label(x) for x in order}, [(mapping[a], mapping[b]) for a, b in p.covers()])


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
            if a.unstable_dim() <= b.unstable_dim():
                continue  # keep the digraph acyclic
            if a.unstable_dim() + b.stable_dim(n) < n + 1:
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
