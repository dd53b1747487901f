"""Seeded input generators for the benchmark workloads.

Everything here is plain Python and never imports msflow: the benchmark hands
msflow only the ``.msf`` text these generators write.  A ``System`` is the
benchmark's own description of a flow: named elements with an index (and an
orbit flag) plus positive connection counts.  The seed drives element names,
declaration order, cyclic offsets and shuffles, never the amount of work.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field


@dataclass
class System:
    """A flow as the benchmark knows it.

    ``elements`` maps name -> (index, is_orbit) in declaration order;
    ``conns`` maps (source, target) -> count.
    """

    dim: int
    elements: dict[str, tuple[int, bool]] = field(default_factory=dict)
    conns: dict[tuple[str, str], int] = field(default_factory=dict)

    def names_of_index(self, k: int) -> list[str]:
        return [x for x, (i, orbit) in self.elements.items() if i == k and not orbit]

    def msf(self) -> str:
        lines = [f"dim {self.dim}"]
        for name, (index, orbit) in self.elements.items():
            lines.append(f"orbit {name} {index} untwisted" if orbit else f"rest {name} {index}")
        lines += [f"conn {src} {dst} {c}" for (src, dst), c in self.conns.items()]
        return "\n".join(lines) + "\n"


def _name_pool(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct names with a seeded prefix, in seeded order."""
    prefix = rng.choice(string.ascii_lowercase) + rng.choice(string.ascii_lowercase)
    numbers = rng.sample(range(10 * count), count)
    return [f"{prefix}{n}" for n in numbers]


# ---------------------------------------------------------------------------
# Cubical grids


def torus_cells(dim: int, m: int) -> list:
    """Cubical m^dim grid of the dim-torus: cells[k] lists (key, faces) of the
    k-cells, where faces are the keys of the (k-1)-cells on the boundary.

    A cell is a base vertex plus a set of directions it spans; m >= 3 keeps
    every face of a cell distinct, so each boundary count is exactly 1.
    """
    if m < 3:
        raise ValueError("grids need m >= 3 so that no cell meets itself")
    cells: list[list[tuple[tuple, tuple[tuple, ...]]]] = [[] for _ in range(dim + 1)]
    for base in itertools.product(range(m), repeat=dim):
        for k in range(dim + 1):
            for span in itertools.combinations(range(dim), k):
                faces = []
                for d in span:
                    rest = tuple(x for x in span if x != d)
                    shifted = tuple((c + 1) % m if i == d else c for i, c in enumerate(base))
                    faces += [(base, rest), (shifted, rest)]
                cells[k].append(((base, span), tuple(faces)))
    return cells


def klein_cells(m: int) -> list:
    """Cubical m x m grid of the Klein bottle: the square [0,m]^2 with
    (0,y) ~ (m,y) and (x,0) ~ (m-x,m).  Locally it is the torus grid, so the
    two face posets share every invariant msflow's profile looks at."""
    if m < 3:
        raise ValueError("grids need m >= 3 so that no cell meets itself")

    def vertex(i: int, j: int) -> tuple:
        if j == m:  # the top row is glued to the bottom row, flipped
            i, j = -i, 0
        return ((i % m, j), ())

    def hor(i: int, j: int) -> tuple:  # edge from (i, j) to (i+1, j)
        if j == m:
            i, j = -i - 1, 0
        return ((i % m, j), (0,))

    cells: list[list[tuple[tuple, tuple[tuple, ...]]]] = [[], [], []]
    for i, j in itertools.product(range(m), repeat=2):
        cells[0].append((vertex(i, j), ()))
        cells[1].append((hor(i, j), (vertex(i, j), vertex(i + 1, j))))
        cells[1].append((((i, j), (1,)), (vertex(i, j), vertex(i, j + 1))))
        faces = (hor(i, j), hor(i, j + 1), ((i, j), (1,)), (((i + 1) % m, j), (1,)))
        cells[2].append((((i, j), (0, 1)), faces))
    return cells


def grid_system(cells, m: int, rng: random.Random, shift: bool = True, coords: bool = True) -> System:
    """The gradient flow of a cell grid: one rest point per cell, index the
    cell's dimension, one connection from each cell to each of its faces.

    Names spell a cell's coordinates after a seeded prefix and a seeded cyclic
    offset per axis, so two calls with different generators give isomorphic
    systems under different names; declaration and connection order are
    shuffled too.  ``shift=False`` keeps the offsets at 0: for a torus and a
    Klein grid compared with each other, where they would move the names
    relative to the glued edge and so change how long an exhaustive
    isomorphism search runs from seed to seed.
    ``coords=False`` gives seeded names that carry no coordinates instead, so
    that a search cannot follow the names from one grid to a copy of it.
    """
    prefix = rng.choice(string.ascii_lowercase) + rng.choice(string.ascii_lowercase)
    offsets = [rng.randrange(m) if shift else 0 for _ in range(len(cells) - 1)]
    axes = "xyz"

    def name(key: tuple) -> str:
        base, span = key
        where = "_".join(str((c + o) % m) for c, o in zip(base, offsets))
        return f"{prefix}{where}_{''.join(axes[d] for d in span) or 'v'}"

    order = [(key, k) for k, level in enumerate(cells) for key, _ in level]
    rng.shuffle(order)
    system = System(dim=len(cells) - 1)
    if coords:
        names = {key: name(key) for key, _ in order}
    else:
        names = dict(zip((key for key, _ in order), _name_pool(rng, len(order))))
    for key, k in order:
        system.elements[names[key]] = (k, False)
    conns = [(names[key], names[face]) for level in cells for key, faces in level for face in faces]
    rng.shuffle(conns)
    system.conns = {pair: 1 for pair in conns}
    return system


def add_orbit(system: System, rng: random.Random, index: int, feeders: int, drains: int, drain_index: int) -> str:
    """Insert one untwisted orbit fed by ``feeders`` random top cells and
    draining to ``drains`` random rest points of ``drain_index``."""
    name = "orb" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    system.elements[name] = (index, True)
    for src in rng.sample(system.names_of_index(system.dim), feeders):
        system.conns[(src, name)] = 1
    for dst in rng.sample(system.names_of_index(drain_index), drains):
        system.conns[(name, dst)] = 1
    return name


# ---------------------------------------------------------------------------
# The census scaling family


def family_system(k: int, m: int, d: int, rng: random.Random) -> System:
    """k repelling orbits over m sinks, orbit i joined to sinks
    i+r, ..., i+r+d-1 (mod m) for a seeded rotation r.  The rotation, names
    and declaration order change with the seed; the isomorphism type of every
    resolution does not."""
    if not 1 <= d <= m:
        raise ValueError("each orbit needs 1 <= d <= m sinks")
    names = _name_pool(rng, m + k)
    sinks, orbits = names[:m], names[m:]
    r = rng.randrange(m)
    system = System(dim=2)
    for name in rng.sample(sinks, m):
        system.elements[name] = (0, False)
    for name in orbits:
        system.elements[name] = (1, True)
    for i, orbit in enumerate(orbits):
        for j in range(d):
            system.conns[(orbit, sinks[(i + r + j) % m])] = 1
    return system
