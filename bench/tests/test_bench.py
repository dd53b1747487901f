"""Tests of the benchmark's own parts: generators, oracles, tier classifier
and span wrappers.  Run with ``python3 -m pytest bench/tests``."""

import random
import sys

import pytest

import msflow
import msflow.cli
import gen
import oracles
import spans


def parsed(system: gen.System) -> msflow.FlowSystem:
    return msflow.parse(system.msf())


def grid(dim, m, seed=0):
    return gen.grid_system(gen.torus_cells(dim, m), m, random.Random(seed))


def klein(m, seed=0):
    return gen.grid_system(gen.klein_cells(m), m, random.Random(seed))


def refusal_system(m, seed=0):
    rng = random.Random(seed)
    system = gen.grid_system(gen.torus_cells(3, m), m, rng)
    gen.add_orbit(system, rng, index=1, feeders=2, drains=3, drain_index=1)
    return system


def claims_system(m, seed=0):
    rng = random.Random(seed)
    system = gen.grid_system(gen.torus_cells(2, m), m, rng)
    orbit = gen.add_orbit(system, rng, index=1, feeders=0, drains=3, drain_index=0)
    return system, orbit


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize(
    "system",
    [grid(2, 3), grid(2, 5), grid(3, 3), klein(3), klein(4), refusal_system(3), claims_system(4)[0]]
    + [gen.family_system(k, m, d, random.Random(k + m + d)) for k, m, d in ((3, 6, 2), (2, 6, 4), (2, 5, 5))],
)
def test_generated_systems_are_valid(system):
    assert msflow.validate(parsed(system)) == []


def test_same_seed_same_inputs():
    assert grid(2, 4, seed=3).msf() == grid(2, 4, seed=3).msf()
    assert grid(2, 4, seed=3).msf() != grid(2, 4, seed=4).msf()


def test_renamed_copy_names_carry_no_coordinates():
    system = gen.grid_system(gen.torus_cells(2, 4), 4, random.Random(1), coords=False)
    assert msflow.validate(parsed(system)) == []
    assert not any("_" in name for name in system.elements)


def test_grid_cell_counts():
    assert [len(level) for level in gen.torus_cells(3, 3)] == [27, 81, 81, 27]
    assert [len(level) for level in gen.klein_cells(3)] == [9, 18, 9]


# ---------------------------------------------------------------------------
# oracles against msflow, on small sizes


@pytest.mark.parametrize("dim,m", [(2, 3), (2, 4), (3, 3)])
def test_torus_betti_oracle(dim, m):
    assert msflow.betti(msflow.build_complex(parsed(grid(dim, m)))) == oracles.torus_betti(dim)


def test_klein_has_torus_betti_numbers_over_gf2():
    assert msflow.betti(msflow.build_complex(parsed(klein(4)))) == oracles.torus_betti(2)


@pytest.mark.parametrize("k,m,d", [(2, 4, 2), (3, 4, 2), (2, 5, 3), (2, 6, 4)])
def test_census_oracles(k, m, d):
    system = gen.family_system(k, m, d, random.Random(m))
    report = msflow.census(parsed(system))
    assert report.total == oracles.resolution_count(k, d)
    assert sorted(cls.size for cls in report.classes) == oracles.family_class_sizes(system)


@pytest.mark.parametrize("m", [3, 4])
def test_d2_witness_oracle(m):
    system = refusal_system(m, seed=m)
    found = msflow.check_d2(msflow.build_complex(parsed(system)))
    assert found
    assert {(v.degree, v.source.label, v.target.label) for v in found} == oracles.d2_witnesses(system)


def test_d2_oracle_is_empty_on_a_chain_complex():
    assert oracles.d2_witnesses(grid(3, 3)) == set()


def test_isomorphism_oracles():
    renamed = gen.grid_system(gen.torus_cells(2, 3), 3, random.Random(2), coords=False)
    torus, bottle = grid(2, 3, seed=1), klein(3, seed=3)
    verdict = msflow.is_isomorphic(msflow.face_poset(parsed(torus)), msflow.face_poset(parsed(renamed)))
    mapping = verdict.mapping_dict()
    assert oracles.is_cover_isomorphism(torus, renamed, mapping)
    x, y = sorted(mapping)[:2]
    mapping[x], mapping[y] = mapping[y], mapping[x]
    assert not oracles.is_cover_isomorphism(torus, renamed, mapping)
    assert oracles.nx_isomorphic(torus, renamed)
    assert not oracles.nx_isomorphic(torus, bottle)
    assert not msflow.is_isomorphic(msflow.face_poset(parsed(torus)), msflow.face_poset(parsed(bottle))).isomorphic


def test_claims_hold_on_the_claims_grid():
    system, orbit = claims_system(4, seed=5)
    flow = parsed(system)
    for choice in msflow.enumerate_choices_2d(flow, orbit):
        assert msflow.apply_choice(flow, choice).claims_report.all_passed


# ---------------------------------------------------------------------------
# tier classifier


def poset(labels, relations):
    return msflow.LabeledPoset(labels, relations)


def fixture_poset(name):
    return msflow.face_poset(msflow.parse((msflow.cli.fixtures_dir() / name).read_text()))


def cycle(length, parts):
    """Vertices (label 0) and edges (label 1) of ``parts`` disjoint cycles."""
    labels, relations = {}, []
    for p in range(parts):
        for i in range(length):
            labels[f"v{p}_{i}"], labels[f"e{p}_{i}"] = 0, 1
            relations += [(f"v{p}_{i}", f"e{p}_{i}"), (f"v{p}_{(i + 1) % length}", f"e{p}_{i}")]
    return poset(labels, relations)


THREE = {"a0": 0, "a1": 0, "a2": 0, "b0": 1, "c0": 2}
TIER_CASES = {
    "label_counts": (poset({"a": 0}, []), poset({"a": 1}, [])),
    "downset_sizes": (poset({"a": 0, "b": 1}, [("a", "b")]), poset({"a": 0, "b": 1}, [])),
    "incidence": (fixture_poset("fig4-X1.msf"), fixture_poset("fig4-X3.msf")),
    "signatures": (
        poset(THREE, [("a0", "b0"), ("a0", "c0"), ("a1", "b0")]),
        poset(THREE, [("a0", "b0"), ("a1", "b0"), ("a2", "c0")]),
    ),
    "search_found": (cycle(6, 1), cycle(6, 1).renamed({x: x.upper() for x in cycle(6, 1).nodes})),
    "search_exhausted": (cycle(6, 1), cycle(3, 2)),
}


@pytest.mark.parametrize("name", spans.TIER_NAMES)
def test_tier_classifier(name):
    assert spans.tier(msflow.is_isomorphic(*TIER_CASES[name])) == name


def test_tier_classifier_rejects_unknown_certificates():
    with pytest.raises(ValueError):
        spans.tier(msflow.IsoVerdict(isomorphic=False, certificate="something new"))


# ---------------------------------------------------------------------------
# span wrappers


def bindings():
    mods = {key: m for key, m in sys.modules.items() if key == "msflow" or key.startswith("msflow.")}
    return {(key, attr): value for key, m in mods.items() for attr, value in vars(m).items()}


def test_wrappers_patch_every_binding_and_restore_them():
    before = bindings()
    init = msflow.LabeledPoset.__init__
    tracer = spans.Tracer()
    with tracer.installed():
        assert msflow.ejcomplex.rank is not before[("msflow.gf2", "rank")]
        assert msflow.perturb.multiply is msflow.ejcomplex.multiply
        assert msflow.poset.validate is msflow.flowdata.validate is msflow.validate
        cx = msflow.build_complex(parsed(grid(2, 3)))
        msflow.betti(cx)
        msflow.is_isomorphic(*TIER_CASES["search_exhausted"])
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert msflow.LabeledPoset.__init__ is init

    names = [span[0] for span in tracer.spans]
    assert {"ejcomplex.build_complex", "flowdata.validate", "gf2.rank", "gf2.multiply", "poset.invariant_profile"} <= set(names)
    betti = names.index("ejcomplex.betti")
    assert any(span[3] == betti for span in tracer.spans if span[0] == "gf2.rank")
    metrics = tracer.layer_metrics(rounds=1, scale={})
    assert metrics["gf2.rank.calls"] == 5  # b_k needs rank d_k and rank d_(k+1)
    assert metrics["poset.iso.tier.search_exhausted"] == 1
    assert all(metrics[key] >= 0 for key in metrics if key.endswith(".self_s"))


def test_wrappers_restore_after_an_exception():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError
    assert all(bindings()[key] is value for key, value in before.items())
