"""Acceptance gate: the eight headline behaviors, one test per criterion.

Each test prints a `[criterion N] ...: PASS/FAIL` line to the terminal
regardless of capture settings, so a full run reads as a checklist.  Every
assertion is exact — no tolerances anywhere.
"""

import random
import string
from contextlib import contextmanager

import pytest

from msflow import (
    MatrixGF2,
    apply_choice,
    betti,
    build_complex,
    check_d2,
    enumerate_choices_2d,
    euler_characteristic,
    face_poset,
    invariant_profile,
    is_isomorphic,
    multiply,
    parse,
    parse_poset,
    rank,
    serialize,
    validate,
)
from msflow.cli import run

from conftest import all_msf_fixtures, fixture_path, load_fixture, random_valid_system, shuffled
from test_gf2 import random_matrix, span_rank
from test_poset import random_poset


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number: int, name: str):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capsys.disabled():
                print(f"[criterion {number}] {name}: {status}")

    return _announce


def test_criterion_1_sphere_with_orbit_matrices(announce, capsys):
    with announce(1, "two-sphere anomaly: matrices, rank, Betti, mismatch flag"):
        c = build_complex(load_fixture("fig5.msf"))
        assert c.boundary(2).tolist() == [[0], [0], [0]]
        assert c.boundary(1).tolist() == [[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]]
        assert rank(c.boundary(1)) == 2
        assert betti(c) == [2, 1, 1]
        code = run(["homology", "fig5.msf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b0=2 b1=1 b2=1" in out
        assert "does not match" in out  # declared expect-betti 1 0 1 is flagged


def test_criterion_2_three_sphere_d2_failure(announce, capsys):
    with announce(2, "three-sphere counterexample: matrices, d2 pair, refusal"):
        c = build_complex(load_fixture("fig6.msf"))
        assert c.boundary(3).tolist() == [[1, 1], [1, 1], [1, 1]]
        assert c.boundary(2).tolist() == [[0, 0, 0], [0, 1, 1], [1, 1, 1]]
        assert c.boundary(1).tolist() == [[1, 0, 0], [1, 0, 0]]
        assert multiply(c.boundary(2), c.boundary(3)).tolist() == [[0, 0], [0, 0], [1, 1]]
        violations = check_d2(c)
        assert {(v.degree, v.source.label, v.target.label) for v in violations} == {
            (3, "r1", "gamma+"),
            (3, "r2", "gamma+"),
        }
        assert run(["homology", "fig6.msf"]) == 2
        capsys.readouterr()


def test_criterion_3_four_sink_incidence_profiles(announce):
    with announce(3, "sink-saddle incidence {1,2,3,4} vs {1,3,3,3} splits the variants"):
        posets = {name: face_poset(load_fixture(f"fig4-{name}.msf")) for name in ("X1", "X2", "X3")}

        def sink_saddle_counts(p):
            profile = invariant_profile(p)
            return dict(((lo, hi), v) for lo, hi, v in profile.incidence)[(0, 1)]

        assert sink_saddle_counts(posets["X1"]) == (1, 2, 3, 4)
        assert sink_saddle_counts(posets["X2"]) == (1, 2, 3, 4)
        assert sink_saddle_counts(posets["X3"]) == (1, 3, 3, 3)
        assert is_isomorphic(posets["X1"], posets["X2"]).isomorphic
        verdict = is_isomorphic(posets["X1"], posets["X3"])
        assert not verdict.isomorphic
        assert "incidence" in verdict.certificate


def test_criterion_4_depicted_choices_are_enumerated_and_equivalent(announce):
    with announce(4, "both depicted saddle reconnections enumerated, posets isomorphic"):
        fig3 = load_fixture("fig3.msf")
        choices = {c.q_out: c for c in enumerate_choices_2d(fig3, "gamma")}
        first = choices[(("q0", 1), ("q1", 1))]
        second = choices[(("q0", 1), ("q2", 1))]
        poset_a = face_poset(apply_choice(fig3, first).system)
        poset_b = face_poset(apply_choice(fig3, second).system)
        verdict = is_isomorphic(poset_a, poset_b)
        assert verdict.isomorphic
        mapping = verdict.mapping_dict()
        assert mapping["q1"] == "q2" and mapping["q2"] == "q1"


def test_criterion_5_two_cell_bases(announce):
    with announce(5, "attachment asymmetry: bases {d,a} vs all four cells"):
        y = parse_poset(fixture_path("fig2-Y.pos").read_text())
        yprime = parse_poset(fixture_path("fig2-Yprime.pos").read_text())
        assert y.downset("d") == {"d", "a"}
        assert yprime.downset("d") == {"a", "b", "c", "d"}
        assert not is_isomorphic(y, yprime).isomorphic


def test_criterion_6_claims_hold_across_the_whole_enumeration(announce):
    with announce(6, "all three replacement claims hold for every enumerated choice"):
        for fixture in ("fig3.msf", "fig5.msf"):
            before = load_fixture(fixture)
            choices = enumerate_choices_2d(before, "gamma")
            assert choices
            cx_before = build_complex(before)
            product_before = multiply(cx_before.boundary(1), cx_before.boundary(2))
            for choice in choices:
                result = apply_choice(before, choice)
                report = result.claims_report
                assert report is not None
                assert [o.name for o in report.outcomes] == ["i", "ii", "iii"]
                assert report.all_passed, choice.summary()
                # consequence: the composed boundaries agree and vanish
                assert report.products_equal and report.products_zero
                cx_after = build_complex(result.system)
                product_after = multiply(cx_after.boundary(1), cx_after.boundary(2))
                assert product_before.is_zero() and product_after.is_zero()


def test_criterion_7_invariant_suite(announce):
    with announce(7, "euler counts, round-trips, rank oracle, poset shuffles"):
        rng = random.Random(20240917)

        # Euler characteristic equals the alternating rest-point count on
        # every fixture and on 200 random valid systems.
        def alternating(s):
            return sum((-1) ** e.index for e in s.elements if e.is_rest)

        systems = [load_fixture(name) for name in all_msf_fixtures()]
        systems += [random_valid_system(rng) for _ in range(200)]
        for s in systems:
            assert euler_characteristic(build_complex(s)) == alternating(s)
            assert parse(serialize(s)) == s

        # Row-reduction rank agrees with the XOR-closure oracle: exhaustively
        # for every matrix with at most 12 entries, and on seeded samples for
        # every larger shape up to 5x5.
        for rows in range(0, 5):
            for cols in range(0, 5):
                cells = rows * cols
                if cells > 12:
                    continue
                for bits in range(2**cells):
                    flat = [(bits >> i) & 1 for i in range(cells)]
                    m = MatrixGF2([flat[r * cols : (r + 1) * cols] for r in range(rows)])
                    assert rank(m) == span_rank(m)
        for rows in range(1, 6):
            for cols in range(1, 6):
                if rows * cols <= 12:
                    continue
                for _ in range(80):
                    m = random_matrix(rng, rows, cols)
                    assert rank(m) == span_rank(m)

        # 100 random labeled posets of at most 10 nodes match their shuffles.
        for _ in range(100):
            p = random_poset(rng)
            mapping = dict(zip(p.nodes, rng.sample(string.ascii_uppercase, len(p))))
            copy = shuffled(p, mapping, rng.sample(list(p.nodes), len(p)))
            assert is_isomorphic(p, copy).isomorphic


def test_criterion_8_gradient_sanity(announce):
    with announce(8, "gradient variants: d2 clean, Betti (1,0,1) as declared"):
        for name in ("fig4-X1.msf", "fig4-X2.msf", "fig4-X3.msf"):
            s = load_fixture(name)
            assert validate(s) == []
            c = build_complex(s)
            assert check_d2(c) == []
            assert s.expected_betti == (1, 0, 1)
            assert betti(c) == list(s.expected_betti)
