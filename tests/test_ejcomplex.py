"""Chain-complex construction over GF(2): bases, boundary matrices,
the d-squared check, Betti numbers, and matrix comparison."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow import (
    BasisElement,
    D2Error,
    InvalidSystemError,
    betti,
    build_complex,
    check_d2,
    compare_matrices,
    euler_characteristic,
    parse,
)
from msflow.ejcomplex import MINUS, PLAIN, PLUS

from conftest import all_msf_fixtures, load_fixture, random_valid_system


def labels(basis):
    return [b.label for b in basis]


# ---------------------------------------------------------------------------
# construction


def test_basis_element_labels():
    assert BasisElement("s1", PLAIN, 1).label == "s1"
    assert BasisElement("gamma", MINUS, 1).label == "gamma-"
    assert BasisElement("gamma", PLUS, 2).label == "gamma+"
    with pytest.raises(ValueError):
        BasisElement("x", "up", 1)


def test_sphere_with_orbit_complex(fig5):
    c = build_complex(fig5)
    assert c.top_degree == 2
    assert labels(c.basis(2)) == ["gamma+"]
    assert labels(c.basis(1)) == ["s1", "s2", "gamma-"]
    assert labels(c.basis(0)) == ["q1", "q2", "q3", "q4"]
    assert c.boundary(2).tolist() == [[0], [0], [0]]
    assert c.boundary(1).tolist() == [[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]]
    assert c.boundary(0).shape == (0, 4)


def test_three_sphere_complex(fig6):
    c = build_complex(fig6)
    assert c.top_degree == 3
    assert labels(c.basis(3)) == ["r1", "r2"]
    assert labels(c.basis(2)) == ["p1", "p2", "p3"]
    assert labels(c.basis(1)) == ["s1", "s2", "gamma+"]
    assert labels(c.basis(0)) == ["q0", "gamma-"]
    assert c.boundary(3).tolist() == [[1, 1], [1, 1], [1, 1]]
    assert c.boundary(2).tolist() == [[0, 0, 0], [0, 1, 1], [1, 1, 1]]
    assert c.boundary(1).tolist() == [[1, 0, 0], [1, 0, 0]]


def test_orbit_lands_in_two_consecutive_degrees():
    s = parse("dim 2\norbit g 0 untwisted\n")
    c = build_complex(s)
    assert labels(c.basis(0)) == ["g-"]
    assert labels(c.basis(1)) == ["g+"]
    assert labels(c.basis(2)) == []


def test_basis_order_is_rest_then_minus_then_plus():
    s = parse(
        "dim 2\norbit g0 0 untwisted\nrest a 1\norbit g1 1 untwisted\nrest b 1\n"
    )
    c = build_complex(s)
    # degree 1 collects: rest points a, b (declaration order), then the lower
    # copy of g1, then the upper copy of g0
    assert labels(c.basis(1)) == ["a", "b", "g1-", "g0+"]


def test_connectionless_gradient_system_has_zero_boundaries():
    s = parse("dim 2\nrest q 0\nrest s 1\nrest p 2\n")
    c = build_complex(s)
    for k in range(3):
        assert c.boundary(k).is_zero()


def test_same_origin_coefficient_is_zero():
    # The only candidate entry of the top boundary relates the two copies of
    # the same orbit, and it must vanish.
    s = parse("dim 2\norbit g 1 untwisted\nrest q 0\nconn g q 2\n")
    c = build_complex(s)
    assert c.boundary(2).tolist() == [[0]]


def test_out_of_range_accessors_are_empty(fig5):
    c = build_complex(fig5)
    assert c.basis(-1) == () and c.basis(3) == ()
    assert c.boundary(3).shape == (1, 0)
    assert c.boundary(-1).shape == (0, 0)


def test_build_complex_rejects_invalid_systems():
    s = parse("dim 2\nrest a 1\nrest b 1\nconn a b 1\n")
    with pytest.raises(InvalidSystemError) as exc:
        build_complex(s)
    assert any(v.rule == "dimension-rule" for v in exc.value.violations)


def test_build_complex_is_deterministic(fig5):
    a = build_complex(fig5)
    b = build_complex(load_fixture("fig5.msf"))
    assert a == b


def dense_boundary(system, cx, k) -> list[list[int]]:
    """The defining formula, entry by entry: the parity of the connection
    count from the column's origin to the row's origin, 0 for one origin."""
    return [
        [0 if col.origin == row.origin else system.connections.count(col.origin, row.origin) & 1 for col in cx.basis(k)]
        for row in cx.basis(k - 1)
    ]


def assert_boundaries_match_definition(system):
    cx = build_complex(system)
    for k in range(1, cx.top_degree + 1):
        assert cx.boundary(k).shape == (len(cx.basis(k - 1)), len(cx.basis(k)))
        assert cx.boundary(k).tolist() == dense_boundary(system, cx, k)


@pytest.mark.parametrize("name", all_msf_fixtures())
def test_boundaries_match_the_dense_definition_on_fixtures(name):
    assert_boundaries_match_definition(load_fixture(name))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_boundaries_match_the_dense_definition_on_random_systems(seed):
    assert_boundaries_match_definition(random_valid_system(random.Random(seed), max_elements=12))


# ---------------------------------------------------------------------------
# check_d2


def test_d2_clean_on_sphere_with_orbit(fig5):
    assert check_d2(build_complex(fig5)) == []


def test_d2_violations_on_three_sphere(fig6):
    violations = check_d2(build_complex(fig6))
    facts = {(v.degree, v.source.label, v.target.label) for v in violations}
    assert facts == {(3, "r1", "gamma+"), (3, "r2", "gamma+")}
    rendered = sorted(str(v) for v in violations)
    assert rendered[0] == "d2.d3 != 0 at column r1, row gamma+"


@pytest.mark.parametrize("name", ["fig3-X1.msf", "fig3-X2.msf", "fig4-X1.msf", "fig4-X2.msf", "fig4-X3.msf"])
def test_d2_clean_on_gradient_fixtures(name):
    assert check_d2(build_complex(load_fixture(name))) == []


# ---------------------------------------------------------------------------
# betti / euler


def test_betti_of_sphere_with_orbit(fig5):
    assert betti(build_complex(fig5)) == [2, 1, 1]


def test_betti_refuses_when_d2_fails(fig6):
    c = build_complex(fig6)
    with pytest.raises(D2Error) as exc:
        betti(c)
    assert len(exc.value.violations) == 2
    assert exc.value.violations == check_d2(c)


def test_betti_of_zero_differentials_counts_basis():
    s = parse("dim 2\nrest q 0\nrest s 1\nrest s2 1\nrest p 2\n")
    assert betti(build_complex(s)) == [1, 2, 1]


def test_euler_characteristic_examples(fig5, fig6):
    assert euler_characteristic(build_complex(fig5)) == 2
    assert euler_characteristic(build_complex(fig6)) == 0


def test_euler_characteristic_of_orbit_only_system_is_zero():
    s = parse("dim 2\norbit g0 0 untwisted\norbit g1 1 untwisted\n")
    assert euler_characteristic(build_complex(s)) == 0


def alternating_rest_count(s):
    return sum((-1) ** e.index for e in s.elements if e.is_rest)


@pytest.mark.parametrize("name", all_msf_fixtures())
def test_euler_equals_alternating_rest_count_on_fixtures(name):
    s = load_fixture(name)
    assert euler_characteristic(build_complex(s)) == alternating_rest_count(s)


def test_euler_equals_alternating_rest_count_on_random_systems():
    rng = random.Random(11)
    for _ in range(100):
        s = random_valid_system(rng)
        assert euler_characteristic(build_complex(s)) == alternating_rest_count(s)


def test_repelling_orbit_row_of_top_boundary_is_zero():
    # Nothing flows into a repelling orbit, so the row of its lower copy in
    # the top boundary matrix must vanish even when other rows do not.
    s = load_fixture("fig4.msf")
    c = build_complex(s)
    top = c.boundary(2)
    row = labels(c.basis(1)).index("gamma-")
    assert all(top[row, j] == 0 for j in range(top.cols))
    assert not top.is_zero()  # the claim is about that row, not the matrix


# ---------------------------------------------------------------------------
# compare_matrices


def identity_correspondence(c):
    return {b: b for k in range(c.top_degree + 1) for b in c.basis(k)}


def orbit_to_pair_correspondence(before, after, orbit, p_name, q_name):
    mapping = {}
    for k in range(before.top_degree + 1):
        for b in before.basis(k):
            if b.origin == orbit and b.flavor == PLUS:
                mapping[b] = BasisElement(p_name, PLAIN, b.degree)
            elif b.origin == orbit and b.flavor == MINUS:
                mapping[b] = BasisElement(q_name, PLAIN, b.degree)
            else:
                mapping[b] = b
    return mapping


def test_compare_complex_with_itself(fig5):
    c = build_complex(fig5)
    assert compare_matrices(c, c, identity_correspondence(c)) == ()


def test_compare_before_and_after_orbit_removal(fig3):
    before = build_complex(fig3)
    after = build_complex(load_fixture("fig3-X1.msf"))
    corr = orbit_to_pair_correspondence(before, after, "gamma", "p_gamma", "q_gamma")
    diff = compare_matrices(before, after, corr)
    # the middle matrix agrees; the bottom one differs only in the column of
    # the orbit's lower copy
    assert {cell.degree for cell in diff} == {1}
    assert {cell.col.label for cell in diff} == {"gamma-"}
    assert [(cell.row.label, cell.left, cell.right) for cell in diff] == [("q2", 1, 0)]


def test_compare_rejects_size_mismatch(fig3, fig5):
    a = build_complex(fig3)
    b = build_complex(fig5)
    with pytest.raises(ValueError):
        compare_matrices(a, b, identity_correspondence(a))


def test_compare_rejects_degree_breaking_map(fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("gamma", PLUS, 2)] = BasisElement("q1", PLAIN, 0)
    with pytest.raises(ValueError):
        compare_matrices(c, c, corr)


def test_compare_rejects_non_injective_map(fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("s1", PLAIN, 1)] = BasisElement("s2", PLAIN, 1)
    with pytest.raises(ValueError):
        compare_matrices(c, c, corr)
