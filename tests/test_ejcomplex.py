"""Chain-complex construction over GF(2): bases, boundary matrices,
the d-squared check, Betti numbers, and matrix comparison."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow import (
    BasisElement,
    D2Error,
    DiffCell,
    InvalidSystemError,
    apply_choice,
    betti,
    build_complex,
    check_d2,
    compare_matrices,
    enumerate_choices_2d,
    euler_characteristic,
    parse,
    serialize,
    validate,
)
from msflow import ejcomplex, perturb
from msflow.ejcomplex import MINUS, PLAIN, PLUS
from msflow.gf2 import multiply

from conftest import all_msf_fixtures, load_fixture, random_valid_system, torus_grid_text


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


def test_built_generators_cannot_be_told_from_constructed_ones():
    # build_complex builds its generators without __post_init__.  Forty-odd
    # generators take CPython's shared-key dict for the class past its first sizes.
    text = "dim 2\n" + "".join(f"rest r{i} {i % 3}\n" for i in range(40)) + "orbit g 1 twisted\norbit h 0 untwisted\n"
    built = [x for level in build_complex(parse(text)).bases for x in level]
    constructed = [BasisElement(x.origin, x.flavor, x.degree) for x in built]
    assert len(built) == 44
    assert built == constructed
    assert [hash(x) for x in built] == [hash(x) for x in constructed]
    assert [repr(x) for x in built] == [repr(x) for x in constructed]
    # A generator with a dict of its own (vars(x).update) would be larger.
    assert [sys.getsizeof(vars(x)) for x in built] == [sys.getsizeof(vars(x)) for x in constructed]
    with pytest.raises(ValueError, match="invalid flavor"):
        replace(built[0], flavor="up")


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


def counting_complexes(monkeypatch):
    """A list that gets every chain complex build_complex assembles."""
    built = []
    assemble = ejcomplex.ChainComplexGF2
    monkeypatch.setattr(ejcomplex, "ChainComplexGF2", lambda **parts: built.append(assemble(**parts)) or built[-1])
    return built


def test_claims_build_the_complex_before_the_move_once(monkeypatch, fig3):
    built = counting_complexes(monkeypatch)
    choices = enumerate_choices_2d(fig3, "gamma")
    results = [apply_choice(fig3, choices[i % len(choices)]) for i in range(5)]
    assert len(built) == 1 + 5  # fig3's, then one for each result
    assert build_complex(fig3) is built[0]
    assert [build_complex(r.system) for r in results] == built[1:]


def test_a_replaced_system_gets_its_own_complex(monkeypatch, fig5):
    built = counting_complexes(monkeypatch)
    cx = build_complex(fig5)
    relabeled = replace(fig5, label="another label")
    assert build_complex(relabeled) is not cx
    assert build_complex(relabeled) == cx
    assert len(built) == 2


def test_kept_squares_are_the_products_of_the_boundaries(fig6):
    cx = build_complex(fig6)
    assert cx.squares == tuple(multiply(cx.boundary(k - 1), cx.boundary(k)) for k in (2, 3))
    assert cx.squares is cx.squares


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


def refusal(a, b, corr):
    with pytest.raises(ValueError) as err:
        compare_matrices(a, b, corr)
    return str(err.value)


def test_compare_rejects_size_mismatch(fig3, fig5):
    a = build_complex(fig3)
    b = build_complex(fig5)
    assert refusal(a, b, identity_correspondence(a)) == "basis sizes differ in degree 0: 3 vs 4"


def test_compare_rejects_degree_breaking_map(fig3, fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("gamma", PLUS, 2)] = BasisElement("q1", PLAIN, 0)
    message = "correspondence is not degree-preserving: gamma+ (degree 2) -> q1 (degree 0)"
    assert refusal(c, c, corr) == message
    # every image's degree is checked before any basis size
    a = build_complex(fig3)
    corr = identity_correspondence(a)
    corr[BasisElement("gamma", PLUS, 2)] = BasisElement("q1", PLAIN, 0)
    assert refusal(a, c, corr) == message


def test_compare_rejects_a_missing_generator(fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    del corr[BasisElement("s1", PLAIN, 1)]
    assert refusal(c, c, corr) == "correspondence misses basis element(s) ['s1'] in degree 1"
    # degree by degree: a lower degree's refusal wins
    corr[BasisElement("q1", PLAIN, 0)] = BasisElement("q2", PLAIN, 0)
    assert refusal(c, c, corr) == "correspondence is not a bijection onto the second basis in degree 0"


def test_compare_rejects_non_injective_map(fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("s1", PLAIN, 1)] = BasisElement("s2", PLAIN, 1)
    assert refusal(c, c, corr) == "correspondence is not a bijection onto the second basis in degree 1"
    # within a degree, a missing generator wins
    del corr[BasisElement("s2", PLAIN, 1)]
    assert refusal(c, c, corr) == "correspondence misses basis element(s) ['s2'] in degree 1"


def test_compare_rejects_an_image_outside_the_second_basis(fig5):
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("s1", PLAIN, 1)] = BasisElement("zz", PLAIN, 1)
    assert refusal(c, c, corr) == "correspondence is not a bijection onto the second basis in degree 1"


def test_compare_rejects_an_image_of_the_wrong_flavor(fig5):
    # gamma's degree-1 copy is gamma-, so gamma as a rest point is no generator of b.
    c = build_complex(fig5)
    corr = identity_correspondence(c)
    corr[BasisElement("gamma", MINUS, 1)] = BasisElement("gamma", PLAIN, 1)
    assert refusal(c, c, corr) == "correspondence is not a bijection onto the second basis in degree 1"


# One matrix comparison as it was before matrices were compared by summing
# permuted row masks, kept as the reference: both matrices' nonzero entries
# as sets of (row, column) pairs, the right one's mapped onto the left axes.
def reference_diff_cells(degree, left, right, left_axes, right_axes, correspondence):
    rows, cols = left_axes
    row_of = {correspondence[x]: i for i, x in enumerate(rows)}
    col_of = {correspondence[x]: j for j, x in enumerate(cols)}
    ones_left = set(left.nonzero_entries())
    ones_right = {(row_of[right_axes[0][i]], col_of[right_axes[1][j]]) for i, j in right.nonzero_entries()}
    return [
        DiffCell(degree=degree, row=rows[i], col=cols[j], left=int((i, j) in ones_left), right=int((i, j) in ones_right))
        for i, j in sorted(ones_left ^ ones_right)
    ]


# compare_matrices before it shared one permutation per degree between its
# checks and both boundary matrices: the correspondence checked element by
# element, then each boundary matrix compared by the reference above.
def reference_compare_matrices(a, b, correspondence):
    if a.top_degree != b.top_degree:
        raise ValueError(f"top degrees differ: {a.top_degree} vs {b.top_degree}")
    for x, y in correspondence.items():
        if x.degree != y.degree:
            raise ValueError(f"correspondence is not degree-preserving: {x.label} (degree {x.degree}) -> {y.label} (degree {y.degree})")
    for k in range(a.top_degree + 1):
        left, right = a.basis(k), b.basis(k)
        if len(left) != len(right):
            raise ValueError(f"basis sizes differ in degree {k}: {len(left)} vs {len(right)}")
        missing = [x.label for x in left if x not in correspondence]
        if missing:
            raise ValueError(f"correspondence misses basis element(s) {missing} in degree {k}")
        if {correspondence[x] for x in left} != set(right):
            raise ValueError(f"correspondence is not a bijection onto the second basis in degree {k}")
    return tuple(
        cell
        for k in range(1, a.top_degree + 1)
        for cell in reference_diff_cells(
            k, a.boundary(k), b.boundary(k), (a.basis(k - 1), a.basis(k)), (b.basis(k - 1), b.basis(k)), correspondence
        )
    )


def comparison_outcome(compare, a, b, correspondence):
    try:
        return compare(a, b, correspondence)
    except ValueError as err:
        return str(err)


VALID_COMPLEXES = [build_complex(s) for s in map(load_fixture, all_msf_fixtures()) if not validate(s)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compare_matrices_matches_the_reference(data):
    """Results and refusals alike, on correspondences that permute each
    degree and then may break one generator's image."""
    a, b = data.draw(st.sampled_from(VALID_COMPLEXES)), data.draw(st.sampled_from(VALID_COMPLEXES))
    generators = [x for level in a.bases for x in level]
    corr = {}
    for k in range(a.top_degree + 1):
        images = data.draw(st.permutations(list(b.basis(k))))
        corr.update(zip(a.basis(k), images))
    x = data.draw(st.sampled_from(generators))
    damage = data.draw(st.sampled_from(["none", "drop", "outside", "collide", "degree", "extra"]))
    if damage == "drop":
        corr.pop(x, None)
    elif damage == "outside":
        corr[x] = BasisElement("zz", PLAIN, x.degree)
    elif damage == "collide":
        corr[x] = data.draw(st.sampled_from([y for y in generators if y.degree == x.degree]))
    elif damage == "degree":
        corr[x] = BasisElement(x.origin, x.flavor, x.degree + 1)
    elif damage == "extra":
        corr[BasisElement("zz", PLAIN, 0)] = BasisElement("zz", PLAIN, data.draw(st.integers(0, 1)))
    assert comparison_outcome(compare_matrices, a, b, corr) == comparison_outcome(reference_compare_matrices, a, b, corr)


def claims_reports(s, orbit):
    return [apply_choice(s, d).claims_report for d in enumerate_choices_2d(s, orbit)]


@pytest.mark.parametrize("text, orbit", [
    (serialize(load_fixture("fig3.msf")), "gamma"),
    (torus_grid_text(6, random.Random(3), orbit=True), "g"),
], ids=["fig3", "torus-6"])
def test_claims_reports_match_the_reference_comparison(monkeypatch, text, orbit):
    reports = claims_reports(parse(text), orbit)
    assert len(reports) == 6  # three sinks downstream of each orbit
    # verify_franks_claims reaches the matrix comparison through perturb's
    # bindings: the correspondence it builds, then the diff under the
    # alignment of the bases.  The reference is handed the correspondence
    # itself; these products are zero, so it decides the rest.
    built = []
    bijection = perturb._basis_bijection
    monkeypatch.setattr(perturb, "_basis_bijection", lambda *args: built.append(bijection(*args)) or built[-1])
    monkeypatch.setattr(perturb, "_diff", lambda a, b, perms: reference_compare_matrices(a, b, built[-1]))
    assert claims_reports(parse(text), orbit) == reports
    assert all(report.products_zero for report in reports)


def test_products_equal_matches_the_reference_where_a_product_is_nonzero(monkeypatch):
    # verify_franks_claims permutes the two d_1 . d_2 products only when one is
    # nonzero; there its verdict must be the reference comparison's, with the
    # products multiplied afresh and the orbit's copies sent to q and p.  The
    # bases are aligned once per claims check, for the matrices and the products.
    alignments = []
    align = ejcomplex._alignment
    monkeypatch.setattr(perturb, "_alignment", lambda *args: alignments.append(args) or align(*args))
    claims, nonzero = 0, 0
    for seed in range(3000):
        s = random_valid_system(random.Random(seed))
        if s.dimension != 2:
            continue
        for orbit in s.orbits():
            for d in enumerate_choices_2d(s, orbit.name):
                result = apply_choice(s, d)
                claims += 1
                if result.claims_report.products_zero:
                    continue
                nonzero += 1
                before, after = build_complex(s), build_complex(result.system)
                pair = {MINUS: d.q_name, PLUS: d.p_name}
                corr = {x: BasisElement(pair[x.flavor], PLAIN, x.degree) if x.origin == d.orbit else x for level in before.bases for x in level}
                products = [multiply(cx.boundary(1), cx.boundary(2)) for cx in (before, after)]
                axes = [(cx.basis(0), cx.basis(2)) for cx in (before, after)]
                assert result.claims_report.products_equal == (not reference_diff_cells(2, *products, *axes, corr)), (seed, d)
    assert (claims, nonzero) == (2601, 454)
    assert len(alignments) == 2601
