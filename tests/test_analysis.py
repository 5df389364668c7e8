"""Closed-form solutions, error norms, rates, and report containers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracfem.analysis import (
    ConvergenceReport,
    ErrorNorms,
    ExactSolution,
    LevelRow,
    error_norms,
    exact_q0,
    expected_rates,
    rates,
    reference_solution,
)
from fracfem.assembly import Lead, ProblemSpec
from fracfem.errors import ArgumentError, UnsupportedFormError
from fracfem.fraccalc import PowerSum
from fracfem.fields import SOURCES, source_bump, source_step, zero_field
from fracfem.mesh import PwLinear, build_mesh
from fracfem.solver import Solution, solve_reconstruction, solve_standard
from fracfem.assembly import assemble_system

from .oracles import (
    error_l2_dense,
    error_norms_gauss,
    error_norms_union,
    green_q0,
    green_solution_quad,
)

# u(x) for q = 0, f = x(1-x), from independent kernel quadrature
GREEN_BUMP_POINTS = np.array([0.25, 0.5, 0.75])
GREEN_BUMP_VALUES = {
    1.25: [0.09201468486817571, 0.0697779534607797, 0.02983577252634907],
    1.5: [0.056418958353212936, 0.05319230405131439, 0.02792014353460304],
    1.75: [0.03297335649024955, 0.03808985968503073, 0.023535888513259183],
}


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
def test_closed_form_matches_green_kernel(alpha):
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    exact = exact_q0(spec)
    np.testing.assert_allclose(
        exact.u(GREEN_BUMP_POINTS), GREEN_BUMP_VALUES[alpha], rtol=1e-8
    )


@given(
    alpha=st.floats(min_value=1.001, max_value=1.999),
    x=st.floats(min_value=0.01, max_value=0.99),
    example=st.sampled_from(["a", "b", "c"]),
)
@settings(max_examples=60, deadline=None)
@example(alpha=1.001, x=0.5000001, example="b")  # just past the source's jump
def test_closed_form_matches_green_kernel_quadrature(alpha, x, example):
    # the power-rule solution against the Green kernel integrated by quad,
    # across the whole range of alpha and for every catalog source
    f = SOURCES[example]()
    where = {"b": dict(breaks=(0.5,)), "c": dict(left_exponent=-0.25)}.get(example, {})
    got = exact_q0(ProblemSpec(alpha, zero_field(), f), build_mesh(16)).u(x)
    assert got == pytest.approx(green_solution_quad(alpha, f, x, **where), rel=1e-9)


def test_closed_form_boundary_and_split():
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    exact = exact_q0(spec)
    assert exact.mu == pytest.approx(0.12895761909663, rel=1e-9)
    assert abs(exact.u(1.0)) < 1e-14
    assert exact.u(0.0) == 0.0
    # u and u_r differ by mu times the singular profile
    x = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(
        exact.u(x) - exact.u_r(x), exact.mu * spec.singular_pair.u_s(x), rtol=1e-12
    )


def test_closed_form_mixed_condition():
    spec = ProblemSpec(alpha=1.75, q=zero_field(), f=source_step(), bc="mixed")
    exact = exact_q0(spec)
    assert abs(exact.u(1.0)) < 1e-14
    # the singular profile now carries the negative exponent alpha - 2
    assert spec.singular_pair.u_s(0.25) == pytest.approx(0.25 ** -0.25 - 0.25 ** 2, rel=1e-14)


def test_closed_form_requires_power_sum_and_zero_potential():
    with pytest.raises(ArgumentError):
        exact_q0(ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump()))
    # a source that is not a power sum is refused before any solution exists
    with pytest.raises(UnsupportedFormError):
        ProblemSpec(alpha=1.5, q=zero_field(), f=np.sin)


def test_green_kernel_reproduces_solution():
    alpha, x = 1.5, 0.5
    f = source_bump()
    val, _ = quad(
        lambda y: green_q0(alpha, x, y) * f(y),
        0.0,
        1.0,
        points=[x],
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=f)
    assert exact_q0(spec).u(x) == pytest.approx(val, rel=1e-9)
    assert green_solution_quad(alpha, f, x) == pytest.approx(val, rel=1e-9)


def test_error_norms_vanish_on_identical_fields():
    mesh = build_mesh(64)
    coeffs = np.sin(np.pi * mesh.nodes[1:-1])
    pw = PwLinear(mesh, coeffs)
    approx = Solution(pw, 0.0, None)
    exact = ExactSolution(pw, pw, 0.0, mesh, Lead.of(mesh, 1.5))
    norms = error_norms(approx, exact)
    assert norms.l2 == 0.0 and norms.energy == 0.0 and norms.linf == 0.0


def test_error_norms_shrink_under_refinement():
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    exact = exact_q0(spec, build_mesh(512))
    errs = []
    for m in (16, 32):
        system = assemble_system(spec, build_mesh(m), "standard")
        errs.append(error_norms(solve_standard(system), exact))
    assert errs[1].l2 < errs[0].l2
    assert errs[1].energy < errs[0].energy
    assert errs[1].linf < errs[0].linf


# a graded or uniform study mesh of m elements against a uniform fine mesh of
# m * refine + extra: nested for a uniform study mesh and extra = 0, and for
# a few graded ones (delta = 2 with m = 2 or 4); elsewhere the union of both
STUDY_MESHES = dict(
    delta=st.sampled_from([1.0, 2.0, 5.0]),
    m=st.integers(min_value=2, max_value=24),
    refine=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=1),
    alpha=st.floats(min_value=1.01, max_value=1.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@given(**STUDY_MESHES)
@settings(max_examples=80, deadline=None)
def test_node_exact_norms_match_gauss_sampling(delta, m, refine, extra, alpha, seed):
    # a regular part against a fine-mesh reference: both piecewise linear
    rng = np.random.default_rng(seed)
    coarse, fine = build_mesh(m, delta), build_mesh(m * refine + extra)
    u_r_h = PwLinear(coarse, rng.uniform(-1.0, 1.0, coarse.m - 1))
    u_r = PwLinear(fine, rng.uniform(-1.0, 1.0, fine.m - 1))
    lead = Lead.of(fine, alpha)
    approx = Solution(u_r_h, 0.0, None, mu_h=0.0)
    exact = ExactSolution(None, u_r, 0.0, fine, lead)
    got = error_norms(approx, exact)
    l2, energy, linf = error_norms_gauss(u_r_h, u_r, coarse, fine, lead)
    assert got.l2 == pytest.approx(l2, rel=1e-13)
    assert got.linf == linf
    assert got.energy == energy


@given(**STUDY_MESHES)
@settings(max_examples=60, deadline=None)
def test_nested_error_norms_take_the_union_bits(delta, m, refine, extra, alpha, seed):
    # study nodes that are fine nodes skip the union: the same ErrorNorms
    # bits as the union path, for a regular part against a fine-mesh reference
    rng = np.random.default_rng(seed)
    coarse, fine = build_mesh(m, delta), build_mesh(m * refine + extra)
    if delta == 1.0 and extra == 0:
        assert np.isin(coarse.nodes, fine.nodes).all()
    lead = Lead.of(fine, alpha)
    u_r_h = PwLinear(coarse, rng.uniform(-1.0, 1.0, coarse.m - 1))
    u_r = PwLinear(fine, rng.uniform(-1.0, 1.0, fine.m - 1))
    recon = Solution(u_r_h, 0.0, None, mu_h=0.0)
    exact = ExactSolution(None, u_r, 0.0, fine, lead)
    assert error_norms(recon, exact) == error_norms_union(recon, exact)


@given(
    delta=st.sampled_from([1.0, 2.0, 5.0]),
    k=st.integers(min_value=2, max_value=9),
    alpha=st.floats(min_value=1.01, max_value=1.99),
    example=st.sampled_from(sorted(SOURCES)),
    method=st.sampled_from(["standard", "recon", "recon_mixed"]),
)
@settings(max_examples=30, deadline=None)
def test_closed_form_error_norms_match_dense_sampling(delta, k, alpha, example, method):
    # L2 from the study cells cut at and toward the anchors, against 16 Gauss
    # points on a uniform m = 65536 mesh with 80 cuts per anchor; the energy
    # keeps the bits of the differences at the fine nodes
    mixed = method == "recon_mixed"
    if mixed:
        alpha = 1.5 + 0.5 * (alpha - 1.0)  # mixed conditions need alpha in (3/2, 2)
    spec = ProblemSpec(alpha, zero_field(), SOURCES[example](), "mixed" if mixed else "dirichlet")
    mesh = build_mesh(2**k, delta)
    if method == "standard":
        sol = solve_standard(assemble_system(spec, mesh, "standard"))
    else:
        sol = solve_reconstruction(spec, mesh)
    exact = exact_q0(spec, build_mesh(512))
    got = error_norms(sol, exact)
    dense = error_l2_dense(sol.fe, exact.u if sol.mu_h is None else exact.u_r)
    assert got.l2 == pytest.approx(dense, rel=1e-8)
    assert got.energy == error_norms_union(sol, exact).energy


def test_closed_form_norms_sample_the_study_cells():
    # an m = 8 study against an m = 4096 fine mesh: the fine nodes for the
    # energy, 8 Gauss points in each study cell and panel, no union sweep
    sizes = []

    class CountingPowerSum(PowerSum):
        def __call__(self, x):
            sizes.append(np.size(x))
            return super().__call__(x)

    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    closed = exact_q0(spec, build_mesh(4096))
    exact = ExactSolution(CountingPowerSum(closed.u.terms), closed.u_r, closed.mu, closed.mesh, closed.lead)
    error_norms(solve_standard(assemble_system(spec, build_mesh(8), "standard")), exact)
    assert 4096 < sum(sizes) < 5000


@given(
    alpha=st.floats(min_value=1.001, max_value=1.999),
    m=st.integers(min_value=4, max_value=512),
    delta=st.sampled_from([1.0, 2.0]),
    mixed=st.booleans(),
    example=st.sampled_from(sorted(SOURCES)),
)
@settings(max_examples=40, deadline=None)
def test_mu_h_is_exact_without_potential(alpha, m, delta, mixed, example):
    # with q = 0, s = 0 and c0 = 1: mu_h is (I^alpha f)(1) at every m
    if mixed:
        alpha = 1.5 + 0.5 * (alpha - 1.0)  # mixed conditions need alpha in (3/2, 2)
    spec = ProblemSpec(alpha, zero_field(), SOURCES[example](), "mixed" if mixed else "dirichlet")
    sol = solve_reconstruction(spec, build_mesh(m, delta))
    assert sol.mu_h == exact_q0(spec, build_mesh(16)).mu


def test_rates_on_synthetic_sequence():
    np.testing.assert_allclose(rates([1.0, 0.25, 0.0625]), [2.0, 2.0])
    out = rates([1.0, 0.0, 0.5, np.inf])
    assert np.all(np.isnan(out))
    assert rates([1.0]).size == 0


def test_expected_rates_hand_values():
    standard = expected_rates(1.5, "standard", "dirichlet", 1.0)
    assert standard["l2"] == pytest.approx(0.5)
    assert standard["energy"] == pytest.approx(0.25)
    assert standard["linf"] == pytest.approx(0.5)
    assert standard["mu"] is None

    recon = expected_rates(1.25, "reconstruction", "dirichlet", 1.0)
    # shift 0.75, graph regularity capped at 2
    assert recon["l2"] == pytest.approx(1.5)
    assert recon["energy"] == pytest.approx(1.375)
    assert recon["mu"] == pytest.approx(1.5)

    mixed = expected_rates(1.75, "reconstruction", "mixed", 0.25)
    assert mixed["l2"] == pytest.approx(1.5)
    assert mixed["energy"] == pytest.approx(1.125)


def test_reference_solution_is_cached_and_validated():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    first = reference_solution(spec, build_mesh(64))
    second = reference_solution(spec, build_mesh(64))
    assert first.mu == second.mu
    assert np.array_equal(first.u_r.coeffs, second.u_r.coeffs)
    assert first.mesh.m == 64
    with pytest.raises(ArgumentError):
        reference_solution(spec, build_mesh(8))


def test_reference_cache_tells_unlabeled_fields_apart():
    one, five = PowerSum.monomial(1.0, 0.0), PowerSum.monomial(5.0, 0.0)
    mu_one = reference_solution(ProblemSpec(alpha=1.5, q=one, f=one), build_mesh(64)).mu
    mu_five = reference_solution(ProblemSpec(alpha=1.5, q=one, f=five), build_mesh(64)).mu
    # the strength is linear in the source
    assert mu_five == pytest.approx(5.0 * mu_one, rel=1e-10)


def test_report_accessors():
    report = ConvergenceReport(
        alpha=1.5,
        method="standard",
        example="a",
        q_label="zero",
        delta=1.0,
        expected={"l2": 0.5},
        rows=[
            LevelRow(3, 0.125, 0.1, 0.2, 0.3, None),
            LevelRow(4, 0.0625, 0.05, 0.1, 0.15, None),
        ],
    )
    np.testing.assert_allclose(report.errors_of("l2"), [0.1, 0.05])
    np.testing.assert_allclose(report.rates_of("linf"), [1.0])
    assert np.all(np.isnan(report.errors_of("mu")))
