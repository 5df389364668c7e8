"""The GMRES solve against dense linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracfem.solver as solver_mod
from fracfem.assembly import (
    AssembledSystem,
    Lead,
    ProblemSpec,
    assemble_system,
)
from fracfem.cli import ExperimentConfig, run_experiment
from fracfem.errors import ArgumentError, DomainError, IterativeFailure, SingularSystemError
from fracfem.fields import (
    parse_field,
    source_bump,
    source_inverse_quartic,
    zero_field,
)
from fracfem.mesh import build_mesh
from fracfem.solver import (
    RESIDUAL_TOL,
    solve_reconstruction,
    solve_standard,
    system_matvec,
)

from .oracles import full_matrix, stencil_to_dense


def test_toeplitz_matvec_matches_dense():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 17, 64):
        st = rng.standard_normal(2 * n - 1)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            Lead(stencil=st).matvec(x), stencil_to_dense(st) @ x, rtol=1e-12, atol=1e-12
        )


def test_standard_solve_matches_dense_lu():
    spec = ProblemSpec(alpha=1.6, q=source_bump(), f=source_inverse_quartic())
    system = assemble_system(spec, build_mesh(64), "standard")
    sol = solve_standard(system)
    expect = np.linalg.solve(full_matrix(system), system.load)
    np.testing.assert_allclose(sol.fe.coeffs, expect, rtol=1e-10)
    assert sol.residual <= RESIDUAL_TOL
    assert sol.mu_h is None and sol.pair is None and sol.lead is system.lead
    # nodal evaluation returns the computed coefficients
    np.testing.assert_allclose(sol(system.mesh.nodes[1:-1]), sol.fe.coeffs, rtol=1e-14)


def test_standard_solver_rejects_reconstruction_system():
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    system = assemble_system(spec, build_mesh(8), "reconstruction")
    with pytest.raises(ArgumentError):
        solve_standard(system)


def test_reconstruction_matches_dense_lu():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    mesh = build_mesh(128)
    sol = solve_reconstruction(spec, mesh)
    system = assemble_system(spec, mesh, "reconstruction")
    expect = np.linalg.solve(full_matrix(system), system.load)
    np.testing.assert_allclose(sol.fe.coeffs, expect, rtol=1e-10)
    assert sol.mu_h == pytest.approx(_mu_h(system, expect), rel=1e-10)


def _mu_h(system, coeffs):
    """mu_h = c0 [ (I^alpha f)(1) - s . coeffs ] of a reconstruction system."""
    return system.pair.c0 * (system.pair.f_frac_at_one - float(np.dot(system.s_vec, coeffs)))


def test_fft_path_matches_dense(monkeypatch):
    # the FFT/GMRES path from a zero start on a system small enough for the
    # LAPACK start
    monkeypatch.setattr(solver_mod, "_DENSE_N", 0)
    spec = ProblemSpec(alpha=1.75, q=source_bump(), f=source_bump())
    mesh = build_mesh(64)
    system = assemble_system(spec, mesh, "reconstruction")
    coeffs, res = solver_mod._gmres_solve(system)
    expect = np.linalg.solve(full_matrix(system), system.load)
    np.testing.assert_allclose(coeffs, expect, rtol=1e-10)
    assert res <= RESIDUAL_TOL


@pytest.mark.parametrize(
    "alpha, bc",
    [
        (1.05, "dirichlet"),
        (1.5, "dirichlet"),
        (1.95, "dirichlet"),
        (1.99, "dirichlet"),
        (1.95, "mixed"),
        (1.99, "mixed"),
    ],
)
def test_fft_path_matches_dense_above_dense_limit(alpha, bc):
    spec = ProblemSpec(alpha=alpha, q=source_bump(), f=source_bump(), bc=bc)
    mesh = build_mesh(2048)
    sol = solve_reconstruction(spec, mesh)
    system = assemble_system(spec, mesh, "reconstruction")
    expect = np.linalg.solve(full_matrix(system), system.load)
    scale = float(np.max(np.abs(expect)))
    assert np.max(np.abs(sol.fe.coeffs - expect)) <= 1e-9 * scale
    assert sol.mu_h == pytest.approx(_mu_h(system, expect), rel=1e-11)
    assert sol.residual <= RESIDUAL_TOL


def test_gmres_agrees_with_lu():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    mesh = build_mesh(256)
    system = assemble_system(spec, mesh, "reconstruction")
    expect = np.linalg.solve(full_matrix(system), system.load)
    iterative = solve_reconstruction(spec, mesh)
    scale = float(np.max(np.abs(expect)))
    assert np.max(np.abs(iterative.fe.coeffs - expect)) <= 1e-8 * scale
    mu = _mu_h(system, expect)
    assert iterative.mu_h == pytest.approx(mu, abs=1e-8 * abs(mu))


def _count_matvecs(monkeypatch):
    calls = []
    matvec = solver_mod.system_matvec

    def counted(system, x):
        calls.append(x.size)
        return matvec(system, x)

    monkeypatch.setattr(solver_mod, "system_matvec", counted)
    return calls


def test_gmres_converges_at_large_m(monkeypatch):
    # the circulant preconditioner holds the iteration count up to the largest
    # uniform mesh, n + 1 a power of two or not: one cycle of a few
    # iterations, then one true residual
    spec = ProblemSpec(alpha=1.95, q=source_bump(), f=source_bump())
    calls = _count_matvecs(monkeypatch)
    for m in (1000, 3000, 8192, 65536):
        calls.clear()
        sol = solve_reconstruction(spec, build_mesh(m))
        assert sol.residual <= RESIDUAL_TOL, m
        assert len(calls) <= 10, (m, len(calls))


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("case", ["chi_recon", "graded_standard", "mixed_recon"])
def test_dense_and_fft_paths_agree(monkeypatch, case, m):
    # the same system from the LAPACK start and from the zero start, whose
    # GMRES cycles apply the system matrix-free and the preconditioner by FFT:
    # both meet the backward error and the LU oracle, and only the zero
    # start applies system_matvec
    spec, mesh, method = {
        "chi_recon": (ProblemSpec(alpha=1.5, q=parse_field("chi(0,0.5)"), f=source_bump()),
                      build_mesh(m), "reconstruction"),
        "graded_standard": (ProblemSpec(alpha=1.25, q=source_bump(), f=source_bump()),
                            build_mesh(m, 5.0), "standard"),
        "mixed_recon": (ProblemSpec(alpha=1.75, q=parse_field("x * (1 - x)"),
                                    f=source_bump(), bc="mixed"),
                        build_mesh(m), "reconstruction"),
    }[case]
    system = assemble_system(spec, mesh, method)
    expect = np.linalg.solve(full_matrix(system), system.load)
    scale = float(np.max(np.abs(expect)))
    calls = _count_matvecs(monkeypatch)
    for dense_n in (system.n, system.n - 1):  # the LAPACK start, then the zero start
        monkeypatch.setattr(solver_mod, "_DENSE_N", dense_n)
        calls.clear()
        coeffs, res = solver_mod._gmres_solve(system)
        assert res <= RESIDUAL_TOL
        assert np.max(np.abs(coeffs - expect)) <= 1e-9 * scale
        assert (len(calls) > 0) == (dense_n < system.n), len(calls)


@pytest.mark.parametrize("delta", [1.0, 5.0], ids=["uniform", "graded"])
def test_strang_preconditioner_matches_its_definition(delta):
    # D^(-1/2) C^(-1)[:n, :n] D^(-1/2), with C the circulant of length N, the
    # power of two >= n + 1, whose first column takes the middle row of
    # D^(-1/2) A D^(-1/2), mass bands included, applied by FFT
    spec = ProblemSpec(alpha=1.5, q=parse_field("4 + x"), f=source_bump())
    system = assemble_system(spec, build_mesh(48, delta), "standard")
    full = full_matrix(system)
    n, k = system.n, system.n // 2
    scale = 1.0 / np.sqrt(np.abs(np.diag(full)))
    size = 64
    column = np.zeros(size)
    column[(k - np.arange(n)) % size] = full[k] * scale[k] * scale
    circulant = column[(np.arange(size)[:, None] - np.arange(size)) % size]
    expect = scale[:, None] * np.linalg.inv(circulant)[:n, :n] * scale
    precond = solver_mod._strang_preconditioner(system, solver_mod._diagonal_scale(system))
    got = np.column_stack([precond(e) for e in np.eye(n)])
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12 * np.abs(expect).max())


def test_small_systems_run_no_gmres_cycle(monkeypatch):
    # levels 3:6 of a chi(0,0.5) reconstruction study, n = 7 to 63, pass the
    # backward-error check at their LAPACK start; only the reference solve,
    # n = 511, runs GMRES cycles
    solves, solve, cycle = [], solver_mod._gmres_solve, solver_mod._gmres_cycle

    def counted_solve(system):
        solves.append([system.n, 0])
        return solve(system)

    def counted_cycle(*args):
        solves[-1][1] += 1
        return cycle(*args)

    monkeypatch.setattr(solver_mod, "_gmres_solve", counted_solve)
    monkeypatch.setattr(solver_mod, "_gmres_cycle", counted_cycle)
    reports = run_experiment(ExperimentConfig(
        alphas=(1.5,), example="b", q_kind="custom", q_expr="chi(0,0.5)", q_hint=0.0,
        method="recon", k_min=3, k_max=6, reference_m=512))
    assert reports[0].error is None
    assert sorted(n for n, cycles in solves if cycles == 0) == [7, 15, 31, 63]
    assert [n for n, cycles in solves if cycles > 0] == [511]


def test_one_true_residual_per_cycle(monkeypatch):
    # restarts of 3 force 4 cycles of 12 iterations in all; each iteration
    # and each cycle's residual make one matvec apiece
    monkeypatch.setattr(solver_mod, "GMRES_RESTART", 3)
    spec = ProblemSpec(alpha=1.95, q=source_bump(), f=source_bump())
    system = assemble_system(spec, build_mesh(512), "reconstruction")
    calls = _count_matvecs(monkeypatch)
    coeffs, res = solver_mod._gmres_solve(system)
    assert res <= RESIDUAL_TOL
    assert len(calls) == 12 + 4


@pytest.mark.parametrize(
    "alpha, delta, m", [(1.25, 5.0, 256), (1.95, 1.0, 512)], ids=["graded", "uniform"]
)
def test_gmres_converges_through_restarts(monkeypatch, alpha, delta, m):
    # cycles of 3 iterations restart many times
    monkeypatch.setattr(solver_mod, "GMRES_RESTART", 3)
    spec = ProblemSpec(alpha=alpha, q=source_bump(), f=source_bump())
    mesh = build_mesh(m, delta)
    sol = solve_reconstruction(spec, mesh)
    assert sol.residual <= RESIDUAL_TOL
    system = assemble_system(spec, mesh, "reconstruction")
    expect = np.linalg.solve(full_matrix(system), system.load)
    scale = float(np.max(np.abs(expect)))
    assert np.max(np.abs(sol.fe.coeffs - expect)) <= 1e-9 * scale


def test_gmres_iteration_budget(monkeypatch):
    monkeypatch.setattr(solver_mod, "GMRES_RESTART", 2)
    monkeypatch.setattr(solver_mod, "_GMRES_MAX_INNER", 4)
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    system = assemble_system(spec, build_mesh(128), "standard")
    with pytest.raises(IterativeFailure):
        solve_standard(system)


def test_gmres_converges_on_strongly_graded_mesh():
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    system = assemble_system(spec, build_mesh(256, delta=5.0), "standard")
    sol = solve_standard(system)
    assert sol.residual <= RESIDUAL_TOL


@pytest.mark.parametrize(
    "alpha, delta, m",
    [(a, d, 1024) for d in (2.0, 5.0) for a in (1.05, 1.95)]
    + [(1.05, 2.0, 2048), (1.95, 5.0, 2048)],
)
def test_gmres_on_graded_meshes(alpha, delta, m):
    # the scaled Strang circulant follows the grading; a dense solve checks it to m = 1024
    spec = ProblemSpec(alpha=alpha, q=source_bump(), f=source_bump())
    mesh = build_mesh(m, delta)
    sol = solve_reconstruction(spec, mesh)
    assert sol.residual <= RESIDUAL_TOL
    if m <= 1024:
        system = assemble_system(spec, mesh, "reconstruction")
        expect = np.linalg.solve(full_matrix(system), system.load)
        scale = float(np.max(np.abs(expect)))
        assert np.max(np.abs(sol.fe.coeffs - expect)) <= 1e-9 * scale


@given(
    alpha=st.floats(min_value=1.01, max_value=1.99),
    mixed=st.booleans(),
    delta=st.sampled_from([1.0, 2.0, 5.0]),
    m=st.integers(min_value=8, max_value=128),
    q_sign=st.sampled_from([0.0, 1.0, -1.0]),
)
@settings(max_examples=60, deadline=None)
def test_gmres_path_agrees_with_lu(alpha, mixed, delta, m, q_sign):
    # the one solve path against LU of the oracle's dense matrix
    bc = "mixed" if mixed and alpha > 1.5 else "dirichlet"
    q = zero_field() if q_sign == 0.0 else parse_field(f"{q_sign} * x * (1 - x)")
    spec = ProblemSpec(alpha=alpha, q=q, f=source_bump(), bc=bc)
    mesh = build_mesh(m, delta)
    sol = solve_reconstruction(spec, mesh)
    system = assemble_system(spec, mesh, "reconstruction")
    expect = np.linalg.solve(full_matrix(system), system.load)
    scale = float(np.max(np.abs(expect)))
    assert np.max(np.abs(sol.fe.coeffs - expect)) <= 1e-9 * scale
    assert sol.mu_h == pytest.approx(_mu_h(system, expect), rel=1e-10)


@given(
    alpha=st.floats(min_value=1.01, max_value=1.99),
    mixed=st.booleans(),
    delta=st.sampled_from([1.0, 5.0]),
    m=st.integers(min_value=4, max_value=64),
    scale=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_solution_is_linear_in_the_source(alpha, mixed, delta, m, scale):
    # u(f + c g) = u(f) + c u(g), regular part and strength alike, with a
    # potential whose splitting constant takes the rule anchored at 1/2
    bc = "mixed" if mixed and alpha > 1.5 else "dirichlet"
    q = parse_field("chi(0,0.5)")
    f, g = source_bump(), source_inverse_quartic()
    both = f + g.scaled(scale)
    mesh = build_mesh(m, delta)
    u_f, u_g, u_fg = (
        solve_reconstruction(ProblemSpec(alpha=alpha, q=q, f=src, bc=bc), mesh)
        for src in (f, g, both)
    )
    combined = u_f.fe.coeffs + scale * u_g.fe.coeffs
    size = float(np.max(np.abs(u_f.fe.coeffs) + abs(scale) * np.abs(u_g.fe.coeffs)))
    assert np.max(np.abs(u_fg.fe.coeffs - combined)) <= 1e-11 * size
    mu_size = abs(u_f.mu_h) + abs(scale * u_g.mu_h)
    assert abs(u_fg.mu_h - (u_f.mu_h + scale * u_g.mu_h)) <= 1e-11 * mu_size


def test_strength_scale_is_mesh_independent_without_potential():
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    values = []
    for m in (8, 64):
        sol = solve_reconstruction(spec, build_mesh(m))
        # with q = 0 the coupling vector vanishes and mu_h = (I^alpha f)(1)
        assert sol.mu_h == sol.pair.f_frac_at_one
        values.append(sol.mu_h)
        x = np.array([0.3, 0.8])
        np.testing.assert_allclose(
            sol(x), sol.fe(x) + sol.mu_h * sol.pair.u_s(x), rtol=1e-14
        )
    assert values[0] == values[1]


def _diagonal_system(diagonal):
    mesh = build_mesh(4)
    return AssembledSystem(
        mesh=mesh,
        lead=Lead(dense=np.diag(diagonal)),
        mass_diag=np.zeros(3),
        mass_off=np.zeros(2),
        load=np.ones(3),
        r_vec=None,
        s_vec=None,
        pair=None,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_matrix_is_reported_singular():
    with pytest.raises(SingularSystemError) as info:
        solve_standard(_diagonal_system([0.0, 0.0, 0.0]))
    assert (info.value.row, info.value.value) == (0, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_diagonal_is_reported_singular():
    with pytest.raises(SingularSystemError) as info:
        solve_standard(_diagonal_system([1.0, np.nan, 1.0]))
    assert info.value.row == 1 and np.isnan(info.value.value)
    assert "row 1" in str(info.value) and "nan" in str(info.value)
    with pytest.raises(SingularSystemError) as info:
        solve_standard(_diagonal_system([1.0, 2.0, -np.inf]))
    assert (info.value.row, info.value.value) == (2, np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", range(3, 8))
def test_exactly_singular_small_system_is_reported_singular(n):
    # two equal rows and a nonzero diagonal: LAPACK meets a zero pivot, and
    # the solve ends in a typed error, not numpy's LinAlgError
    lead = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    lead[1] = lead[0]
    system = AssembledSystem(
        mesh=build_mesh(n + 1),
        lead=Lead(dense=lead),
        mass_diag=np.zeros(n),
        mass_off=np.zeros(n - 1),
        load=np.arange(1.0, n + 1),
        r_vec=None,
        s_vec=None,
        pair=None,
    )
    with pytest.raises(SingularSystemError) as info:
        solve_standard(system)
    assert (info.value.row, info.value.value) == (None, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m, delta", [(64, 160.0), (64, 100.0)])
def test_extreme_gradings_end_in_a_typed_error(m, delta):
    # at m = 64 the first widths, below 1e-154, square to zero in the lead's
    # near band, and the lead names the width and delta before anything divides
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    mesh = build_mesh(m, delta)
    width = np.diff(mesh.nodes).min()
    with pytest.raises(DomainError, match=f"width {width:.3g} .*grading exponent {delta}"):
        solve_standard(assemble_system(spec, mesh, "standard"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1.5, 1.999])
def test_steep_far_field_stays_finite(alpha):
    # at m = 256, delta = 64 far gaps fall below 2^-341, where gap^(p - 4)
    # alone overflows; with the widths folded into the power the far field
    # stays finite and the standard solve converges
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    system = assemble_system(spec, build_mesh(256, 64.0), "standard")
    assert np.all(np.isfinite(system.lead.dense))
    solution = solve_standard(system)
    assert np.all(np.isfinite(solution.fe.coeffs))
    assert solution.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("delta", [1.0, 2.0], ids=["uniform", "graded"])
def test_system_matvec_matches_full_matrix(delta):
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    system = assemble_system(spec, build_mesh(32, delta), "standard")
    rng = np.random.default_rng(3)
    x = rng.standard_normal(system.n)
    np.testing.assert_allclose(
        system_matvec(system, x), full_matrix(system) @ x, rtol=1e-11, atol=1e-13
    )
