"""End-to-end acceptance gates for the convergence-study suite.

Each criterion prints exactly one PASS/FAIL line (outside pytest capture,
so piped logs always carry the verdict) and then asserts. Frozen targets
are published benchmark values for this problem family; rate gates use the
mean of the observed per-level orders, except where noted (strongly graded
meshes reach their asymptotic order only on the last levels, so those
gates average the final three ratios).
"""

import numpy as np

from fracfem.analysis import exact_q0
from fracfem.assembly import (
    ProblemSpec,
    assemble_lead,
    assemble_system,
)
from fracfem.cli import ExperimentConfig, emit_table, run_experiment
from fracfem.fields import source_bump, zero_field
from fracfem.fraccalc import (
    PowerSum,
    gamma_fn,
    rl_integral_powersum,
)
from fracfem.mesh import build_mesh
from fracfem.solver import solve_iterative, solve_reconstruction

from .oracles import (
    assemble_mass_q,
    dense_lead,
    frac_integral_quad,
    full_matrix,
    green_q0,
    rl_derivative_power,
    rl_integral_power,
)
from .test_analysis import GREEN_BUMP_POINTS, GREEN_BUMP_VALUES
from .test_assembly import LEAD_M4_GRADED2_A125, LEAD_M4_UNIFORM_A15

ALPHAS = (1.25, 1.5, 1.75)

# standard method, q = 0, smooth source: sup-norm error at k = 5 and the
# predicted order alpha - 1 per fractional order
STANDARD_K5_LINF = {1.25: 2.91e-2, 1.5: 4.87e-3, 1.75: 7.46e-4}

# reconstruction, q = 0: regular-part errors at k = 5
RECON_K5 = {
    1.25: {"l2": 6.56e-5, "energy": 2.98e-4, "linf": 1.16e-4},
    1.5: {"l2": 3.62e-5, "energy": 4.58e-4, "linf": 7.58e-5},
    1.75: {"l2": 1.59e-5, "energy": 5.57e-4, "linf": 4.32e-5},
}
RECON_ENERGY_RATE = {1.25: 1.36, 1.5: 1.25, 1.75: 1.13}

# reconstruction with q = x(1-x): strength-scale errors at k = 5
POTENTIAL_K5_MU = {1.25: 8.62e-6, 1.5: 3.70e-6, 1.75: 9.49e-7}


def _verdict(capsys, number: int, checks: list, label: str) -> None:
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for flag, text in checks if not flag)
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _mean_rate(report, norm: str, tail: int | None = None) -> float:
    rr = report.rates_of(norm)
    if tail is not None:
        rr = rr[-tail:]
    return float(np.mean(rr))


def test_criterion_1(capsys):
    config = ExperimentConfig(
        alphas=ALPHAS, example="a", q_kind="zero", method="standard",
        k_min=5, k_max=10,
    )
    checks = []
    for report in run_experiment(config):
        a = report.alpha
        checks.append((report.error is None, f"alpha={a}: {report.error}"))
        if report.error is not None:
            continue
        rate = _mean_rate(report, "linf")
        checks.append(
            (abs(rate - (a - 1.0)) <= 0.05, f"alpha={a}: Linf rate {rate:.3f}")
        )
        k5 = report.rows[0].err_linf
        target = STANDARD_K5_LINF[a]
        checks.append(
            (abs(k5 - target) <= 0.2 * target, f"alpha={a}: k5 Linf {k5:.3e}")
        )
    _verdict(capsys, 1, checks, "standard method sup-norm orders alpha - 1")


def test_criterion_2(capsys):
    config = ExperimentConfig(
        alphas=ALPHAS, example="a", q_kind="zero", method="recon",
        k_min=5, k_max=10,
    )
    checks = []
    for report in run_experiment(config):
        a = report.alpha
        checks.append((report.error is None, f"alpha={a}: {report.error}"))
        if report.error is not None:
            continue
        l2_rate = _mean_rate(report, "l2")
        checks.append(
            (abs(l2_rate - 2.0) <= 0.1, f"alpha={a}: L2 rate {l2_rate:.3f}")
        )
        energy_rate = _mean_rate(report, "energy")
        checks.append(
            (
                abs(energy_rate - RECON_ENERGY_RATE[a]) <= 0.05,
                f"alpha={a}: energy rate {energy_rate:.3f}",
            )
        )
        row = report.rows[0]
        for norm, value in (
            ("l2", row.err_l2),
            ("energy", row.err_energy),
            ("linf", row.err_linf),
        ):
            target = RECON_K5[a][norm]
            checks.append(
                (
                    abs(value - target) <= 0.2 * target,
                    f"alpha={a}: k5 {norm} {value:.3e} vs {target:.2e}",
                )
            )
    _verdict(capsys, 2, checks, "reconstruction errors for the zero-potential problem")


def test_criterion_3(capsys):
    config = ExperimentConfig(
        alphas=ALPHAS, example="a", q_kind="x_times_1mx", method="recon",
        k_min=5, k_max=9, reference_m=4096,
    )
    checks = []
    for report in run_experiment(config):
        a = report.alpha
        checks.append((report.error is None, f"alpha={a}: {report.error}"))
        if report.error is not None:
            continue
        l2_rate = _mean_rate(report, "l2")
        mu_rate = _mean_rate(report, "mu")
        checks.append(
            (abs(l2_rate - 2.0) <= 0.15, f"alpha={a}: L2 rate {l2_rate:.3f}")
        )
        checks.append(
            (abs(mu_rate - 2.0) <= 0.15, f"alpha={a}: mu rate {mu_rate:.3f}")
        )
        k5_mu = report.rows[0].err_mu
        target = POTENTIAL_K5_MU[a]
        checks.append(
            (
                abs(k5_mu - target) <= 0.3 * target,
                f"alpha={a}: k5 mu error {k5_mu:.3e} vs {target:.2e}",
            )
        )
    _verdict(capsys, 3, checks, "reconstruction with a smooth potential")


def test_criterion_4(capsys):
    checks = []
    for delta, target in ((5.0, 1.97), (2.0, 1.56)):
        config = ExperimentConfig(
            alphas=(1.25,), example="a", q_kind="x_times_1mx",
            method="standard", k_min=3, k_max=8, delta=delta,
            reference_m=4096,
        )
        report = run_experiment(config)[0]
        checks.append((report.error is None, f"delta={delta}: {report.error}"))
        if report.error is not None:
            continue
        rate = _mean_rate(report, "l2", tail=3)
        checks.append(
            (
                abs(rate - target) <= 0.2,
                f"delta={delta}: asymptotic L2 rate {rate:.3f} vs {target}",
            )
        )
    _verdict(capsys, 4, checks, "graded-mesh standard method, alpha = 1.25")


def test_criterion_5(capsys):
    checks = []

    config_b = ExperimentConfig(
        alphas=ALPHAS, example="b", q_kind="x_times_1mx", method="recon",
        k_min=5, k_max=9, reference_m=4096,
    )
    for report in run_experiment(config_b):
        a = report.alpha
        checks.append((report.error is None, f"b alpha={a}: {report.error}"))
        if report.error is not None:
            continue
        mu_rate = _mean_rate(report, "mu")
        checks.append(
            (abs(mu_rate - 2.0) <= 0.15, f"b alpha={a}: mu rate {mu_rate:.3f}")
        )

    config_c = ExperimentConfig(
        alphas=(1.25,), example="c", q_kind="x_times_1mx", method="recon",
        k_min=5, k_max=9, reference_m=4096,
    )
    report = run_experiment(config_c)[0]
    checks.append((report.error is None, f"c: {report.error}"))
    if report.error is None:
        l2_rate = _mean_rate(report, "l2")
        checks.append(
            (abs(l2_rate - 2.0) <= 0.15, f"c alpha=1.25: L2 rate {l2_rate:.3f}")
        )

    config_m = ExperimentConfig(
        alphas=(1.75,), example="c", q_kind="x_times_1mx",
        method="recon_mixed", k_min=5, k_max=9, reference_m=4096,
    )
    report = run_experiment(config_m)[0]
    checks.append((report.error is None, f"mixed: {report.error}"))
    if report.error is None:
        l2_rate = _mean_rate(report, "l2")
        linf_rate = _mean_rate(report, "linf")
        checks.append(
            (abs(l2_rate - 1.95) <= 0.15, f"mixed: L2 rate {l2_rate:.3f}")
        )
        checks.append(
            (abs(linf_rate - 1.45) <= 0.15, f"mixed: Linf rate {linf_rate:.3f}")
        )

    _verdict(capsys, 5, checks, "nonsmooth sources and mixed conditions")


def test_criterion_6(capsys):
    checks = []

    # Gamma recurrence
    for x in (0.3, 1.7, 4.2):
        gap = abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) / gamma_fn(x + 1.0)
        checks.append((gap <= 1e-12, f"Gamma recurrence at {x}: {gap:.1e}"))

    # fractional power rule against independent quadrature
    for gamma_ord, p, x in ((0.7, 1.3, 0.6), (1.5, 0.5, 0.9), (1.25, 0.0, 1.0)):
        closed = rl_integral_power(gamma_ord, p, x)
        quad = frac_integral_quad(lambda t: t**p, gamma_ord, x)
        checks.append(
            (
                abs(closed - quad) <= 1e-8 * max(abs(closed), 1.0),
                f"power rule I^{gamma_ord} t^{p}: {closed} vs {quad}",
            )
        )

    # semigroup of the fractional integrals on monomials
    mono = PowerSum.monomial(1.0, 0.75)
    once = rl_integral_powersum(0.4, rl_integral_powersum(0.9, mono))
    direct = rl_integral_powersum(1.3, mono)
    gap = abs(once(0.8) - direct(0.8)) / abs(direct(0.8))
    checks.append((gap <= 1e-12, f"semigroup: {gap:.1e}"))

    # annihilation of the singular profile
    val = rl_derivative_power(1.5, 0.5, 0.7)
    checks.append((val == 0.0, f"derivative of the profile: {val}"))

    # Toeplitz entrywise invariance on a uniform mesh
    A = assemble_lead(build_mesh(16), 1.6)
    scale = float(np.max(np.abs(A)))
    worst = max(
        float(np.max(np.abs(np.diagonal(A, d) - np.diagonal(A, d)[0])))
        for d in range(-14, 15)
    )
    checks.append((worst <= 1e-12 * scale, f"Toeplitz drift {worst:.1e}"))

    # closed-form assembly against the nested-quadrature oracle
    gap_u = float(np.max(np.abs(assemble_lead(build_mesh(4), 1.5) - LEAD_M4_UNIFORM_A15)))
    gap_g = float(
        np.max(np.abs(assemble_lead(build_mesh(4, delta=2.0), 1.25) - LEAD_M4_GRADED2_A125))
    )
    checks.append((gap_u <= 1e-8, f"uniform assembly vs oracle {gap_u:.1e}"))
    checks.append((gap_g <= 1e-8, f"graded assembly vs oracle {gap_g:.1e}"))

    # the coupling block is numerically rank one
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    system = assemble_system(spec, build_mesh(32), "reconstruction")
    sv = np.linalg.svd(
        full_matrix(system) - dense_lead(system.lead) - assemble_mass_q(system.mesh, spec.q),
        compute_uv=False,
    )
    checks.append((sv[1] / sv[0] < 1e-10, f"rank-one ratio {sv[1] / sv[0]:.1e}"))

    # Green-kernel representation against the closed form
    for a in ALPHAS:
        exact = exact_q0(ProblemSpec(alpha=a, q=zero_field(), f=source_bump()))
        gap = float(
            np.max(np.abs(exact.u(GREEN_BUMP_POINTS) - GREEN_BUMP_VALUES[a]))
        )
        checks.append((gap <= 1e-8, f"Green representation alpha={a}: {gap:.1e}"))
        # and the kernel itself vanishes on the boundary of the source slot
        checks.append((green_q0(a, 0.3, 1.0) == 0.0, f"kernel edge alpha={a}"))

    # the recovered strength scale is exact and mesh independent when q = 0
    spec0 = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    mus = {solve_reconstruction(spec0, build_mesh(m)).mu_h for m in (8, 64)}
    pair_value = solve_reconstruction(spec0, build_mesh(16)).pair.f_frac_at_one
    checks.append((mus == {pair_value}, f"strength scale drift: {mus}"))

    # the GMRES solve agrees with a dense solve of the same system
    system = assemble_system(spec, build_mesh(256), "reconstruction")
    direct = np.linalg.solve(full_matrix(system), system.load)
    iterative = solve_iterative(system)
    scale = float(np.max(np.abs(direct)))
    gap = float(np.max(np.abs(iterative.u_r_h.coeffs - direct)))
    checks.append((gap <= 1e-8 * scale, f"dense solve vs GMRES {gap:.1e}"))

    # emitted tables are byte deterministic
    config = ExperimentConfig(
        alphas=(1.5,), example="a", q_kind="x_times_1mx", method="recon",
        k_min=2, k_max=3, reference_m=64,
    )
    first = emit_table(run_experiment(config), "csv")
    second = emit_table(run_experiment(config), "csv")
    checks.append((first == second, "CSV runs differ"))

    _verdict(capsys, 6, checks, "algebraic and structural property suite")
