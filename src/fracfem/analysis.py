"""Exact and reference solutions, error norms, and convergence reporting.

For q = 0 the solution has the closed form
    u = -I_0^alpha f + (I_0^alpha f)(1) x^(alpha-1)       (Dirichlet)
    u = -I_0^alpha f + (I_0^alpha f)(1) x^(alpha-2)       (mixed, alpha > 3/2)
so the power rule gives an exact solution for every source, since each is
a power sum. With a potential, errors are measured against a
reconstruction solve on a fine uniform mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import DIRICHLET, Lead, ProblemSpec
from .errors import ArgumentError
from .fraccalc import PowerSum, legendre_panel, rl_integral_powersum
from .mesh import Mesh, PwLinear, build_mesh
from .solver import Solution, solve_reconstruction

REFERENCE_M = 4096

_GAUSS_PER_CELL = 8


@dataclass(frozen=True)
class ExactSolution:
    """Exact (closed-form) or reference (fine-mesh) solution triple, with the
    fine mesh on which error norms sample it and the leading block there,
    which the energy norm needs."""

    u: Callable
    u_r: Callable
    mu: float
    mesh: Mesh
    lead: Lead = field(repr=False, compare=False)


def exact_q0(spec: ProblemSpec, mesh: Mesh | None = None) -> ExactSolution:
    """Closed-form solution for q = 0, sampled by the error norms on
    ``mesh``, by default build_mesh(REFERENCE_M)."""
    if not spec.q.is_zero:
        raise ArgumentError("closed-form solutions require q = 0")
    frac = rl_integral_powersum(spec.alpha, spec.f)
    mu = float(frac(1.0))
    u = frac.scaled(-1.0) + PowerSum.monomial(mu, spec.singular_exponent)
    u_r = frac.scaled(-1.0) + PowerSum.monomial(mu, 2.0)
    mesh = build_mesh(REFERENCE_M) if mesh is None else mesh
    return ExactSolution(u, u_r, mu, mesh, Lead.of(mesh, spec.alpha))


def reference_solution(spec: ProblemSpec, mesh: Mesh | None = None) -> ExactSolution:
    """Reconstruction solve on a fine mesh, by default build_mesh(REFERENCE_M),
    packaged as a reference.

    The study meshes it serves should stay at least 8 times coarser. The
    solve's leading block also serves the energy norm.
    """
    mesh = build_mesh(REFERENCE_M) if mesh is None else mesh
    if mesh.m < 16:
        raise ArgumentError(f"reference mesh is too coarse, m={mesh.m}")
    sol = solve_reconstruction(spec, mesh)
    return ExactSolution(sol, sol.fe, sol.mu_h, mesh, sol.lead)


@dataclass(frozen=True)
class ErrorNorms:
    l2: float
    energy: float
    linf: float


def error_norms(approx: Solution, exact: ExactSolution) -> ErrorNorms:
    """L2, energy, and sup errors of ``approx.fe``: against the full solution
    u for the standard method, which has no mu_h, and against the regular
    part u_r for the reconstruction method.

    L2 and the sup are taken over the union refinement of the approximation
    mesh and the exact solution's fine mesh, from one array of differences
    at the union nodes. When the exact field is piecewise linear too (a
    regular part against a fine-mesh reference) their difference is linear on every
    union cell, so both follow exactly from those differences; otherwise
    Gauss points in every cell sample it as well. The energy norm is the
    quadratic form of the leading block on the fine mesh interpolant of the
    error, whose node values are the same differences at the fine nodes,
    so it reflects the |.|_(alpha/2) seminorm.
    """
    approx_fn = approx.fe
    exact_fn = exact.u if approx.mu_h is None else exact.u_r

    fine, nodes = exact.mesh.nodes, approx_fn.mesh.nodes
    at = np.searchsorted(fine, nodes)
    if np.array_equal(fine[np.minimum(at, fine.size - 1)], nodes):
        # nested meshes: the union is the fine mesh, and a fine-mesh
        # interpolant takes its nodal values there (np.interp returns them)
        union = fine
        on_fine = isinstance(exact_fn, PwLinear) and exact_fn.mesh is exact.mesh
        node_gap = (exact_fn.nodal_values if on_fine else exact_fn(fine)) - approx_fn(fine)
        d = node_gap[1:-1]
    else:
        union = np.union1d(nodes, fine)
        node_gap = exact_fn(union) - approx_fn(union)
        d = node_gap[np.searchsorted(union, fine[1:-1])]
    linf = float(np.max(np.abs(node_gap)))
    if isinstance(exact_fn, PwLinear):
        lo, hi = node_gap[:-1], node_gap[1:]
        l2 = float(np.sqrt(np.sum(np.diff(union) * (lo * lo + lo * hi + hi * hi)) / 3.0))
    else:
        x, wq = legendre_panel(_GAUSS_PER_CELL, union[:-1, None], union[1:, None])
        gap = exact_fn(x) - approx_fn(x)
        l2 = float(np.sqrt(np.sum(wq * gap * gap)))
        linf = max(float(np.max(np.abs(gap))), linf)
    quad_form = float(np.dot(d, exact.lead.matvec(d)))
    energy = math.sqrt(max(quad_form, 0.0))

    return ErrorNorms(l2, energy, linf)


def rates(errors) -> np.ndarray:
    """Observed orders log2(e_k / e_{k+1}) on successively halved meshes.

    Non-positive or non-finite entries yield NaN for the affected ratios
    rather than raising.
    """
    e = np.asarray(errors, dtype=float)
    out = np.full(max(e.size - 1, 0), np.nan)
    for i in range(e.size - 1):
        if e[i] > 0.0 and e[i + 1] > 0.0 and np.isfinite(e[i]) and np.isfinite(e[i + 1]):
            out[i] = math.log2(e[i] / e[i + 1])
    return out


def expected_rates(alpha: float, method: str, bc: str, gamma_smooth: float) -> dict:
    """Theoretical convergence exponents in the sup-limit beta -> 1/2.

    gamma_smooth is the Sobolev regularity index of the source; the map
    l = min(alpha - 1 + beta, gamma) (Dirichlet) or
    l_n = min(alpha - 2 + beta, gamma) (mixed) feeds the regular-part bounds.
    """
    beta = 0.5
    if method == "standard":
        rate = alpha - 2.0 + 2.0 * beta
        return {"l2": rate, "energy": 0.5 * alpha - 1.0 + beta, "linf": rate, "mu": None}
    shift = alpha - 1.0 + beta if bc == DIRICHLET else alpha - 2.0 + beta
    ell = min(shift, gamma_smooth)
    graph = min(2.0, alpha + ell)
    rate = graph - 1.0 + beta
    return {"l2": rate, "energy": graph - 0.5 * alpha, "linf": rate, "mu": rate}


@dataclass
class LevelRow:
    """Errors of one study level."""

    k: int
    h: float
    err_l2: float
    err_energy: float
    err_linf: float
    err_mu: float | None


@dataclass
class ConvergenceReport:
    """Per-alpha convergence study: level rows plus observed/expected rates."""

    alpha: float
    method: str
    example: str
    q_label: str
    delta: float
    expected: dict
    rows: list[LevelRow] = field(default_factory=list)
    error: str | None = None

    def errors_of(self, norm: str) -> np.ndarray:
        return np.array(
            [np.nan if getattr(r, f"err_{norm}") is None else getattr(r, f"err_{norm}") for r in self.rows]
        )

    def rates_of(self, norm: str) -> np.ndarray:
        return rates(self.errors_of(norm))
