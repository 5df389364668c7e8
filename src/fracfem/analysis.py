"""Exact and reference solutions, error norms, and convergence reporting.

For q = 0 the solution has the closed form
    u = -I_0^alpha f + (I_0^alpha f)(1) x^(alpha-1)       (Dirichlet)
    u = -I_0^alpha f + (I_0^alpha f)(1) x^(alpha-2)       (mixed, alpha > 3/2)
so the power rule gives an exact solution for every source, since each is
a power sum. With a potential, errors are measured against a
reconstruction solve on a fine uniform mesh. L2 and sup errors against a
closed form are taken on the study mesh's own cells, cut at the closed
form's anchors; the fine mesh serves the energy norm, and the L2 and sup
sampling of a reference between its nodes.
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
# cuts at these fractions of the way from an anchor to the next one (or 1)
# leave no panel wider than its distance from the anchor
_HALVINGS = 2.0 ** -np.arange(60, 0, -1)


@dataclass(frozen=True)
class ExactSolution:
    """Exact (closed-form) or reference (fine-mesh) solution triple, with a
    fine mesh and the leading block there. The energy norm takes the error
    at the fine nodes; L2 and the sup sample a reference between its fine
    nodes as well, and a closed form only on the study mesh's cells."""

    u: Callable
    u_r: Callable
    mu: float
    mesh: Mesh
    lead: Lead = field(repr=False, compare=False)


def exact_q0(spec: ProblemSpec, mesh: Mesh | None = None) -> ExactSolution:
    """Closed-form solution for q = 0, with ``mesh``, by default
    build_mesh(REFERENCE_M), for the energy norm."""
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

    When the exact field is piecewise linear too (a regular part against a
    fine-mesh reference), the difference is linear on every cell of the
    union of both meshes, so L2 and the sup follow exactly from the
    differences at the union nodes. Otherwise L2 takes 8 Gauss points per
    cell: the cells of the approximation mesh cut at the closed form's
    anchors, or at a reference's fine nodes. Each anchor, 0 included, also
    cuts at 60 points that halve the way to the next anchor (or 1) toward
    it, so no panel is wider than its distance from the anchor; a cut that
    rounds onto the anchor drops out. The sup is the largest difference at
    the Gauss points and at the nodes of both meshes. The energy norm is
    the quadratic form of the leading block on the fine mesh interpolant of
    the error, from the differences at the fine nodes, so it reflects the
    |.|_(alpha/2) seminorm.
    """
    approx_fn = approx.fe
    exact_fn = exact.u if approx.mu_h is None else exact.u_r

    fine, nodes = exact.mesh.nodes, approx_fn.mesh.nodes
    if isinstance(exact_fn, PwLinear):
        at = np.searchsorted(fine, nodes)
        if np.array_equal(fine[np.minimum(at, fine.size - 1)], nodes):
            # nested meshes: the union is the fine mesh, and a fine-mesh
            # interpolant takes its nodal values there (np.interp returns them)
            union = fine
            on_fine = exact_fn.mesh is exact.mesh
            node_gap = (exact_fn.nodal_values if on_fine else exact_fn(fine)) - approx_fn(fine)
            d = node_gap[1:-1]
        else:
            union = np.union1d(nodes, fine)
            node_gap = exact_fn(union) - approx_fn(union)
            d = node_gap[np.searchsorted(union, fine[1:-1])]
        linf = float(np.max(np.abs(node_gap)))
        lo, hi = node_gap[:-1], node_gap[1:]
        l2 = float(np.sqrt(np.sum(np.diff(union) * (lo * lo + lo * hi + hi * hi)) / 3.0))
    else:
        if isinstance(exact_fn, PowerSum):
            anchors = np.union1d(0.0, [t.anchor for t in exact_fn.terms if t.anchor < 1.0])
            breaks = anchors
        else:
            anchors, breaks = np.zeros(1), fine
        reach = np.append(anchors[1:], 1.0) - anchors
        edges = np.union1d(np.union1d(nodes, breaks), anchors[:, None] + reach[:, None] * _HALVINGS)
        x, wq = legendre_panel(_GAUSS_PER_CELL, edges[:-1, None], edges[1:, None])
        gap = exact_fn(x) - approx_fn(x)
        l2 = float(np.sqrt(np.sum(wq * gap * gap)))
        d = exact_fn(fine[1:-1]) - approx_fn(fine[1:-1])
        node_gap = exact_fn(nodes) - approx_fn(nodes)
        linf = float(max(np.max(np.abs(gap)), np.max(np.abs(d)), np.max(np.abs(node_gap))))
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
