"""Solution of the assembled systems.

Every system, on any mesh, uniform or graded, takes restarted GMRES (Saad &
Schultz, 1986) on the lead's matvec, right-preconditioned by a diagonally
scaled Strang circulant applied by FFT; the kernel needs only numpy and BLAS.
No dense matrix is formed and nothing is factorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .assembly import AssembledSystem, Lead, ProblemSpec, SingularPair, assemble_system
from .errors import ArgumentError, IterativeFailure, SingularSystemError
from .mesh import Mesh, PwLinear

# backward-error tolerance: |Ax - b| measured against |A||x| + |b|
RESIDUAL_TOL = 1e-12

_GMRES_RESTART = 50
_GMRES_MAX_INNER = 2000
# one GMRES sweep: 2-norm target relative to its residual, bounded inner budget
_GMRES_SWEEP_RTOL = 1e-12
_GMRES_SWEEP_INNER = 200


@dataclass(frozen=True)
class StandardSolution:
    """Galerkin solution u_h of the standard method."""

    u_h: PwLinear
    residual: float

    def __call__(self, x):
        return self.u_h(x)

    @property
    def mesh(self) -> Mesh:
        return self.u_h.mesh


@dataclass(frozen=True)
class ReconSolution:
    """Reconstruction solution u_h = u_r_h + mu_h * u_s."""

    u_r_h: PwLinear
    mu_h: float
    pair: SingularPair
    residual: float
    lead: Lead  # leading block of the solved system

    def __call__(self, x):
        return self.u_r_h(x) + self.mu_h * self.pair.u_s(x)

    @property
    def mesh(self) -> Mesh:
        return self.u_r_h.mesh


def system_matvec(system: AssembledSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the full system matrix."""
    y = system.lead.matvec(x) + system.mass_matvec(x)
    if system.r_vec is not None:
        y = y + system.r_vec * float(np.dot(system.s_vec, x))
    return y


def _norm_inf_estimate(system: AssembledSystem) -> float:
    """Upper bound on the row sums of the assembled matrix."""
    lead = system.lead.abs_row_sum()
    mass = float(np.max(np.abs(system.mass_diag))) + 2.0 * float(
        np.max(np.abs(system.mass_off), initial=0.0)
    )
    rank_one = 0.0
    if system.r_vec is not None:
        rank_one = float(np.max(np.abs(system.r_vec))) * float(
            np.sum(np.abs(system.s_vec))
        )
    return lead + mass + rank_one


def _relative_residual(system: AssembledSystem, coeffs: np.ndarray) -> float:
    """Normwise backward error |Ax - b|_inf / (|A|_inf |x|_inf + |b|_inf)."""
    scale = _norm_inf_estimate(system) * float(np.max(np.abs(coeffs), initial=0.0))
    scale += float(np.max(np.abs(system.load), initial=0.0))
    if scale == 0.0:
        return 0.0
    gap = system_matvec(system, coeffs) - system.load
    return float(np.max(np.abs(gap))) / scale


def _strang_preconditioner(system: AssembledSystem):
    """Inverse of A ~ D^(1/2) C D^(1/2), applied by FFT.

    D is |diag(A)| without the rank-one coupling, and C is the Strang
    circulant of the middle row of D^(-1/2) A D^(-1/2), mass bands included.
    The scaling follows local refinement on graded meshes; on uniform ones D
    is nearly constant and C is the Strang circulant of the stencil. A zero
    or non-finite entry of D raises SingularSystemError before the division.
    """
    n, k = system.n, system.n // 2
    diag = np.abs(system.lead.diagonal() + system.mass_diag)
    bad = np.flatnonzero(~(np.isfinite(diag) & (diag > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise SingularSystemError("zero or non-finite diagonal", i, float(diag[i]))
    scale = 1.0 / np.sqrt(diag)
    row = system.lead.row(k)
    row[k] += system.mass_diag[k]
    row[k - 1 : k] += system.mass_off[k - 1 : k]  # a missing neighbour: empty slices
    row[k + 1 : k + 2] += system.mass_off[k : k + 1]
    row *= scale[k] * scale
    # first column of the circulant that takes this row's offsets |j - k| <= n/2
    eig = np.fft.rfft(row[(k - np.arange(n)) % n])
    return lambda r: scale * np.fft.irfft(np.fft.rfft(scale * r) / eig, n)


def _gmres_cycle(system: AssembledSystem, precond, r: np.ndarray, target: float, steps: int):
    """At most ``steps`` iterations of right-preconditioned GMRES for A x = r
    from x = 0, stopping once Givens rotations put the residual 2-norm at or
    below ``target``. Returns x, the iteration count and that residual."""
    basis, tri = np.empty((steps + 1, r.size)), np.zeros((steps, steps))
    beta = float(np.linalg.norm(r))
    if beta == 0.0:
        return np.zeros_like(r), 0, 0.0
    basis[0] = r / beta
    rhs, rotations = [beta], []
    for j in range(steps):
        w = system_matvec(system, precond(basis[j]))
        h = basis[: j + 1] @ w  # classical Gram-Schmidt, applied twice
        w -= h @ basis[: j + 1]
        again = basis[: j + 1] @ w
        w -= again @ basis[: j + 1]
        col, below = (h + again).tolist(), float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[j], below)
        c, s, col[j] = col[j] / diag, below / diag, diag
        rotations.append((c, s))
        tri[: j + 1, j] = col
        rhs[j:] = [c * rhs[j], -s * rhs[j]]
        if abs(rhs[j + 1]) <= target or below == 0.0:
            break
        basis[j + 1] = w / below
    k = len(rotations)
    y = solve_triangular(tri[:k, :k], rhs[:k], check_finite=False)
    return precond(y @ basis[:k]), k, abs(rhs[k])


def _gmres_solve(system: AssembledSystem, tol: float) -> tuple[np.ndarray, float]:
    """Preconditioned GMRES in sweeps until the backward error is <= ``tol``.

    Each sweep solves for the correction from the true residual in restarted
    cycles, until GMRES's own residual falls by _GMRES_SWEEP_RTOL or the
    sweep's budget is spent; the true one can stall above that at rounding.
    """
    precond = _strang_preconditioner(system)
    coeffs, gap, iterations = np.zeros(system.n), system.load, 0
    while True:
        target = _GMRES_SWEEP_RTOL * float(np.linalg.norm(gap))
        budget = min(_GMRES_SWEEP_INNER, _GMRES_MAX_INNER - iterations)
        while budget > 0:
            step, k, est = _gmres_cycle(system, precond, gap, target, min(_GMRES_RESTART, budget))
            coeffs, iterations, budget = coeffs + step, iterations + k, budget - k
            if est <= target:
                break
            gap = system.load - system_matvec(system, coeffs)
        res = _relative_residual(system, coeffs)
        if res <= tol:
            return coeffs, res
        if iterations >= _GMRES_MAX_INNER:
            raise IterativeFailure("GMRES did not converge", iterations, res)
        gap = system.load - system_matvec(system, coeffs)


def _solution(system: AssembledSystem, coeffs: np.ndarray, res: float):
    if system.method == "standard":
        return StandardSolution(PwLinear(system.mesh, coeffs), res)
    mu_h = reconstruction_scalar(system, coeffs)
    return ReconSolution(PwLinear(system.mesh, coeffs), mu_h, system.pair, res, system.lead)


def solve_standard(system: AssembledSystem) -> StandardSolution:
    """Solve the standard Galerkin system."""
    if system.method != "standard":
        raise ArgumentError("solve_standard needs a system assembled as 'standard'")
    return solve_iterative(system)


def reconstruction_scalar(system: AssembledSystem, coeffs: np.ndarray) -> float:
    """mu_h = c0 [ (I^alpha f)(1) - s . coeffs ].

    By linearity s . coeffs equals (I^alpha q u_r_h)(1), evaluated by
    endpoint_weight_vector's per-element rule; the splitting constant c0
    comes from the adaptive rule of build_singular_pair instead.
    """
    pair = system.pair
    return pair.c0 * (pair.f_frac_at_one - float(np.dot(system.s_vec, coeffs)))


def solve_reconstruction(spec: ProblemSpec, mesh: Mesh) -> ReconSolution:
    """Assemble and solve the reconstruction system, then recover mu_h."""
    return solve_iterative(assemble_system(spec, mesh, "reconstruction"))


def solve_iterative(system: AssembledSystem, tol: float = RESIDUAL_TOL):
    """Solve ``system`` by the one path, GMRES, to a chosen target ``tol`` of
    the inf-norm backward error, checked after each sweep; solve_standard
    and solve_reconstruction take it at RESIDUAL_TOL.

    Returns the solution type of the system's method. Raises
    SingularSystemError(row, value) for a zero or non-finite scaled diagonal
    and IterativeFailure(iterations, residual) past _GMRES_MAX_INNER
    iterations.
    """
    return _solution(system, *_gmres_solve(system, tol))
