"""Direct and iterative solution of the assembled systems.

Graded systems, and uniform ones up to DENSE_LIMIT_M elements, are solved by
LU of the full matrix. Finer uniform systems are solved by restarted GMRES
on the FFT matvec of their Toeplitz stencil, preconditioned by the Strang
circulant of the stencil, at O(n log n) per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from .assembly import AssembledSystem, ProblemSpec, SingularPair, assemble_system
from .errors import ArgumentError, IterativeFailure, SingularSystemError
from .mesh import Mesh, PwLinear

# Largest uniform mesh solved by LU; finer uniform meshes take the GMRES path.
DENSE_LIMIT_M = 1024

# backward-error tolerance: |Ax - b| measured against |A||x| + |b|
RESIDUAL_TOL = 1e-12
PIVOT_TOL = 1e-14

_GMRES_RESTART = 50
_GMRES_MAX_INNER = 2000
# one GMRES sweep: loose 2-norm target and bounded inner budget
_GMRES_SWEEP_RTOL = 1e-8
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


def _factor(matrix: np.ndarray):
    # max |a_ij| without an n x n temporary
    scale = max(float(matrix.max()), -float(matrix.min()))
    lu, piv = lu_factor(matrix, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or np.min(pivots) < PIVOT_TOL * scale:
        raise SingularSystemError(
            f"assembled system is numerically singular "
            f"(pivot ratio {np.min(pivots) / max(scale, 1e-300):.3e})"
        )
    return lu, piv


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


def _strang_preconditioner(system: AssembledSystem) -> LinearOperator | None:
    """Inverse of the Strang circulant of the stencil, applied by FFT.

    The mean mass bands are added to c0 and c+-1. Graded meshes have no
    stencil and run unpreconditioned.
    """
    st = system.lead.stencil
    if st is None:
        return None
    n = system.n
    # first column: A[k, 0] = st[n-1-k] up to n/2, then A[0, n-k] = st[2n-1-k]
    col = st[n - 1 :: -1].copy()
    wrap = np.arange(n // 2 + 1, n)
    col[wrap] = st[2 * n - 1 - wrap]
    col[0] += np.mean(system.mass_diag)
    if n > 1:
        col[[1, -1]] += np.mean(system.mass_off)
    eig = np.fft.rfft(col)
    return LinearOperator(
        (n, n), matvec=lambda r: np.fft.irfft(np.fft.rfft(r) / eig, n), dtype=float
    )


def _gmres_solve(system: AssembledSystem, tol: float) -> tuple[np.ndarray, float]:
    """Preconditioned GMRES in sweeps until the backward error is <= ``tol``.

    Each sweep solves for the correction from the true residual; a single
    tight 2-norm target stagnates on these systems where the sweeps do not.
    """
    n = system.n
    op = LinearOperator((n, n), matvec=lambda x: system_matvec(system, x), dtype=float)
    precond = _strang_preconditioner(system)
    coeffs = np.zeros(n)
    gap = system.load
    steps = []  # one entry per inner iteration, from the GMRES callback
    while True:
        inner = min(_GMRES_SWEEP_INNER, _GMRES_MAX_INNER - len(steps))
        restart = min(_GMRES_RESTART, inner)
        step, _ = gmres(
            op,
            gap,
            rtol=_GMRES_SWEEP_RTOL,
            atol=0.0,
            restart=restart,
            maxiter=inner // restart,
            M=precond,
            callback=steps.append,
            callback_type="pr_norm",
        )
        coeffs = coeffs + step
        res = _relative_residual(system, coeffs)
        if res <= tol:
            return coeffs, res
        if len(steps) >= _GMRES_MAX_INNER:
            raise IterativeFailure("GMRES did not converge", len(steps), res)
        gap = system.load - system_matvec(system, coeffs)


def _solve_coefficients(system: AssembledSystem) -> tuple[np.ndarray, float]:
    """GMRES on uniform meshes finer than DENSE_LIMIT_M, otherwise LU of the
    full matrix with one step of refinement; both check the backward error."""
    if system.lead.stencil is not None and system.mesh.m > DENSE_LIMIT_M:
        return _gmres_solve(system, RESIDUAL_TOL)
    lu_piv = _factor(np.asfortranarray(system.full_matrix()))
    coeffs = lu_solve(lu_piv, system.load)
    res = _relative_residual(system, coeffs)
    if res > RESIDUAL_TOL:
        gap = system.load - system_matvec(system, coeffs)
        coeffs = coeffs + lu_solve(lu_piv, gap)
        res = _relative_residual(system, coeffs)
        if res > RESIDUAL_TOL:
            raise SingularSystemError(
                f"solver residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
    return coeffs, res


def _solution(system: AssembledSystem, coeffs: np.ndarray, res: float):
    if system.method == "standard":
        return StandardSolution(PwLinear(system.mesh, coeffs), res)
    mu_h = reconstruction_scalar(system, coeffs)
    return ReconSolution(PwLinear(system.mesh, coeffs), mu_h, system.pair, res)


def solve_standard(system: AssembledSystem) -> StandardSolution:
    """Solve the standard Galerkin system."""
    if system.method != "standard":
        raise ArgumentError("solve_standard needs a system assembled as 'standard'")
    return _solution(system, *_solve_coefficients(system))


def reconstruction_scalar(system: AssembledSystem, coeffs: np.ndarray) -> float:
    """mu_h = c0 [ (I^alpha f)(1) - s . coeffs ].

    By linearity s . coeffs equals (I^alpha q u_r_h)(1) with the same
    endpoint-weighted quadrature that defined the splitting constant.
    """
    pair = system.pair
    return pair.c0 * (pair.f_frac_at_one - float(np.dot(system.s_vec, coeffs)))


def solve_reconstruction(spec: ProblemSpec, mesh: Mesh) -> ReconSolution:
    """Assemble and solve the reconstruction system, then recover mu_h."""
    system = assemble_system(spec, mesh, "reconstruction")
    return _solution(system, *_solve_coefficients(system))


def solve_iterative(system: AssembledSystem, tol: float = RESIDUAL_TOL):
    """Solve by Strang-preconditioned restarted GMRES on the FFT matvec.

    ``tol`` is the target of the inf-norm backward error. Returns the same
    solution type as the direct path. Raises IterativeFailure when the
    target is not reached within the iteration budget. Graded systems have
    no stencil and so run unpreconditioned; at delta = 5 they exhaust the
    budget from m = 256 on.
    """
    return _solution(system, *_gmres_solve(system, tol))
