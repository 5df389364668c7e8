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
    y = system.lead.matvec(x)  # a fresh array, summed into in place
    y += system.mass_matvec(x)
    if system.r_vec is not None:
        y += system.r_vec * float(system.s_vec @ x)
    return y


def _norm_inf_estimate(system: AssembledSystem) -> float:
    """Upper bound on the row sums of the assembled matrix."""
    lead = system.lead.abs_row_sum()
    mass = float(np.abs(system.mass_diag).max()) + 2.0 * float(
        np.abs(system.mass_off).max(initial=0.0)
    )
    rank_one = 0.0
    if system.r_vec is not None:
        rank_one = float(np.abs(system.r_vec).max()) * float(np.abs(system.s_vec).sum())
    return lead + mass + rank_one


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
    beta = math.sqrt(float(r @ r))  # the bits of np.linalg.norm, one call
    if beta == 0.0:
        return np.zeros_like(r), 0, 0.0
    np.divide(r, beta, out=basis[0])
    rhs, rotations = [beta], []
    for j in range(steps):
        w = system_matvec(system, precond(basis[j]))
        done = basis[: j + 1]
        h = done @ w  # classical Gram-Schmidt, applied twice
        w -= h @ done
        again = done @ w
        w -= again @ done
        col, below = (h + again).tolist(), math.sqrt(float(w @ w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[j], below)
        c, s, col[j] = col[j] / diag, below / diag, diag
        rotations.append((c, s))
        tri[: j + 1, j] = col
        rhs[j:] = [c * rhs[j], -s * rhs[j]]
        if abs(rhs[j + 1]) <= target or below == 0.0:
            break
        np.divide(w, below, out=basis[j + 1])
    k = len(rotations)
    y = np.empty(k)
    for i in range(k - 1, -1, -1):  # back-substitution on the Givens factor
        y[i] = (rhs[i] - tri[i, i + 1 : k] @ y[i + 1 :]) / tri[i, i]
    return precond(y @ basis[:k]), k, abs(rhs[k])


def _gmres_solve(system: AssembledSystem) -> tuple[np.ndarray, float]:
    """Preconditioned GMRES in sweeps until the backward error is <= RESIDUAL_TOL.

    Each sweep solves for the correction from the true residual in restarted
    cycles, until GMRES's own residual falls by _GMRES_SWEEP_RTOL or the
    sweep's budget is spent; the true one can stall above that at rounding.
    The true residual b - Ax, formed once per cycle, starts the next one and
    gives the backward error |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf).
    """
    precond = _strang_preconditioner(system)
    norm_a = _norm_inf_estimate(system)
    norm_b = float(np.abs(system.load).max(initial=0.0))
    coeffs, gap, iterations = np.zeros(system.n), system.load, 0
    while True:
        target = _GMRES_SWEEP_RTOL * math.sqrt(float(gap @ gap))
        budget = min(_GMRES_SWEEP_INNER, _GMRES_MAX_INNER - iterations)
        while budget > 0:
            step, k, est = _gmres_cycle(system, precond, gap, target, min(_GMRES_RESTART, budget))
            coeffs, iterations, budget = coeffs + step, iterations + k, budget - k
            gap = system.load - system_matvec(system, coeffs)
            if est <= target:
                break
        scale = norm_a * float(np.abs(coeffs).max(initial=0.0)) + norm_b
        res = float(np.abs(gap).max()) / scale if scale else 0.0
        if res <= RESIDUAL_TOL:
            return coeffs, res
        if iterations >= _GMRES_MAX_INNER or not math.isfinite(res):
            raise IterativeFailure("GMRES did not converge", iterations, res)


def _solution(system: AssembledSystem, coeffs: np.ndarray, res: float):
    if system.pair is None:
        return StandardSolution(PwLinear(system.mesh, coeffs), res)
    mu_h = reconstruction_scalar(system, coeffs)
    return ReconSolution(PwLinear(system.mesh, coeffs), mu_h, system.pair, res, system.lead)


def solve_standard(system: AssembledSystem) -> StandardSolution:
    """Solve the standard Galerkin system by the one path, GMRES, to
    RESIDUAL_TOL in the inf-norm backward error.

    Raises SingularSystemError(row, value) for a zero or non-finite scaled
    diagonal and IterativeFailure(iterations, residual) past _GMRES_MAX_INNER
    iterations or at the first sweep whose backward error is not finite.
    """
    if system.pair is not None:
        raise ArgumentError("solve_standard needs a system assembled as 'standard'")
    return _solution(system, *_gmres_solve(system))


def reconstruction_scalar(system: AssembledSystem, coeffs: np.ndarray) -> float:
    """mu_h = c0 [ (I^alpha f)(1) - s . coeffs ].

    By linearity s . coeffs equals (I^alpha q u_r_h)(1), evaluated by
    endpoint_weight_vector's per-element rule; the splitting constant c0
    comes from the adaptive rule of build_singular_pair instead.
    """
    pair = system.pair
    return pair.c0 * (pair.f_frac_at_one - float(np.dot(system.s_vec, coeffs)))


def solve_reconstruction(spec: ProblemSpec, mesh: Mesh) -> ReconSolution:
    """Assemble and solve the reconstruction system as solve_standard does,
    with the same raises, then recover mu_h."""
    system = assemble_system(spec, mesh, "reconstruction")
    return _solution(system, *_gmres_solve(system))
