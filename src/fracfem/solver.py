"""Solution of the assembled systems.

Every system, on any mesh, uniform or graded, is solved by restarted GMRES
(Saad & Schultz, 1986), right-preconditioned by a diagonally scaled Strang
circulant embedded at a power-of-two length; the kernel needs only numpy and
BLAS. Up to _DENSE_N unknowns GMRES starts from the LAPACK solution of the
fused dense system, which already meets the backward-error check, so no cycle
runs; above it GMRES starts from zero. Wherever a cycle runs, the system is
applied matrix-free by system_matvec and the preconditioner by FFT.
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

GMRES_RESTART = 50
_GMRES_MAX_INNER = 2000
# one GMRES cycle's 2-norm target, relative to the true residual it starts from
_GMRES_CYCLE_RTOL = 1e-12
# largest n whose GMRES starts at the LAPACK solution of the dense system. With
# OpenBLAS 0.3.31, np.linalg.solve gave the same bytes at 1 and 2 BLAS threads
# for n <= 99 and different bytes from n = 100 on (20 random systems per
# size); 63 is the largest 2^k - 1 below that boundary
_DENSE_N = 63


@dataclass(frozen=True)
class Solution:
    """Galerkin solution of either method: ``fe`` is u_h for the standard
    method and u_r_h for the reconstruction method, whose solution is
    u_h = u_r_h + mu_h * u_s; ``mu_h`` and ``pair`` are None for the
    standard method. ``lead`` is the leading block of the solved system."""

    fe: PwLinear
    residual: float
    lead: Lead
    mu_h: float | None = None
    pair: SingularPair | None = None

    def __call__(self, x):
        if self.mu_h is None:
            return self.fe(x)
        return self.fe(x) + self.mu_h * self.pair.u_s(x)


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


def _diagonal_scale(system: AssembledSystem) -> np.ndarray:
    """D^(-1/2), D being |diag(A)| without the rank-one coupling. A zero or
    non-finite entry of D raises SingularSystemError before the division."""
    diag = np.abs(system.lead.diagonal() + system.mass_diag)
    bad = np.flatnonzero(~(np.isfinite(diag) & (diag > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise SingularSystemError("zero or non-finite diagonal", i, float(diag[i]))
    return 1.0 / np.sqrt(diag)


def _strang_preconditioner(system: AssembledSystem, scale: np.ndarray):
    """Inverse of A ~ D^(1/2) C D^(1/2), as a callable on vectors, with
    ``scale`` = D^(-1/2) from _diagonal_scale.

    C is the Strang circulant of the middle row of D^(-1/2) A D^(-1/2), mass
    bands included, embedded at N, the power of two >= n + 1: its first
    column takes the row's offsets, all within N/2, and zeros elsewhere, and
    C^(-1) acts on vectors zero-padded to N, of which the first n entries are
    kept. Each application is one rfft/irfft pair of length N. The scaling
    follows local refinement on graded meshes; on uniform ones D is nearly
    constant and C is the Strang circulant of the stencil.
    """
    n, k = system.n, system.n // 2
    row = system.lead.row(k)
    row[k] += system.mass_diag[k]
    row[k - 1 : k] += system.mass_off[k - 1 : k]  # a missing neighbour: empty slices
    row[k + 1 : k + 2] += system.mass_off[k : k + 1]
    row *= scale[k] * scale
    size = 1 << n.bit_length()
    column = np.zeros(size)
    column[(k - np.arange(n)) % size] = row
    eig = np.fft.rfft(column)
    return lambda r: scale * np.fft.irfft(np.fft.rfft(scale * r, size) / eig, size)[:n]


def _system_array(system: AssembledSystem) -> np.ndarray:
    """The system matrix as one dense n x n array: lead, mass bands and
    r s^T fused."""
    n = system.n
    # one n x n allocation: r s^T by a rank-one product, then the lead added in
    a = np.zeros((n, n)) if system.r_vec is None else np.dot(system.r_vec[:, None], system.s_vec[None, :])
    a += system.lead.to_array()
    flat = a.reshape(-1)  # a view: the three bands are strided slices
    flat[:: n + 1] += system.mass_diag
    flat[1 :: n + 1] += system.mass_off
    flat[n :: n + 1] += system.mass_off
    return a


def _gmres_cycle(matvec, precond, r: np.ndarray, target: float, steps: int):
    """At most ``steps`` iterations of right-preconditioned GMRES for A x = r
    from x = 0, stopping once Givens rotations put the residual 2-norm at or
    below ``target``. Returns x and the iteration count."""
    basis, tri = np.empty((steps + 1, r.size)), np.zeros((steps, steps))
    beta = math.sqrt(float(r @ r))  # the bits of np.linalg.norm, one call
    if beta == 0.0:
        return np.zeros_like(r), 0
    np.divide(r, beta, out=basis[0])
    rhs, rotations = [beta], []
    for j in range(steps):
        w = matvec(precond(basis[j]))
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
    return precond(y @ basis[:k]), k


def _gmres_solve(system: AssembledSystem) -> tuple[np.ndarray, float]:
    """Restarted, preconditioned GMRES until the backward error
    |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf), checked before each cycle,
    is <= RESIDUAL_TOL. Up to _DENSE_N unknowns the start is the LAPACK
    solution of _system_array, which passes it with no cycle; above, zero.
    Each cycle solves for the correction from the true residual b - Ax,
    until GMRES's own residual falls by _GMRES_CYCLE_RTOL or GMRES_RESTART
    iterations are spent; the true one can stall above that at rounding.
    """
    scale = _diagonal_scale(system)
    norm_a = _norm_inf_estimate(system)
    norm_b = float(np.abs(system.load).max(initial=0.0))
    coeffs, gap = np.zeros(system.n), system.load
    if system.n <= _DENSE_N:
        a = _system_array(system)
        try:
            coeffs = np.linalg.solve(a, system.load)
        except np.linalg.LinAlgError:
            raise SingularSystemError("LAPACK found the system matrix exactly singular") from None
        gap = system.load - a @ coeffs
    precond, iterations = None, 0
    matvec = lambda x: system_matvec(system, x)
    while True:
        denom = norm_a * float(np.abs(coeffs).max(initial=0.0)) + norm_b
        res = float(np.abs(gap).max()) / denom if denom else 0.0
        if res <= RESIDUAL_TOL:
            return coeffs, res
        if iterations >= _GMRES_MAX_INNER or not math.isfinite(res):
            raise IterativeFailure("GMRES did not converge", iterations, res)
        if precond is None:
            precond = _strang_preconditioner(system, scale)
        target = _GMRES_CYCLE_RTOL * math.sqrt(float(gap @ gap))
        step, k = _gmres_cycle(matvec, precond, gap, target, min(GMRES_RESTART, _GMRES_MAX_INNER - iterations))
        coeffs, iterations = coeffs + step, iterations + k
        gap = system.load - matvec(coeffs)


def _solution(system: AssembledSystem, coeffs: np.ndarray, res: float) -> Solution:
    """The solved system as a Solution. With a singular pair,
    mu_h = c0 [ (I^alpha f)(1) - s . coeffs ]: by linearity s . coeffs equals
    (I^alpha q u_r_h)(1), the endpoint vector s being exact term by term; the
    splitting constant c0 comes from build_singular_pair, by the power rule
    and one fixed rule per term of q anchored inside (0, 1)."""
    fe, pair = PwLinear(system.mesh, coeffs), system.pair
    if pair is None:
        return Solution(fe, res, system.lead)
    mu_h = pair.c0 * (pair.f_frac_at_one - float(np.dot(system.s_vec, coeffs)))
    return Solution(fe, res, system.lead, mu_h, pair)


def solve_standard(system: AssembledSystem) -> Solution:
    """Solve the standard Galerkin system by the one path, GMRES, to
    RESIDUAL_TOL in the inf-norm backward error.

    Raises SingularSystemError(row, value) for a zero or non-finite scaled
    diagonal, SingularSystemError without a row when LAPACK meets a zero
    pivot up to _DENSE_N unknowns, and IterativeFailure(iterations,
    residual) past _GMRES_MAX_INNER iterations or at the first cycle whose
    backward error is not finite.
    """
    if system.pair is not None:
        raise ArgumentError("solve_standard needs a system assembled as 'standard'")
    return _solution(system, *_gmres_solve(system))


def solve_reconstruction(spec: ProblemSpec, mesh: Mesh) -> Solution:
    """Assemble and solve the reconstruction system as solve_standard does,
    with the same raises, then recover mu_h."""
    system = assemble_system(spec, mesh, "reconstruction")
    return _solution(system, *_gmres_solve(system))
