"""Independent recomputation of the quantities under test.

Everything here goes through scipy.integrate.quad on the defining
convolutions and bilinear forms, never through the closed forms in the
package, so agreement is meaningful. There are exceptions.
stiffness_entry_decimal re-evaluates the stiffness closed form in
high-precision decimal arithmetic: it checks the rounding of the package's
evaluation, while the quadrature oracles check the formula. assemble_mass_q
only expands the package's mass bands to a dense matrix for structural
checks. The scalar power rules rl_integral_power and rl_derivative_power
are the textbook closed forms, evaluated with scipy.special, against which
the package's power-sum integral and the quadrature oracles are checked.
legendre_endpoint_integral is plain Gauss-Legendre with the endpoint weight
evaluated explicitly, the slow rule the Gauss-Jacobi panels replace.
stencil_far_field_peano and error_norms_gauss are the Gauss rules that the
moment series of the stencil far field and the node-exact error norms
replace: 24-point panels of the Peano-kernel integral, and 8 points in
every cell of the union mesh. The mesh helpers hat, hat_jump_data,
basis_frac_derivative and element_of and the Green kernel green_q0 are closed forms and lookups that the package
itself never needs; the tests check them against quadrature and use them
as independent descriptions of the basis and of the q = 0 solution.
stencil_to_dense, dense_lead and full_matrix expand the package's Toeplitz
stencil, leading block and assembled system to dense matrices, for
comparisons with dense products and numpy's dense solve; the package
multiplies and solves without forming them. eval_terms_masked is the
boolean-mask evaluation of a power sum that the package's evaluator
replaces term by term. lead_stencil_full_series and powersum_load_per_term
are the evaluations that the package's cached stencil band with its short
far series, and its one pass per power-sum term over both hat legs,
replace; they use the package's beta_fn and gamma_fn and keep every
rounding of the evaluations they stand for, so the tests compare them bit
for bit.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.special import beta, gammaln, rgamma
from scipy.special import gamma as gamma_fn

from fracfem.analysis import ErrorNorms
from fracfem.assembly import mass_bands
from fracfem.errors import ArgumentError, DomainError
from fracfem.fraccalc import PowerSum, PowerTerm, beta_fn, legendre_panel
from fracfem.fraccalc import gamma_fn as gamma_math
from fracfem.mesh import PwLinear

_LIMIT = 200


def frac_integral_quad(fn, gamma_ord, x, left_exponent=0.0, breaks=()):
    """(1/Gamma(g)) * int_0^x (x-t)^(g-1) fn(t) dt.

    left_exponent is the power of t that fn blows up with at 0 (pass -1/4
    for t^(-1/4) type sources); breaks are interior kink points of fn.
    """
    if x <= 0.0:
        return 0.0
    pts = [0.0] + sorted(b for b in breaks if 0.0 < b < x) + [x]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        left_here = left_exponent if (lo == 0.0 and left_exponent) else 0.0
        right_here = gamma_ord - 1.0 if hi == x else 0.0

        def core(t, _l=left_here, _r=right_here, _hi=hi):
            # qawse probes the endpoints; keep the smooth remainder finite
            # there, and take it at hi from the left: a field that jumps at
            # a break takes its value beyond the break there
            t = min(max(t, 1e-300), np.nextafter(_hi, 0.0))
            v = fn(t)
            if _l:
                v /= t**_l
            if not _r:
                v *= (x - t) ** (gamma_ord - 1.0)
            return v

        if left_here or right_here:
            val, _ = quad(
                core, lo, hi, weight="alg", wvar=(left_here, right_here), limit=_LIMIT
            )
        else:
            val, _ = quad(core, lo, hi, limit=_LIMIT)
        total += val
    return total / gamma_fn(gamma_ord)


def _hat_slope(nodes, j):
    """Piecewise-constant derivative of the j-th hat (1-based interior j)."""
    a, b, c = nodes[j - 1], nodes[j], nodes[j + 1]
    rise, fall = 1.0 / (b - a), -1.0 / (c - b)

    def slope(t):
        if a <= t < b:
            return rise
        if b <= t < c:
            return fall
        return 0.0

    return slope, (a, b, c)


def hat_value(nodes, j):
    """The j-th hat itself."""
    a, b, c = nodes[j - 1], nodes[j], nodes[j + 1]
    return lambda t: max(0.0, min((t - a) / (b - a), (c - t) / (c - b)))


def left_half_derivative_quad(nodes, j, s):
    """x -> (D_0^s phi_j)(x) = (1/Gamma(1-s)) int_0^x (x-t)^(-s) phi_j'(t) dt."""
    slope, (a, b, c) = _hat_slope(nodes, j)

    def val(x):
        if x <= a:
            return 0.0
        total = 0.0
        for lo, hi in ((a, min(b, x)), (b, min(c, x))):
            if hi <= lo:
                continue
            if hi == x:
                v, _ = quad(slope, lo, hi, weight="alg", wvar=(0.0, -s), limit=_LIMIT)
            else:
                v, _ = quad(lambda t: slope(t) * (x - t) ** (-s), lo, hi, limit=_LIMIT)
            total += v
        return total / gamma_fn(1.0 - s)

    return val


def right_half_derivative_quad(nodes, i, s):
    """x -> (xD_1^s phi_i)(x) = -(1/Gamma(1-s)) int_x^1 (t-x)^(-s) phi_i'(t) dt."""
    slope, (a, b, c) = _hat_slope(nodes, i)

    def val(x):
        if x >= c:
            return 0.0
        total = 0.0
        for lo, hi in ((max(a, x), b), (max(b, x), c)):
            if hi <= lo:
                continue
            if lo == x:
                v, _ = quad(slope, lo, hi, weight="alg", wvar=(-s, 0.0), limit=_LIMIT)
            else:
                v, _ = quad(lambda t: slope(t) * (t - x) ** (-s), lo, hi, limit=_LIMIT)
            total += v
        return -total / gamma_fn(1.0 - s)

    return val


def stiffness_entry_quad(nodes, alpha, i, j):
    """A[i, j] = -(D_0^s phi_j, xD_1^s phi_i) by nested quadrature, s = alpha/2."""
    s = 0.5 * alpha
    fj = left_half_derivative_quad(nodes, j, s)
    fi = right_half_derivative_quad(nodes, i, s)
    total = 0.0
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        v, _ = quad(lambda x: fj(x) * fi(x), lo, hi, limit=_LIMIT)
        total += v
    return -total


def stiffness_entry_decimal(nodes, alpha, i, j, digits=50):
    """A[i, j] from the nine-term closed form in `digits`-digit decimal arithmetic.

    -B(2-s, 2-s)/Gamma(2-s)^2 * sum_{l,k} sigma_il sigma_jk (b_l - a_k)_+^(3-2s)
    with the float nodes taken exactly; only the common scale factor is a
    double. Hat indices are 1-based as in stiffness_entry_quad.
    """
    s = 0.5 * alpha
    scale = beta(2.0 - s, 2.0 - s) / gamma_fn(2.0 - s) ** 2
    with localcontext() as ctx:
        ctx.prec = digits
        x = [Decimal(float(v)) for v in nodes]
        p = Decimal(3.0 - alpha)

        def hat(h):
            rise, fall = 1 / (x[h] - x[h - 1]), -1 / (x[h + 1] - x[h])
            return x[h - 1 : h + 2], (rise, fall - rise, -fall)

        (b, d), (a, c) = hat(i), hat(j)
        total = sum(
            dl * ck * (bl - ak) ** p
            for bl, dl in zip(b, d)
            for ak, ck in zip(a, c)
            if bl > ak
        )
        return -scale * float(total)


def load_entry_quad(nodes, fn, j, left_exponent=0.0, breaks=()):
    """int_0^1 fn(t) phi_j(t) dt with panel splitting at hats and kinks."""
    phi = hat_value(nodes, j)
    a, b, c = nodes[j - 1], nodes[j], nodes[j + 1]
    pts = sorted({a, b, c} | {p for p in breaks if a < p < c})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if lo == 0.0 and left_exponent:
            v, _ = quad(
                lambda t: phi(t) * fn(max(t, 1e-300)) / max(t, 1e-300) ** left_exponent,
                lo,
                hi,
                weight="alg",
                wvar=(left_exponent, 0.0),
                limit=_LIMIT,
            )
        else:
            v, _ = quad(lambda t: phi(t) * fn(t), lo, hi, limit=_LIMIT)
        total += v
    return total


def endpoint_weight_entry_quad(nodes, q_fn, j, alpha, breaks=()):
    """(1/Gamma(a)) int_0^1 (1-t)^(a-1) q(t) phi_j(t) dt, split at the
    nodes and at ``breaks``."""
    phi = hat_value(nodes, j)
    a, c = nodes[j - 1], nodes[j + 1]
    pts = sorted({a, nodes[j], c} | {p for p in breaks if a < p < c})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi == 1.0:
            v, _ = quad(
                lambda t: q_fn(t) * phi(t),
                lo,
                hi,
                weight="alg",
                wvar=(0.0, alpha - 1.0),
                limit=_LIMIT,
            )
        else:
            v, _ = quad(
                lambda t: q_fn(t) * phi(t) * (1.0 - t) ** (alpha - 1.0),
                lo,
                hi,
                limit=_LIMIT,
            )
        total += v
    return total / gamma_fn(alpha)


def green_solution_quad(alpha, fn, x, left_exponent=0.0, breaks=()):
    """u(x) for q = 0 through the kernel (x^(a-1)(1-t)^(a-1) - (x-t)_+^(a-1))/Gamma(a)."""
    lead = frac_integral_quad(fn, alpha, 1.0, left_exponent, breaks)
    tail = frac_integral_quad(fn, alpha, x, left_exponent, breaks)
    return x ** (alpha - 1.0) * lead - tail


def assemble_mass_q(mesh, q):
    """Dense potential mass matrix (q phi_j, phi_i) from the package's bands."""
    diag, off = mass_bands(mesh, q)
    n = diag.size
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = diag
    if n > 1:
        out[idx[:-1], idx[:-1] + 1] = off
        out[idx[:-1] + 1, idx[:-1]] = off
    return out


def rl_integral_power(gamma_ord, beta_exp, x):
    """Left Riemann-Liouville integral of t^beta_exp at x.

    (I_0^gamma t^beta)(x) = Gamma(beta + 1) / Gamma(beta + 1 + gamma) * x^(beta + gamma).
    """
    if gamma_ord <= 0.0:
        raise DomainError(f"integral order must be positive, got {gamma_ord}")
    if beta_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {beta_exp}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point must lie in [0, 1], got {x}")
    g = gammaln(beta_exp + 1.0) - gammaln(beta_exp + 1.0 + gamma_ord)
    return float(np.exp(g)) * x ** (beta_exp + gamma_ord)


def rl_derivative_power(beta_order, p_exp, x):
    """Left Riemann-Liouville derivative of t^p_exp at x, order in (0, 2).

    (D_0^beta t^p)(x) = Gamma(p + 1) / Gamma(p + 1 - beta) * x^(p - beta);
    the reciprocal gamma kills the expression when p - beta is a negative
    integer, which covers D^alpha x^(alpha-1) = 0 and D^(alpha-1) x^(alpha-2) = 0.
    """
    if not 0.0 < beta_order < 2.0:
        raise DomainError(f"derivative order must lie in (0, 2), got {beta_order}")
    if p_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {p_exp}")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"evaluation point must lie in (0, 1], got {x}")
    z = p_exp + 1.0 - beta_order
    if z < 0.5 and abs(z - round(z)) < 1e-12 and round(z) <= 0:
        return 0.0
    return float(gamma_fn(p_exp + 1.0) * rgamma(z)) * x ** (p_exp - beta_order)


def legendre_endpoint_integral(g, alpha, points):
    """(I_0^alpha g)(1) by plain Gauss-Legendre with the weight evaluated explicitly."""
    t, w = np.polynomial.legendre.leggauss(points)
    t = 0.5 * (t + 1.0)
    return float(np.dot(0.5 * w, (1.0 - t) ** (alpha - 1.0) * g(t))) / gamma_fn(alpha)


def element_of(mesh, x):
    """Index of the element containing x; nodes belong to the element on
    their left, except x = 0 which belongs to element 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("query point outside [0, 1]")
    idx = np.searchsorted(mesh.nodes, x, side="left") - 1
    return np.clip(idx, 0, mesh.m - 1)


def hat(mesh, j):
    """The j-th interior nodal basis function."""
    coeffs = np.zeros(mesh.m - 1)
    if not 1 <= j <= mesh.m - 1:
        raise ArgumentError(f"interior node index must lie in [1, {mesh.m - 1}], got {j}")
    coeffs[j - 1] = 1.0
    return PwLinear(mesh, coeffs)


def hat_jump_data(mesh, j):
    """Anchors and slope jumps of the j-th hat at its three support nodes."""
    if not 1 <= j <= mesh.m - 1:
        raise ArgumentError(f"interior node index must lie in [1, {mesh.m - 1}], got {j}")
    x = mesh.nodes
    rise = 1.0 / (x[j] - x[j - 1])
    fall = -1.0 / (x[j + 1] - x[j])
    anchors = x[j - 1 : j + 2]
    jumps = np.array([rise, fall - rise, -fall])
    return anchors, jumps


def basis_frac_derivative(mesh, j, s):
    """Left Riemann-Liouville derivative of order s in (0, 1) of a hat function.

    The first derivative of a hat is piecewise constant, so the fractional
    derivative is the (1 - s)-integral of its slope jumps:

        D^s phi_j = 1/Gamma(2 - s) * sum_k sigma_k ((x - x_k)_+)^(1 - s)
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"derivative order must lie in (0, 1), got {s}")
    anchors, jumps = hat_jump_data(mesh, j)
    scale = 1.0 / gamma_fn(2.0 - s)
    return PowerSum(
        tuple(PowerTerm(scale * sigma, float(a), 1.0 - s) for a, sigma in zip(anchors, jumps))
    )


def green_q0(alpha, x, y):
    """Green's function of the Dirichlet problem with q = 0:

    G(x, y) = [ (1-y)^(alpha-1) x^(alpha-1) - ((x-y)_+)^(alpha-1) ] / Gamma(alpha).
    """
    y = np.asarray(y, dtype=float)
    lead = (1.0 - y) ** (alpha - 1.0) * x ** (alpha - 1.0)
    return (lead - np.maximum(x - y, 0.0) ** (alpha - 1.0)) / gamma_fn(alpha)


def _bspline4(u):
    """Centered cubic B-spline on [-2, 2], the Peano kernel of the 4th
    central difference."""
    au = np.abs(u)
    return ((2.0 - au) ** 3 - 4.0 * np.maximum(1.0 - au, 0.0) ** 3) / 6.0


def stencil_far_field_peano(m, alpha):
    """Far field of the uniform-mesh stencil, st[: m - 4] (offsets d from
    -(m - 2) to -3), by 24-point Gauss-Legendre panels on the four unit
    pieces of the Peano-kernel integral p(p-1)(p-2)(p-3) int M4(u) (u-d)^(p-4) du."""
    s = 0.5 * alpha
    p = 3.0 - alpha
    d = np.arange(-(m - 2), -2, dtype=float)
    xi, w = np.polynomial.legendre.leggauss(24)
    xi, w = 0.5 * (xi + 1.0), 0.5 * w
    total = np.zeros_like(d)
    for lo in (-2.0, -1.0, 0.0, 1.0):
        u = lo + xi
        total += (w * _bspline4(u)) @ (u[:, None] - d[None, :]) ** (p - 4.0)
    scale = beta(2.0 - s, 2.0 - s) * (1.0 / m) ** (1.0 - 2.0 * s) / gamma_fn(2.0 - s) ** 2
    return -scale * p * (p - 1.0) * (p - 2.0) * (p - 3.0) * total


def error_norms_gauss(approx_fn, exact_fn, approx_mesh, exact_mesh, lead):
    """(l2, energy, linf) of exact_fn - approx_fn sampled at 8 Gauss points in
    every cell of the union mesh, the sup also at its interior nodes; the
    energy is the quadratic form of ``lead`` on the fine-mesh interpolant."""
    union = np.union1d(approx_mesh.nodes, exact_mesh.nodes)
    xi, w = np.polynomial.legendre.leggauss(8)
    lo, widths = union[:-1, None], np.diff(union)[:, None]
    x = lo + 0.5 * widths * (xi + 1.0)
    gap = exact_fn(x) - approx_fn(x)
    l2 = float(np.sqrt(np.sum(0.5 * widths * w * gap * gap)))
    node_gap = exact_fn(union[1:-1]) - approx_fn(union[1:-1])
    linf = max(float(np.max(np.abs(gap))), float(np.max(np.abs(node_gap))))
    fine = exact_mesh.nodes[1:-1]
    d = exact_fn(fine) - approx_fn(fine)
    energy = float(np.sqrt(max(float(np.dot(d, lead.matvec(d))), 0.0)))
    return l2, energy, linf


def error_norms_union(approx, exact):
    """ErrorNorms of ``approx`` against ``exact`` as error_norms takes them on
    meshes that are not nested, with every rounding: the fields at the
    union of both meshes, the energy from the union values at the fine
    nodes. error_norms takes nested meshes without forming the union."""
    approx_fn = approx.fe
    exact_fn = exact.u if approx.mu_h is None else exact.u_r
    union = np.union1d(approx_fn.mesh.nodes, exact.mesh.nodes)
    node_gap = exact_fn(union) - approx_fn(union)
    linf = float(np.max(np.abs(node_gap)))
    if isinstance(exact_fn, PwLinear):
        lo, hi = node_gap[:-1], node_gap[1:]
        l2 = float(np.sqrt(np.sum(np.diff(union) * (lo * lo + lo * hi + hi * hi)) / 3.0))
    else:
        x, wq = legendre_panel(8, union[:-1, None], union[1:, None])
        gap = exact_fn(x) - approx_fn(x)
        l2 = float(np.sqrt(np.sum(wq * gap * gap)))
        linf = max(float(np.max(np.abs(gap))), linf)
    d = node_gap[np.searchsorted(union, exact.mesh.nodes[1:-1])]
    energy = math.sqrt(max(float(np.dot(d, exact.lead.matvec(d))), 0.0))
    return ErrorNorms(l2, energy, linf)


def stencil_to_dense(stencil):
    """Expand a Toeplitz stencil st (A[i, j] = st[j - i + n - 1]) to dense."""
    n = (stencil.size + 1) // 2
    return toeplitz(stencil[n - 1 :: -1], stencil[n - 1 :])


def dense_lead(lead):
    """A fresh dense copy of a ``Lead`` block, in either format."""
    if lead.stencil is not None:
        return stencil_to_dense(lead.stencil)
    return np.array(lead.dense)


def full_matrix(system):
    """Dense matrix of an assembled system: lead, mass bands and, for the
    reconstruction method, the rank-one coupling r s^T."""
    out = dense_lead(system.lead)
    out += np.diag(system.mass_diag)
    out += np.diag(system.mass_off, 1) + np.diag(system.mass_off, -1)
    if system.r_vec is not None:
        out += np.outer(system.r_vec, system.s_vec)
    return out


def eval_terms_masked(terms, x):
    """Sum of power terms, each added only where its base is positive, plus
    its value at the anchor: coeff for exponent 0, an infinity of the
    coefficient's sign for a negative exponent and a nonzero coefficient,
    nothing otherwise."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in terms:
        dx = x - t.anchor
        inside = dx > 0.0
        out[inside] += t.coeff * dx[inside] ** t.exponent
        edge = dx == 0.0
        if t.exponent == 0.0:
            out[edge] += t.coeff
        elif t.exponent < 0.0 and t.coeff != 0.0:
            out[edge] += np.sign(t.coeff) * np.inf
    return out


def lead_stencil_full_series(m, alpha):
    """The uniform-mesh stencil of assembly.lead_stencil with all 50 terms of
    the moment series at every far offset D >= 3, each computed afresh."""
    s = 0.5 * alpha
    p = 3.0 - 2.0 * s
    n = m - 1
    d = np.arange(-(n - 1), n, dtype=float)
    acc = np.zeros_like(d)
    near = np.abs(d) <= 2.0
    for e, v in zip(range(-2, 3), (1.0, -4.0, 6.0, -4.0, 1.0)):
        acc[near] += v * np.maximum(e - d[near], 0.0) ** p
    far = d <= -3.0
    if np.any(far):
        e = p - 4.0
        k = 2.0 * np.arange(50)
        moments = 2.0 * (2.0 ** (k + 4.0) - 4.0) / ((k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0))
        k = k[:-1]
        binom = np.cumprod(np.append(1.0, (e - k) * (e - k - 1.0) / ((k + 1.0) * (k + 2.0))))
        dist = -d[far]
        x2, coeffs = dist**-2.0, (binom * moments).tolist()
        series = np.full_like(x2, coeffs[-1])
        for c in coeffs[-2::-1]:
            series *= x2
            series += c
        acc[far] = p * (p - 1.0) * (p - 2.0) * (p - 3.0) * dist**e * series
    scale = beta_fn(2.0 - s, 2.0 - s) * (1.0 / m) ** (1.0 - 2.0 * s) / gamma_math(2.0 - s) ** 2
    return -scale * acc


def powersum_load_per_term(mesh, ps):
    """Load vector (ps, phi_i) of a left-anchored power sum, one hat leg and
    one term at a time, a term skipped on a leg where it is zero throughout."""
    nodes, widths, n = mesh.nodes, np.diff(mesh.nodes), mesh.m - 1
    out = np.zeros(n)
    legs = (
        (nodes[0:n], nodes[1 : n + 1], 1.0 / widths[:n], -nodes[0:n] / widths[:n]),
        (nodes[1 : n + 1], nodes[2 : n + 2], -1.0 / widths[1:], nodes[2 : n + 2] / widths[1:]),
    )
    for xl, xr, B, A in legs:
        for t in ps.terms:
            hi = xr - t.anchor
            active = hi > 0.0
            if not np.any(active):
                continue
            lo = np.maximum(np.maximum(t.anchor, xl) - t.anchor, 0.0)
            hi = np.maximum(hi, 0.0)
            j1 = (hi ** (t.exponent + 1.0) - lo ** (t.exponent + 1.0)) / (t.exponent + 1.0)
            j2 = (hi ** (t.exponent + 2.0) - lo ** (t.exponent + 2.0)) / (t.exponent + 2.0)
            out += np.where(active, t.coeff * ((A + B * t.anchor) * j1 + B * j2), 0.0)
    return out
