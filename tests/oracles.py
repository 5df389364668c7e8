"""Independent recomputation of the quantities under test.

Everything here goes through scipy.integrate.quad on the defining
convolutions and bilinear forms, never through the closed forms in the
package, so agreement is meaningful. There are four exceptions.
stiffness_entry_decimal re-evaluates the stiffness closed form in
high-precision decimal arithmetic: it checks the rounding of the package's
evaluation, while the quadrature oracles check the formula. assemble_mass_q
only expands the package's mass bands to a dense matrix for structural
checks. The scalar power rules rl_integral_power and rl_derivative_power
are the textbook closed forms, evaluated with scipy.special, against which
the package's power-sum integral and the quadrature oracles are checked.
legendre_endpoint_integral is plain Gauss-Legendre with the endpoint weight
evaluated explicitly, the slow rule the Gauss-Jacobi panels replace.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.special import beta, gammaln, rgamma
from scipy.special import gamma as gamma_fn

from fracfem.assembly import mass_bands
from fracfem.errors import DomainError

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

        def core(t, _l=left_here, _r=right_here):
            # qawse probes the endpoints; keep the smooth remainder finite there
            t = max(t, 1e-300)
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


def endpoint_weight_entry_quad(nodes, q_fn, j, alpha):
    """(1/Gamma(a)) int_0^1 (1-t)^(a-1) q(t) phi_j(t) dt."""
    phi = hat_value(nodes, j)
    total = 0.0
    for lo, hi in zip(nodes[j - 1 : j + 1], nodes[j : j + 2]):
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
