"""Assembly of the stiffness, mass, and reconstruction coupling terms.

The leading block uses the closed form

    -(D_0^s phi_j, D_1^s phi_i) =
        -B(2-s, 2-s) * sum_{a_k < b_l} c_k d_l (b_l - a_k)^(3-2s)

obtained by integrating pairs of one-sided power functions, with s = alpha/2.
On uniform meshes the block is Toeplitz and is kept as its stencil; a system
holds its block as one ``Lead`` in either format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateSplittingError,
    DomainError,
    UnsupportedFormError,
)
from .fields import ScalarField
from .fraccalc import (
    FracOrder,
    PowerSum,
    beta_fn,
    gamma_fn,
    jacobi_panel,
    legendre_panel,
    rl_integral_powersum_at,
    weighted_endpoint_integral,
)
from .mesh import Mesh

DIRICHLET = "dirichlet"
MIXED = "mixed"

DEGENERATE_TOL = 1e-8

_MASS_POINTS = 6
_LOAD_POINTS = 10
_ENDPOINT_POINTS = 12

# Far field of assemble_lead: (Gauss points per side, largest separation ratio
# eta = max(h_a, h_b) / gap served), each limit being the largest eta at which
# the tensor rule holds every element-pair moment to 1e-13 of itself for any
# alpha in (1, 2) and width ratio, measured against a 60-point rule.
_FAR_RULES = ((4, 0.032), (6, 0.19), (8, 0.49), (12, 1.39), (16, 2.66), (24, 6.26))
_FAR_PAIRS = 1 << 13  # element pairs per far-field block, about 1 MiB of powers
# Terms of lead_stencil's moment series: each is at most 4/9 of the one before,
# and (4/9)^50 / (1 - 4/9) < 2^-56.
_SERIES_TERMS = 50


@dataclass(frozen=True)
class ProblemSpec:
    """Two-point problem -D_0^alpha u + q u = f with homogeneous conditions.

    ``bc == "dirichlet"`` imposes u(0) = u(1) = 0; ``bc == "mixed"`` imposes
    D_0^(alpha-1) u(0) = u(1) = 0 and needs alpha > 3/2.
    """

    alpha: float
    q: ScalarField
    f: ScalarField
    bc: str = DIRICHLET

    def __post_init__(self):
        order = FracOrder(self.alpha)
        if self.bc not in (DIRICHLET, MIXED):
            raise ArgumentError(f"bc must be 'dirichlet' or 'mixed', got {self.bc!r}")
        if self.bc == MIXED:
            order.require_mixed_range()
        sample = self.q(np.linspace(1e-3, 1.0 - 1e-3, 1000))
        if not np.all(np.isfinite(sample)) or np.max(np.abs(sample)) > 1e8:
            raise DomainError("potential q must be bounded on [0, 1]")

    @property
    def singular_exponent(self) -> float:
        """Exponent of the leading singular profile x^p."""
        return self.alpha - 1.0 if self.bc == DIRICHLET else self.alpha - 2.0

    @cached_property
    def singular_pair(self) -> SingularPair:
        """Splitting data of this problem, built on first use and kept for
        the life of the spec; it depends on (alpha, q, f, bc), not on a mesh."""
        return build_singular_pair(self)


def _graded_rule(h: float, gap: float):
    """Gauss panels on [0, 1] for an element of width h whose end 0 lies gap from
    the other element; each is at most the top eta limit times its distance."""
    points, limit = _FAR_RULES[-1]
    edges = [0.0]
    while edges[-1] < 1.0:
        edges.append(min(1.0, edges[-1] + limit * (gap / h + edges[-1])))
    nodes, weights = zip(*(legendre_panel(points, lo, hi) for lo, hi in zip(edges, edges[1:])))
    return np.concatenate(nodes), np.concatenate(weights)


def _tensor_rule(rule_a, rule_b):
    """Nodes u, v and weights W[(q, r), (X, Y)] = w_q w_r N_X(u_q) N_Y(v_r)."""
    (u, wu), (v, wv) = rule_a, rule_b
    shapes = np.einsum("q,r,qx,ry->qrxy", wu, wv, np.stack([1 - u, u], 1), np.stack([v, 1 - v], 1))
    return u, v, shapes.reshape(-1, 4)


def _pair_moments(gap, ha, hb, e, u, v, weights) -> np.ndarray:
    """Moments M[X, Y, k] = h_a h_b int int N_X N_Y (gap + h_a u + h_b v)^e du dv
    of element pairs k, the row element a lying gap to the right of the
    column element b. u and v in [0, 1] run from the facing ends; the shapes
    are N_0 = 1 - u, N_1 = u on a and N_0 = v, N_1 = 1 - v on b."""
    d = (gap + np.multiply.outer(u, ha))[:, None, :] + np.multiply.outer(v, hb)
    m = np.einsum("kx,kp->xp", weights, np.power(d, e, out=d).reshape(-1, gap.size))
    return (m * (ha * hb)).reshape(2, 2, gap.size)


# (eta limit, tensor rule) of each _FAR_RULES tier; they depend on no argument
_FAR_TENSORS = [(hi, _tensor_rule(*[legendre_panel(q, 0.0, 1.0)] * 2)) for q, hi in _FAR_RULES]


def _far_moments(gap, ha, hb, e) -> np.ndarray:
    """Element-pair moments, each from the fewest Gauss points that its
    separation ratio eta = max(h_a, h_b) / gap allows."""
    eta = np.maximum(ha, hb) / gap
    out = np.empty((2, 2, gap.size))
    lo = -1.0
    for hi, rule in _FAR_TENSORS:
        k = np.flatnonzero((eta > lo) & (eta <= hi))
        if k.size:
            out[..., k] = _pair_moments(gap[k], ha[k], hb[k], e, *rule)
        lo = hi
    for k in np.flatnonzero(eta > lo):
        rule = _tensor_rule(_graded_rule(ha[k], gap[k]), _graded_rule(hb[k], gap[k]))
        k = slice(k, k + 1)
        out[..., k] = _pair_moments(gap[k], ha[k], hb[k], e, *rule)
    return out


def assemble_lead(mesh: Mesh, alpha) -> np.ndarray:
    """Dense leading block A[i, j] = -(D_0^s phi_j, D_1^s phi_i), s = alpha/2.

    The band i - j in {-1, 0, 1, 2} takes the nine-term closed form. For
    i - j >= 3 the supports are apart, and integrating that form by parts
    twice on each side gives the Peano form, whose kernel has one sign:

        -B/Gamma^2 * p(p-1)(p-2)(p-3) int int phi_i(z) phi_j(y) (z-y)^(p-4),

    p = 3 - 2s, summed from element-pair moments as A[i, j] = M_RR[i, j] +
    M_RL[i, j+1] + M_LR[i+1, j] + M_LL[i+1, j+1]. A[i, j] = 0 for j >= i + 2.
    """
    a = float(FracOrder(float(alpha)).alpha)
    s = 0.5 * a
    p = 3.0 - 2.0 * s
    x, h, n = mesh.nodes, mesh.widths, mesh.m - 1
    rise, fall = 1.0 / h[:-1], -1.0 / h[1:]
    c = np.stack([rise, fall - rise, -fall], axis=1)  # hat i's slope jumps at x_i..x_i+2
    scale = beta_fn(2.0 - s, 2.0 - s) / gamma_fn(2.0 - s) ** 2
    out = np.zeros((n, n))
    three = np.arange(3)
    for off in (-1, 0, 1, 2):
        i = np.arange(max(off, 0), n + min(off, 0))
        gaps = x[i[:, None, None] + three[:, None]] - x[i[:, None, None] - off + three]
        terms = np.maximum(gaps, 0.0) ** p
        out[i, i - off] = -scale * np.einsum("tl,tk,tlk->t", c[i], c[i - off], terms)
    scale *= -p * (p - 1.0) * (p - 2.0) * (p - 3.0)
    block = max(1, _FAR_PAIRS // mesh.m)
    for a0 in range(3, mesh.m, block):
        rows = np.arange(a0, min(a0 + block, mesh.m))
        cols = np.arange(rows[-1] - 1)
        gap = x[rows, None] - x[None, cols + 1]
        gap[gap <= 0.0] = np.inf  # touching or overlapping pairs: no far field
        mom = _far_moments(
            gap.ravel(), np.repeat(h[rows], cols.size), np.tile(h[cols], rows.size), p - 4.0
        ).reshape(2, 2, rows.size, cols.size)
        rising = scale * (mom[1, 1, :, :-1] + mom[1, 0, :, 1:])  # hat a on element a
        falling = scale * (mom[0, 1, :, :-1] + mom[0, 0, :, 1:])  # hat a - 1
        out[a0 : rows[-1] + 1, : cols.size - 1] += np.tril(rising, a0 - 3)[: n - a0]
        out[a0 - 1 : rows[-1], : cols.size - 1] += np.tril(falling, a0 - 4)
    return out


def lead_stencil(mesh: Mesh, alpha) -> np.ndarray:
    """Toeplitz stencil of the leading block on a uniform mesh.

    Returns ``st`` of length 2m - 3 with A[i, j] = st[j - i + m - 2]. The
    stencil value at offset d is a 4th central difference of t^p, p = 3 - 2s; past
    the kink region that difference cancels catastrophically in floating
    point. There (d <= -3, D = -d) it is the Peano-kernel integral against
    the cubic B-spline M4 on [-2, 2], expanded in the even moments mu_k of M4:

        p(p-1)(p-2)(p-3) int M4(u) (D+u)^e du
            = p(p-1)(p-2)(p-3) D^e sum_j C(e, 2j) mu_2j D^(-2j),   e = p - 4,

    mu_k = 2 (2^(k+4) - 4) / ((k+1)(k+2)(k+3)(k+4)). Every term is positive
    and at most 4/D^2 <= 4/9 of the one before, so nothing cancels and
    _SERIES_TERMS terms leave a tail below 2^-56 of the sum.
    """
    if not mesh.is_uniform:
        raise ArgumentError("the leading block is Toeplitz on uniform meshes only")
    a = float(FracOrder(float(alpha)).alpha)
    s = 0.5 * a
    p = 3.0 - 2.0 * s
    n = mesh.m - 1
    h = 1.0 / mesh.m
    d = np.arange(-(n - 1), n, dtype=float)
    acc = np.zeros_like(d)
    near = np.abs(d) <= 2.0
    for e, v in zip(range(-2, 3), (1.0, -4.0, 6.0, -4.0, 1.0)):
        acc[near] += v * np.maximum(e - d[near], 0.0) ** p
    far = d <= -3.0
    if np.any(far):
        e = p - 4.0
        k = 2.0 * np.arange(_SERIES_TERMS)
        moments = 2.0 * (2.0 ** (k + 4.0) - 4.0) / ((k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0))
        k = k[:-1]
        # C(e, 2j) from C(e, 2j - 2) by the ratio of neighbours
        binom = np.cumprod(np.append(1.0, (e - k) * (e - k - 1.0) / ((k + 1.0) * (k + 2.0))))
        dist = -d[far]
        # Horner in place, the same roundings as polynomial.polyval
        x2, coeffs = dist**-2.0, (binom * moments).tolist()
        series = np.full_like(x2, coeffs[-1])
        for c in coeffs[-2::-1]:
            series *= x2
            series += c
        acc[far] = p * (p - 1.0) * (p - 2.0) * (p - 3.0) * dist**e * series
    scale = beta_fn(2.0 - s, 2.0 - s) * h ** (1.0 - 2.0 * s) / gamma_fn(2.0 - s) ** 2
    return -scale * acc


def _element_gauss(nodes: np.ndarray, points: int):
    """Gauss points ``x`` (one row per element), their weights ``wq`` and the
    rising hat ``n_r = (x - x_lo) / h`` at them."""
    xi, w = legendre_panel(points, -1.0, 1.0)
    lo = nodes[:-1][:, None]
    widths = np.diff(nodes)[:, None]
    x = lo + 0.5 * widths * (xi + 1.0)
    return x, 0.5 * widths * w, (x - lo) / widths


def _anchors(field: ScalarField) -> tuple:
    """Points in (0, 1) where the field's power-sum terms start or stop, so
    where it may jump or kink; none for a field without a power sum."""
    if field.powersum is None:
        return ()
    return tuple(sorted({t.anchor for t in field.powersum.terms if 0.0 < t.anchor < 1.0}))


def _cut_rule(points: int, lo: float, hi: float, breaks=(), right_exp=0.0, left_exp=0.0):
    """Nodes t and weights w, sum w g(t) ~ int_lo^hi (hi-t)^right_exp (t-lo)^left_exp g(t) dt.

    Without a break strictly inside (lo, hi) this is one panel of ``points``
    points; otherwise the breaks cut it into panels of points // 2 each. A
    panel absorbs a factor singular at its own end into Gauss-Jacobi
    weights, and any other factor multiplies its weights.
    """
    cuts = [b for b in breaks if lo < b < hi]
    if cuts:
        points //= 2
    edges = [lo, *cuts, hi]
    nodes, weights = [], []
    for a, b in zip(edges, edges[1:]):
        right = right_exp if b == hi else 0.0
        left = left_exp if a == lo else 0.0
        t, w = jacobi_panel(points, right, left, a, b) if right or left else legendre_panel(points, a, b)
        nodes.append(t)
        weights.append(w * (hi - t) ** (right_exp - right) * (t - lo) ** (left_exp - left))
    return np.concatenate(nodes), np.concatenate(weights)


def _element_sums(nodes: np.ndarray, points: int, weighted, breaks=()) -> np.ndarray:
    """Per-element Gauss sums of the integrands that ``weighted(x, wq, n_r)``
    stacks, with the weights wq multiplied in (rows of x are elements).

    An element with a break strictly inside takes _cut_rule instead, so a
    jump or kink of the integrand there costs no accuracy.
    """
    x, wq, n_r = _element_gauss(nodes, points)
    sums = np.sum(weighted(x, wq, n_r), axis=-1)
    # elements k with a break b strictly inside, nodes[k] < b < nodes[k + 1]
    for k in {int(np.searchsorted(nodes, b)) - 1 for b in breaks if b not in nodes}:
        t, w = _cut_rule(points, nodes[k], nodes[k + 1], breaks)
        sums[..., k] = np.sum(weighted(t, w, (t - nodes[k]) / (nodes[k + 1] - nodes[k])), axis=-1)
    return sums


def mass_bands(mesh: Mesh, q: ScalarField):
    """Symmetric tridiagonal (q phi_j, phi_i) as (diagonal, off-diagonal);
    elements are cut at the anchors of q."""
    n = mesh.m - 1
    if q.is_zero:
        return np.zeros(n), np.zeros(max(n - 1, 0))

    def weighted(x, wq, n_r):
        wqv, n_l = wq * q(x), 1.0 - n_r
        return np.stack([wqv * n_l * n_l, wqv * n_l * n_r, wqv * n_r * n_r])

    ll, lr, rr = _element_sums(mesh.nodes, _MASS_POINTS, weighted, _anchors(q))
    diag = rr[:n] + ll[1:]
    off = lr[1:n]
    return diag, off


def powersum_load(mesh: Mesh, ps: PowerSum) -> np.ndarray:
    """Exact load vector (ps, phi_i) for a left-anchored power sum."""
    if not ps.is_left:
        raise UnsupportedFormError("closed-form loads need left-anchored terms")
    nodes = mesh.nodes
    n = mesh.m - 1
    out = np.zeros(n)
    legs = (
        # rising leg of hat j on [x_{j-1}, x_j]
        (nodes[0:n], nodes[1 : n + 1], 1.0 / mesh.widths[:n], -nodes[0:n] / mesh.widths[:n]),
        # falling leg of hat j on [x_j, x_{j+1}]
        (
            nodes[1 : n + 1],
            nodes[2 : n + 2],
            -1.0 / mesh.widths[1:],
            nodes[2 : n + 2] / mesh.widths[1:],
        ),
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


def quadrature_load(mesh: Mesh, field: ScalarField, breaks=()) -> np.ndarray:
    """Load vector by per-element Gauss rules, elements cut at ``breaks``;
    the first element uses a Gauss-Jacobi rule absorbing the declared
    singularity hint."""
    n = mesh.m - 1

    def weighted(x, wq, n_r):
        wfv = wq * field(x)
        return np.stack([wfv * n_r, wfv * (1.0 - n_r)])

    rising, falling = _element_sums(mesh.nodes, _LOAD_POINTS, weighted, breaks)
    if field.hint is not None:
        x1 = mesh.nodes[1]
        t, jw = _cut_rule(2 * _LOAD_POINTS, 0.0, x1, breaks, left_exp=field.hint)
        smooth = field(t) * t ** (-field.hint)
        rising[0] = float(np.dot(jw, smooth * (t / x1)))
    out = rising[:n] + falling[1:]
    return out


def load_vector(mesh: Mesh, field: ScalarField, breaks=()) -> np.ndarray:
    """Load vector (field, phi_i), exact when the field has a power-sum form;
    otherwise by quadrature, with elements cut at ``breaks``, the points in
    (0, 1) where the field jumps or kinks."""
    if field.is_zero:
        return np.zeros(mesh.m - 1)
    if field.powersum is not None and field.powersum.is_left:
        return powersum_load(mesh, field.powersum)
    return quadrature_load(mesh, field, breaks)


def endpoint_weight_vector(mesh: Mesh, q: ScalarField, alpha) -> np.ndarray:
    """Vector s with s_j = (I_0^alpha q phi_j)(1).

    This is the same endpoint-weighted functional that defines the splitting
    constant, evaluated on the basis; the element touching t = 1 absorbs the
    (1 - t)^(alpha - 1) weight into a Gauss-Jacobi rule. Elements are cut at
    the anchors of q.
    """
    a = float(FracOrder(float(alpha)).alpha)
    n = mesh.m - 1
    if q.is_zero:
        return np.zeros(n)

    def weighted(x, wq, n_r):
        wqv = wq * (1.0 - x) ** (a - 1.0) * q(x)
        return np.stack([wqv * n_r, wqv * (1.0 - n_r)])

    anchors = _anchors(q)
    rising, falling = _element_sums(mesh.nodes, _ENDPOINT_POINTS, weighted, anchors)
    # redo the last element with the weight absorbed exactly
    left = mesh.nodes[-2]
    t, jw = _cut_rule(2 * _ENDPOINT_POINTS, left, 1.0, anchors, right_exp=a - 1.0)
    width_last = 1.0 - left
    falling_last = float(np.dot(jw, q(t) * (1.0 - t) / width_last))
    out = rising[:n] + np.concatenate((falling[1:-1], [falling_last]))
    return out / gamma_fn(a)


@dataclass(frozen=True)
class SingularPair:
    """Splitting data u = u_r + mu * u_s for the reconstruction method.

    q_profile is Q(x) = c0 c1(x) - c0 q(x) u_s(x); f_tilde(x) = f(x) +
    (I^alpha f)(1) Q(x) is the modified source seen by the regular part.
    """

    u_s: PowerSum
    c0: float
    c1: PowerSum
    q_profile: ScalarField
    f_tilde: ScalarField
    f_frac_at_one: float
    singular_exponent: float


def build_singular_pair(spec: ProblemSpec) -> SingularPair:
    """Construct the singular profile, splitting constant, and modified source.

    Raises DegenerateSplittingError when 1 + (I^alpha q u_s)(1) vanishes
    numerically; no alternative profile is selected automatically.
    """
    a = spec.alpha
    p_sing = spec.singular_exponent
    u_s = PowerSum.from_terms([(1.0, 0.0, p_sing), (-1.0, 0.0, 2.0)])
    c1 = PowerSum.monomial(-2.0 / gamma_fn(3.0 - a), 2.0 - a)

    q_fn = spec.q.fn
    u_s_fn = u_s.__call__
    q_ps = spec.q.powersum
    q_lead = spec.q.hint or 0.0
    q_us = None
    if q_ps is not None and q_ps.is_zero_anchored:  # q = 0 included
        q_us = q_ps.multiply_zero_anchored(u_s)
        q_us_at_one = float(rl_integral_powersum_at(a, q_us, 1.0))
    else:
        # one u_s term at a time: q t^e is smooth between q's anchors once
        # t^(q_lead + e) is taken out, which q u_s as a whole is not
        anchors = _anchors(spec.q)
        q_us_at_one = sum(
            t.coeff
            * weighted_endpoint_integral(
                lambda x, e=t.exponent: q_fn(x) * x**e, a, q_lead + t.exponent, anchors
            )
            for t in u_s.terms
        )
    denom = 1.0 + q_us_at_one
    if abs(denom) < DEGENERATE_TOL:
        raise DegenerateSplittingError(
            "splitting constant is undefined for this potential", denom
        )
    c0 = 1.0 / denom

    f_ps = spec.f.powersum
    if f_ps is not None and f_ps.is_left:
        f_at_one = float(rl_integral_powersum_at(a, f_ps, 1.0))
    else:
        f_at_one = weighted_endpoint_integral(spec.f.fn, a, spec.f.hint or 0.0)

    c1_fn = c1.__call__

    def q_profile_fn(x):
        x = np.asarray(x, dtype=float)
        return c0 * c1_fn(x) - c0 * q_fn(x) * u_s_fn(x)

    q_profile_ps = None
    if q_us is not None:
        q_profile_ps = c1.scaled(c0) + q_us.scaled(-c0)
    q_hint = min(2.0 - a, q_lead + p_sing)
    q_profile = ScalarField(
        fn=q_profile_fn, hint=q_hint, powersum=q_profile_ps, label="Q"
    )

    f_fn = spec.f.fn

    def f_tilde_fn(x):
        x = np.asarray(x, dtype=float)
        return f_fn(x) + f_at_one * q_profile_fn(x)

    f_tilde_ps = None
    if q_profile_ps is not None and f_ps is not None and f_ps.is_left:
        f_tilde_ps = f_ps + q_profile_ps.scaled(f_at_one)
    f_hint = min(spec.f.hint if spec.f.hint is not None else 0.0, q_hint)
    f_tilde = ScalarField(fn=f_tilde_fn, hint=f_hint, powersum=f_tilde_ps, label="f~")

    return SingularPair(u_s, c0, c1, q_profile, f_tilde, f_at_one, p_sing)


def _toeplitz_spectrum(stencil: np.ndarray) -> np.ndarray:
    """rfft of the reversed stencil in the power-of-two circulant embedding."""
    return np.fft.rfft(stencil[::-1], 1 << stencil.size.bit_length())


def _embedded_matvec(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Toeplitz product from the embedding spectrum: one rfft and one irfft."""
    n, length = x.size, 2 * (spectrum.size - 1)
    conv = np.fft.irfft(spectrum * np.fft.rfft(x, length), length)
    return conv[n - 1 : 2 * n - 1]


def toeplitz_matvec(stencil: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply the Toeplitz matrix A[i, j] = stencil[j - i + n - 1] by x.

    The product is a linear convolution, evaluated by circulant embedding in
    a power-of-two FFT length.
    """
    stencil = np.asarray(stencil, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    if stencil.size != 2 * n - 1:
        raise ArgumentError(
            f"stencil length {stencil.size} does not match vector size {n}"
        )
    return _embedded_matvec(_toeplitz_spectrum(stencil), x)


@dataclass(frozen=True)
class Lead:
    """Leading block in exactly one format: the Toeplitz ``stencil``
    (A[i, j] = stencil[j - i + n - 1]) on uniform meshes, or the ``dense``
    block on graded ones."""

    stencil: np.ndarray | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if (self.stencil is None) == (self.dense is None):
            raise ArgumentError("a lead block holds exactly one of stencil and dense")

    @classmethod
    def of(cls, mesh: Mesh, alpha) -> Lead:
        """The stencil on a uniform mesh, the dense block on a graded one."""
        if mesh.is_uniform:
            return cls(stencil=lead_stencil(mesh, alpha))
        return cls(dense=assemble_lead(mesh, alpha))

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Embedding spectrum of the stencil, built on the first matvec."""
        return _toeplitz_spectrum(self.stencil)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x; on a stencil the same bits as ``toeplitz_matvec``."""
        if self.stencil is not None:
            return _embedded_matvec(self._spectrum, x)
        return self.dense @ x

    def diagonal(self) -> np.ndarray:
        if self.stencil is not None:
            return np.full((self.stencil.size + 1) // 2, self.stencil[self.stencil.size // 2])
        return self.dense.diagonal().copy()

    def row(self, i: int) -> np.ndarray:
        """A fresh copy of row ``i``."""
        if self.stencil is not None:
            n = (self.stencil.size + 1) // 2
            return self.stencil[n - 1 - i : 2 * n - 1 - i].copy()
        return self.dense[i].copy()

    def abs_row_sum(self) -> float:
        """Upper bound on the row sums of |A|: the stencil's absolute sum
        covers every row; a dense block gives its largest row sum."""
        if self.stencil is not None:
            return float(np.sum(np.abs(self.stencil)))
        return float(np.max(np.sum(np.abs(self.dense), axis=1)))


@dataclass(frozen=True)
class AssembledSystem:
    """Discrete system for one mesh: leading block, potential mass, load,
    and for the reconstruction method the rank-one coupling r s^T."""

    mesh: Mesh
    alpha: float
    method: str
    bc: str
    lead: Lead
    mass_diag: np.ndarray
    mass_off: np.ndarray
    load: np.ndarray
    r_vec: np.ndarray | None
    s_vec: np.ndarray | None
    pair: SingularPair | None

    @property
    def n(self) -> int:
        return self.load.size

    def mass_matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.mass_diag * x
        if self.n > 1:
            y[:-1] += self.mass_off * x[1:]
            y[1:] += self.mass_off * x[:-1]
        return y


def assemble_system(spec: ProblemSpec, mesh: Mesh, method: str) -> AssembledSystem:
    """Assemble the discrete system for the standard or reconstruction method."""
    if method not in ("standard", "reconstruction"):
        raise ArgumentError(f"method must be 'standard' or 'reconstruction', got {method!r}")
    if method == "standard" and spec.bc == MIXED:
        raise ArgumentError(
            "the standard method needs Dirichlet conditions; "
            "use the reconstruction method for the mixed problem"
        )
    lead = Lead.of(mesh, spec.alpha)
    diag, off = mass_bands(mesh, spec.q)
    if method == "standard":
        load = load_vector(mesh, spec.f)
        return AssembledSystem(
            mesh, spec.alpha, method, spec.bc, lead, diag, off, load, None, None, None
        )
    pair = spec.singular_pair
    r_vec = load_vector(mesh, pair.q_profile, _anchors(spec.q))  # Q jumps where q does
    s_vec = endpoint_weight_vector(mesh, spec.q, spec.alpha)
    load = load_vector(mesh, spec.f) + pair.f_frac_at_one * r_vec
    return AssembledSystem(
        mesh, spec.alpha, method, spec.bc, lead, diag, off, load, r_vec, s_vec, pair
    )
