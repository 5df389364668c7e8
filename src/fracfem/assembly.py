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
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArgumentError, DegenerateSplittingError, DomainError
from .fields import ScalarField
from .fraccalc import (
    PowerSum,
    beta_fn,
    frac_order,
    gamma_fn,
    legendre_panel,
    rl_integral_powersum_at,
    weighted_endpoint_integral,
    weighted_rule,
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
# Terms of lead_stencil's moment series: each is at most 4/D^2 of the one
# before. Offsets D >= 3 take 50, as (4/9)^50 / (1 - 4/9) < 2^-56; offsets
# D > _BAND_D take 11, as (4/441)^11 < 2^-74, far enough below an ulp that
# the short sum rounds like the full one (with D > 11 it did not always).
_SERIES_TERMS, _SHORT_TERMS, _BAND_D = 50, 11, 20
# A graded lead table keeps its nodes j^delta below 2^_TABLE_LOG2, so its
# powers, of exponents in (-3, 2), stay normal floats; steeper gradings take
# the direct block.
_TABLE_LOG2 = 256


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
        frac_order(self.alpha)
        if self.bc not in (DIRICHLET, MIXED):
            raise ArgumentError(f"bc must be 'dirichlet' or 'mixed', got {self.bc!r}")
        if self.bc == MIXED and self.alpha <= 1.5:
            raise DomainError(
                f"mixed boundary conditions need alpha in (3/2, 2), got {self.alpha}"
            )
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

    @cached_property
    def _lead_tables(self) -> dict:
        """Graded lead tables of this problem by grading exponent, filled by
        ``lead`` and kept for the life of the spec."""
        return {}

    def lead(self, mesh: Mesh) -> Lead:
        """Leading block on ``mesh``. A build_mesh(m, delta) grading is
        self-similar, x_j = m^-delta y_j with y_j = j^delta, and the block is
        homogeneous of degree 1 - alpha in the nodes, so it is
        m^(delta (alpha - 1)) times the leading block of one table on the
        nodes y, grown by rows when a finer mesh asks for more. Other meshes
        take ``Lead.of``."""
        delta = mesh.delta
        if delta is None or mesh.is_uniform or delta * np.log2(mesh.m + 1.0) > _TABLE_LOG2:
            return Lead.of(mesh, self.alpha)
        n = mesh.m - 1
        table = self._lead_tables.get(delta)
        if table is None or table.shape[0] < n:
            table = self._lead_tables[delta] = _grown_table(table, delta, self.alpha, n)
        return Lead(dense=float(mesh.m) ** (delta * (self.alpha - 1.0)) * table[:n, :n])


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


def _power_drop(u: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """u_+^p - (u - h)_+^p for widths h > 0; where u > h, as
    -u^p expm1(p log1p(-h/u)), so that nothing cancels when h << u."""
    apart = u > h
    v = np.where(apart, u, 2.0 * h)  # keeps log1p's argument above -1
    return np.where(apart, -(v**p) * np.expm1(p * np.log1p(-h / v)), np.maximum(u, 0.0) ** p)


def assemble_lead(mesh: Mesh, alpha) -> np.ndarray:
    """Dense leading block A[i, j] = -(D_0^s phi_j, D_1^s phi_i), s = alpha/2.

    The band i - j in {-1, 0, 1, 2} takes the closed form element pair by
    element pair: over element e of hat i and f of hat j, the product of
    their slopes times the double difference of t_+^p across the pair,

        sum_{e, f} phi_i'|_e phi_j'|_f  Delta_e Delta_f (z - y)_+^p,

    whose inner difference over f is _power_drop, free of cancellation when
    f is narrow. For i - j >= 3 the supports are apart, and integrating the
    closed form by parts twice on each side gives the Peano form, whose
    kernel has one sign:

        -B/Gamma^2 * p(p-1)(p-2)(p-3) int int phi_i(z) phi_j(y) (z-y)^(p-4),

    p = 3 - 2s, summed from element-pair moments as A[i, j] = M_RR[i, j] +
    M_RL[i, j+1] + M_LR[i+1, j] + M_LL[i+1, j+1]. A[i, j] = 0 for j >= i + 2.
    """
    n = mesh.m - 1
    return _lead_rows(mesh.nodes, alpha, np.zeros((n, n)))


def _lead_rows(x: np.ndarray, alpha, out: np.ndarray, r0: int = 0) -> np.ndarray:
    """Writes rows r0 <= i < r0 + len(out) of the leading block on the nodes
    x, columns 0..x.size - 3 (every hat of x), into ``out``, which holds
    zeros, and returns it. An entry takes the same arithmetic whatever the
    row range, so a block built in row ranges equals one built at once, bit
    for bit."""
    a = frac_order(alpha)
    s = 0.5 * a
    p = 3.0 - 2.0 * s
    h, n, r1 = np.diff(x), x.size - 2, r0 + out.shape[0]
    scale = beta_fn(2.0 - s, 2.0 - s) / gamma_fn(2.0 - s) ** 2
    for off in (-1, 0, 1, 2):
        i = np.arange(max(off, r0), min(r1, n + min(off, 0)))
        # pairs (e, f) = (0, 0), (0, 1), (1, 0), (1, 1) of the elements of
        # hats i and j = i - off; hat i rises on element i, falls on i + 1
        e, f = i[:, None] + (0, 0, 1, 1), i[:, None] - off + (0, 1, 0, 1)
        hf = h[f]
        drop = _power_drop(x[e] - x[f], hf, p) - _power_drop(x[e + 1] - x[f], hf, p)
        drop /= h[e] * hf
        out[i - r0, i - off] = -scale * (drop[:, 0] - drop[:, 1] - drop[:, 2] + drop[:, 3])
    scale *= -p * (p - 1.0) * (p - 2.0) * (p - 3.0)
    m = n + 1
    block = max(1, _FAR_PAIRS // m)
    for a0 in range(max(3, r0), min(r1 + 1, m), block):
        rows = np.arange(a0, min(a0 + block, r1 + 1, m))
        cols = np.arange(rows[-1] - 1)
        gap = x[rows, None] - x[None, cols + 1]
        gap[gap <= 0.0] = np.inf  # touching or overlapping pairs: no far field
        mom = _far_moments(
            gap.ravel(), np.repeat(h[rows], cols.size), np.tile(h[cols], rows.size), p - 4.0
        ).reshape(2, 2, rows.size, cols.size)
        rising = scale * (mom[1, 1, :, :-1] + mom[1, 0, :, 1:])  # hat a on element a
        falling = scale * (mom[0, 1, :, :-1] + mom[0, 0, :, 1:])  # hat a - 1
        # element a feeds rows a and a - 1; keep those in r0..r1 - 1
        skip = int(a0 == r0)
        out[a0 - r0 : rows[-1] + 1 - r0, : cols.size - 1] += np.tril(rising, a0 - 3)[: r1 - a0]
        out[a0 - 1 - r0 + skip : rows[-1] - r0, : cols.size - 1] += np.tril(falling, a0 - 4)[skip:]
    return out


def _grown_table(table: np.ndarray | None, delta: float, alpha, n: int) -> np.ndarray:
    """Rows 0..n-1 of the leading block on the unscaled graded nodes
    y_j = j^delta, with n + 1 columns so that row n - 1 keeps its
    superdiagonal entry. The rows of ``table`` are copied and only the new
    ones computed, so the table does not depend on how it was grown."""
    done = 0 if table is None else table.shape[0]
    out = np.zeros((n, n + 1))
    if done:
        out[:done, : done + 1] = table
    _lead_rows(np.arange(n + 3.0) ** delta, alpha, out[done:], done)
    return out


def _far_series(p: float, dist: np.ndarray, coeffs) -> np.ndarray:
    """p(p-1)(p-2)(p-3) D^(p-4) sum_j coeffs[j] D^(-2j) at the offsets D = dist,
    by Horner in place: the same roundings as polynomial.polyval."""
    x2 = dist**-2.0
    series = np.full_like(x2, coeffs[-1])
    for c in coeffs[-2::-1]:
        series *= x2
        series += c
    return p * (p - 1.0) * (p - 2.0) * (p - 3.0) * dist ** (p - 4.0) * series


@lru_cache(maxsize=64)
def _stencil_band(p: float):
    """lead_stencil's p-only part, read-only: unscaled values at offsets
    d = -_BAND_D..2, and the short series' coefficients for D > _BAND_D."""
    d = np.arange(-_BAND_D, 3.0)
    band = np.zeros_like(d)
    near = d >= -2.0
    for e, v in zip(range(-2, 3), (1.0, -4.0, 6.0, -4.0, 1.0)):
        band[near] += v * np.maximum(e - d[near], 0.0) ** p
    e = p - 4.0
    k = 2.0 * np.arange(_SERIES_TERMS)
    moments = 2.0 * (2.0 ** (k + 4.0) - 4.0) / ((k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0))
    k = k[:-1]
    # C(e, 2j) from C(e, 2j - 2) by the ratio of neighbours
    binom = np.cumprod(np.append(1.0, (e - k) * (e - k - 1.0) / ((k + 1.0) * (k + 2.0))))
    coeffs = tuple((binom * moments).tolist())
    band[~near] = _far_series(p, -d[~near], coeffs)
    band.setflags(write=False)
    return band, coeffs[:_SHORT_TERMS]


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
    and at most 4/D^2 of the one before, so nothing cancels. Offsets up to
    D = _BAND_D come from _stencil_band, cached on p, which sums
    _SERIES_TERMS terms; farther ones sum _SHORT_TERMS, with the same bits.
    """
    if not mesh.is_uniform:
        raise ArgumentError("the leading block is Toeplitz on uniform meshes only")
    a = frac_order(alpha)
    s = 0.5 * a
    p = 3.0 - 2.0 * s
    n = mesh.m - 1
    band, short = _stencil_band(p)
    acc = np.zeros(2 * n - 1)  # offset d at d + n - 1
    lo, hi = min(n - 1, _BAND_D), min(n - 1, 2)
    acc[n - 1 - lo : n + hi] = band[_BAND_D - lo : _BAND_D + 1 + hi]
    if n - 1 > _BAND_D:
        acc[: n - 1 - _BAND_D] = _far_series(p, np.arange(n - 1.0, _BAND_D, -1.0), short)
    scale = beta_fn(2.0 - s, 2.0 - s) * (1.0 / mesh.m) ** (1.0 - 2.0 * s) / gamma_fn(2.0 - s) ** 2
    return -scale * acc


def _anchors(field: ScalarField) -> tuple:
    """Points in (0, 1) where the field's power-sum terms start or stop, so
    where it may jump or kink; none for a field without a power sum."""
    if field.powersum is None:
        return ()
    return tuple(sorted({t.anchor for t in field.powersum.terms if 0.0 < t.anchor < 1.0}))


def _element_sums(nodes: np.ndarray, points: int, weighted, breaks=(), left_exp=0.0, right_exp=0.0):
    """Per-element Gauss sums of the integrands that ``weighted(x, wq, n_r)``
    stacks, with the weights wq multiplied in (rows of x are elements) and
    n_r = (x - x_lo) / h the rising hat.

    weighted_rule redoes an element with a break strictly inside, so a jump
    or kink there costs no accuracy; also the first element if the integrand
    behaves like (x - x_0)^left_exp, and the last if like (x_m - x)^right_exp,
    with twice the points and the power absorbed into the weights, then
    divided back out of them, since the integrand carries it.
    """
    lo, hi = nodes[:-1, None], nodes[1:, None]
    x, wq = legendre_panel(points, lo, hi)
    sums = weighted(x, wq, (x - lo) / (hi - lo)).sum(axis=-1)
    last = nodes.size - 2
    # elements k with a break b strictly inside, nodes[k] < b < nodes[k + 1]
    redo = {int(np.searchsorted(nodes, b)) - 1 for b in breaks if b not in nodes}
    redo.update(k for k, e in ((0, left_exp), (last, right_exp)) if e)
    for k in redo:
        left = left_exp if k == 0 else 0.0
        right = right_exp if k == last else 0.0
        lo, hi = nodes[k], nodes[k + 1]
        t, w = weighted_rule(points * 2 if left or right else points, lo, hi, right, left, breaks)
        if left:
            w /= (t - lo) ** left
        if right:
            w /= (hi - t) ** right
        sums[..., k] = weighted(t, w, (t - lo) / (hi - lo)).sum(axis=-1)
    return sums


def mass_bands(mesh: Mesh, q: ScalarField):
    """Symmetric tridiagonal (q phi_j, phi_i) as (diagonal, off-diagonal);
    elements are cut at the anchors of q."""
    n = mesh.m - 1
    if q.is_zero:
        return np.zeros(n), np.zeros(max(n - 1, 0))

    def weighted(x, wq, n_r):
        wqv, n_l = wq * q(x), 1.0 - n_r
        left = wqv * n_l
        return np.array([left * n_l, left * n_r, wqv * n_r * n_r])

    ll, lr, rr = _element_sums(mesh.nodes, _MASS_POINTS, weighted, _anchors(q))
    return rr[:n] + ll[1:], lr[1:n]


def powersum_load(mesh: Mesh, ps: PowerSum) -> np.ndarray:
    """Exact load vector (ps, phi_i) for a power sum. Row 0 of the stacks is
    hat j's rising leg on [x_{j-1}, x_j], row 1 its falling leg on
    [x_j, x_{j+1}]; one pass per term serves both, summed leg by leg."""
    x, n = mesh.nodes, mesh.m - 1
    xl, xr = np.stack([x[:n], x[1:-1]]), np.stack([x[1:-1], x[2:]])
    widths = xr - xl
    B = np.array([[1.0], [-1.0]]) / widths
    A = np.stack([-x[:n], x[2:]]) / widths
    legs = []
    for t in ps.terms:
        hi = xr - t.anchor
        active = hi > 0.0
        lo = np.maximum(np.maximum(t.anchor, xl) - t.anchor, 0.0)
        hi = np.maximum(hi, 0.0)
        j1 = (hi ** (t.exponent + 1.0) - lo ** (t.exponent + 1.0)) / (t.exponent + 1.0)
        j2 = (hi ** (t.exponent + 2.0) - lo ** (t.exponent + 2.0)) / (t.exponent + 2.0)
        legs.append(np.where(active, t.coeff * ((A + B * t.anchor) * j1 + B * j2), 0.0))
    out = np.zeros(n)
    for leg in (0, 1):
        for rows in legs:
            out += rows[leg]
    return out


def quadrature_load(mesh: Mesh, fn, points: int, breaks=(), left_exp=0.0, right_exp=0.0) -> np.ndarray:
    """Load vector (fn, phi_i) by per-element Gauss rules of ``points``
    points, elements cut at ``breaks``; fn behaves like x^left_exp at 0 and
    (1 - x)^right_exp at 1, powers the end elements absorb."""

    def weighted(x, wq, n_r):
        wfv = wq * fn(x)
        return np.array([wfv * n_r, wfv * (1.0 - n_r)])

    rising, falling = _element_sums(mesh.nodes, points, weighted, breaks, left_exp, right_exp)
    return rising[:-1] + falling[1:]


def load_vector(mesh: Mesh, field: ScalarField, breaks=()) -> np.ndarray:
    """Load vector (field, phi_i), exact when the field has a power-sum form;
    otherwise by quadrature, with elements cut at ``breaks``, the points in
    (0, 1) where the field jumps or kinks, and the first element absorbing
    the field's singularity hint."""
    if field.is_zero:
        return np.zeros(mesh.m - 1)
    if field.powersum is not None:
        return powersum_load(mesh, field.powersum)
    return quadrature_load(mesh, field, _LOAD_POINTS, breaks, left_exp=field.hint or 0.0)


def endpoint_weight_vector(mesh: Mesh, q: ScalarField, alpha) -> np.ndarray:
    """Vector s with s_j = (I_0^alpha q phi_j)(1).

    This is the same endpoint-weighted functional that defines the splitting
    constant, evaluated on the basis: the load of (1 - x)^(alpha - 1) q, whose
    last element absorbs the weight into a Gauss-Jacobi rule. Elements are
    cut at the anchors of q.
    """
    a = frac_order(alpha)
    if q.is_zero:
        return np.zeros(mesh.m - 1)
    load = quadrature_load(
        mesh, lambda x: (1.0 - x) ** (a - 1.0) * q(x), _ENDPOINT_POINTS, _anchors(q), right_exp=a - 1.0
    )
    return load / gamma_fn(a)


@dataclass(frozen=True)
class SingularPair:
    """Splitting data u = u_r + mu * u_s for the reconstruction method.

    q_profile is Q(x) = c0 c1(x) - c0 q(x) u_s(x); the regular part sees the
    modified source f(x) + (I^alpha f)(1) Q(x).
    """

    u_s: PowerSum
    c0: float
    c1: PowerSum
    q_profile: ScalarField
    f_frac_at_one: float


def build_singular_pair(spec: ProblemSpec) -> SingularPair:
    """Construct the singular profile, the splitting constant, Q and (I^alpha f)(1).

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
    if f_ps is not None:
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
    q_profile = ScalarField(fn=q_profile_fn, hint=q_hint, powersum=q_profile_ps, label="Q")
    return SingularPair(u_s, c0, c1, q_profile, f_at_one)


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
        """rfft of the reversed stencil in the power-of-two circulant
        embedding, built on the first matvec."""
        return np.fft.rfft(self.stencil[::-1], 1 << self.stencil.size.bit_length())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x; on a stencil a linear convolution by the circulant embedding,
        one rfft and one irfft."""
        if self.stencil is not None:
            n, length = x.size, 2 * (self._spectrum.size - 1)
            conv = np.fft.irfft(self._spectrum * np.fft.rfft(x, length), length)
            return conv[n - 1 : 2 * n - 1]
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
            return float(np.abs(self.stencil).sum())
        return float(np.abs(self.dense).sum(axis=1).max())


@dataclass(frozen=True)
class AssembledSystem:
    """Discrete system for one mesh: leading block, potential mass, load and,
    for the reconstruction method only, the coupling r s^T and its pair."""

    mesh: Mesh
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
    lead = spec.lead(mesh)
    diag, off = mass_bands(mesh, spec.q)
    if method == "standard":
        load = load_vector(mesh, spec.f)
        return AssembledSystem(mesh, lead, diag, off, load, None, None, None)
    pair = spec.singular_pair
    r_vec = load_vector(mesh, pair.q_profile, _anchors(spec.q))  # Q jumps where q does
    s_vec = endpoint_weight_vector(mesh, spec.q, spec.alpha)
    load = load_vector(mesh, spec.f) + pair.f_frac_at_one * r_vec
    return AssembledSystem(mesh, lead, diag, off, load, r_vec, s_vec, pair)
