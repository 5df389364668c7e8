"""Assembly of the stiffness, mass, and reconstruction coupling terms.

The leading block uses the closed form

    -(D_0^s phi_j, D_1^s phi_i) =
        -B(2-s, 2-s) * sum_{a_k < b_l} c_k d_l (b_l - a_k)^(3-2s)

obtained by integrating pairs of one-sided power functions, with s = alpha/2.
On uniform meshes the block is Toeplitz and is kept as its stencil; a system
holds its block as one ``Lead`` in either format. On other meshes the far
field, hats two or more elements apart, is a one-signed Peano kernel: across
dyadic column blocks well separated from a row element it is interpolated at
Chebyshev points, a low-rank product, and the hats near the element take
Gauss rules pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArgumentError, DegenerateSplittingError, DomainError, UnsupportedFormError
from .fraccalc import (
    PowerSum,
    anchored_moment,
    beta_fn,
    frac_order,
    gamma_fn,
    legendre_panel,
    rl_integral_powersum_at,
)
from .mesh import Mesh

DIRICHLET = "dirichlet"
MIXED = "mixed"

DEGENERATE_TOL = 1e-8

# _hat_moments: a piece no wider than _SERIES_R times its distance from the
# anchor takes the series; about _PIECES (term, element) pairs at a time, so
# a table of powers holds some 10 MiB at most
_SERIES_R, _PIECES = 0.125, 1 << 16

# Far field of assemble_lead: (Gauss points per side, largest separation ratio
# eta = max(h_a, h_b) / gap served), each limit being the largest eta at which
# the tensor rule holds every element-pair moment to 1e-13 of itself for any
# alpha in (1, 2) and width ratio, measured against a 60-point rule.
_FAR_RULES = ((4, 0.032), (6, 0.19), (8, 0.49), (12, 1.39), (16, 2.66), (24, 6.26))
# (row element, column) pairs per far-field row block; each temporary of a
# block holds at most half as many floats, 1 MiB
_FAR_PAIRS = 1 << 18
# Low-rank far field: a dyadic block of column hats serves a row element when
# its span is at most _CHEB_ETA times its distance to the element, and the
# kernel is interpolated across it at _CHEB_K Chebyshev points. With 22 points
# at eta = 1, every far entry of build_mesh(256, delta), delta in {1.1, 2, 5,
# 12}, and of 200 random nodes stayed within 6.5e-14 relative of the
# _FAR_TENSORS tiers for alpha in {1.001, 1.05, 1.5, 1.95, 1.999}; 20 points
# at eta = 1 gave 3.2e-13, 18 at eta = 0.75 1.7e-13, and none was faster.
# Blocks have 2^_CHEB_LEVEL hats or more, and levels of up to _GATHER_SIZE
# hats take one product for all their blocks, larger ones one per block: of
# the levels 1-4 and sizes 8-128 tried, 8 and 32 grew the tables of a
# delta = 5 study (m = 512, three alphas) fastest, 54 against 62 ms for 4
# and 16.
_CHEB_K, _CHEB_ETA, _CHEB_LEVEL, _GATHER_SIZE = 22, 1.0, 3, 32
_CHEB_TAU = 0.5 - 0.5 * np.cos((np.arange(_CHEB_K) + 0.5) * np.pi / _CHEB_K)
_CHEB_LAMBDA = (-1.0) ** np.arange(_CHEB_K) * np.sin((np.arange(_CHEB_K) + 0.5) * np.pi / _CHEB_K)
# Gauss rule on a column element, exact for N_Y L_t, of degree _CHEB_K, with
# the weights of the rising and the falling hat shape
_HAT_POINTS = legendre_panel(_CHEB_K // 2 + 1, 0.0, 1.0)[0]
_HAT_WEIGHTS = legendre_panel(_CHEB_K // 2 + 1, 0.0, 1.0)[1] * np.stack([_HAT_POINTS, 1.0 - _HAT_POINTS])
_HAT_CHUNK = 64  # hats per pass of _block_factors, about 130 KiB of Lagrange values
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
    D_0^(alpha-1) u(0) = u(1) = 0 and needs alpha > 3/2. Both fields are
    power sums (``check_fields``).
    """

    alpha: float
    q: PowerSum
    f: PowerSum
    bc: str = DIRICHLET

    def __post_init__(self):
        frac_order(self.alpha)
        if self.bc not in (DIRICHLET, MIXED):
            raise ArgumentError(f"bc must be 'dirichlet' or 'mixed', got {self.bc!r}")
        if self.bc == MIXED and self.alpha <= 1.5:
            raise DomainError(
                f"mixed boundary conditions need alpha in (3/2, 2), got {self.alpha}"
            )
        self.check_fields(self.q, self.f)

    @staticmethod
    def check_fields(q: PowerSum, f: PowerSum) -> None:
        """Refuse a field that is not a power sum, and a potential with a
        term of negative exponent, a non-integer power anchored inside
        (0, 1) or a sampled size over 1e8."""
        for name, field in (("q", q), ("f", f)):
            if not isinstance(field, PowerSum):
                raise UnsupportedFormError(f"field {name} must be a PowerSum, got {type(field).__name__}")
        for t in q.terms:
            if t.exponent < 0.0 and t.coeff:
                raise DomainError(f"potential q must be bounded on [0, 1], but has a term x^{t.exponent:g}")
            if 0.0 < t.anchor < 1.0 and not float(t.exponent).is_integer():
                raise UnsupportedFormError(f"potential q has a term (x - {t.anchor:g})_+^{t.exponent:g}: "
                                           "fractional powers must be anchored at x = 0")
        sample = q(np.linspace(1e-3, 1.0 - 1e-3, 1000))
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
        ``lead`` (the block left for the next coarser level) and kept for
        the life of the spec."""
        return {}

    @cached_property
    def _far_plans(self) -> dict:
        """Alpha-free far-field plans and column factors by grading exponent
        (see _lead_rows); ``with_alpha`` shares them."""
        return {}

    @cached_property
    def _level_terms(self) -> dict:
        """Read-only mass bands and source load of each mesh asked for, by
        mesh; ``with_alpha`` shares them."""
        return {}

    @cached_property
    def _moment_plans(self) -> dict:
        """_hat_moments plans of the load of Q and the endpoint vector by mesh; ``with_alpha`` shares them."""
        return {}

    def with_alpha(self, alpha: float) -> ProblemSpec:
        """This problem at another alpha, sharing the far-field plans, level terms
        and moment plans; its singular pair and lead tables are its own."""
        spec = replace(self, alpha=alpha)
        for name in ("_far_plans", "_level_terms", "_moment_plans"):
            vars(spec)[name] = getattr(self, name)
        return spec

    def level_terms(self, mesh: Mesh) -> tuple:
        """(diagonal, off-diagonal, load): the mass bands of (q phi_j, phi_i)
        and the load (f, phi_i) on ``mesh``, which do not depend on alpha."""
        terms = self._level_terms.get(mesh)
        if terms is None:
            terms = (*mass_bands(mesh, self.q), load_vector(mesh, self.f))
            for array in terms:
                array.setflags(write=False)
            self._level_terms[mesh] = terms
        return terms

    def lead(self, mesh: Mesh) -> Lead:
        """Leading block on ``mesh``. A graded mesh is self-similar,
        x_j = m^-delta y_j with y_j = j^delta, and the block is homogeneous
        of degree 1 - alpha in the nodes, so it is m^(delta (alpha - 1))
        times the leading block of one table on the nodes y. A level of the
        table's size takes the table, scaled in place, and keeps a copy of
        its leading n // 2 block as the next table; a coarser level takes a
        scaled copy of a block, and a finer one rebuilds the table, with the
        same bits. Uniform meshes, and gradings whose table nodes would pass
        2^_TABLE_LOG2, take ``Lead.of``."""
        delta = mesh.delta
        if mesh.is_uniform or delta * np.log2(mesh.m + 1.0) > _TABLE_LOG2:
            return Lead.of(mesh, self.alpha)
        n, scale = mesh.m - 1, float(mesh.m) ** (delta * (self.alpha - 1.0))
        table = self._lead_tables.get(delta)
        if table is not None and table.shape[0] > n:
            return Lead(dense=scale * table[:n, :n])
        if table is None or table.shape[0] < n:
            table = _lead_rows(np.arange(n + 2.0) ** delta, self.alpha, self._far_plans.setdefault(delta, {}))
        self._lead_tables[delta] = table[: n // 2, : n // 2].copy()
        return Lead(dense=np.multiply(table, scale, out=table))


def _graded_edges(g: np.ndarray):
    """Panel edges on [0, 1], one row per ratio g = gap / h, for an element
    of width h whose end 0 lies gap from the other element: each panel is
    at most the top eta limit times its distance. Rows that reach 1 early
    repeat it; also returns each row's panel count."""
    limit = _FAR_RULES[-1][1]
    edges = [np.zeros_like(g)]
    while np.any(edges[-1] < 1.0):
        edges.append(np.minimum(1.0, edges[-1] + limit * (g + edges[-1])))
    edges = np.stack(edges, axis=-1)
    return edges, np.count_nonzero(edges < 1.0, axis=-1)


def _tensor_rule(rule_a, rule_b):
    """Nodes u, v and weights W[(q, r), (X, Y)] = w_q w_r N_X(u_q) N_Y(v_r);
    with rules of one row per pair (trailing axis), W[(q, r), (X, Y), pair]."""
    (u, wu), (v, wv) = rule_a, rule_b
    a = np.moveaxis(wu * np.stack([1 - u, u]), 0, 1)[:, None, :, None]
    b = np.moveaxis(wv * np.stack([v, 1 - v]), 0, 1)[None, :, None, :]
    return u, v, (a * b).reshape(-1, 4, *u.shape[1:])


def _pair_moments(gap, ha, hb, e, u, v, weights) -> np.ndarray:
    """Moments M[X, Y, k] = h_a h_b int int N_X N_Y (gap + h_a u + h_b v)^e du dv
    of element pairs k, the row element a lying gap to the right of the
    column element b. u and v in [0, 1] run from the facing ends; the shapes
    are N_0 = 1 - u, N_1 = u on a and N_0 = v, N_1 = 1 - v on b. The widths
    are folded into the power as (h_a h_b)^(1/e) (gap + ...), so a moment is
    finite wherever it is a float, however small the gap."""
    u, v = u.reshape(len(u), -1), v.reshape(len(v), -1)  # one column, or one per pair
    fold = ha ** (1.0 / e) * hb ** (1.0 / e)
    d = (gap * fold + u * (ha * fold))[:, None] + v * (hb * fold)
    powers = np.power(d, e, out=d).reshape(-1, gap.size)
    if weights.ndim == 2:
        return np.einsum("kx,kp->xp", weights, powers).reshape(2, 2, gap.size)
    # rules of their own: one product per pair, whose bits do not depend on the others
    weights, powers = np.ascontiguousarray(weights.transpose(2, 1, 0)), np.ascontiguousarray(powers.T)
    return (weights @ powers[..., None]).reshape(gap.size, 2, 2).transpose(1, 2, 0)


# (eta limit, tensor rule) of each _FAR_RULES tier; they depend on no argument
_FAR_TENSORS = [(hi, _tensor_rule(*[legendre_panel(q, 0.0, 1.0)] * 2)) for q, hi in _FAR_RULES]


def _far_moments(gap, ha, hb, e) -> np.ndarray:
    """Element-pair moments, each from the fewest Gauss points that its
    separation ratio eta = max(h_a, h_b) / gap allows; past the top tier,
    from graded panels, one call per pair of panel counts."""
    eta = np.maximum(ha, hb) / gap
    out = np.empty((2, 2, gap.size))
    lo = -1.0
    for hi, rule in _FAR_TENSORS:
        k = np.flatnonzero((eta > lo) & (eta <= hi))
        if k.size:
            out[..., k] = _pair_moments(gap[k], ha[k], hb[k], e, *rule)
        lo = hi
    steep = np.flatnonzero(eta > lo)
    if steep.size:
        (ea, na), (eb, nb) = (_graded_edges(gap[steep] / h[steep]) for h in (ha, hb))
        for pa, pb in sorted(set(zip(na.tolist(), nb.tolist()))):
            sel = (na == pa) & (nb == pb)
            rules = []
            for edges in (ea[sel, : pa + 1], eb[sel, : pb + 1]):
                rule = legendre_panel(_FAR_RULES[-1][0], edges[:, :-1, None], edges[:, 1:, None])
                rules.append(tuple(part.reshape(len(edges), -1).T for part in rule))
            k = steep[sel]
            out[..., k] = _pair_moments(gap[k], ha[k], hb[k], e, *_tensor_rule(*rules))
    return out


def _block_factors(x: np.ndarray, size: int, blocks: np.ndarray) -> np.ndarray:
    """Column factors C[b, t, j] = int phi_j L_t dy / span of the hats j of
    the column blocks ``blocks`` of ``size`` hats on the nodes x, one
    read-only array. Block c carries hats c size .. (c + 1) size - 1 on the
    nodes from x[c size] to x[(c + 1) size + 1], its span. L_t is the
    Lagrange basis on the Chebyshev points tau_t of tau = (right end - y) /
    span, and each element takes the Gauss rule exact for N_Y L_t, of degree
    _CHEB_K. The factors depend on a block's nodes only, not on alpha."""
    out = np.empty((blocks.size, _CHEB_K, size))
    step = max(1, _HAT_CHUNK // size)
    for k in range(0, blocks.size, step):
        part = blocks[k : k + step]
        nodes = x[part[:, None] * size + np.arange(size + 2)]
        span = (nodes[:, -1] - nodes[:, 0])[:, None, None]
        width = np.diff(nodes, axis=1)[..., None]  # the block's size + 1 elements
        tau = ((nodes[:, -1:] - nodes[:, :-1])[..., None] - width * _HAT_POINTS) / span
        inv = (tau[..., None] - _CHEB_TAU).reshape(-1, _HAT_POINTS.size, _CHEB_K)
        np.divide(_CHEB_LAMBDA, inv, out=inv)  # barycentric form of L_t
        weights = ((width / span)[..., None, :] * _HAT_WEIGHTS).reshape(-1, 2, _HAT_POINTS.size)
        ends = (weights / inv.sum(axis=-1)[:, None] @ inv).reshape(part.size, size + 1, 2, _CHEB_K)
        cols = ends[:, :-1, 0] + ends[:, 1:, 1]  # hat j rises on element j, falls on j + 1
        out[k : k + step] = cols.transpose(0, 2, 1)
    out.setflags(write=False)
    return out


# 1-D tier rules for the row factors: nodes u and W[X, q] = w_q N_X(u_q)
_FAR_LIMITS = [hi for _, hi in _FAR_RULES]
_FAR_LINES = [
    (u, w * np.stack([1.0 - u, u])) for u, w in (legendre_panel(q, 0.0, 1.0) for q, _ in _FAR_RULES)
]


def _row_factors(dist, ha, span, counts, e) -> np.ndarray:
    """Row factors R[k, X, t] = h_a span int N_X(u) (dist + h_a u + span tau_t)^e du
    of row elements a, each lying dist to the right of a column block of
    width span. They come in _FAR_RULES tier order, ``counts`` in each, and
    take their tier's rule; the widths are folded into the power, as in
    _pair_moments."""
    out = np.empty((dist.size, 2, _CHEB_K))
    fold = ha ** (1.0 / e) * span ** (1.0 / e)
    dist, ha, span = dist * fold, ha * fold, span * fold
    hi = 0
    for (u, w), count in zip(_FAR_LINES, counts):
        step = max(1, _FAR_PAIRS // (2 * u.size * _CHEB_K))
        for k in range(hi, hi + count, step):
            k = slice(k, min(k + step, hi + count))
            d = (dist[k, None] + ha[k, None] * u)[..., None] + (span[k, None] * _CHEB_TAU)[:, None]
            out[k] = w @ np.power(d, e, out=d)
        hi += count
    return out


def _far_blocks(x: np.ndarray, rows: np.ndarray):
    """Column blocks of the far field of row elements ``rows``: arrays a,
    c, size, row element a taking the ``size`` = 2^level hats of block c,
    ordered by falling size, and the (a, hat) pairs left to element-pair
    moments.

    From the block of all hats down, a row element takes a block when every
    hat of it lies at least four hats to its left, its span is at most
    _CHEB_ETA times its distance to the element, and h_a / distance is
    within the _FAR_RULES tiers; otherwise it tries the two halves, and
    below 2^_CHEB_LEVEL hats it keeps the hats one by one. Blocks are
    aligned at 0 and never cut at the last hat, so what a row takes depends
    on that row and the nodes only."""
    a, c = rows, np.zeros_like(rows)
    level = max(_CHEB_LEVEL, (x.size - 3).bit_length())
    taken = [(rows[:0], rows[:0], rows[:0])]  # (a, c, 2^level)
    while True:
        size = 1 << level
        end = (c + 1) * size  # one past the block's last hat
        fit = end <= a - 3
        right = x[np.where(fit, end + 1, 0)]
        dist = x[a] - right
        wide = right - x[c * size] > _CHEB_ETA * dist
        ok = fit & ~wide & (x[a + 1] - x[a] <= _FAR_LIMITS[-1] * dist)
        if ok.any():
            taken.append((a[ok], c[ok], np.full(np.count_nonzero(ok), size)))
        a, c = a[~ok], c[~ok]
        if level == _CHEB_LEVEL:
            break
        level -= 1
        a, c = np.repeat(a, 2), (2 * c[:, None] + (0, 1)).ravel()
        keep = c << level <= a - 3
        a, c = a[keep], c[keep]
    start = c << level
    count = np.minimum(start + (1 << level), a - 2) - start
    first = np.repeat(np.cumsum(count) - count, count)
    hats = np.repeat(start, count) + np.arange(count.sum()) - first
    return *(np.concatenate(v) for v in zip(*taken)), np.repeat(a, count), hats


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

    Row element a takes its far hats in dyadic column blocks aligned at 0,
    each as wide as _CHEB_ETA times its distance from a or less (see
    _far_blocks): there the kernel is interpolated in y at the block's
    _CHEB_K Chebyshev points, so a's moments against all the block's hats
    are one product R[a] C of row factors, a's tier rule against the points,
    and column factors, exact Gauss integrals of the Lagrange basis against
    the hats that do not depend on alpha. The hats nearer to a take the
    element-pair moments above, by the tier of their separation ratio or,
    past the top tier, by graded panels. Nothing is kept after the call.
    """
    h = np.diff(mesh.nodes).min()
    if h * h == 0.0:  # the near band divides by products of neighbouring widths
        raise DomainError(f"mesh element width {h:.3g} squares to zero (grading exponent {mesh.delta})")
    return _lead_rows(mesh.nodes, alpha, {})


def _lead_rows(x: np.ndarray, alpha, plans: dict) -> np.ndarray:
    """The leading block on the nodes x, one row and column per hat of x.
    An entry takes the same arithmetic whatever the row batches of the far
    field, and the same bits on the first nodes of longer x. ``plans``
    holds the far-field plans of these nodes by (a0, a1), and under "cols"
    the column factors of blocks 0 .. (n - 3) // size - 1 by block size,
    which every row batch reads: missing ones are added, so another alpha
    or longer x reuses them, and the plans of other row batches go."""
    a = frac_order(alpha)
    s = 0.5 * a
    p = 3.0 - 2.0 * s
    h, n = np.diff(x), x.size - 2
    # Row element a feeds hat rows a (X = 1) and a - 1 (X = 0) at the hats
    # j <= a - 3. Row n, past the last hat, takes the last element's X = 1
    # terms, and the near band, written last, replaces the X = 0 term at
    # (a - 1, a - 3). Each hat column of a row element comes from one block
    # or one pair of element moments, so every far entry is a sum of two
    # terms and takes the same bits in any order of the adds.
    out = np.zeros((n + 1, n))
    scale = beta_fn(2.0 - s, 2.0 - s) / gamma_fn(2.0 - s) ** 2
    far = scale * (-p * (p - 1.0) * (p - 2.0) * (p - 3.0))
    e = p - 4.0
    batch = max(1, _FAR_PAIRS // (n + 1))
    keys = [(a0, min(a0 + batch, n + 1)) for a0 in range(3, n + 1, batch)]  # row elements up to n
    for key in plans.keys() - {*keys, "cols"}:
        del plans[key]
    cols, size = plans.setdefault("cols", {}), 1 << _CHEB_LEVEL
    while size <= n - 3:  # row element a takes blocks c with (c + 1) size <= a - 3; each is built once
        have, count = cols.get(size, np.empty((0, _CHEB_K, size))), (n - 3) // size
        if len(have) < count:
            cols[size] = np.concatenate([have, _block_factors(x, size, np.arange(len(have), count))])
            cols[size].setflags(write=False)
        size *= 2
    for a0, a1 in keys:
        if (a0, a1) not in plans:
            plans[a0, a1] = _far_plan(x[: a1 + 1], a0, a1)
        geometry, products, (gap, ha, hb, inv, i, j) = plans[a0, a1]
        rows = _row_factors(*geometry, e)
        rows *= far
        for k, size, pick, r in products:
            v = rows[k] @ cols[size][pick]
            if np.ndim(pick):  # each pair's own block
                hats = pick[:, None] * size + np.arange(size)
            else:
                hats = slice(pick * size, (pick + 1) * size)
            out[r, hats] += v[:, 1]
            out[r - 1, hats] += v[:, 0]
        mom = _far_moments(gap, ha, hb, e)[..., inv]
        v = far * (mom[:, 1, : inv.size // 2] + mom[:, 0, inv.size // 2 :])
        out[i, j] += v[1]
        out[i - 1, j] += v[0]
    for off in (-1, 0, 1, 2):
        i = np.arange(max(off, 0), n + min(off, 0))
        # pairs (e, f) = (0, 0), (0, 1), (1, 0), (1, 1) of the elements of
        # hats i and j = i - off; hat i rises on element i, falls on i + 1
        e, f = i[:, None] + (0, 0, 1, 1), i[:, None] - off + (0, 1, 0, 1)
        hf = h[f]
        drop = _power_drop(x[e] - x[f], hf, p) - _power_drop(x[e + 1] - x[f], hf, p)
        drop /= h[e] * hf
        out[i, i - off] = -scale * (drop[:, 0] - drop[:, 1] - drop[:, 2] + drop[:, 3])
    return out[:n]


def _far_plan(x: np.ndarray, a0: int, a1: int):
    """What the far field of row elements a0 <= a < a1 on the nodes
    x[0..a1] needs that does not depend on alpha:

    - the row factors' geometry (dist, h_a, span, tier counts), in tier
      order;
    - the block products (k, size, pick, a): rows k of the row factors
      times the column factors of the blocks ``pick`` of ``size`` hats, one
      block or one per pair, added into the rows a and a - 1 at the hats of
      those blocks;
    - the element pairs (gap, h_a, h_b) of the hats left over, with inv
      taking their moments to each hat's Y = 1 and then Y = 0 half, and
      each hat's row element and column.

    Every alpha, and every table whose nodes begin with x, asks for the
    same plans."""
    h = np.diff(x)
    a, c, size, ra, rj = _far_blocks(x, np.arange(a0, a1))
    right = x[(c + 1) * size + 1]
    dist, span = x[a] - right, right - x[c * size]
    tiers = np.searchsorted(_FAR_LIMITS, h[a] / dist)  # every ratio is within the top tier
    order = np.argsort(tiers, kind="stable")
    counts = np.bincount(tiers, minlength=len(_FAR_LINES)).tolist()
    rows = (dist[order], h[a][order], span[order], counts)
    where = np.argsort(order)  # each pair's row in the row factors
    products = []
    cuts = np.flatnonzero(np.diff(size, prepend=0, append=0)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):  # one level at a time
        products += _level_products(a[lo:hi], c[lo:hi], int(size[lo]), where[lo:hi])
    # hat j: Y = 1 on element j, Y = 0 on j + 1; neighbouring hats share an element
    keys = np.concatenate([ra, ra]) * x.size + np.concatenate([rj, rj + 1])
    pairs, inv = np.unique(keys, return_inverse=True)
    b, f = np.divmod(pairs, x.size)
    return rows, products, (x[b] - x[f + 1], h[b], h[f], inv, ra, rj)


def _level_products(a, c, size, k) -> list:
    """_far_plan's block products of one level: row elements a, rows k of
    the row factors, take the blocks c of ``size`` hats."""
    products = []
    if size <= _GATHER_SIZE:  # many small blocks: one product per chunk of pairs
        step = max(1, _FAR_PAIRS // (2 * _CHEB_K * size))
        for s in range(0, a.size, step):
            s = slice(s, s + step)
            products.append((k[s], size, c[s], a[s, None]))
        return products
    blocks, inv = np.unique(c, return_inverse=True)
    order = np.argsort(inv, kind="stable")  # the pairs of each block together
    counts = np.bincount(inv)
    step = max(1, _FAR_PAIRS // (4 * size))
    for pick, (b, hi) in enumerate(zip(blocks.tolist(), np.cumsum(counts))):
        for s in range(hi - counts[pick], hi, step):
            s = order[s : min(s + step, hi)]
            products.append((k[s], size, b, a[s]))
    return products


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


def _betas(k):
    """B(k + i + 1, j + 1) for the moments (i, j) = (0, 0), (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2), stacked on a last axis."""
    k1, k2, k3 = k + 1.0, k + 2.0, k + 3.0
    k12 = k1 * k2
    return 1.0 / np.stack([k1, k2, k12, k3, k2 * k3, 0.5 * k12 * k3], -1)


_BETA_TABLE = _betas(np.arange(96.0))  # series coefficients by k (rows)


@lru_cache(maxsize=64)  # by exponents: a sweep's levels share them
def _series_coeffs(exponents: tuple, moments: int):
    """Read-only, by exponent e: C(e, k) B(k+i+1, j+1) (k by moment (i, j)),
    the count of k to the first |C(e, k)| _SERIES_R^k below 2^-56 (an integer
    e >= 0 ends at k = e), and B(e+i+1, j+1) for a piece at the anchor."""
    e, k = np.array(exponents)[:, None], np.arange(len(_BETA_TABLE))
    binom = np.cumprod(np.append(np.ones_like(e), (e - k[:-1]) / (k[:-1] + 1.0), axis=1), axis=1)
    counts = tuple(np.argmax(np.abs(binom) * _SERIES_R**k < 2.0**-56, axis=1).tolist())
    out = binom[:, : max(counts), None] * _BETA_TABLE[: max(counts), :moments], _betas(e[:, 0])[:, :moments]
    for array in out:
        array.setflags(write=False)
    return out[0], counts, out[1]


def _series(coeffs, counts: tuple, terms: list, r: np.ndarray, top: float) -> np.ndarray:
    """S_ij(r) of each term in ``terms`` (index, first piece, last piece + 1),
    a row per moment, r <= _SERIES_R unless e is an integer >= 0: the term's
    coefficients times r^k, to the first k where |C(e, k)| top^k, top =
    min(max(r), _SERIES_R), or its count, ends the series."""
    k = np.arange(coeffs.shape[1])
    ends = np.argmax(np.abs(coeffs[:, :, 0]) * (k + 1.0) * top**k < 2.0**-56, axis=1)
    counts = np.where(ends > 0, np.minimum(ends, counts), counts).tolist()
    table, power, done = np.empty((max(counts), r.size)), r, 1
    table[0] = 1.0
    while done < len(table):  # r^k for done <= k < 2 done from those below done
        np.multiply(table[: min(done, len(table) - done)], power, out=table[done : 2 * done])
        power, done = power * power, 2 * done
    return [coeffs[t, : counts[t]].T @ table[: counts[t], i:j] for t, i, j in terms]


def _hat_moments(terms: list, x: np.ndarray, plans: dict, slots=1, products=False) -> np.ndarray:
    """out[slot, row, element]: sums over terms (c, e, a, lo, hi, side, slot)
    of c int s^e, s = t - a in [lo, hi], against the hat legs N_r and N_l of
    each element of the nodes x and, with ``products`` (side 0), N_r^2,
    N_r N_l and N_l^2. Side 0 takes t = x, side 1 t = 1 - x, legs swapped.

    An element [left, left + h] is clipped to [p, p + w], p = max(left - a, lo),
    so N_r = ((s - p) + dl) / h, N_l = ((p + w - s) + dr) / h, dl, dr >= 0, and
    every row sums non-negative M_ij = int_p^(p+w) s^e (s - p)^i (p + w - s)^j.
    At the anchor, p = 0, M_ij = w^(e+i+j+1) B(e+i+1, j+1). Elsewhere a piece
    wider than _SERIES_R p is cut at p (1 + _SERIES_R)^k (not for an integer
    e >= 0, a polynomial) and M_ij = w^(i+j+1) p^e S_ij(w / p), S_ij(r) =
    int_0^1 (1 + r tau)^e tau^i (1 - tau)^j = sum_k C(e, k) B(k+i+1, j+1) r^k:
    nothing cancels. Elements go _PIECES // len(terms) at a time. The pieces
    (_moment_plan) do not depend on c or e: ``plans`` keeps those of a mesh of
    one chunk, whatever its length, by layout, so another alpha reuses them.
    """
    rows, m = 5 if products else 2, x.size - 1
    out = np.zeros((slots, rows, m))
    groups = {}  # terms of one interval, side and slot share their pieces
    for term in terms:
        groups.setdefault(tuple(term[2:]), []).append(term[:2])
    if not groups:
        return out
    c, e = np.array([t for group in groups.values() for t in group]).T
    member = np.repeat(np.arange(len(groups)), [len(group) for group in groups.values()])
    coeffs, counts, at_anchor = _series_coeffs(tuple(e.tolist()), rows + 1)
    cuts = np.bincount(member, np.array(counts) != e + 1.0, len(groups)) > 0  # one ending at k = e needs none
    key, step = (tuple(groups), tuple(cuts.tolist()), products), max(1, _PIECES // len(e))
    for s in range(0, m, step):
        plans = plans if m <= step else {}  # a mesh of more chunks keeps no plan: its peak stays one chunk's
        if key not in plans:
            plans[key] = _moment_plan(x[s : s + step + 1], np.array(key[0], dtype=float).T[..., None], cuts, rows)
        ends, size, base, r, top, at, group_at, u, al, ar, index = plans[key]
        spans = [(t, ends[g], ends[g + 1]) for t, g in enumerate(member.tolist())]
        moments = np.zeros((rows + 1, size.size))
        for (t, i, j), part in zip(spans, _series(coeffs, counts, spans, r, top)):
            moments[:, i:j] += part * (c[t] * base[i:j] ** e[t] * size[i:j])
        weights = (member == group_at) * c * size[at, None] ** (e + 1.0)  # pieces at an anchor
        moments[:, at] = (weights @ at_anchor).T
        m00, m10, m01, *second = moments
        legs = [u * m10 + al * m00, u * m01 + ar * m00]
        if products:
            m20, m11, m02 = second
            legs += [u * u * m20 + al * (2.0 * u * m10 + al * m00), u * (u * m11 + ar * m10) + al * (u * m01 + ar * m00),
                     u * u * m02 + ar * (2.0 * u * m01 + ar * m00)]
        n = min(step, m - s)
        out[..., s : s + n] += np.bincount(index, np.ravel(legs), slots * rows * n).reshape(slots, rows, n)
    return out


def _moment_plan(x: np.ndarray, groups: np.ndarray, cuts: np.ndarray, rows: int) -> tuple:
    """_hat_moments' pieces of the elements of the nodes x, clipped to each group's
    (a, lo, hi, side, slot) interval and cut where ``cuts``: the group ends, each
    piece's size, base and r = size / start with the top r, the pieces at an anchor
    and their groups, the leg weights u, al, ar and the scatter index of the legs."""
    a, lo, hi, side, slot = groups
    side, slot = side[:, 0].astype(int), slot[:, 0].astype(int)
    shifted, width = np.stack([x[:-1], 1.0 - x[1:]])[side] - a, np.diff(x)
    p, dr = np.maximum(shifted, lo), np.maximum(shifted + width - hi, 0.0)
    dl = p - shifted
    group, elem = np.nonzero(dl + dr < width)
    h, p, dl, dr = width[elem], p[group, elem], dl[group, elem], dr[group, elem]
    w = h - dl - dr
    # pieces [p + low, p + high], cut at p (1 + _SERIES_R)^k
    ratio = np.divide(w, p, out=np.zeros_like(p), where=(p > 0.0) & cuts[group])
    count = np.maximum(np.ceil(np.log1p(ratio) / np.log1p(_SERIES_R)), 1).astype(int)
    last = np.cumsum(count) - 1
    piece = np.repeat(np.arange(p.size), count)
    low = p[piece] * ((1.0 + _SERIES_R) ** (np.arange(piece.size) - (last + 1 - count)[piece]) - 1.0)
    high = np.append(low[1:], 0.0)
    high[last] = w
    size, start, group, h = high - low, p[piece] + low, group[piece], h[piece]
    at = start == 0.0
    r = np.divide(size, start, out=np.zeros_like(size), where=~at)
    n, ends = width.size, np.searchsorted(group, np.arange(len(cuts) + 1))  # pieces are in group order
    index = (np.arange(rows)[:, None] ^ side[group]) * n + (slot[group] * (rows * n) + elem[piece])
    at_pieces = np.flatnonzero(at)
    return (ends.tolist(), size, np.where(at, size, start), r, min(r.max(initial=0.0), _SERIES_R), at_pieces,
            group[at_pieces, None], size / h, (dl[piece] + low) / h, (dr[piece] + w[piece] - high) / h, index.ravel())


def _power_sum_terms(ps: PowerSum) -> list:
    """_hat_moments terms of a power sum on [0, 1]."""
    return [(t.coeff, t.exponent, t.anchor, 0.0, np.inf, 0, 0) for t in ps.terms]


def mass_bands(mesh: Mesh, q: PowerSum):
    """Symmetric tridiagonal (q phi_j, phi_i) as (diagonal, off-diagonal),
    exact term by term (_hat_moments)."""
    _, _, rr, rl, ll = _hat_moments(_power_sum_terms(q), mesh.nodes, {}, products=True)[0]
    return rr[:-1] + ll[1:], rl[1:-1].copy()  # copied, so a kept band does not pin the rows


def load_vector(mesh: Mesh, ps: PowerSum) -> np.ndarray:
    """Exact load vector (ps, phi_i) of a power sum (_hat_moments): hat i
    rises on element i - 1 and falls on element i."""
    rise, fall = _hat_moments(_power_sum_terms(ps), mesh.nodes, {})[0]
    return rise[:-1] + fall[1:]


def _half_series(e: float) -> list:
    """(C(e, k) (-1)^k, k) of (1 - z)^e on z <= 1/2, to the first term below
    2^-53 of the sum at z = 1/2."""
    k = np.arange(len(_BETA_TABLE))
    coeffs = np.cumprod(np.append(1.0, (k[:-1] - e) / (k[:-1] + 1.0)))
    at_half = coeffs * 0.5**k
    return list(zip(coeffs.tolist(), range(np.argmax(np.abs(at_half) < 2.0**-53 * np.abs(np.cumsum(at_half))))))


def _endpoint_terms(q: PowerSum, a: float, slot=0) -> list:
    """_hat_moments terms of (1 - x)^(a-1) q / Gamma(a). A term c (x - b)_+^k
    of integer k is c ((1 - b) - y)^k y^(a-1) on y = 1 - x <= 1 - b. A term
    c x^e of non-integer e splits at x = 1/2: on [0, 1/2] (1 - x)^(a-1), on
    [1/2, 1] x^e = (1 - y)^e expands (_half_series). A non-integer power
    anchored inside (0, 1) raises UnsupportedFormError."""
    terms, scale = [], 1.0 / gamma_fn(a)
    for t in q.terms:
        c = scale * t.coeff
        if float(t.exponent).is_integer():
            k = int(t.exponent)
            terms += [(c * math.comb(k, i) * (1.0 - t.anchor) ** (k - i) * (-1.0) ** i, a - 1.0 + i, 0.0, 0.0,
                       1.0 - t.anchor, 1, slot) for i in range(k + 1)]
        elif t.anchor == 0.0:
            terms += [(c * b, t.exponent + i, 0.0, 0.0, 0.5, 0, slot) for b, i in _half_series(a - 1.0)]
            terms += [(c * b, a - 1.0 + i, 0.0, 0.0, 0.5, 1, slot) for b, i in _half_series(t.exponent)]
        elif t.anchor < 1.0:
            raise UnsupportedFormError(f"a fractional power of q must be anchored at x = 0, got (x - {t.anchor:g})^{t.exponent:g}")
    return terms


def endpoint_weight_vector(mesh: Mesh, q: PowerSum, alpha) -> np.ndarray:
    """Vector s with s_j = (I_0^alpha q phi_j)(1), the load of
    (1 - x)^(alpha - 1) q / Gamma(alpha), exact term by term (_endpoint_terms)."""
    rise, fall = _hat_moments(_endpoint_terms(q, frac_order(alpha)), mesh.nodes, {})[0]
    return rise[:-1] + fall[1:]


@dataclass(frozen=True)
class SingularPair:
    """Splitting data u = u_r + mu * u_s for the reconstruction method.

    The regular part sees the modified source f(x) + (I^alpha f)(1) Q(x),
    Q = c0 c1 - c0 q u_s with c1(x) = -2/Gamma(3-alpha) x^(2-alpha).
    q_profile is the power sum c0 c1 - c0 q0 u_s, q0 the terms of q
    anchored at 0; _profile_terms takes the terms anchored inside (0, 1).
    """

    u_s: PowerSum
    c0: float
    q_profile: PowerSum
    f_frac_at_one: float


def build_singular_pair(spec: ProblemSpec) -> SingularPair:
    """Construct the singular profile, the splitting constant, Q and (I^alpha f)(1).

    (I^alpha f)(1) is the power rule. (I^alpha q u_s)(1) takes q's terms
    anchored at 0 times u_s by the power rule, and each term c (x - b)_+^k
    with 0 < b < 1 by one fixed composite rule (anchored_moment); a term
    anchored at 1 adds nothing. Raises DegenerateSplittingError when
    1 + (I^alpha q u_s)(1) vanishes numerically; no alternative profile is
    selected automatically.
    """
    a = spec.alpha
    u_s = PowerSum.from_terms([(1.0, 0.0, spec.singular_exponent), (-1.0, 0.0, 2.0)])
    q = spec.q
    q_us = PowerSum(tuple(t for t in q.terms if t.anchor == 0.0)) * u_s
    shifted = sum(t.coeff * anchored_moment(u_s, a, t.anchor, t.exponent)
                  for t in q.terms if 0.0 < t.anchor < 1.0)
    denom = 1.0 + (float(rl_integral_powersum_at(a, q_us, 1.0)) + shifted / gamma_fn(a))
    if abs(denom) < DEGENERATE_TOL:
        raise DegenerateSplittingError(
            "splitting constant is undefined for this potential", denom
        )
    c0 = 1.0 / denom
    f_at_one = float(rl_integral_powersum_at(a, spec.f, 1.0))
    c1 = PowerSum.monomial(-2.0 / gamma_fn(3.0 - a), 2.0 - a)
    return SingularPair(u_s, c0, c1.scaled(c0) + q_us.scaled(-c0), f_at_one)


def _profile_terms(spec: ProblemSpec, pair: SingularPair) -> list:
    """_hat_moments terms of Q: q_profile's, less c0 q_in u_s for the terms
    c (x - b)^k of q anchored inside (0, 1), k an integer (check_fields): on
    [b, 1], (x - b)^k x^p = sum_i C(k, i) (-b)^(k-i) x^(p+i)."""
    terms = _power_sum_terms(pair.q_profile)
    for t in (t for t in spec.q.terms if 0.0 < t.anchor < 1.0):
        k = int(t.exponent)
        terms += [(-pair.c0 * t.coeff * s.coeff * math.comb(k, i) * (-t.anchor) ** (k - i), s.exponent + i, 0.0,
                   t.anchor, np.inf, 0, 0) for s in pair.u_s.terms for i in range(k + 1)]
    return terms


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

    def to_array(self) -> np.ndarray:
        """The block as an n x n array, copying nothing: the dense block
        itself, or a read-only view whose rows are windows of the stencil."""
        if self.stencil is not None:
            n = (self.stencil.size + 1) // 2
            return np.lib.stride_tricks.sliding_window_view(self.stencil, n)[::-1]
        return self.dense

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
        step = max(1, 8192 // self.dense.shape[1])  # |A| by rows of at most 64 KiB, below the mmap threshold
        starts = range(0, len(self.dense), step)
        return max(float(np.abs(self.dense[i : i + step]).sum(axis=1).max()) for i in starts)


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
    diag, off, f_load = spec.level_terms(mesh)
    if method == "standard":
        return AssembledSystem(mesh, lead, diag, off, f_load, None, None, None)
    pair = spec.singular_pair
    # the load of Q and the endpoint vector in one pass
    terms = _profile_terms(spec, pair) + _endpoint_terms(spec.q, spec.alpha, slot=1)
    moments = _hat_moments(terms, mesh.nodes, spec._moment_plans.setdefault(mesh, {}), slots=2)
    r_vec, s_vec = (rise[:-1] + fall[1:] for rise, fall in moments)
    load = f_load + pair.f_frac_at_one * r_vec
    return AssembledSystem(mesh, lead, diag, off, load, r_vec, s_vec, pair)
