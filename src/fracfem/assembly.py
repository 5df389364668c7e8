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
        term of negative exponent or a sampled size over 1e8."""
        for name, field in (("q", q), ("f", f)):
            if not isinstance(field, PowerSum):
                raise UnsupportedFormError(f"field {name} must be a PowerSum, got {type(field).__name__}")
        for t in q.terms:
            if t.exponent < 0.0 and t.coeff:
                raise DomainError(f"potential q must be bounded on [0, 1], but has a term x^{t.exponent:g}")
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
        ``lead`` and kept for the life of the spec."""
        return {}

    @cached_property
    def _far_plans(self) -> dict:
        """Alpha-free far-field plans by grading exponent; ``with_alpha`` shares them."""
        return {}

    @cached_property
    def _level_terms(self) -> dict:
        """Read-only mass bands and source load of each build_mesh(m, delta)
        level by (m, delta), which fixes its nodes; ``with_alpha`` shares them."""
        return {}

    def with_alpha(self, alpha: float) -> ProblemSpec:
        """This problem at another alpha, sharing the far-field plans and the
        level terms; its singular pair and lead tables are its own."""
        spec = replace(self, alpha=alpha)
        vars(spec)["_far_plans"] = self._far_plans
        vars(spec)["_level_terms"] = self._level_terms
        return spec

    def level_terms(self, mesh: Mesh) -> tuple:
        """(diagonal, off-diagonal, load): the mass bands of (q phi_j, phi_i)
        and the load (f, phi_i) on ``mesh``, which do not depend on alpha.
        Kept for a build_mesh level; computed afresh for other nodes."""
        key = (mesh.m, mesh.delta)
        terms = self._level_terms.get(key)
        if terms is None:
            terms = (*mass_bands(mesh, self.q), load_vector(mesh, self.f))
            if mesh.delta is not None:
                for array in terms:
                    array.setflags(write=False)
                self._level_terms[key] = terms
        return terms

    def lead(self, mesh: Mesh) -> Lead:
        """Leading block on ``mesh``. A build_mesh(m, delta) grading is
        self-similar, x_j = m^-delta y_j with y_j = j^delta, and the block is
        homogeneous of degree 1 - alpha in the nodes, so it is
        m^(delta (alpha - 1)) times the leading block of one table, the
        block on the nodes y of the finest mesh asked for so far; a finer
        mesh rebuilds it. Other meshes take ``Lead.of``."""
        delta = mesh.delta
        if delta is None or mesh.is_uniform or delta * np.log2(mesh.m + 1.0) > _TABLE_LOG2:
            return Lead.of(mesh, self.alpha)
        n = mesh.m - 1
        table = self._lead_tables.get(delta)
        if table is None or table.shape[0] < n:
            plans = self._far_plans.setdefault(delta, {})
            if table is not None:  # a finer table batches its rows otherwise
                plans.clear()
            table = self._lead_tables[delta] = _lead_rows(np.arange(n + 2.0) ** delta, self.alpha, plans)
        return Lead(dense=float(mesh.m) ** (delta * (self.alpha - 1.0)) * table[:n, :n])


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
        graded = "" if mesh.delta is None else f" (grading exponent {mesh.delta})"
        raise DomainError(f"mesh element width {h:.3g} squares to zero{graded}")
    return _lead_rows(mesh.nodes, alpha, {})


def _lead_rows(x: np.ndarray, alpha, plans: dict) -> np.ndarray:
    """The leading block on the nodes x, one row and column per hat of x.
    An entry takes the same arithmetic whatever the row batches of the far
    field, and the same bits on the first nodes of longer x. ``plans``
    holds the far-field plans of these nodes by (a0, a1); missing ones are
    added, so another alpha can reuse them."""
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
    for a0 in range(3, n + 1, batch):  # row elements up to the last, n
        a1 = min(a0 + batch, n + 1)
        if (a0, a1) not in plans:
            plans[a0, a1] = _far_plan(x[: a1 + 1], a0, a1)
        geometry, products, (gap, ha, hb, inv, i, j) = plans[a0, a1]
        rows = _row_factors(*geometry, e)
        rows *= far
        for k, cols, pick, r, hats in products:
            v = rows[k] @ cols[pick]
            if not isinstance(hats, slice):  # each pair's first hat
                hats = hats + np.arange(cols.shape[-1])
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
    - the block products (k, cols, pick, a, hats): rows k of the row
      factors times the column factors cols[pick], added into the rows a
      and a - 1 at the hats, a slice or each pair's first hat of its block;
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
        products += _level_products(x, a[lo:hi], c[lo:hi], int(size[lo]), where[lo:hi])
    # hat j: Y = 1 on element j, Y = 0 on j + 1; neighbouring hats share an element
    keys = np.concatenate([ra, ra]) * x.size + np.concatenate([rj, rj + 1])
    pairs, inv = np.unique(keys, return_inverse=True)
    b, f = np.divmod(pairs, x.size)
    return rows, products, (x[b] - x[f + 1], h[b], h[f], inv, ra, rj)


def _level_products(x, a, c, size, k) -> list:
    """_far_plan's block products of one level: row elements a, rows k of
    the row factors, take the blocks c of ``size`` hats."""
    blocks, inv = np.unique(c, return_inverse=True)
    cols = _block_factors(x, size, blocks)
    products = []
    if size <= _GATHER_SIZE:  # many small blocks: one product per chunk of pairs
        step = max(1, _FAR_PAIRS // (2 * _CHEB_K * size))
        for s in range(0, a.size, step):
            s = slice(s, s + step)
            products.append((k[s], cols, inv[s], a[s, None], c[s, None] * size))
        return products
    order = np.argsort(inv, kind="stable")  # the pairs of each block together
    counts = np.bincount(inv)
    step = max(1, _FAR_PAIRS // (4 * size))
    for pick, (b, hi) in enumerate(zip(blocks.tolist(), np.cumsum(counts))):
        hats = slice(b * size, (b + 1) * size)
        for s in range(hi - counts[pick], hi, step):
            s = order[s : min(s + step, hi)]
            products.append((k[s], cols, pick, a[s], hats))
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


def _anchors(field: PowerSum) -> tuple:
    """Points in (0, 1) where the field's terms start or stop, so where it
    may jump or kink."""
    return tuple(sorted({t.anchor for t in field.terms if 0.0 < t.anchor < 1.0}))


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


def mass_bands(mesh: Mesh, q: PowerSum):
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
    return rr[:n] + ll[1:], lr[1:n].copy()  # copied, so a kept band does not pin all three sums


def load_vector(mesh: Mesh, ps: PowerSum) -> np.ndarray:
    """Exact load vector (ps, phi_i) of a power sum. Row 0 of the stacks is
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


def endpoint_weight_vector(mesh: Mesh, q: PowerSum, alpha) -> np.ndarray:
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

    q_profile is Q(x) = c0 c1(x) - c0 q(x) u_s(x), c1(x) = -2/Gamma(3-alpha)
    x^(2-alpha), as a power sum when q is zero-anchored and None otherwise;
    the regular part sees the modified source f(x) + (I^alpha f)(1) Q(x).
    """

    u_s: PowerSum
    c0: float
    q_profile: PowerSum | None
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
    # q u_s is a power sum only when every term of q is anchored at 0
    q_profile = _c1(a).scaled(c0) + q_us.scaled(-c0) if q.is_zero_anchored else None
    return SingularPair(u_s, c0, q_profile, f_at_one)


def _c1(alpha: float) -> PowerSum:
    """c1(x) = -2/Gamma(3-alpha) x^(2-alpha), the source term of Q."""
    return PowerSum.monomial(-2.0 / gamma_fn(3.0 - alpha), 2.0 - alpha)


def _profile_load(spec: ProblemSpec, mesh: Mesh, pair: SingularPair) -> np.ndarray:
    """Load of Q: exact when Q is a power sum. Otherwise by quadrature, with
    elements cut where q jumps or kinks, and the first element absorbing
    Q's leading power x^min(2 - alpha, e + p) at 0, where x^e is q's
    leading term at 0 and x^p the singular profile."""
    if pair.q_profile is not None:
        return load_vector(mesh, pair.q_profile)
    a, q, u_s, c0 = spec.alpha, spec.q, pair.u_s, pair.c0
    c1, e = _c1(a), q.min_exponent_at_zero()
    left = 2.0 - a if e is None else min(2.0 - a, e + spec.singular_exponent)
    return quadrature_load(mesh, lambda x: c0 * c1(x) - c0 * q(x) * u_s(x), _LOAD_POINTS, _anchors(q), left)


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
    diag, off, f_load = spec.level_terms(mesh)
    if method == "standard":
        return AssembledSystem(mesh, lead, diag, off, f_load, None, None, None)
    pair = spec.singular_pair
    r_vec = _profile_load(spec, mesh, pair)
    s_vec = endpoint_weight_vector(mesh, spec.q, spec.alpha)
    load = f_load + pair.f_frac_at_one * r_vec
    return AssembledSystem(mesh, lead, diag, off, load, r_vec, s_vec, pair)
