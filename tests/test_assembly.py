"""Assembly of the leading block, mass, loads, and the singular splitting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_special
from scipy.special import betainc
from scipy.special import gamma as gamma_special

from fracfem import assembly, fraccalc, solver
from fracfem.assembly import (
    Lead,
    ProblemSpec,
    assemble_lead,
    assemble_system,
    build_singular_pair,
    endpoint_weight_vector,
    lead_stencil,
    load_vector,
    mass_bands,
    quadrature_load,
)
from fracfem.errors import ArgumentError, DegenerateSplittingError, DomainError, UnsupportedFormError
from fracfem.cli import ExperimentConfig
from fracfem.fields import (
    parse_field,
    source_bump,
    source_inverse_quartic,
    source_step,
    zero_field,
)
from fracfem.mesh import Mesh, build_mesh
from fracfem.solver import solve_reconstruction, system_matvec

from .oracles import (
    assemble_mass_q,
    dense_lead,
    endpoint_weight_entry_quad,
    frac_integral_quad,
    full_matrix,
    hat_value,
    lead_stencil_full_series,
    load_entry_quad,
    powersum_load_per_term,
    stencil_far_field_peano,
    stencil_to_dense,
    stiffness_entry_decimal,
    stiffness_entry_quad,
)

# nested adaptive quadrature of -(D^s phi_j, D^s phi_i), frozen
LEAD_M4_UNIFORM_A15 = np.array(
    [
        [1.7626379002274635, -1.5045055561273548, 0.0],
        [0.17686376991696084, 1.7626379002274644, -1.5045055561273548],
        [-0.2797674084142083, 0.17686376991695907, 1.7626379002274666],
    ]
)
LEAD_M4_GRADED2_A125 = np.array(
    [
        [0.7478924193063379, -0.9448580650133099, 0.0],
        [0.6440790738670761, 0.5745847501384665, -0.8315806726221094],
        [-0.1042617776095373, 0.5296093888041278, 0.5115270294646883],
    ]
)


def test_single_element_entry_frozen():
    # m = 2, alpha = 1.5: one interior basis function
    A = assemble_lead(build_mesh(2), 1.5)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(1.246373212027256, rel=1e-10)


def test_lead_matches_quadrature_oracle_uniform():
    A = assemble_lead(build_mesh(4), 1.5)
    np.testing.assert_allclose(A, LEAD_M4_UNIFORM_A15, rtol=1e-8, atol=1e-8)


def test_lead_matches_quadrature_oracle_graded():
    A = assemble_lead(build_mesh(4, delta=2.0), 1.25)
    np.testing.assert_allclose(A, LEAD_M4_GRADED2_A125, rtol=1e-8, atol=1e-8)


def test_lead_quadrature_oracle_recomputed_spot():
    # one live nested-quad entry per mesh family guards the frozen arrays
    nodes = build_mesh(4).nodes
    assert stiffness_entry_quad(nodes, 1.5, 2, 1) == pytest.approx(
        LEAD_M4_UNIFORM_A15[1, 0], rel=1e-9
    )
    nodes = build_mesh(4, delta=2.0).nodes
    assert stiffness_entry_quad(nodes, 1.25, 3, 2) == pytest.approx(
        LEAD_M4_GRADED2_A125[2, 1], rel=1e-9
    )


def test_uniform_lead_is_toeplitz_with_zero_upper_band():
    A = assemble_lead(build_mesh(16), 1.6)
    scale = np.max(np.abs(A))
    for d in range(-14, 15):
        diag = np.diagonal(A, offset=d)
        assert np.max(np.abs(diag - diag[0])) <= 1e-12 * scale
    # basis functions two or more elements apart have disjoint supports
    assert np.max(np.abs(np.triu(A, k=2))) == 0.0


def _system_lead(alpha, mesh):
    """The dense leading block that assemble_system builds on ``mesh``."""
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    return assemble_system(spec, mesh, "standard").lead.dense


@pytest.mark.parametrize(
    "alpha, delta",
    [(1.25, 5.0), (1.75, 5.0), (1.25, 12.0), (1.75, 12.0)],
    ids=["1.25", "1.75", "1.25-delta12", "1.75-delta12"],
)
def test_lead_matches_decimal_oracle_strongly_graded(monkeypatch, alpha, delta):
    # delta = 5 puts the jump coefficients near 1/h_min ~ 1e9, so summed
    # over the nine products of slope jumps the closed form cancels through
    # about 9 digits. At delta = 12 far pairs next to the first elements
    # are past the top tier, and the table takes graded panels too
    steep = []
    edges = assembly._graded_edges

    def counting(g):
        steep.append(g.size)
        return edges(g)

    monkeypatch.setattr(assembly, "_graded_edges", counting)
    mesh = build_mesh(64, delta=delta)
    n = mesh.m - 1
    rng = np.random.default_rng(11)
    scatter = [tuple(sorted(rng.integers(0, n, 2), reverse=True)) for _ in range(30)]
    entries = sorted(
        {(i, 0) for i in range(n)}
        | {(n - 1, j) for j in range(n)}
        | {(i, i + 1) for i in range(n - 1)}
        | set(scatter)
    )
    assert len(entries) >= 200
    exact = {(i, j): stiffness_entry_decimal(mesh.nodes, alpha, i + 1, j + 1) for i, j in entries}
    # the direct block, and the scaled table block that assemble_system takes
    for build in (assemble_lead, lambda mesh, alpha: _system_lead(alpha, mesh)):
        steep.clear()
        A = build(mesh, alpha)
        assert bool(steep) == (delta == 12.0)
        row_max = np.max(np.abs(A), axis=1)
        for i, j in entries:
            assert abs(A[i, j] - exact[i, j]) <= 1e-8 * row_max[i], (i, j)


def test_lead_row_blocks_do_not_change_entries(monkeypatch):
    mesh = build_mesh(64, delta=5.0)
    whole = assemble_lead(mesh, 1.25)
    assert np.max(np.abs(np.triu(whole, k=2))) == 0.0
    # far-field blocks of 1 and 7 element rows
    assert assembly._FAR_PAIRS // mesh.m > 7
    for rows in (1, 7):
        monkeypatch.setattr(assembly, "_FAR_PAIRS", rows * mesh.m)
        assert np.array_equal(assemble_lead(mesh, 1.25), whole)


def _table(alpha, delta, levels, base=None):
    """The lead table of a fresh spec, or of one derived from ``base`` by
    with_alpha, after it was asked for build_mesh(2^k, delta) at each k of
    ``levels`` in turn."""
    spec = base.with_alpha(alpha) if base else ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    for k in levels:
        spec.lead(build_mesh(2**k, delta))
    return spec._lead_tables[delta]


def test_lead_table_does_not_depend_on_request_order(monkeypatch):
    # asked for level by level from the coarsest (7 -> 15 -> 31 -> 63 -> 127
    # rows, rebuilt at each), at 127 at once, at 127 and then at 63, and
    # through with_alpha after alpha 1.5 filled the shared far-field plans
    # finest first; the other alphas and gradings at up to 63 rows. 127 rows
    # take low-rank blocks of 8 to 64 hats, so both the gathered products
    # (up to _GATHER_SIZE hats) and the one-per-block ones; 63 rows take 8 to 32
    cases = [(1.25, 5.0, 7), *((alpha, delta, 6) for alpha in (1.05, 1.95) for delta in (2.0, 5.0))]
    for alpha, delta, top in cases:
        reference = _table(alpha, delta, [top])
        assert reference.shape == (2**top - 1, 2**top - 1)
        assert np.max(np.abs(np.triu(reference, k=2))) == 0.0
        for rows in (None, 1, 7):
            if rows is not None:  # far-field row blocks of 1 and 7 element rows at the top
                monkeypatch.setattr(assembly, "_FAR_PAIRS", rows * (2**top + 1))
            for levels in (range(3, top + 1), [top], [top, 6]):
                table = _table(alpha, delta, levels)
                assert np.array_equal(table, reference), (alpha, delta, rows, list(levels))
            first = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
            for k in range(top, 2, -1):
                first.lead(build_mesh(2**k, delta))
            plans = dict(first._far_plans[delta])
            assert plans
            table = _table(alpha, delta, range(top, 2, -1), first)
            assert np.array_equal(table, reference), (alpha, delta, rows, "with_alpha")
            assert first._far_plans[delta].keys() == plans.keys()
        monkeypatch.undo()


def test_lead_table_is_one_block_built_once(monkeypatch):
    # a finer mesh rebuilds the table whole; a coarser one takes a block of it
    calls = []
    build = assembly._lead_rows

    def counting(x, alpha, plans):
        calls.append(x.size - 2)
        return build(x, alpha, plans)

    monkeypatch.setattr(assembly, "_lead_rows", counting)
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    for m in (64, 16, 32, 64, 128, 8):
        spec.lead(build_mesh(m, 5.0))
    assert calls == [63, 127]
    assert spec._lead_tables[5.0].shape == (127, 127)
    assert np.array_equal(spec._lead_tables[5.0], _table(1.25, 5.0, [7]))


def test_lead_table_is_kept_on_the_spec():
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    twin = ProblemSpec(alpha=1.25, q=spec.q, f=spec.f)
    key = hash(spec)
    fine = assemble_system(spec, build_mesh(32, 5.0), "standard")
    table = spec._lead_tables[5.0]
    assert table.shape == (31, 31)
    # a coarser level takes a scaled block of the same table
    coarse = assemble_system(spec, build_mesh(16, 5.0), "standard")
    assert spec._lead_tables[5.0] is table
    assert np.array_equal(coarse.lead.dense, 16.0 ** (5.0 * 0.25) * table[:15, :15])
    assert np.array_equal(fine.lead.dense, 32.0 ** (5.0 * 0.25) * table[:31, :31])
    # one table per grading exponent; none for uniform or raw-node meshes
    spec.lead(build_mesh(8, 2.0))
    spec.lead(build_mesh(64))
    spec.lead(Mesh(build_mesh(64, 3.0).nodes))
    assert sorted(spec._lead_tables) == [2.0, 5.0]
    # the table is not a field: equality and hashing ignore it
    assert "_lead_tables" in vars(spec) and "_lead_tables" not in vars(twin)
    assert spec == twin and hash(spec) == key == hash(twin)
    # another spec, or one derived with replace(), builds its own table
    for other in (twin, dataclasses.replace(spec)):
        other.lead(build_mesh(32, 5.0))
        assert other._lead_tables[5.0] is not table
        assert np.array_equal(other._lead_tables[5.0], table)
    moved = dataclasses.replace(spec, alpha=1.75)
    moved.lead(build_mesh(32, 5.0))
    assert np.array_equal(moved._lead_tables[5.0], _table(1.75, 5.0, [5]))
    assert not np.array_equal(moved._lead_tables[5.0], table)


def test_with_alpha_shares_only_the_alpha_free_data():
    spec = ProblemSpec(alpha=1.25, q=parse_field("chi(0,0.5)"), f=source_bump())
    spec.lead(build_mesh(32, 5.0))
    terms = spec.level_terms(build_mesh(32, 5.0))
    plans, pair = dict(spec._far_plans[5.0]), spec.singular_pair
    assert plans
    moved = spec.with_alpha(1.75)
    assert moved == dataclasses.replace(spec, alpha=1.75)
    assert moved._far_plans is spec._far_plans and moved._level_terms is spec._level_terms
    assert "_lead_tables" not in vars(moved) and "singular_pair" not in vars(moved)
    # the next alpha builds its own table from the same plans, adding none,
    # and takes the level's mass bands and source load as they are
    moved.lead(build_mesh(32, 5.0))
    assert moved._lead_tables[5.0] is not spec._lead_tables[5.0]
    assert spec._far_plans[5.0].keys() == plans.keys()
    assert all(spec._far_plans[5.0][key] is plan for key, plan in plans.items())
    assert all(got is kept for got, kept in zip(moved.level_terms(build_mesh(32, 5.0)), terms))
    assert list(spec._level_terms) == [(32, 5.0)]
    assert moved.singular_pair.u_s != pair.u_s and spec.singular_pair is pair
    # a spec built afresh or by replace() starts with stores of its own
    for other in (ProblemSpec(alpha=1.25, q=spec.q, f=spec.f), dataclasses.replace(spec)):
        assert other._far_plans == {} and other._level_terms == {}


def test_level_terms_are_kept_read_only_for_build_mesh_levels_only():
    q = parse_field("chi(0,0.5)")
    spec = ProblemSpec(alpha=1.5, q=q, f=source_step())
    for mesh in (build_mesh(16), build_mesh(16, 2.0)):
        terms = spec.level_terms(mesh)
        want = (*mass_bands(mesh, q), load_vector(mesh, spec.f))
        assert all(np.array_equal(got, w) and not got.flags.writeable for got, w in zip(terms, want))
        with pytest.raises(ValueError):
            terms[2][0] = 0.0
    # the same nodes without a recorded grading are computed afresh, kept
    # nowhere, by the level terms and by a whole system alike
    raw = Mesh(build_mesh(16).nodes.copy())
    fresh = ProblemSpec(alpha=1.5, q=q, f=source_step())
    terms = fresh.level_terms(raw)
    assert all(np.array_equal(got, w) for got, w in zip(terms, spec.level_terms(build_mesh(16))))
    assemble_system(fresh, raw, "reconstruction")
    assert fresh._level_terms == {} and list(spec._level_terms) == [(16, 1.0), (16, 2.0)]


def test_far_field_plans_do_not_depend_on_request_order():
    # a finer table drops the plans of the coarser one, so a spec asked
    # coarse to fine keeps only the plans of its finest table
    keys = []
    for levels in (range(3, 10), range(9, 2, -1)):
        spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
        for k in levels:
            spec.lead(build_mesh(2**k, 5.0))
        keys.append(sorted(spec._far_plans[5.0]))
    assert keys[0] == keys[1] == [(3, 512)]


@given(
    st.floats(min_value=1.001, max_value=1.999),
    st.floats(min_value=1.1, max_value=6.0),
    st.integers(min_value=4, max_value=96),
)
@settings(max_examples=60, deadline=None)
def test_scaled_table_block_matches_direct_lead(alpha, delta, m):
    # the table is first built past m, so the block is a leading slice of it
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    spec.lead(build_mesh(2 * m, delta))
    mesh = build_mesh(m, delta)
    direct = assemble_lead(mesh, alpha)
    scaled = spec.lead(mesh).dense
    row_max = np.max(np.abs(direct), axis=1)
    assert np.all(np.abs(scaled - direct) <= 1e-12 * row_max[:, None])


def test_steep_gradings_take_the_direct_block():
    # nodes j^delta past 2^256 would leave the normal floats in the table
    spec = ProblemSpec(alpha=1.3, q=zero_field(), f=source_bump())
    for m, delta in ((64, 40.0), (64, 44.0), (256, 33.0)):
        mesh = build_mesh(m, delta)
        lead, direct = spec.lead(mesh).dense, assemble_lead(mesh, 1.3)
        if delta * np.log2(m + 1.0) > 256.0:
            assert np.array_equal(lead, direct), (m, delta)
        else:
            row_max = np.max(np.abs(direct), axis=1)
            assert np.all(np.abs(lead - direct) <= 1e-12 * row_max[:, None])
    assert sorted(spec._lead_tables) == [40.0]


@pytest.mark.parametrize("alpha", [1.25, 1.75])
def test_lead_matches_decimal_oracle_at_m512(alpha):
    # at m = 512, delta = 5 the nine-term form cancels through ~30 digits in
    # column 0; the far field must come from the Peano form to hold 1e-10
    mesh = build_mesh(512, delta=5.0)
    n = mesh.m - 1
    rng = np.random.default_rng(17)
    scatter = [tuple(sorted(rng.integers(0, n, 2), reverse=True)) for _ in range(60)]
    entries = sorted(
        {(i, 0) for i in range(3, n, 7)}
        | {(n - 1, j) for j in range(0, n, 7)}
        | {(i, i - 3) for i in range(3, n, 7)}
        | set(scatter)
    )
    exact = {(i, j): stiffness_entry_decimal(mesh.nodes, alpha, i + 1, j + 1) for i, j in entries}
    for A in (assemble_lead(mesh, alpha), _system_lead(alpha, mesh)):
        row_max = np.max(np.abs(A), axis=1)
        for i, j in entries:
            assert abs(A[i, j] - exact[i, j]) <= 1e-10 * row_max[i], (i, j)


@pytest.mark.parametrize(
    "nodes",
    [
        np.r_[0.0, np.sort(np.random.default_rng(5).random(23)), 1.0],
        np.r_[0.0, 1e-9, 2e-9, 3e-9, np.linspace(0.1, 1.0, 12)],
    ],
    ids=["random", "tiny-elements"],
)
def test_lead_far_field_on_irregular_meshes(nodes):
    # widths that shrink as well as grow; the second mesh has pairs whose
    # separation ratio needs graded panels
    mesh = Mesh(nodes)
    A = assemble_lead(mesh, 1.3)
    row_max = np.max(np.abs(A), axis=1)
    for i, j in zip(*np.tril_indices(mesh.m - 1, -3)):
        exact = stiffness_entry_decimal(mesh.nodes, 1.3, i + 1, j + 1)
        assert abs(A[i, j] - exact) <= 1e-12 * row_max[i], (i, j)


def test_refused_width_names_delta_only_on_graded_meshes():
    # raw nodes record no grading exponent, so the refusal names none
    mesh = Mesh(np.r_[0.0, 1e-200, np.linspace(0.1, 1, 5)])
    with pytest.raises(DomainError, match=r"^mesh element width 1e-200 squares to zero$"):
        assemble_lead(mesh, 1.5)
    with pytest.raises(DomainError, match=r"squares to zero \(grading exponent 160.0\)$"):
        assemble_lead(build_mesh(64, 160.0), 1.5)


@pytest.mark.parametrize("alpha", [1.001, 1.5, 1.999])
@pytest.mark.parametrize(
    "nodes",
    [
        *(build_mesh(256, delta).nodes for delta in (1.1, 2.0, 5.0, 12.0)),
        np.r_[0.0, np.sort(np.random.default_rng(5).random(23)), 1.0],
    ],
    ids=["graded-1.1", "graded-2", "graded-5", "graded-12", "random"],
)
def test_low_rank_far_field_matches_gauss_tiers(monkeypatch, nodes, alpha):
    # the Chebyshev column blocks against the element-pair tier rules that
    # they replace: with no admissible block, every far pair takes its tier
    mesh = Mesh(nodes)
    blocks = assembly._far_blocks(nodes, np.arange(3, mesh.m))[0]
    assert blocks.size > 0
    A = assemble_lead(mesh, alpha)
    monkeypatch.setattr(assembly, "_CHEB_ETA", 0.0)
    tiers = assemble_lead(mesh, alpha)
    far = np.tril(np.ones(A.shape, dtype=bool), -3)
    assert np.array_equal(A[~far], tiers[~far])
    assert np.all(np.abs(A[far] - tiers[far]) <= 2e-13 * np.abs(tiers[far]))


def test_steep_pairs_take_the_same_bits_in_any_group():
    # element pairs past the top tier share one product per pair of panel
    # counts; each moment must be what it is when evaluated alone
    rng = np.random.default_rng(3)
    ha, hb = 10.0 ** rng.uniform(-7.0, 0.0, (2, 60))
    gap = np.maximum(ha, hb) / rng.uniform(0.01, 5e4, 60)
    assert np.count_nonzero(np.maximum(ha, hb) / gap > assembly._FAR_RULES[-1][1]) > 40
    for e in (-2.001, -2.5, -2.999):
        together = assembly._far_moments(gap, ha, hb, e)
        assert np.all(np.isfinite(together)) and np.all(together > 0.0)
        for k in range(60):
            alone = assembly._far_moments(gap[k : k + 1], ha[k : k + 1], hb[k : k + 1], e)
            assert np.array_equal(alone[..., 0], together[..., k]), (e, k)


def test_column_factors_are_read_only_and_independent_of_grouping():
    # blocks of 8 hats take several passes of _HAT_CHUNK hats; each block's
    # factors must be what they are when asked for alone
    x = build_mesh(256, 3.0).nodes
    for size in (8, 32, 64):
        blocks = np.arange((x.size - 2) // size)
        together = assembly._block_factors(x, size, blocks)
        assert not together.flags.writeable
        assert together.shape == (blocks.size, assembly._CHEB_K, size)
        for b in blocks:
            alone = assembly._block_factors(x, size, blocks[b : b + 1])
            assert not alone.flags.writeable
            assert np.array_equal(alone[0], together[b]), (size, b)


_ALTERNATING = np.tile([1e-6, 1.0], 15)


@pytest.mark.parametrize(
    "nodes, bound",
    [
        (build_mesh(96, 6.0).nodes, 1e-13),
        (build_mesh(16, 64.0).nodes, 1e-11),
        (np.r_[0.0, np.sort(np.random.default_rng(5).random(23)), 1.0], 1e-13),
        (np.r_[0.0, 1e-9, 2e-9, 3e-9, np.linspace(0.1, 1.0, 12)], 1e-13),
        (np.r_[np.cumsum(np.r_[0.0, _ALTERNATING])[:-1] / _ALTERNATING.sum(), 1.0], 1e-8),
    ],
    ids=["graded-6", "graded-64", "random", "tiny-elements", "alternating-1e-6"],
)
def test_lead_near_band_where_neighbour_widths_differ(nodes, bound):
    # summed over the hats' slope jumps, the closed form cancels by about the
    # ratio of neighbouring widths (up to 2^64 here); element pair by element
    # pair, with the narrow element's difference taken by expm1 and log1p, it
    # does not
    mesh = Mesh(nodes)
    A = assemble_lead(mesh, 1.05)
    assert np.all(np.isfinite(A))
    n = mesh.m - 1
    row_max = np.max(np.abs(A), axis=1)
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 2)):
            exact = stiffness_entry_decimal(mesh.nodes, 1.05, i + 1, j + 1)
            assert abs(A[i, j] - exact) <= bound * row_max[i], (i, j)


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
def test_stencil_agrees_with_dense(alpha):
    mesh = build_mesh(32)
    A = assemble_lead(mesh, alpha)
    B = stencil_to_dense(lead_stencil(mesh, alpha))
    assert np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(A))


@given(alpha=st.floats(min_value=1.001, max_value=1.999), m=st.integers(min_value=4, max_value=96))
@settings(max_examples=60, deadline=None)
def test_dense_lead_matches_stencil_on_uniform_meshes(alpha, m):
    mesh = build_mesh(m)
    A = assemble_lead(mesh, alpha)
    B = stencil_to_dense(lead_stencil(mesh, alpha))
    assert np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(A))


@pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
def test_dense_far_field_matches_stencil_entrywise(alpha):
    # each far entry to 1e-12 of itself, not only of the row maximum
    mesh = build_mesh(200)
    far = np.tril_indices(mesh.m - 1, -3)
    A = assemble_lead(mesh, alpha)[far]
    B = stencil_to_dense(lead_stencil(mesh, alpha))[far]
    assert np.max(np.abs(A - B) / np.abs(B)) <= 1e-12


def test_stencil_far_field_frozen():
    # direct 4th differences in 80-bit floats at m = 64, alpha = 1.5
    st = lead_stencil(build_mesh(64), 1.5)
    frozen = {
        0: 7.050551600909808,
        1: -6.018022224509401,
        -1: 0.7074550796678998,
        -5: -0.06437537564526956,
        -40: -0.00033482853002428945,
    }
    for d, v in frozen.items():
        assert st[d + 62] == pytest.approx(v, rel=1e-10)
    # positive offsets beyond the coupling band vanish identically
    assert np.all(st[64:] == 0.0)


@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
def test_stencil_far_field_matches_decimal_oracle(m, alpha):
    # the moment series against the closed form in 50 digits, entry by entry
    st = lead_stencil(build_mesh(m), alpha)
    nodes = build_mesh(m).nodes
    for dist in (3, 4, 5, 10, 40, m - 2):
        want = stiffness_entry_decimal(nodes, alpha, dist + 1, 1)
        assert st[m - 2 - dist] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m", [8, 64, 1024])
@pytest.mark.parametrize("alpha", [1.001, 1.25, 1.75, 1.999])
def test_stencil_far_field_matches_peano_quadrature(m, alpha):
    far = lead_stencil(build_mesh(m), alpha)[: m - 4]
    want = stencil_far_field_peano(m, alpha)
    assert np.max(np.abs(far - want) / np.abs(want)) <= 1e-14


def test_stencil_far_field_needs_no_gauss_rule(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the stencil far field evaluated a Gauss panel")

    monkeypatch.setattr(assembly, "legendre_panel", refuse)
    monkeypatch.setattr(assembly, "weighted_rule", refuse)
    st = lead_stencil(build_mesh(4096), 1.5)
    assert np.all(np.isfinite(st)) and np.all(st[: 4096 - 4] < 0.0)


# 101 evenly spaced alphas from 1.0001 to 1.9999, and four-decimal alphas at
# which 11 series terms from offset 12 on round differently from 50
STENCIL_ALPHAS = [*np.linspace(1.0001, 1.9999, 101), 1.607, 1.853, 1.9405, 1.9472]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 13, 14, 21, 22, 23, 40, 64, 4096, 65536])
def test_stencil_matches_full_series_bit_for_bit(m):
    # the cached band and the short far series change no bit, not even the
    # sign of a zero
    mesh = build_mesh(m)
    for alpha in STENCIL_ALPHAS:
        got, want = lead_stencil(mesh, alpha), lead_stencil_full_series(m, alpha)
        assert np.array_equal(got, want), (m, alpha)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (m, alpha)


def test_stencil_cache_is_bounded_and_read_only():
    lead_stencil(build_mesh(64), 1.5)
    assert assembly._stencil_band.cache_info().maxsize is not None
    band, short = assembly._stencil_band(1.5)
    assert not band.flags.writeable
    with pytest.raises(ValueError):
        band[0] = 0.0
    assert isinstance(short, tuple)
    # a returned stencil is the caller's own: writing to it leaves the cache
    st = lead_stencil(build_mesh(8), 1.5)
    st[:] = 0.0
    assert np.array_equal(lead_stencil(build_mesh(8), 1.5), lead_stencil_full_series(8, 1.5))


def test_stencil_requires_uniform_mesh():
    with pytest.raises(ArgumentError):
        lead_stencil(build_mesh(8, delta=2.0), 1.5)


# --- the Lead operator -----------------------------------------------------------

LEAD_CASES = dict(
    alpha=st.floats(min_value=1.001, max_value=1.999),
    m=st.integers(min_value=2, max_value=48),
    delta=st.sampled_from([1.0, 2.0, 5.0]),
)


@given(**LEAD_CASES, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lead_matvec_matches_dense(alpha, m, delta, seed):
    lead = Lead.of(build_mesh(m, delta), alpha)
    assert (lead.stencil is not None) == (delta == 1.0)
    dense = dense_lead(lead)
    x = np.random.default_rng(seed).standard_normal(m - 1)
    gap = np.max(np.abs(lead.matvec(x) - dense @ x))
    assert gap <= 1e-12 * np.max(np.abs(dense) @ np.abs(x))


@given(**LEAD_CASES)
@settings(max_examples=60, deadline=None)
def test_lead_abs_row_sum_bounds_rows(alpha, m, delta):
    lead = Lead.of(build_mesh(m, delta), alpha)
    assert lead.abs_row_sum() >= np.max(np.sum(np.abs(dense_lead(lead)), axis=1))


@given(**LEAD_CASES)
@settings(max_examples=60, deadline=None)
def test_lead_diagonal_is_a_fresh_copy(alpha, m, delta):
    lead = Lead.of(build_mesh(m, delta), alpha)
    kept = dense_lead(lead)
    x = np.linspace(-1.0, 1.0, m - 1)
    product = lead.matvec(x)
    diagonal = lead.diagonal()
    diagonal += 1.0  # the preconditioner may scale what it is given
    assert np.array_equal(dense_lead(lead), kept)
    assert np.array_equal(lead.matvec(x), product)
    assert np.array_equal(lead.diagonal(), np.diag(kept))


@given(**LEAD_CASES)
@settings(max_examples=60, deadline=None)
def test_lead_diagonal_and_rows_match_dense(alpha, m, delta):
    lead = Lead.of(build_mesh(m, delta), alpha)
    dense = dense_lead(lead)
    assert np.array_equal(lead.diagonal(), np.diag(dense))
    for i in {0, (m - 1) // 2, m - 2}:
        row = lead.row(i)
        assert np.array_equal(row, dense[i])
        row += 1.0  # a fresh copy
        assert np.array_equal(lead.row(i), dense[i])


def test_lead_holds_exactly_one_format():
    with pytest.raises(ArgumentError):
        Lead()
    with pytest.raises(ArgumentError):
        Lead(stencil=np.ones(3), dense=np.ones((2, 2)))


# --- mass and loads ------------------------------------------------------------


def test_mass_bands_frozen_values():
    # quad of t(1-t) phi_i phi_j on m = 4; the integrands are quartic
    diag, off = mass_bands(build_mesh(4), source_bump())
    np.testing.assert_allclose(
        diag, [0.030208333333333337, 0.040625, 0.03020833333333333], rtol=1e-13
    )
    np.testing.assert_allclose(
        off, [0.009635416666666665, 0.009635416666666667], rtol=1e-13
    )
    full = assemble_mass_q(build_mesh(4), source_bump())
    assert full[0, 1] == full[1, 0] == pytest.approx(off[0], rel=1e-14)
    assert np.max(np.abs(np.triu(full, k=2))) == 0.0


def test_mass_zero_potential():
    diag, off = mass_bands(build_mesh(8), zero_field())
    assert not diag.any() and not off.any()


def test_mass_matches_quadrature_on_graded_mesh():
    mesh = build_mesh(5, delta=2.0)
    q = source_bump()
    diag, off = mass_bands(mesh, q)
    for j in (1, 3):
        phi = hat_value(mesh.nodes, j)
        got = load_entry_quad(mesh.nodes, lambda t: q(t) * phi(t), j)
        assert diag[j - 1] == pytest.approx(got, rel=1e-10)
    phi1 = hat_value(mesh.nodes, 1)
    got = load_entry_quad(mesh.nodes, lambda t: q(t) * phi1(t), 2)
    assert off[0] == pytest.approx(got, rel=1e-10)


def test_load_inverse_quartic_frozen():
    out = load_vector(build_mesh(4), source_inverse_quartic())
    np.testing.assert_allclose(
        out,
        [0.36731454005041797, 0.2993687673834674, 0.2694418451785009],
        rtol=1e-10,
    )


@pytest.mark.parametrize("field,breaks,left_exp", [
    (source_bump(), (), 0.0),
    (source_step(), (0.5,), 0.0),
    (source_inverse_quartic(), (), -0.25),
])
def test_load_matches_quadrature(field, breaks, left_exp):
    mesh = build_mesh(8, delta=1.5)
    out = load_vector(mesh, field)
    for j in (1, 4, 8 - 1):
        oracle = load_entry_quad(
            mesh.nodes, field, j, left_exponent=left_exp, breaks=breaks
        )
        assert out[j - 1] == pytest.approx(oracle, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("delta", [1.0, 5.0])
@pytest.mark.parametrize(
    "ps",
    [
        source_bump(),
        source_step(),
        source_inverse_quartic(),
        # custom sums with two interior anchors; 0.25 is a node of m = 16
        parse_field("chi(0.3,0.7)"),
        fraccalc.PowerSum.from_terms([(2.5, 0.25, 1.5), (-0.75, 0.6, 0.5)]),
    ],
    ids=["a", "b", "c", "chi", "powers"],
)
@pytest.mark.parametrize("m", [2, 3, 16, 37, 256])
def test_powersum_load_matches_per_term_loop_bit_for_bit(m, ps, delta):
    mesh = build_mesh(m, delta)
    got, want = load_vector(mesh, ps), powersum_load_per_term(mesh, ps)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_quadrature_load_path_without_powersum():
    # a callable with no power sum takes the Gauss rules of 10 points
    mesh = build_mesh(16)

    def smooth(x):
        return np.sin(np.pi * np.asarray(x))

    out = quadrature_load(mesh, smooth, 10)
    for j in (1, 8, 15):
        oracle = load_entry_quad(mesh.nodes, smooth, j)
        assert out[j - 1] == pytest.approx(oracle, rel=1e-9)


def test_endpoint_weight_vector_frozen():
    s = endpoint_weight_vector(build_mesh(4), source_bump(), 1.5)
    np.testing.assert_allclose(
        s,
        [0.04231542832479732, 0.0475486405345039, 0.025988141759332364],
        rtol=1e-10,
    )


def test_endpoint_weight_vector_matches_quadrature():
    mesh = build_mesh(8)
    alpha = 1.75
    q = source_bump()
    s = endpoint_weight_vector(mesh, q, alpha)
    for j in (1, 5, 7):
        oracle = endpoint_weight_entry_quad(mesh.nodes, q, j, alpha)
        assert s[j - 1] == pytest.approx(oracle, rel=1e-10)
    assert not endpoint_weight_vector(mesh, zero_field(), alpha).any()


# a potential that jumps inside elements: 0.3 and 0.7 are nodes of no
# build_mesh(2) or build_mesh(5); on m = 2 they sit in the first and the last
# element, whose rules absorb an end power
INTERIOR_JUMPS = parse_field("chi(0.3,0.7)*(1+x)")


@pytest.mark.parametrize("m", [2, 5])
def test_mass_bands_cut_at_interior_anchors(m):
    mesh = build_mesh(m)
    diag, off = mass_bands(mesh, INTERIOR_JUMPS)
    for j in range(1, m):
        # (q phi_j, phi_i) as the load of q phi_j against hat i = j, j + 1
        phi = hat_value(mesh.nodes, j)
        entries = [
            load_entry_quad(mesh.nodes, lambda t: INTERIOR_JUMPS(t) * phi(t), i, breaks=(0.3, 0.7))
            for i in range(j, min(j + 2, m))
        ]
        assert diag[j - 1] == pytest.approx(entries[0], rel=1e-12)
        if j < m - 1:
            assert off[j - 1] == pytest.approx(entries[1], rel=1e-12)


# uniform meshes, and a graded one whose nodes 1/36, 1/9, 1/4, 4/9 and 25/36
# leave 0.3 and 0.7 inside elements too
CUT_MESHES = pytest.mark.parametrize(
    "mesh", [build_mesh(2), build_mesh(5), build_mesh(6, 2.0)], ids=["2", "5", "6-graded"]
)


@CUT_MESHES
@pytest.mark.parametrize("alpha", [1.3, 1.7])
def test_endpoint_weight_vector_cut_at_interior_anchors(mesh, alpha):
    s = endpoint_weight_vector(mesh, INTERIOR_JUMPS, alpha)
    for j in range(1, mesh.m):
        want = endpoint_weight_entry_quad(mesh.nodes, INTERIOR_JUMPS, j, alpha, (0.3, 0.7))
        assert s[j - 1] == pytest.approx(want, rel=1e-10)


@CUT_MESHES
def test_quadrature_load_cut_at_breaks(mesh):
    # x^(-1/4) (1 + chi(0.3,0.7)): singular at 0 and jumping at both breaks,
    # a callable with no power sum to say where
    jumps = parse_field("chi(0.3,0.7)")

    def field(x):
        return x**-0.25 * (1.0 + jumps(x))

    out = quadrature_load(mesh, field, 10, (0.3, 0.7), left_exp=-0.25)
    for j in range(1, mesh.m):
        want = load_entry_quad(mesh.nodes, field, j, left_exponent=-0.25, breaks=(0.3, 0.7))
        assert out[j - 1] == pytest.approx(want, rel=1e-10)


def test_anchors_on_nodes_change_no_bit(monkeypatch):
    # jumps at nodes need no cut; the rules must stay the uncut ones
    mesh = build_mesh(8, delta=2.0)  # 0.25 and 0.5625 are nodes
    q = parse_field("chi(0.25,0.5625)*(1+x)")
    cut = (*mass_bands(mesh, q), endpoint_weight_vector(mesh, q, 1.4))
    monkeypatch.setattr(assembly, "_anchors", lambda field: ())  # the same field, its anchors unseen
    blind = (*mass_bands(mesh, q), endpoint_weight_vector(mesh, q, 1.4))
    for got, want in zip(cut, blind):
        assert np.array_equal(got, want)
    monkeypatch.undo()
    def field(x):
        return x**-0.25 * q(x)

    cut, blind = (quadrature_load(mesh, field, 10, breaks, left_exp=-0.25) for breaks in ((0.25, 0.5625), ()))
    assert np.array_equal(cut, blind)


# --- problem validation ----------------------------------------------------------


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(alpha=2.0, q=zero_field(), f=source_bump())
    with pytest.raises(DomainError):
        ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump(), bc="mixed")
    with pytest.raises(ArgumentError):
        ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump(), bc="periodic")
    # a potential too large to be taken as bounded is rejected up front
    with pytest.raises(DomainError):
        ProblemSpec(alpha=1.5, q=parse_field("2e8*x"), f=source_bump())
    # a negative power with a zero coefficient is no blow-up
    q = fraccalc.PowerSum.from_terms([(0.0, 0.0, -0.5), (1.0, 0.0, 1.0)])
    assert ProblemSpec(alpha=1.5, q=q, f=source_bump()).singular_pair.c0 > 0.0


@pytest.mark.parametrize("expr,hint", [("x^-0.5", -0.5), ("x^-0.9", -0.9), ("x^-0.1-chi(0.5,1)", -0.1)])
def test_unbounded_potential_is_refused_by_its_exponent(expr, hint):
    # x^-0.5 stays below 1e8 at every point of a sample that starts at 1e-3,
    # but its mass bands would take plain Gauss rules on an unbounded integrand;
    # a hint that states the exponent does not let it through
    with pytest.raises(DomainError, match=r"x\^-0\.\d"):
        ProblemSpec(alpha=1.5, q=parse_field(expr), f=source_bump())
    with pytest.raises(DomainError, match=r"x\^-0\.\d"):
        ExperimentConfig(q_kind="custom", q_expr=expr, q_hint=hint, method="recon")


def test_singular_exponent_by_condition():
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    assert spec.singular_exponent == pytest.approx(0.25)
    spec = ProblemSpec(alpha=1.75, q=zero_field(), f=source_bump(), bc="mixed")
    assert spec.singular_exponent == pytest.approx(-0.25)


# --- singular splitting ------------------------------------------------------------


def test_splitting_without_potential_is_trivial():
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    pair = build_singular_pair(spec)
    assert pair.c0 == 1.0
    # (I^1.5 t(1-t))(1), frozen from adaptive quadrature of the convolution
    assert pair.f_frac_at_one == pytest.approx(0.12895761909663, rel=1e-9)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(pair.u_s(xs), xs**0.5 - xs**2, rtol=1e-14, atol=1e-15)
    assert pair.u_s(1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "alpha,frozen_mu",
    [(1.25, 0.15087352496695208), (1.5, 0.12895761909663), (1.75, 0.1055093577824017)],
)
def test_strength_scale_matches_quadrature(alpha, frozen_mu):
    spec = ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    assert build_singular_pair(spec).f_frac_at_one == pytest.approx(frozen_mu, rel=1e-9)


def test_splitting_constant_with_potential_frozen():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    pair = build_singular_pair(spec)
    # 1 / (1 + quad of (1-t)^0.5 q(t)(t^0.5 - t^2) / Gamma(1.5))
    assert pair.c0 == pytest.approx(0.9507318209834486, rel=1e-10)


def test_problem_spec_refuses_a_plain_callable():
    # every field is a power sum: a plain callable is refused, with the
    # name of the field, before anything is built
    bump = source_bump()
    for q, f, name in ((bump.__call__, bump, "q"), (bump, np.sin, "f")):
        with pytest.raises(UnsupportedFormError, match=rf"field {name} must be a PowerSum, got "):
            ProblemSpec(alpha=1.6, q=q, f=f)


def test_mixed_profile_and_modified_source():
    spec = ProblemSpec(alpha=1.75, q=source_bump(), f=source_bump(), bc="mixed")
    pair = build_singular_pair(spec)
    assert spec.singular_exponent == pytest.approx(-0.25)
    x = np.array([0.3, 0.7])
    # Q = c0 c1 - c0 q u_s, c1 = -2/Gamma(3 - alpha) x^(2 - alpha), checked pointwise
    c1 = -2.0 / gamma_special(3.0 - spec.alpha) * x ** (2.0 - spec.alpha)
    expect_q = pair.c0 * (c1 - spec.q(x) * pair.u_s(x))
    np.testing.assert_allclose(pair.q_profile(x), expect_q, rtol=1e-13)


@pytest.mark.parametrize(
    "alpha,bc",
    [(1.1, "dirichlet"), (1.5, "dirichlet"), (1.99, "dirichlet"), (1.55, "mixed"), (1.95, "mixed")],
)
def test_adaptive_splitting_constant_matches_incomplete_beta(alpha, bc):
    # chi(0,1/2) = 1 - (x - 1/2)_+^0: the power rule for the first term, the
    # anchored rule for the second; closed form:
    # int_0^(1/2) (1-t)^(a-1) t^e dt = B(e+1, a) I_(1/2)(e+1, a)
    spec = ProblemSpec(alpha=alpha, q=parse_field("chi(0,0.5)"), f=source_bump(), bc=bc)
    p = spec.singular_exponent

    def half_moment(e):
        return beta_special(e + 1.0, alpha) * betainc(e + 1.0, alpha, 0.5)

    expect = 1.0 / (1.0 + (half_moment(p) - half_moment(2.0)) / gamma_special(alpha))
    assert build_singular_pair(spec).c0 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.7, 1.9])
def test_splitting_constant_splits_at_non_dyadic_anchors(alpha):
    # 0.3 and 0.7 are no dyadic points; each anchor starts its own rule,
    # and the constant matches a quadrature split at the same points, taken
    # one u_s term at a time as in test_splitting_constant_term_by_term (q u_s
    # as one field is off by up to 9e-12 in the oracle itself)
    spec = ProblemSpec(alpha=alpha, q=parse_field("chi(0.3,0.7)"), f=source_bump())
    integral = sum(
        t.coeff * frac_integral_quad(
            lambda x, e=t.exponent: spec.q(x) * x**e, alpha, 1.0, t.exponent % 2.0, (0.3, 0.7)
        )
        for t in spec.singular_pair.u_s.terms
    )
    assert spec.singular_pair.c0 == pytest.approx(1.0 / (1.0 + integral), rel=1e-12)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_splitting_constant_term_by_term(alpha):
    # chi(0,0.5) has no zero-anchored power sum, so q u_s is no power sum
    spec = ProblemSpec(alpha=alpha, q=parse_field("chi(0,0.5)"), f=source_bump())
    c0 = spec.singular_pair.c0
    # the oracle too goes term by term, t^2 without a weight: quad of q u_s
    # as one field with the weight t^(alpha-1) is off by up to 9e-12 here
    integral = sum(
        t.coeff * frac_integral_quad(
            lambda x, e=t.exponent: spec.q(x) * x**e, alpha, 1.0, t.exponent % 2.0, (0.5,)
        )
        for t in spec.singular_pair.u_s.terms
    )
    assert c0 == pytest.approx(1.0 / (1.0 + integral), rel=1e-13)


def test_singular_pair_is_cached_on_the_spec():
    spec = ProblemSpec(alpha=1.5, q=parse_field("chi(0,0.5)"), f=source_bump())
    twin = ProblemSpec(alpha=1.5, q=spec.q, f=spec.f)
    key = hash(spec)
    first = solve_reconstruction(spec, build_mesh(16))
    second = solve_reconstruction(spec, build_mesh(32))
    assert first.pair is spec.singular_pair
    assert second.pair is spec.singular_pair
    # the cached pair is not a field: equality and hashing ignore it
    assert "singular_pair" in vars(spec) and "singular_pair" not in vars(twin)
    assert spec == twin and hash(spec) == key == hash(twin)
    # a spec derived with replace() builds its own pair
    moved = dataclasses.replace(spec, alpha=1.7)
    assert moved.singular_pair is not spec.singular_pair
    assert moved.singular_pair.u_s(0.5) == pytest.approx(0.5**0.7 - 0.5**2, rel=1e-14)


def test_degenerate_splitting_detected():
    # scale the potential so 1 + (I^alpha q u_s)(1) crosses zero
    gamma = -1.0 / 0.051821321143524765
    spec = ProblemSpec(alpha=1.5, q=source_bump().scaled(gamma), f=source_bump())
    with pytest.raises(DegenerateSplittingError):
        build_singular_pair(spec)


# --- assembled system ---------------------------------------------------------------


def test_assembled_system_structure():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    mesh = build_mesh(32)
    system = assemble_system(spec, mesh, "reconstruction")
    n = system.n
    assert n == 31
    # rank-one coupling: the full matrix minus lead and mass has one singular value
    mass = assemble_mass_q(mesh, spec.q)
    gap = full_matrix(system) - dense_lead(system.lead) - mass
    sv = np.linalg.svd(gap, compute_uv=False)
    assert sv[1] / sv[0] < 1e-10
    # structured matvec equals the dense product
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        system_matvec(system, x), full_matrix(system) @ x, rtol=1e-11, atol=1e-13
    )
    np.testing.assert_allclose(system.mass_matvec(x), mass @ x, rtol=1e-13)


def test_recon_load_includes_profile_term():
    spec = ProblemSpec(alpha=1.5, q=source_bump(), f=source_bump())
    mesh = build_mesh(8)
    system = assemble_system(spec, mesh, "reconstruction")
    base = load_vector(mesh, spec.f)
    profile = load_vector(mesh, system.pair.q_profile)
    np.testing.assert_allclose(
        system.load, base + system.pair.f_frac_at_one * profile, rtol=1e-12
    )
    np.testing.assert_allclose(system.r_vec, profile, rtol=1e-15)


def test_standard_method_rejects_mixed_conditions():
    spec = ProblemSpec(alpha=1.75, q=zero_field(), f=source_bump(), bc="mixed")
    with pytest.raises(ArgumentError):
        assemble_system(spec, build_mesh(8), "standard")
    with pytest.raises(ArgumentError):
        assemble_system(spec, build_mesh(8), "petrov")


def test_dense_block_presence_by_size_and_grading(monkeypatch):
    # the lead's format follows the grading; every size reaches GMRES
    gmres_calls = []
    gmres = solver._gmres_solve

    def counted(system):
        gmres_calls.append(system.mesh.m)
        return gmres(system)

    monkeypatch.setattr(solver, "_gmres_solve", counted)
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    for m in (4, 64, 256, 512):
        for delta in (1.0, 2.0):
            system = assemble_system(spec, build_mesh(m, delta), "standard")
            assert (system.lead.stencil is not None) == (delta == 1.0)
            gmres_calls.clear()
            assert solver.solve_standard(system).residual <= solver.RESIDUAL_TOL
            assert gmres_calls == [m]
