"""Assembly of the leading block, mass, loads, and the singular splitting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from fracfem.errors import ArgumentError, DegenerateSplittingError, DomainError, UnsupportedFormError
from fracfem.cli import ExperimentConfig, run_experiment
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
    endpoint_entry_decimal,
    endpoint_weight_entry_quad,
    frac_integral_quad,
    full_matrix,
    hat_moment_decimal,
    hat_value,
    lead_stencil_full_series,
    load_entry_quad,
    profile_load_entry_quad,
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


def _table(alpha, delta, top):
    """The lead table that a fresh spec builds for build_mesh(2^top, delta)."""
    return assembly._lead_rows(np.arange(2.0**top + 1.0) ** delta, alpha, {})


def _leads(alpha, delta, levels, base=None):
    """(k, dense lead) of a fresh spec, or of one derived from ``base`` by
    with_alpha, asked for build_mesh(2^k, delta) at each k of ``levels`` in
    turn."""
    spec = base.with_alpha(alpha) if base else ProblemSpec(alpha=alpha, q=zero_field(), f=source_bump())
    return [(k, spec.lead(build_mesh(2**k, delta)).dense) for k in levels]


def _is_scaled_table(leads, alpha, delta, table) -> bool:
    """Whether each lead is m^(delta (alpha - 1)) times the leading block of
    ``table``, bit for bit."""
    return all(np.array_equal(dense, float(2**k) ** (delta * (alpha - 1.0)) * table[: 2**k - 1, : 2**k - 1])
               for k, dense in leads)


def test_lead_table_does_not_depend_on_request_order(monkeypatch):
    # asked for level by level from the coarsest (7 -> 15 -> 31 -> 63 -> 127
    # rows, rebuilt at each), at 127 at once, at 127 and then at 63, finest
    # first (each level taking the block the one before kept), at 127, 31
    # and then twice at 127 (a coarser copy, then two rebuilds), and through
    # with_alpha after alpha 1.5 filled the shared far-field plans finest
    # first; the other alphas and gradings at up to 63 rows. Every lead is
    # the scaled block of a fresh spec's table. 127 rows take low-rank blocks
    # of 8 to 64 hats, so both the gathered products (up to _GATHER_SIZE
    # hats) and the one-per-block ones; 63 rows take 8 to 32
    cases = [(1.25, 5.0, 7), *((alpha, delta, 6) for alpha in (1.05, 1.95) for delta in (2.0, 5.0))]
    for alpha, delta, top in cases:
        reference = _table(alpha, delta, top)
        assert reference.shape == (2**top - 1, 2**top - 1)
        assert np.max(np.abs(np.triu(reference, k=2))) == 0.0
        orders = (range(3, top + 1), [top], [top, 6], range(top, 2, -1), [top, top - 2, top, top])
        for rows in (None, 1, 7):
            if rows is not None:  # far-field row blocks of 1 and 7 element rows at the top
                monkeypatch.setattr(assembly, "_FAR_PAIRS", rows * (2**top + 1))
            for levels in orders:
                leads = _leads(alpha, delta, levels)
                assert _is_scaled_table(leads, alpha, delta, reference), (alpha, delta, rows, list(levels))
            first = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
            for k in range(top, 2, -1):
                first.lead(build_mesh(2**k, delta))
            plans = dict(first._far_plans[delta])
            cols = dict(plans["cols"])
            assert len(plans) > 1 and cols
            leads = _leads(alpha, delta, range(top, 2, -1), first)
            assert _is_scaled_table(leads, alpha, delta, reference), (alpha, delta, rows, "with_alpha")
            assert first._far_plans[delta].keys() == plans.keys()
            assert all(plans["cols"][size] is factors for size, factors in cols.items())
        monkeypatch.undo()


def test_lead_table_is_one_block_built_once(monkeypatch):
    # finest first, the table is built once and each level takes the block
    # that the one before kept; a level finer than the kept block rebuilds
    # the table whole, with the same bits, and a coarser one takes a scaled
    # copy of a block of it
    calls = []
    build = assembly._lead_rows

    def counting(x, alpha, plans):
        calls.append(x.size - 2)
        return build(x, alpha, plans)

    monkeypatch.setattr(assembly, "_lead_rows", counting)
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    leads = [(k, spec.lead(build_mesh(2**k, 5.0)).dense) for k in range(7, 2, -1)]
    assert calls == [127] and spec._lead_tables[5.0].shape == (3, 3)
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    leads += [(k, spec.lead(build_mesh(2**k, 5.0)).dense) for k in (6, 4, 5, 6, 7, 3, 7)]
    assert calls == [127, 63, 63, 127, 127] and spec._lead_tables[5.0].shape == (63, 63)
    assert _is_scaled_table(leads, 1.25, 5.0, build(np.arange(129.0) ** 5.0, 1.25, {}))


def test_lead_table_is_kept_on_the_spec():
    spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
    twin = ProblemSpec(alpha=1.25, q=spec.q, f=spec.f)
    key = hash(spec)
    reference = _table(1.25, 5.0, 5)
    # the finest level takes the table, scaled in place, and the spec keeps
    # a copy of its leading quarter, which the next coarser level takes
    fine = assemble_system(spec, build_mesh(32, 5.0), "standard")
    table = spec._lead_tables[5.0]
    assert table.shape == (15, 15) and np.array_equal(table, reference[:15, :15])
    assert not np.shares_memory(table, fine.lead.dense)
    assert np.array_equal(fine.lead.dense, 32.0 ** (5.0 * 0.25) * reference)
    coarse = assemble_system(spec, build_mesh(16, 5.0), "standard")
    assert coarse.lead.dense is table
    assert np.array_equal(coarse.lead.dense, 16.0 ** (5.0 * 0.25) * reference[:15, :15])
    assert np.array_equal(spec._lead_tables[5.0], reference[:7, :7])
    # one table per grading exponent; none for uniform meshes, nor for
    # gradings whose table nodes would pass 2^256 (50 log2(65) > 256)
    spec.lead(build_mesh(8, 2.0))
    spec.lead(build_mesh(64))
    steep = build_mesh(64, 50.0)
    assert np.array_equal(spec.lead(steep).dense, assemble_lead(steep, 1.25))
    assert sorted(spec._lead_tables) == [2.0, 5.0]
    # the table is not a field: equality and hashing ignore it
    assert "_lead_tables" in vars(spec) and "_lead_tables" not in vars(twin)
    assert spec == twin and hash(spec) == key == hash(twin)
    # another spec, or one derived with replace(), builds its own table
    kept = spec._lead_tables[5.0]
    for other in (twin, dataclasses.replace(spec)):
        assert np.array_equal(other.lead(build_mesh(32, 5.0)).dense, fine.lead.dense)
        assert other._lead_tables[5.0] is not kept and other._lead_tables[5.0] is not table
        assert np.array_equal(other._lead_tables[5.0], reference[:15, :15])
    moved = dataclasses.replace(spec, alpha=1.75)
    moved.lead(build_mesh(32, 5.0))
    assert np.array_equal(moved._lead_tables[5.0], _table(1.75, 5.0, 5)[:15, :15])
    assert not np.array_equal(moved._lead_tables[5.0], reference[:15, :15])


def test_graded_lead_memory_is_a_block_and_a_quarter(monkeypatch):
    # traced at m = 512, a block of 2 MiB: after the finest level the spec
    # keeps a quarter block, and solve_standard allocates under 1/8 of a
    # block besides its GMRES basis (no |A| temporary). The far-field plans
    # were filled by another alpha, whose m = 256 solve warms the FFT path
    mesh, block = build_mesh(512, 5.0), 8 * 511**2
    first = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    first.lead(mesh)
    solver.solve_standard(assemble_system(first, build_mesh(256, 5.0), "standard"))
    spec = first.with_alpha(1.25)
    spec.level_terms(mesh)
    tracemalloc.start()
    try:
        system = assemble_system(spec, mesh, "standard")
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solver.solve_standard(system)
        _, peak = tracemalloc.get_traced_memory()
        del system
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(table.nbytes for table in spec._lead_tables.values()) <= block / 4
    assert kept <= block / 4 + block / 64
    assert peak - held - 8 * (solver.GMRES_RESTART + 1) * 511 < block / 8
    # with far-field row batches of 32 rows, eight at m = 256, each column
    # block's factors are built once for every batch and alpha, and held once
    monkeypatch.setattr(assembly, "_FAR_PAIRS", 32 * 257)
    built = []
    factors = assembly._block_factors

    def recording(x, size, blocks):
        built.extend((size, b) for b in blocks.tolist())
        return factors(x, size, blocks)

    monkeypatch.setattr(assembly, "_block_factors", recording)
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    spec.lead(build_mesh(256, 5.0))
    spec.with_alpha(1.25).lead(build_mesh(256, 5.0))
    plans = spec._far_plans[5.0]
    assert len(plans) == 9 and len(built) == len(set(built))
    a, c, size = assembly._far_blocks(np.arange(257.0) ** 5.0, np.arange(3, 256))[:3]
    assert set(zip(size.tolist(), c.tolist())) <= set(built)
    cols = plans["cols"]
    assert sum(f.nbytes for f in cols.values()) == 8 * assembly._CHEB_K * sum(s for s, _ in built)


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
    assert list(spec._level_terms) == [build_mesh(32, 5.0)]
    assert moved.singular_pair.u_s != pair.u_s and spec.singular_pair is pair
    # so does the next alpha's reconstruction: it reads the moment plans
    # the first alpha left on the shared store, and adds none
    assemble_system(spec, build_mesh(16), "reconstruction")
    kept = dict(spec._moment_plans[build_mesh(16)])
    assert kept and moved._moment_plans is spec._moment_plans
    assemble_system(moved, build_mesh(16), "reconstruction")
    assert all(spec._moment_plans[build_mesh(16)][key] is plan for key, plan in kept.items())
    assert spec._moment_plans[build_mesh(16)].keys() == kept.keys()
    # a spec built afresh or by replace() starts with stores of its own
    for other in (ProblemSpec(alpha=1.25, q=spec.q, f=spec.f), dataclasses.replace(spec)):
        assert other._far_plans == {} and other._level_terms == {} and other._moment_plans == {}


def test_level_terms_are_kept_read_only_by_mesh():
    q = parse_field("chi(0,0.5)")
    spec = ProblemSpec(alpha=1.5, q=q, f=source_step())
    for mesh in (build_mesh(16), build_mesh(16, 2.0)):
        terms = spec.level_terms(mesh)
        want = (*mass_bands(mesh, q), load_vector(mesh, spec.f))
        assert all(np.array_equal(got, w) and not got.flags.writeable for got, w in zip(terms, want))
        with pytest.raises(ValueError):
            terms[2][0] = 0.0
        # an equal mesh built afresh, and a whole system on it, take the kept arrays
        again = Mesh(16, mesh.delta)
        assert all(got is kept for got, kept in zip(spec.level_terms(again), terms))
        system = assemble_system(spec, again, "standard")
        assert system.mass_diag is terms[0] and system.load is terms[2]
    assert list(spec._level_terms) == [build_mesh(16), build_mesh(16, 2.0)]


def test_far_field_plans_do_not_depend_on_request_order():
    # a finer table drops the row plans of the coarser one, so a spec asked
    # coarse to fine keeps only the row plans of its finest table; it extends
    # the column factors of the coarser one, as they do not depend on n
    keys, cols = [], []
    for levels in (range(3, 10), range(9, 2, -1)):
        spec = ProblemSpec(alpha=1.25, q=zero_field(), f=source_bump())
        for k in levels:
            spec.lead(build_mesh(2**k, 5.0))
        keys.append(sorted(key for key in spec._far_plans[5.0] if key != "cols"))
        cols.append(spec._far_plans[5.0]["cols"])
    assert keys[0] == keys[1] == [(3, 512)]
    assert sorted(cols[0]) == sorted(cols[1]) == [8, 16, 32, 64, 128, 256]
    assert all(np.array_equal(cols[0][size], cols[1][size]) for size in cols[0])


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
    # separation ratio needs graded panels. A mesh is (m, delta), so these
    # nodes go to the node-level builder directly
    A = assembly._lead_rows(nodes, 1.3, {})
    row_max = np.max(np.abs(A), axis=1)
    for i, j in zip(*np.tril_indices(nodes.size - 2, -3)):
        exact = stiffness_entry_decimal(nodes, 1.3, i + 1, j + 1)
        assert abs(A[i, j] - exact) <= 1e-12 * row_max[i], (i, j)


def test_refused_width_names_the_grading():
    # (1/64)^160 = 2^-960 is a normal float, but its square is not
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
    blocks = assembly._far_blocks(nodes, np.arange(3, nodes.size - 1))[0]
    assert blocks.size > 0
    A = assembly._lead_rows(nodes, alpha, {})
    monkeypatch.setattr(assembly, "_CHEB_ETA", 0.0)
    tiers = assembly._lead_rows(nodes, alpha, {})
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
    A = assembly._lead_rows(nodes, 1.05, {})
    assert np.all(np.isfinite(A))
    n = nodes.size - 2
    row_max = np.max(np.abs(A), axis=1)
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 2)):
            exact = stiffness_entry_decimal(nodes, 1.05, i + 1, j + 1)
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


# the first six entries, n/3, n/2 and the last two of a long vector
def _sampled(n):
    return sorted({*range(min(6, n)), n // 3, n // 2, n - 2, n - 1} - {-1})


def _gap(got, want, full=()):
    """Largest gap of sampled entries as a fraction of the largest entry,
    of the oracle's or of the ``full`` vector they were sampled from (or
    the gap itself when every entry is zero)."""
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / (np.max(np.abs([*want, *full])) or 1.0)


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
    # the exact load against the decimal moment oracle, term by term; the
    # name is kept from the difference-of-powers load it used to pin
    mesh = build_mesh(m, delta)
    rows = _sampled(m - 1) if m > 64 else range(m - 1)
    got = load_vector(mesh, ps)
    want = [sum(t.coeff * hat_moment_decimal(mesh.nodes, (j + 1,), t.exponent, t.anchor) for t in ps.terms)
            for j in rows]
    assert _gap(got[rows], want, got) <= 1e-14


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


# --- exact moments against the decimal oracle ----------------------------------

def _oracle_mesh_cases():
    return st.sampled_from([(8, 1.0), (64, 1.0), (64, 5.0), (4096, 1.0)])


@given(
    case=_oracle_mesh_cases(),
    exponent=st.one_of(st.sampled_from([-0.75, -0.25, 0.0, 0.5, 1.0, 2.0]), st.floats(-0.95, 3.0)),
    anchor=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 0.99)),
)
@settings(max_examples=10, deadline=None)
def test_load_and_mass_match_the_decimal_oracle(case, exponent, anchor):
    m, delta = case
    mesh, ps = build_mesh(m, delta), fraccalc.PowerSum.from_terms([(1.0, anchor, exponent)])
    rows = _sampled(m - 1) if m > 64 else range(m - 1)
    load, (diag, off) = load_vector(mesh, ps), mass_bands(mesh, ps)
    x = mesh.nodes
    assert _gap(load[rows], [hat_moment_decimal(x, (j + 1,), exponent, anchor) for j in rows], load) <= 1e-14
    assert _gap(diag[rows], [hat_moment_decimal(x, (j + 1, j + 1), exponent, anchor) for j in rows], diag) <= 1e-14
    rows = [j for j in rows if j < m - 2]
    assert _gap(off[rows], [hat_moment_decimal(x, (j + 1, j + 2), exponent, anchor) for j in rows], off) <= 1e-14


@given(
    case=_oracle_mesh_cases(),
    alpha=st.floats(1.01, 1.99),
    k=st.integers(0, 2),
    anchor=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.99)),
)
@settings(max_examples=10, deadline=None)
def test_integer_endpoint_vector_matches_the_decimal_oracle(case, alpha, k, anchor):
    # ((1 - b) - y)^k expands in powers of y; for k <= 2 its cancellation
    # stays below the bound
    m, delta = case
    mesh, q = build_mesh(m, delta), fraccalc.PowerSum.from_terms([(1.0, anchor, float(k))])
    rows = _sampled(m - 1) if m > 64 else range(m - 1)
    got = endpoint_weight_vector(mesh, q, alpha)
    assert _gap(got[rows], [endpoint_entry_decimal(mesh.nodes, q, j + 1, alpha) for j in rows], got) <= 1e-14


@given(
    case=_oracle_mesh_cases(),
    alpha=st.floats(1.01, 1.99),
    q=st.sampled_from(["x*(1-x)", "chi(0,0.5)", "chi(0.3,0.7)*(1+x)", "x^0.5+chi(0.5,1)"]),
    bc=st.sampled_from(["dirichlet", "mixed"]),
)
@settings(max_examples=10, deadline=None)
def test_profile_load_matches_the_decimal_oracle(case, alpha, q, bc):
    # Q = q_profile - c0 q_in u_s: the terms (c, b, k) of q_in expand, on
    # [b, 1], as (x - b)^k x^p = sum_i C(k, i) (-b)^(k-i) x^(p+i)
    m, delta = case
    if bc == "mixed":
        alpha = 1.5 + alpha / 4.0
    spec = ProblemSpec(alpha=alpha, q=parse_field(q), f=source_bump(), bc=bc)
    mesh, pair = build_mesh(m, delta), spec.singular_pair
    rows = _sampled(m - 1) if m > 64 else range(m - 1)
    full = assemble_system(spec, mesh, "reconstruction").r_vec

    def entry(j):
        total = sum(t.coeff * hat_moment_decimal(mesh.nodes, (j + 1,), t.exponent, t.anchor)
                    for t in pair.q_profile.terms)
        for t in (t for t in spec.q.terms if 0.0 < t.anchor < 1.0):
            k = int(t.exponent)
            total -= pair.c0 * sum(
                t.coeff * s.coeff * math.comb(k, i) * (-t.anchor) ** (k - i)
                * hat_moment_decimal(mesh.nodes, (j + 1,), s.exponent + i, 0.0, t.anchor)
                for s in pair.u_s.terms for i in range(k + 1))
        return total

    assert _gap(full[rows], [entry(j) for j in rows], full) <= 1e-14


@pytest.mark.parametrize("m", [8, 64])
def test_square_root_potential_moments_are_exact(m):
    # the plain Gauss rules missed x^0.5 at its anchor: 2.1e-7 of the largest
    # mass entry and 1.6e-7 of the largest endpoint entry at m = 8
    mesh, q, alpha = build_mesh(m), parse_field("x^0.5"), 1.3
    diag, off = mass_bands(mesh, q)
    x = mesh.nodes
    assert _gap(diag, [hat_moment_decimal(x, (j, j), 0.5) for j in range(1, m)]) <= 1e-14
    assert _gap(off, [hat_moment_decimal(x, (j, j + 1), 0.5) for j in range(1, m - 1)]) <= 1e-14
    want = [endpoint_weight_entry_quad(x, q, j, alpha, left_exponent=0.5) for j in range(1, m)]
    assert _gap(endpoint_weight_vector(mesh, q, alpha), want) <= 1e-14


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("alpha", [1.01, 1.3, 1.99])
@pytest.mark.parametrize("delta", [1.0, 5.0])
def test_square_root_endpoint_vector_matches_quadrature(m, alpha, delta):
    # the split at x = 1/2 against quad absorbing both end powers
    mesh, q = build_mesh(m, delta), parse_field("x^0.5+chi(0.5,1)")
    want = [endpoint_weight_entry_quad(mesh.nodes, q, j, alpha, (0.5,), left_exponent=0.5) for j in range(1, m)]
    assert _gap(endpoint_weight_vector(mesh, q, alpha), want) <= 1e-13


@pytest.mark.parametrize("delta", [1.0, 5.0])
@pytest.mark.parametrize("q", ["x*(1-x)", "chi(0,0.5)", "x^0.5+chi(0.5,1)"])
def test_assembly_reaches_no_gauss_rule(monkeypatch, q, delta):
    def refuse(*_args):
        raise AssertionError("assembly evaluated a Gauss rule")

    spec = ProblemSpec(alpha=1.4, q=parse_field(q), f=source_bump())
    spec.singular_pair  # its interior terms take anchored_moment, a Gauss rule
    mesh = build_mesh(64, delta)
    monkeypatch.setattr(fraccalc, "gauss_legendre", refuse)
    monkeypatch.setattr(fraccalc, "gauss_jacobi", refuse)
    for out in (load_vector(mesh, spec.q), *mass_bands(mesh, spec.q), endpoint_weight_vector(mesh, spec.q, 1.4),
                assemble_system(spec, mesh, "reconstruction").r_vec):
        assert np.all(np.isfinite(out))


def test_fractional_power_inside_is_refused():
    q = fraccalc.PowerSum.from_terms([(1.0, 0.3, 0.5)])
    with pytest.raises(UnsupportedFormError, match=r"\(x - 0.3\)_\+\^0.5"):
        ProblemSpec(alpha=1.3, q=q, f=source_bump())
    with pytest.raises(UnsupportedFormError):
        endpoint_weight_vector(build_mesh(8), q, 1.3)
    # integer powers inside, and any power at 0 or 1, are accepted
    ok = fraccalc.PowerSum.from_terms([(1.0, 0.3, 2.0), (1.0, 0.0, 0.5), (1.0, 1.0, 0.5)])
    assert ProblemSpec(alpha=1.3, q=ok, f=source_bump()).singular_pair.c0 > 0.0


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


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("alpha,bc", [(1.1, "dirichlet"), (1.3, "dirichlet"), (1.7, "mixed")])
@pytest.mark.parametrize("q", ["chi(0,0.5)", "x^0.5+chi(0.5,1)"])
def test_profile_load_matches_quadrature_of_the_whole_profile(q, alpha, bc, m):
    # the load of Q = c0 (c1 - q u_s) against quad of Q itself, whatever
    # part of it is exact: each entry to 1e-11 of itself, the first included,
    # where Q and q u_s carry powers of x at 0
    spec = ProblemSpec(alpha=alpha, q=parse_field(q), f=source_bump(), bc=bc)
    mesh, pair = build_mesh(m), spec.singular_pair
    c1 = -2.0 / gamma_special(3.0 - alpha)

    def profile(x):
        return pair.c0 * (c1 * x ** (2.0 - alpha) - spec.q(x) * pair.u_s(x))

    got = assemble_system(spec, mesh, "reconstruction").r_vec
    want = np.array([profile_load_entry_quad(mesh.nodes, profile, j, (0.5,)) for j in range(1, m)])
    assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))


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


# --- moment plans: the pieces of a mesh, kept per study ----------------------------


@given(
    alphas=st.tuples(st.floats(1.01, 1.99), st.floats(1.01, 1.99)),
    bc=st.sampled_from(["dirichlet", "mixed"]),
    case=st.sampled_from([(8, 1.0), (64, 1.0), (8, 5.0), (64, 5.0)]),
    q=st.lists(st.tuples(st.floats(0.1, 2.0), st.sampled_from([0.0, 0.25, 0.5, 0.7]), st.integers(0, 2)),
               min_size=1, max_size=3),
)
@example(alphas=(1.3, 1.5), bc="dirichlet", case=(8, 1.0), q=[(1.0, 0.0, 0)])
@settings(max_examples=25, deadline=None)
def test_shared_moment_plans_give_a_fresh_specs_bits(alphas, bc, case, q):
    # q = 1 at alpha = 1.5 merges x^(2-a) with x^(a-1): one term fewer than
    # at 1.3, so a longer chunk, over the same pieces
    if bc == "mixed":
        alphas = tuple(1.5 + a / 4.0 for a in alphas)
    q = fraccalc.PowerSum.from_terms([(c, b, float(k)) for c, b, k in q])
    mesh = build_mesh(*case)
    spec = ProblemSpec(alpha=alphas[0], q=q, f=source_bump(), bc=bc)
    for alpha in alphas:
        spec = spec.with_alpha(alpha)
        got = assemble_system(spec, mesh, "reconstruction")
        want = assemble_system(ProblemSpec(alpha=alpha, q=q, f=spec.f, bc=bc), mesh, "reconstruction")
        assert np.array_equal(got.r_vec, want.r_vec) and np.array_equal(got.s_vec, want.s_vec)
    assert spec._moment_plans[mesh]


def test_a_study_builds_one_moment_plan_per_mesh_and_layout(monkeypatch):
    # a coarse_sweep-shaped study: three alphas on the same four meshes
    built, plan = [], assembly._moment_plan

    def counted(x, groups, cuts, rows):
        built.append((x.size, groups.tobytes(), cuts.tobytes(), rows))
        return plan(x, groups, cuts, rows)

    monkeypatch.setattr(assembly, "_moment_plan", counted)
    chi = dict(example="b", q_kind="custom", q_expr="chi(0,0.5)", q_hint=0.0, k_min=3, k_max=5, reference_m=256)
    for config in (ExperimentConfig(alphas=(1.3, 1.45, 1.7), method="recon", **chi),
                   ExperimentConfig(alphas=(1.6, 1.75, 1.9), method="recon_mixed", **chi)):
        built.clear()
        assert all(report.error is None for report in run_experiment(config))
        # levels 3-5 and the reference, each with the layouts of its mass bands,
        # source load (both once per study) and load of Q with the endpoint vector
        assert len(set(built)) == len(built) == 4 * 3
    # a mesh of more than one chunk streams its chunks and keeps nothing
    spec = ProblemSpec(alpha=1.3, q=parse_field("chi(0,0.5)"), f=source_bump())
    whole = assemble_system(dataclasses.replace(spec), build_mesh(64), "reconstruction")
    monkeypatch.setattr(assembly, "_PIECES", 64)
    built.clear()
    wide = assemble_system(spec, build_mesh(64), "reconstruction")
    assert len(built) > 1 and spec._moment_plans[build_mesh(64)] == {}
    assemble_system(spec, build_mesh(4), "reconstruction")  # one chunk
    assert len(spec._moment_plans[build_mesh(4)]) == 1
    assert np.allclose(wide.r_vec, whole.r_vec, rtol=1e-14, atol=0.0)
    assert np.allclose(wide.s_vec, whole.s_vec, rtol=1e-14, atol=0.0)
