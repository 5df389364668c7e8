"""Meshes, the piecewise-linear space, and hat fractional derivatives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem import assembly
from fracfem.assembly import ProblemSpec
from fracfem.errors import ArgumentError, DomainError
from fracfem.fields import source_bump, zero_field
from fracfem.mesh import Mesh, PwLinear, build_mesh

from .oracles import (
    basis_frac_derivative,
    element_of,
    hat,
    hat_jump_data,
    left_half_derivative_quad,
)


def test_uniform_nodes():
    mesh = build_mesh(8)
    np.testing.assert_array_equal(mesh.nodes, np.arange(9) / 8.0)
    assert mesh.is_uniform
    assert mesh.m == 8
    assert np.diff(mesh.nodes).sum() == pytest.approx(1.0, abs=0.0)


def test_graded_nodes_follow_power_law():
    mesh = build_mesh(16, delta=2.5)
    np.testing.assert_allclose(mesh.nodes, (np.arange(17) / 16.0) ** 2.5, rtol=1e-15)
    assert not mesh.is_uniform
    # grading must cluster near zero: first width far below last
    widths = np.diff(mesh.nodes)
    assert widths[0] < widths[-1] / 10.0


def test_uniformity_follows_the_grading():
    assert build_mesh(4).is_uniform and Mesh(4, 1).is_uniform
    assert not build_mesh(4, delta=1.5).is_uniform
    # a graded mesh takes a dense block, here the scaled table on the nodes
    # j^1.5, and a uniform one the stencil
    spec = ProblemSpec(alpha=1.5, q=zero_field(), f=source_bump())
    lead = spec.lead(build_mesh(4, 1.5))
    assert lead.stencil is None
    assert np.array_equal(lead.dense, 4.0 ** (1.5 * 0.5) * assembly._lead_rows(np.arange(5.0) ** 1.5, 1.5, {}))
    assert spec.lead(build_mesh(4)).dense is None


def test_build_mesh_records_its_grading():
    assert build_mesh(8).delta == 1.0 and build_mesh(16, 2.5).delta == 2.5
    assert build_mesh(16, 2.5) == Mesh(16, 2.5)
    assert [f.name for f in dataclasses.fields(Mesh)] == ["m", "delta"]


def test_meshes_of_one_m_and_delta_are_equal():
    # (m, delta) fixes the nodes, so it is the mesh's identity: an integer
    # delta is the same grading as its float
    a, b = Mesh(8, 2), Mesh(8, 2.0)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert type(a.delta) is float and np.array_equal(a.nodes, b.nodes)
    assert Mesh(np.int64(8), np.float64(2.0)) == a
    assert a != Mesh(8, 2.5) and a != Mesh(16, 2.0)


def test_uniformity_is_kept_and_the_nodes_cannot_change_it():
    mesh = build_mesh(8)
    assert mesh.nodes is mesh.nodes  # computed once
    assert mesh.is_uniform
    with pytest.raises(ValueError):
        mesh.nodes[1] = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.delta = 2.0


def test_build_mesh_validation():
    with pytest.raises(ArgumentError, match="m=1"):
        build_mesh(1)
    with pytest.raises(ArgumentError, match="got 0.5"):
        build_mesh(8, delta=0.5)
    with pytest.raises(ArgumentError, match="got nan"):
        Mesh(8, np.nan)
    # a node array, or a size that is no integer, is not a mesh
    for m in (np.array([0.0, 0.2, 0.9]), 2.5):
        with pytest.raises(ArgumentError, match=r"integer m.*got m="):
            Mesh(m)
    with pytest.raises(ArgumentError, match="delta='x'"):
        Mesh(8, "x")
    # at m = 256, delta = 160 the first node underflows to 0
    with pytest.raises(DomainError, match=r"^grading exponent 160 on m=256 makes the first element width 0, "
                                          r"which squares to zero$"):
        build_mesh(256, 160.0)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=40))
@settings(max_examples=200, deadline=None)
def test_element_of_brackets_query(x, m):
    mesh = build_mesh(m)
    e = int(element_of(mesh, x))
    assert 0 <= e < m
    assert mesh.nodes[e] <= x <= mesh.nodes[e + 1]
    if x == mesh.nodes[e + 1]:
        # interior nodes belong to the element on their left
        assert x == 1.0 or e == int(np.round(x * m)) - 1


def test_element_of_rejects_outside_points():
    mesh = build_mesh(4)
    with pytest.raises(DomainError):
        element_of(mesh, -0.1)
    with pytest.raises(DomainError):
        element_of(mesh, 1.1)


def test_pwlinear_reproduces_nodal_data():
    mesh = build_mesh(5)
    coeffs = np.array([1.0, -2.0, 0.5, 3.0])
    u = PwLinear(mesh, coeffs)
    np.testing.assert_array_equal(u(mesh.nodes[1:-1]), coeffs)
    assert u(0.0) == 0.0 and u(1.0) == 0.0
    np.testing.assert_array_equal(u.nodal_values, np.concatenate(([0.0], coeffs, [0.0])))
    with pytest.raises(ArgumentError):
        PwLinear(mesh, np.zeros(3))
    with pytest.raises(DomainError):
        u(1.5)


def test_pwlinear_is_linear_inside_elements():
    mesh = build_mesh(4, delta=2.0)
    u = PwLinear(mesh, np.array([0.3, -1.0, 0.7]))
    for e in range(4):
        a, b = mesh.nodes[e], mesh.nodes[e + 1]
        mid = 0.5 * (a + b)
        assert u(mid) == pytest.approx(0.5 * (u(a) + u(b)), rel=1e-14, abs=1e-15)


def test_hats_are_nodal_and_partition_unity():
    mesh = build_mesh(6, delta=1.5)
    hats = [hat(mesh, j) for j in range(1, 6)]
    for j, phi in enumerate(hats, start=1):
        vals = phi(mesh.nodes[1:-1])
        expect = np.zeros(5)
        expect[j - 1] = 1.0
        np.testing.assert_array_equal(vals, expect)
    # away from the boundary elements the hats sum to one
    xs = np.linspace(mesh.nodes[1], mesh.nodes[5], 50)
    total = sum(phi(xs) for phi in hats)
    np.testing.assert_allclose(total, 1.0, rtol=1e-14)
    with pytest.raises(ArgumentError):
        hat(mesh, 0)
    with pytest.raises(ArgumentError):
        hat(mesh, 6)


def test_hat_jump_data_closes():
    mesh = build_mesh(8, delta=3.0)
    for j in (1, 4, 7):
        anchors, jumps = hat_jump_data(mesh, j)
        np.testing.assert_array_equal(anchors, mesh.nodes[j - 1 : j + 2])
        # slope jumps of a compactly supported broken line sum to zero
        assert jumps.sum() == pytest.approx(0.0, abs=1e-12)
        assert jumps[0] == pytest.approx(1.0 / (anchors[1] - anchors[0]), rel=1e-14)


def _away_from_nodes(nodes, lo, hi):
    """Element midpoints in [lo, hi]; the plain-quad oracle needs clearance
    from the (x - t)^(-s) singularity sitting at panel edges."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return [float(x) for x in mids if lo < x < hi]


@pytest.mark.parametrize("delta", [1.0, 2.0])
@pytest.mark.parametrize("s", [0.625, 0.875])
def test_left_hat_derivative_matches_quadrature(delta, s):
    mesh = build_mesh(4, delta=delta)
    for j in (1, 2, 3):
        ps = basis_frac_derivative(mesh, j, s)
        oracle = left_half_derivative_quad(mesh.nodes, j, s)
        for x in _away_from_nodes(mesh.nodes, mesh.nodes[j - 1], 1.0):
            assert ps(x) == pytest.approx(oracle(x), rel=1e-8, abs=1e-10)


def test_basis_frac_derivative_validation():
    mesh = build_mesh(4)
    with pytest.raises(ArgumentError):
        basis_frac_derivative(mesh, 0, 0.75)
    with pytest.raises(DomainError):
        basis_frac_derivative(mesh, 1, 1.5)
