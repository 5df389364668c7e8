"""Meshes on [0, 1] and the conforming piecewise-linear space.

Trial and test functions vanish at both endpoints, so a function is stored
through its m - 1 interior nodal values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError
from .fraccalc import PowerSum, PowerTerm, gamma_fn


def build_mesh(m: int, delta: float = 1.0) -> "Mesh":
    """Mesh with nodes (j/m)^delta; delta = 1 gives the uniform mesh.

    The grading exponent concentrates nodes near x = 0 where the leading
    singular profile lives.
    """
    if m < 2:
        raise ArgumentError(f"need at least two elements, got m={m}")
    if delta < 1.0:
        raise ArgumentError(f"grading exponent must be >= 1, got {delta}")
    base = np.arange(m + 1, dtype=float) / m
    nodes = base if delta == 1.0 else base**delta
    return Mesh(nodes)


@dataclass(frozen=True)
class Mesh:
    """Partition 0 = x_0 < x_1 < ... < x_m = 1."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ArgumentError("mesh needs at least two elements")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ArgumentError("mesh must span exactly [0, 1]")
        if not np.all(np.diff(nodes) > 0.0):
            raise ArgumentError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        """Number of elements."""
        return self.nodes.size - 1

    @property
    def is_uniform(self) -> bool:
        """Whether the nodes are exactly j/m, as build_mesh(m) makes them."""
        return np.array_equal(self.nodes, np.arange(self.m + 1) / self.m)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def element_of(self, x) -> np.ndarray:
        """Index of the element containing x; nodes belong to the element on
        their left, except x = 0 which belongs to element 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise DomainError("query point outside [0, 1]")
        idx = np.searchsorted(self.nodes, x, side="left") - 1
        return np.clip(idx, 0, self.m - 1)


@dataclass(frozen=True)
class PwLinear:
    """Continuous piecewise-linear function vanishing at x = 0 and x = 1."""

    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.mesh.m - 1,):
            raise ArgumentError(
                f"expected {self.mesh.m - 1} interior values, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        values = np.concatenate(([0.0], coeffs, [0.0]))
        values.setflags(write=False)
        object.__setattr__(self, "_values", values)

    @property
    def nodal_values(self) -> np.ndarray:
        """Values at all mesh nodes, boundary zeros included."""
        return self._values

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise DomainError("evaluation point outside [0, 1]")
        return np.interp(x, self.mesh.nodes, self._values)


def hat(mesh: Mesh, j: int) -> PwLinear:
    """The j-th interior nodal basis function."""
    coeffs = np.zeros(mesh.m - 1)
    if not 1 <= j <= mesh.m - 1:
        raise ArgumentError(f"interior node index must lie in [1, {mesh.m - 1}], got {j}")
    coeffs[j - 1] = 1.0
    return PwLinear(mesh, coeffs)


def hat_jump_data(mesh: Mesh, j: int):
    """Anchors and slope jumps of the j-th hat at its three support nodes."""
    if not 1 <= j <= mesh.m - 1:
        raise ArgumentError(f"interior node index must lie in [1, {mesh.m - 1}], got {j}")
    x = mesh.nodes
    rise = 1.0 / (x[j] - x[j - 1])
    fall = -1.0 / (x[j + 1] - x[j])
    anchors = x[j - 1 : j + 2]
    jumps = np.array([rise, fall - rise, -fall])
    return anchors, jumps


def basis_frac_derivative(mesh: Mesh, j: int, s: float, side: str = "left") -> PowerSum:
    """Riemann-Liouville derivative of order s in (0, 1) of a hat function.

    The first derivative of a hat is piecewise constant, so the fractional
    derivative is the (1 - s)-integral of its slope jumps:

        D^s phi_j = 1/Gamma(2 - s) * sum_k sigma_k ((x - x_k)_+)^(1 - s)

    for the left derivative, and the mirrored (x_k - x)_+ powers with the
    same jump coefficients for the right one.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"derivative order must lie in (0, 1), got {s}")
    if side not in ("left", "right"):
        raise ArgumentError(f"side must be 'left' or 'right', got {side!r}")
    anchors, jumps = hat_jump_data(mesh, j)
    scale = 1.0 / gamma_fn(2.0 - s)
    return PowerSum(
        tuple(
            PowerTerm(scale * sigma, float(a), 1.0 - s, side)
            for a, sigma in zip(anchors, jumps)
        )
    )
