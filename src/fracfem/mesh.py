"""Meshes on [0, 1] and the conforming piecewise-linear space.

Trial and test functions vanish at both endpoints, so a function is stored
through its m - 1 interior nodal values only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DomainError


def build_mesh(m: int, delta: float = 1.0) -> "Mesh":
    """Mesh with nodes (j/m)^delta; delta = 1 gives the uniform mesh.

    The grading exponent concentrates nodes near x = 0 where the leading
    singular profile lives.
    """
    if m < 2:
        raise ArgumentError(f"need at least two elements, got m={m}")
    if not (np.isfinite(delta) and delta >= 1.0):
        raise ArgumentError(f"grading exponent must be a finite number >= 1, got {delta}")
    return Mesh(_graded_nodes(m, delta), delta)


def _graded_nodes(m: int, delta: float) -> np.ndarray:
    """Nodes (j/m)^delta, j = 0..m, and exactly j/m when delta = 1."""
    base = np.arange(m + 1, dtype=float) / m
    return base if delta == 1.0 else base**delta


@dataclass(frozen=True)
class Mesh:
    """Partition 0 = x_0 < x_1 < ... < x_m = 1. ``delta`` records the grading
    exponent of build_mesh's nodes (j/m)^delta; None for any other nodes."""

    nodes: np.ndarray
    delta: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ArgumentError("mesh needs at least two elements")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ArgumentError("mesh must span exactly [0, 1]")
        if not np.all(np.diff(nodes) > 0.0):
            raise ArgumentError("mesh nodes must be strictly increasing")
        if self.delta is not None and not np.array_equal(
            nodes, _graded_nodes(nodes.size - 1, self.delta)
        ):
            raise ArgumentError(f"mesh nodes are not (j/m)^delta for delta={self.delta}")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        """Number of elements."""
        return self.nodes.size - 1

    @cached_property
    def is_uniform(self) -> bool:
        """Whether the nodes are exactly j/m, as build_mesh(m) makes them;
        the nodes are read-only, so the answer is kept."""
        return np.array_equal(self.nodes, np.arange(self.m + 1) / self.m)


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
