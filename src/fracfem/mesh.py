"""Meshes on [0, 1], the one owner of the grading limit, and the conforming
piecewise-linear space.

Trial and test functions vanish at both endpoints, so a function is stored
through its m - 1 interior nodal values only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DomainError


def build_mesh(m: int, delta: float = 1.0) -> "Mesh":
    """Mesh with nodes (j/m)^delta; delta = 1 gives the uniform mesh."""
    return Mesh(m, delta)


@dataclass(frozen=True)
class Mesh:
    """Partition of [0, 1] at the nodes (j/m)^delta, j = 0..m, exactly j/m
    when delta = 1. The grading exponent concentrates nodes near x = 0 where
    the leading singular profile lives; (m, delta) fixes the nodes, so two
    meshes of the same pair are equal and hash alike."""

    m: int
    delta: float = 1.0

    def __post_init__(self):
        try:
            m, delta = operator.index(self.m), float(self.delta)
        except (TypeError, ValueError):
            raise ArgumentError(
                f"need an integer m and a real delta, got m={self.m!r}, delta={self.delta!r}"
            ) from None
        if m < 2:
            raise ArgumentError(f"need at least two elements, got m={m}")
        if not (math.isfinite(delta) and delta >= 1.0):
            raise ArgumentError(f"grading exponent must be a finite number >= 1, got {delta}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "delta", delta)
        width = (np.array([1.0 / m]) ** delta)[0]  # nodes[1] bit for bit, unlike a scalar power; no nodes built
        if width * width == 0.0:  # the lead's near band divides by products of neighbouring widths
            raise DomainError(f"grading exponent {delta:g} on m={m} makes the first element width {width:.3g}, "
                              "which squares to zero")

    @cached_property
    def nodes(self) -> np.ndarray:
        """The nodes, read-only: 0 = x_0 < x_1 < ... < x_m = 1."""
        nodes = np.arange(self.m + 1, dtype=float) / self.m
        if self.delta != 1.0:
            nodes **= self.delta
        nodes.setflags(write=False)
        return nodes

    @property
    def is_uniform(self) -> bool:
        return self.delta == 1.0


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
