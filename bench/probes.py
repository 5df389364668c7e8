"""Spans and counters around fracfem's public functions, installed from outside.

A probe replaces a function on every ``fracfem`` module that holds it: the
module that defines it and each module that imported the name. Calls made
from inside the package therefore pass through the probe as well, because
Python looks module globals up at call time. Nothing in ``fracfem`` is
edited.

Two modes share the same hooks:

* untimed (every child): the solvers' returned ``.residual`` values are
  collected for the output checks, and the start of each cell is noted.
  No clock is read.
* timed (traced children only): every listed function also opens a span
  with name, start, end, parent span and cell id. Spans stay in memory
  until the child writes them.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module whose attribute is the original, attribute name)
SPANS = {
    "cli.run_experiment": ("fracfem.cli", "run_experiment"),
    "cli.emit_table": ("fracfem.cli", "emit_table"),
    "analysis.reference_solution": ("fracfem.analysis", "reference_solution"),
    "analysis.error_norms": ("fracfem.analysis", "error_norms"),
    "analysis.exact_q0": ("fracfem.analysis", "exact_q0"),
    "solver.solve_standard": ("fracfem.solver", "solve_standard"),
    "solver.solve_reconstruction": ("fracfem.solver", "solve_reconstruction"),
    "solver.lu_factor": ("fracfem.solver", "lu_factor"),
    "solver.lu_solve": ("fracfem.solver", "lu_solve"),
    "solver.system_matvec": ("fracfem.solver", "system_matvec"),
    "assembly.assemble_system": ("fracfem.assembly", "assemble_system"),
    "assembly.assemble_lead": ("fracfem.assembly", "assemble_lead"),
    "assembly.build_singular_pair": ("fracfem.assembly", "build_singular_pair"),
    "assembly.lead_stencil": ("fracfem.assembly", "lead_stencil"),
    "assembly.load_vector": ("fracfem.assembly", "load_vector"),
    "assembly.mass_bands": ("fracfem.assembly", "mass_bands"),
    "assembly.endpoint_weight_vector": ("fracfem.assembly", "endpoint_weight_vector"),
    "assembly.stencil_to_dense": ("fracfem.assembly", "stencil_to_dense"),
    "fraccalc.weighted_endpoint_integral": ("fracfem.fraccalc", "weighted_endpoint_integral"),
    "mesh.build_mesh": ("fracfem.mesh", "build_mesh"),
}

# The CLI calls expected_rates(alpha, ...) once at the start of every
# (config, alpha) cell, so its first argument names the cell. It is hooked
# without a span.
CELL_MARK = ("fracfem.analysis", "expected_rates")

# hooks needed by the output checks in every child, traced or not
UNTIMED = ("solver.solve_standard", "solver.solve_reconstruction")


class Probe:
    """Spans, counters and residuals of one child process."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.config_index = 0
        self.cell = None
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up)."""
        self.spans = []  # [name, start, end, parent index, cell]
        self._stack = []
        self.residuals = []  # (cell, residual)
        self.lu_sizes = []
        self.lu_bytes = 0
        self.lead_sizes = []
        self.dense_bytes = 0

    def start_config(self, index: int) -> None:
        self.config_index = index
        self.cell = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # ---- hooks run after a call returns, given its arguments and result ----

    def _mark_cell(self, args, _out) -> None:
        self.cell = f"{self.config_index}:{args[0]!r}"

    def _residual(self, _args, out) -> None:
        self.residuals.append((self.cell, float(out.residual)))

    def _lu_factor(self, args, _out) -> None:
        self.lu_sizes.append(int(args[0].shape[0]))
        self.lu_bytes += int(args[0].nbytes)

    def _assemble_lead(self, _args, out) -> None:
        self.lead_sizes.append(int(out.shape[0]))
        self.dense_bytes += int(out.nbytes)

    def _stencil_to_dense(self, _args, out) -> None:
        self.dense_bytes += int(out.nbytes)

    def _wrap(self, span, fn, after):
        """Wrap ``fn``; open a span named ``span`` unless it is None."""
        if span is None:
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(args, out)
                return out

            return hooked

        def traced(*args, **kwargs):
            index = self._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch the probed functions on every loaded fracfem module."""
        after = {
            "solver.solve_standard": self._residual,
            "solver.solve_reconstruction": self._residual,
            "solver.lu_factor": self._lu_factor,
            "assembly.assemble_lead": self._assemble_lead,
            "assembly.stencil_to_dense": self._stencil_to_dense,
        }
        hooks = [(name, SPANS[name], after.get(name)) for name in (SPANS if self.timed else UNTIMED)]
        hooks.append((None, CELL_MARK, self._mark_cell))
        for name, (module, attr), hook in hooks:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                # gone from the package: its spans and counts read zero, and
                # a missing solver or cell hook fails every cell's checks
                continue
            span = name if self.timed else None
            _replace(original, self._wrap(span, original, hook))

    # ---- results ----

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the code is single-threaded, so children never overlap.
        None of the probed functions calls itself, so inclusive times do
        not double count.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _cell in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANS}
        for index, (name, start, end, _parent, _cell) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return totals

    def reference_solves(self) -> int:
        """Reference calls that reached a solve, i.e. were not cache hits."""
        return sum(
            1
            for name, _start, _end, parent, _cell in self.spans
            if name == "solver.solve_reconstruction"
            and parent is not None
            and self.spans[parent][0] == "analysis.reference_solution"
        )

    def write_spans(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "cell": cell,
                        }
                    )
                    + "\n"
                )


def _replace(original, wrapper) -> None:
    """Point every fracfem module attribute that is ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fracfem" and not mod_name.startswith("fracfem."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
