"""One repetition of a benchmark workload, in a fresh interpreter.

Reads a JSON request on stdin, imports fracfem from the checkout's ``src``,
runs a tiny warm-up study and then the workload's studies through
``cli.run_experiment`` + ``cli.emit_table``, timing them. Prints one JSON
object on stdout: timings, peak memory, the CSV digest, per-cell figures
for the output checks and, in a traced child, per-layer totals.

A fresh interpreter per repetition means the module-level caches of
``fracfem.analysis`` start empty, as they do for every CLI invocation.

The child also times two fixed reference kernels that run no fracfem code,
once before fracfem is imported and once after the study. The runner scales
the set-up and study times by them, so that the metrics follow the program
rather than the speed the shared machine happens to have.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from probes import Probe


def _machine(numpy, scipy) -> dict:
    """Library versions and the BLAS numpy was built against."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
    }


def _reference() -> dict:
    """Seconds of two fixed kernels that run no fracfem code.

    ``py`` is a pure-Python loop, the kind of work importing is. ``lu``
    factors a fixed 768 x 768 matrix twelve times: dense LAPACK, which
    dominates two of the studies. The matrix is small so that the kernel
    does not raise the child's peak memory above that of the study.
    """
    import numpy
    from scipy.linalg import lu_factor

    started = time.perf_counter()
    sum(i * i for i in range(1_500_000))
    py = time.perf_counter() - started
    base = numpy.random.default_rng(0).standard_normal((768, 768))
    started = time.perf_counter()
    for _ in range(12):
        lu_factor(base.T.copy(order="F"), overwrite_a=True, check_finite=False)
    return {"py": py, "lu": time.perf_counter() - started}


def _mean(values) -> float:
    return float(sum(values) / len(values)) if len(values) else math.nan


def _cells(configs, reports_per_config, probe, analysis, assembly) -> list:
    """Figures of every (config, alpha) cell that the output checks read."""
    residual_max: dict = {}
    for cell, res in probe.residuals:
        residual_max[cell] = max(res, residual_max.get(cell, 0.0))
    cells = []
    for index, (config, reports) in enumerate(zip(configs, reports_per_config)):
        for report in reports:
            cell_id = f"{index}:{report.alpha!r}"
            entry = {
                "id": cell_id,
                "error": report.error,
                "levels": len(report.rows),
                "residual_max": residual_max.get(cell_id),
            }
            if report.error is None and report.rows:
                rates_l2 = report.rates_of("l2")
                entry["err_l2_finest"] = report.rows[-1].err_l2
                entry["rate_l2"] = _mean(rates_l2)
                entry["rate_l2_tail3"] = _mean(rates_l2[-3:])
                if config.method != "standard":
                    entry["err_mu_finest"] = report.rows[-1].err_mu
                    entry["rate_mu"] = _mean(report.rates_of("mu"))
                    if not config.needs_reference:
                        # closed-form reference (q = 0): mu_h must equal the exact mu
                        spec = assembly.ProblemSpec(
                            alpha=report.alpha, q=config.potential, f=config.source, bc=config.bc
                        )
                        mu = analysis.exact_q0(spec).mu
                        entry["mu_rel_err"] = max(r.err_mu for r in report.rows) / abs(mu)
            cells.append(entry)
    return cells


def main() -> int:
    request = json.loads(sys.stdin.read())
    spawned = request["spawned"]
    src = Path(request["src"]).resolve()

    import numpy
    import scipy
    import scipy.linalg  # fracfem imports it too; its import time is set-up

    # before fracfem is imported, while the process is still small
    started = time.monotonic()
    ref_before = _reference()
    ref_s = time.monotonic() - started

    import fracfem
    from fracfem import analysis, assembly, cli, solver

    if src not in Path(fracfem.__file__).resolve().parents:
        print(f"fracfem was imported from {fracfem.__file__}, not from {src}", file=sys.stderr)
        return 3

    probe = Probe(timed=request["trace"])
    probe.install()

    def study(config_fields: list) -> tuple[list, list, list]:
        configs = [cli.ExperimentConfig(**{**c, "alphas": tuple(c["alphas"])}) for c in config_fields]
        reports, texts = [], []
        for index, config in enumerate(configs):
            probe.start_config(index)
            reports.append(cli.run_experiment(config))
            texts.append(cli.emit_table(reports[-1], config.fmt))
        return configs, reports, texts

    study(request["warmup"])
    setup_wall_s = time.monotonic() - spawned - ref_s
    probe.reset()

    started = time.perf_counter()
    configs, reports, texts = study(request["configs"])
    study_wall_s = time.perf_counter() - started

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after = _reference()

    result = {
        "setup_wall_s": setup_wall_s,
        "study_wall_s": study_wall_s,
        "ref_py_s": ref_before["py"],
        "ref_lu_s": 0.5 * (ref_before["lu"] + ref_after["lu"]),
        "peak_rss_mb": peak_rss_mb,
        "csv_sha256": hashlib.sha256("".join(texts).encode("utf-8")).hexdigest(),
        "residual_tol": solver.RESIDUAL_TOL,
        "cells": _cells(configs, reports, probe, analysis, assembly),
        "machine": _machine(numpy, scipy),
    }
    if probe.timed:
        result["layers"] = probe.layer_totals()
        result["reference_solves"] = probe.reference_solves()
        result["lu_sizes"] = probe.lu_sizes
        result["lu_bytes"] = probe.lu_bytes
        result["lead_sizes"] = probe.lead_sizes
        result["dense_bytes"] = probe.dense_bytes
        result["residual_max"] = max((r for _c, r in probe.residuals), default=0.0)
        probe.write_spans(request["spans_path"], started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
