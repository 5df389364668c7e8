"""Convergence-study benchmark for fracfem.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each timed repetition is a fresh Python
interpreter (``bench/child.py``) that imports fracfem from ``src/``, runs a
tiny warm-up study and then the workload's studies through the public
``cli.run_experiment`` + ``cli.emit_table`` API. Children run one at a
time, with BLAS and OpenMP pinned to one thread, until ``--seconds`` have
passed. Timings are medians over the children.

``--trace 0`` reports the end-to-end metrics, from untraced children.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Every
child's output is checked; a failed check makes ``correct`` false and the
exit code 1. The last line of stdout is one JSON object; the full record
of a run (seed, configs, machine facts, every sample, every failed check)
is written to ``.bench_out/``, with the spans of traced children.

The layer -> metric -> workload map is in ``bench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A run must end within 180 s: no child is started that would likely end
# after RUN_LIMIT_S, and a child still running then is killed.
RUN_LIMIT_S = 170.0
MIN_CHILDREN = 3  # untraced children per --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run

# The warm-up alpha is one no workload cell can draw (cell alphas have four
# decimals), so the warm-up fills no cache entry the study reads. It lies
# above 3/2, as mixed conditions need.
WARMUP_ALPHA = 1.61803
MU_REL_TOL = 1e-10

# The machine is shared and its speed drifts by 25% and more within
# minutes. Each child therefore times two fixed reference kernels that run
# no fracfem code (bench/child.py), and set-up and study times are reported
# in seconds at reference speed: wall time * nominal / measured kernel time.
# Set-up is scaled by the pure-Python kernel and the study by the dense-LU
# kernel. The nominal times are typical on a 2-vCPU Xeon guest.
REF_PY_S = 0.1
REF_LU_S = 0.15
CHI = {"q_kind": "custom", "q_expr": "chi(0,0.5)", "q_hint": 0.0}


def _alphas(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """``count`` distinct alphas in [lo, hi], four decimals, sorted."""
    picked: set = set()
    while len(picked) < count:
        picked.add(round(rng.uniform(lo, hi), 4))
    return sorted(picked)


def _uniform_reference(rng):
    # README command 3 / acceptance criterion 3: dense m = 4096 reference LU
    return [dict(alphas=_alphas(rng, 3, 1.2, 1.8), example="a", q_kind="x_times_1mx",
                 method="recon", k_min=5, k_max=9, reference_m=4096)]


def _graded_exact(rng):
    # graded delta = 5: long double assemble_lead, closed-form exact solution
    return [dict(alphas=_alphas(rng, 3, 1.2, 1.8), example="a", q_kind="zero",
                 method="standard", k_min=3, k_max=9, delta=5.0)]


def _coarse_sweep(rng):
    # many small solves: quadrature and per-call overhead, cheap LU
    return [
        dict(alphas=_alphas(rng, 24, 1.1, 1.9), example="b", method="recon",
             k_min=3, k_max=6, reference_m=512, **CHI),
        dict(alphas=_alphas(rng, 12, 1.55, 1.95), example="c", method="recon_mixed",
             k_min=3, k_max=6, reference_m=512, **CHI),
    ]


# workload -> (config generator, rate targets: cell figure -> (target, tolerance))
# The targets and tolerances are those of tests/test_acceptance.py, criteria
# 3 and 4. rate_l2 and rate_mu average every observed rate of a cell;
# rate_l2_tail3 averages the last three.
WORKLOADS = {
    "uniform_reference": (_uniform_reference, {"rate_l2": (2.0, 0.15), "rate_mu": (2.0, 0.15)}),
    "graded_exact": (_graded_exact, {"rate_l2_tail3": (1.97, 0.2)}),
    "coarse_sweep": (_coarse_sweep, {}),
}


def _warmup(configs: list) -> list:
    """Each config at levels 2:3 with the warm-up alpha and a tiny reference."""
    return [dict(c, alphas=[WARMUP_ALPHA], k_min=2, k_max=3, reference_m=64) for c in configs]


def _machine() -> dict:
    """Facts about this machine, read from the environment and /sys."""
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        **caches,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_child(request: dict, timeout: float) -> dict:
    """Spawn one child, wait for it and return its parsed result."""
    request = dict(request, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_cells(workload: str, result: dict, digest: str) -> list:
    """Failed checks of one child as (cell id, reason)."""
    targets = WORKLOADS[workload][1]
    failures = []
    for cell in result["cells"]:
        reasons = []
        if cell["error"] is not None:
            reasons.append(f"error row: {cell['error']}")
        else:
            if cell["residual_max"] is None or not cell["residual_max"] <= result["residual_tol"]:
                reasons.append(f"residual {cell['residual_max']} above {result['residual_tol']}")
            if "mu_rel_err" in cell and not cell["mu_rel_err"] <= MU_REL_TOL:
                reasons.append(f"mu_h off the exact mu by {cell['mu_rel_err']:.3e} relative")
            for key, (target, tol) in targets.items():
                if not abs(cell[key] - target) <= tol:
                    reasons.append(f"{key} {cell[key]:.4f} not within {tol} of {target}")
        if result["csv_sha256"] != digest:
            reasons.append("CSV digest differs from the run's first child")
        failures.extend((cell["id"], reason) for reason in reasons)
    return failures


def _accuracy(workload: str, cells: list) -> dict:
    """Deterministic accuracy figures of one child's passing cells.

    Each figure is 0.0 when no cell produced it, which only happens in a run
    whose checks failed.
    """
    targets = WORKLOADS[workload][1]
    # the L2 rate is read the way its acceptance target reads it, if any
    l2_key = "rate_l2_tail3" if "rate_l2_tail3" in targets else "rate_l2"
    ok = [c for c in cells if c["error"] is None and c["levels"]]
    rates = [c[l2_key] for c in ok if math.isfinite(c[l2_key])]
    out = {
        "rate_l2_mean": sum(rates) / len(rates) if rates else 0.0,
        "err_l2_finest_max": max((c["err_l2_finest"] for c in ok), default=0.0),
    }
    if any("err_mu_finest" in c for c in ok):
        out["err_mu_finest_max"] = max(c["err_mu_finest"] for c in ok if "err_mu_finest" in c)
    if targets:
        out["rate_dev_max"] = max(
            (abs(c[key] - target) for c in ok for key, (target, _tol) in targets.items()),
            default=0.0,
        )
    return out


def _repetitions(request: dict, seconds: float, trace: bool):
    """Run children until ``seconds`` pass; return (untraced, traced) results."""
    start = time.monotonic()
    plain, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if trace:
            enough = len(traced) >= MIN_PAIRS and len(plain) == len(traced)
        else:
            enough = len(plain) >= MIN_CHILDREN
        if (enough and elapsed >= seconds) or (plain and elapsed + longest > RUN_LIMIT_S):
            return plain, traced
        as_traced = trace and len(traced) < len(plain)
        began = time.monotonic()
        child = dict(request, trace=as_traced)
        if as_traced:
            child["spans_path"] = str(OUT / f"{request['tag']}-child{len(plain) + len(traced)}.spans.jsonl")
        (traced if as_traced else plain).append(_run_child(child, start + RUN_LIMIT_S - began))
        longest = max(longest, time.monotonic() - began)


# per-child samples kept in the run record
SAMPLE_KEYS = ("setup_wall_s", "study_wall_s", "ref_py_s", "ref_lu_s", "peak_rss_mb")


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(plain: list, accuracy: dict, attempted: int, failed: int) -> dict:
    return {
        "study_s": (_median(r["study_wall_s"] * REF_LU_S / r["ref_lu_s"] for r in plain), "s"),
        "setup_s": (_median(r["setup_wall_s"] * REF_PY_S / r["ref_py_s"] for r in plain), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in plain), "MiB"),
        "cells_ok_ratio": (1.0 - failed / attempted, "1"),
        "rate_l2_mean": (accuracy["rate_l2_mean"], "1"),
    }


# per-layer metrics: (metric, unit, span name, field of the span totals)
LAYER_SPANS = (
    ("solver.lu_factor.s", "s", "solver.lu_factor", "s"),
    ("solver.lu_factor.calls", "count", "solver.lu_factor", "calls"),
    ("solver.lu_solve.calls", "count", "solver.lu_solve", "calls"),
    ("solver.system_matvec.calls", "count", "solver.system_matvec", "calls"),
    ("solver.system_matvec.s", "s", "solver.system_matvec", "s"),
    ("solver.solve_standard.self_s", "s", "solver.solve_standard", "self_s"),
    ("solver.solve_reconstruction.self_s", "s", "solver.solve_reconstruction", "self_s"),
    ("analysis.reference_solution.s", "s", "analysis.reference_solution", "s"),
    ("analysis.reference_solution.calls", "count", "analysis.reference_solution", "calls"),
    ("analysis.error_norms.s", "s", "analysis.error_norms", "s"),
    ("analysis.error_norms.calls", "count", "analysis.error_norms", "calls"),
    ("analysis.exact_q0.s", "s", "analysis.exact_q0", "s"),
    ("assembly.assemble_lead.s", "s", "assembly.assemble_lead", "s"),
    ("assembly.assemble_lead.calls", "count", "assembly.assemble_lead", "calls"),
    ("assembly.build_singular_pair.s", "s", "assembly.build_singular_pair", "s"),
    ("assembly.assemble_system.self_s", "s", "assembly.assemble_system", "self_s"),
    ("assembly.lead_stencil.s", "s", "assembly.lead_stencil", "s"),
    ("assembly.load_vector.s", "s", "assembly.load_vector", "s"),
    ("assembly.mass_bands.s", "s", "assembly.mass_bands", "s"),
    ("assembly.endpoint_weight_vector.s", "s", "assembly.endpoint_weight_vector", "s"),
    ("assembly.stencil_to_dense.s", "s", "assembly.stencil_to_dense", "s"),
    ("fraccalc.weighted_endpoint_integral.s", "s", "fraccalc.weighted_endpoint_integral", "s"),
    ("fraccalc.weighted_endpoint_integral.calls", "count", "fraccalc.weighted_endpoint_integral", "calls"),
    ("mesh.build_mesh.s", "s", "mesh.build_mesh", "s"),
    ("cli.run_experiment.s", "s", "cli.run_experiment", "s"),
    ("cli.run_experiment.self_s", "s", "cli.run_experiment", "self_s"),
    ("cli.emit_table.s", "s", "cli.emit_table", "s"),
)


def _per_layer(plain: list, traced: list) -> dict:
    def med(fn) -> float:
        return _median(fn(r) for r in traced)

    metrics = {
        name: (med(lambda r: r["layers"][span][field]), unit)
        for name, unit, span, field in LAYER_SPANS
    }
    metrics.update({
        "solver.lu_factor.n_max": (med(lambda r: max(r["lu_sizes"], default=0)), "rows"),
        "solver.lu_factor.gflop_computed": (
            med(lambda r: sum(2.0 * n**3 / 3.0 for n in r["lu_sizes"]) / 1e9), "GFLOP"),
        "solver.lu_factor.mb_computed": (med(lambda r: r["lu_bytes"] / 2**20), "MiB"),
        "solver.residual_max": (med(lambda r: r["residual_max"]), "1"),
        "analysis.reference_solution.solves": (med(lambda r: r["reference_solves"]), "count"),
        "assembly.assemble_lead.n_max": (med(lambda r: max(r["lead_sizes"], default=0)), "rows"),
        "assembly.dense_mb_computed": (med(lambda r: r["dense_bytes"] / 2**20), "MiB"),
        "trace.overhead_ratio": (
            med(lambda r: r["study_wall_s"]) / _median(r["study_wall_s"] for r in plain), "1"),
        # share of the traced study attributed to a layer below the study
        # loop: every span's self time except that of cli.run_experiment
        "trace.coverage_ratio": (
            med(lambda r: sum(v["self_s"] for k, v in r["layers"].items()
                              if k != "cli.run_experiment") / r["study_wall_s"]), "1"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child before this process ends
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "fracfem" / "__init__.py").is_file():
        print(f"error: no fracfem package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    configs = WORKLOADS[args.workload][0](random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    request = {"src": str(SRC), "configs": configs, "warmup": _warmup(configs), "tag": tag}
    try:
        plain, traced = _repetitions(request, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    children = plain + traced
    digest = plain[0]["csv_sha256"]
    per_child = [_check_cells(args.workload, r, digest) for r in children]
    failures = [f for child in per_child for f in child]
    attempted = sum(len(r["cells"]) for r in children)
    failed = sum(len({cell for cell, _reason in child}) for child in per_child)
    accuracy = _accuracy(args.workload, plain[0]["cells"])
    if args.trace:
        metrics = _per_layer(plain, traced)
    else:
        metrics = _end_to_end(plain, accuracy, attempted, failed)
    machine = {**_machine(), **plain[0]["machine"]}
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "configs": configs, "machine": machine,
        "csv_sha256": digest, "attempted": attempted, "failed": failed,
        "failures": failures, "accuracy": accuracy,
        "metrics": reported,
        "untraced": [{k: r[k] for k in SAMPLE_KEYS} for r in plain],
        "traced": [{k: r[k] for k in SAMPLE_KEYS} for r in traced],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(plain)} untraced + {len(traced)} traced (timings are medians)  "
          f"cells {attempted} attempted, {failed} failed  csv {digest[:16]}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6}")
    print("raw medians " + "  ".join(
        f"{k}={_median(r[k] for r in plain):.6g}" for k in SAMPLE_KEYS[:4]))
    print("accuracy " + "  ".join(f"{k}={v:.6g}" for k, v in accuracy.items()))
    for cell, reason in list(dict.fromkeys(failures))[:20]:
        print(f"FAILED cell {cell}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
