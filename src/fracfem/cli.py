"""Convergence-study command line.

Runs mesh-halving studies for one or more fractional orders, measures errors
against closed-form or fine-mesh reference solutions, and emits CSV (or a
markdown mirror of the usual table layout). A run is deterministic: the same
configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from functools import cached_property

from .analysis import (
    REFERENCE_M,
    ConvergenceReport,
    LevelRow,
    error_norms,
    exact_q0,
    expected_rates,
    reference_solution,
)
from .assembly import DIRICHLET, MIXED, ProblemSpec, assemble_system
from .errors import ArgumentError, DomainError, FracFemError
from .fields import POTENTIALS, SOURCES, parse_field
from .fraccalc import PowerSum
from .mesh import Mesh, build_mesh
from .solver import GMRES_RESTART, solve_reconstruction, solve_standard

CSV_COLUMNS = (
    "alpha,k,h,err_l2,err_energy,err_linf,err_mu,"
    "rate_l2,rate_energy,rate_linf,rate_mu,"
    "expected_l2,expected_energy,expected_linf"
)

_METHODS = ("standard", "recon", "recon_mixed")
# report labels of the catalog potentials; a custom one is labelled by its expression
_Q_LABELS = {"zero": "zero", "x_times_1mx": "x(1-x)"}
# largest array a study may allocate, 1 GiB: the dense lead block of a graded
# study (k_max = 13 takes 512 MiB, and the study peaks near 1.3 blocks: the
# finest block, the quarter kept for the next level and that level's block)
# and the GMRES basis of its finest mesh, level or reference (m = 2^21 takes
# 816 MiB)
_ARRAY_BYTES = 1 << 30

# config fields a JSON file could fill with a value of the wrong type; None
# leaves a hint, an expression or the output path unset. A hint, the leading
# exponent of a field at x = 0, is optional and changes no number: it is
# only checked against the field
_HINT, _TEXT = (int, float, type(None)), (str, type(None))
_FIELD_TYPES = {"k_min": int, "k_max": int, "reference_m": int, "delta": (int, float), "f_hint": _HINT,
                "q_hint": _HINT, "f_expr": _TEXT, "q_expr": _TEXT, "out": _TEXT}


@dataclass
class ExperimentConfig:
    """Validated description of one convergence-study grid."""

    alphas: tuple[float, ...] = (1.5,)
    example: str = "a"
    q_kind: str = "zero"
    method: str = "standard"
    k_min: int = 5
    k_max: int = 10
    delta: float = 1.0
    reference_m: int = REFERENCE_M
    fmt: str = "csv"
    out: str | None = None
    f_expr: str | None = None
    f_hint: float | None = None
    q_expr: str | None = None
    q_hint: float | None = None

    def __post_init__(self):
        if not self.alphas:
            raise ArgumentError("at least one alpha is required")
        if self.method not in _METHODS:
            raise ArgumentError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.example not in ("a", "b", "c", "custom"):
            raise ArgumentError(f"example must be a, b, c, or custom, got {self.example!r}")
        if self.example == "custom" and not self.f_expr:
            raise ArgumentError("example 'custom' needs an f expression")
        if self.q_kind not in ("zero", "x_times_1mx", "custom"):
            raise ArgumentError(f"q must be zero, x_times_1mx, or custom, got {self.q_kind!r}")
        if self.q_kind == "custom" and not self.q_expr:
            raise ArgumentError("q 'custom' needs a q expression")
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ArgumentError(f"{name} has the wrong type: {value!r}")
        if not 2 <= self.k_min <= self.k_max:
            raise ArgumentError(f"levels need 2 <= k_min <= k_max, got {self.k_min}:{self.k_max}")
        if not (math.isfinite(self.delta) and self.delta >= 1.0):
            raise ArgumentError(f"grading exponent must be a finite number >= 1, got {self.delta}")
        if self.fmt not in ("csv", "markdown"):
            raise ArgumentError(f"format must be csv or markdown, got {self.fmt!r}")
        if self.method == "recon_mixed" and min(self.alphas) <= 1.5:
            raise ArgumentError(f"mixed conditions need alpha > 3/2, got {min(self.alphas)}")
        if self.reference_m < 16 or self.reference_m & (self.reference_m - 1):
            raise ArgumentError(
                f"reference mesh size must be a power of two >= 16, got {self.reference_m}"
            )
        block = 8 * (2**self.k_max - 1) ** 2  # bytes of one dense graded lead block
        if self.delta > 1.0 and block > _ARRAY_BYTES:
            raise ArgumentError(
                f"k_max={self.k_max} with grading exponent {self.delta} needs a {block >> 20} MiB "
                f"lead block, over the {_ARRAY_BYTES >> 20} MiB limit"
            )
        width = (2.0**-self.k_max) ** self.delta  # first element of the finest level
        if width * width == 0.0:  # as assemble_lead refuses it, but before any work
            raise DomainError(
                f"k_max={self.k_max} with grading exponent {self.delta:g} makes the first element "
                f"width {width:.3g}, which squares to zero"
            )
        for name, m in (("k_max", 2**self.k_max), ("reference_m", self.reference_m)):
            basis = 8 * (GMRES_RESTART + 1) * (m - 1)  # bytes of the GMRES basis on m elements
            if basis > _ARRAY_BYTES:
                raise ArgumentError(
                    f"{name}={getattr(self, name)} needs a {basis >> 20} MiB GMRES basis on "
                    f"m={m}, over the {_ARRAY_BYTES >> 20} MiB limit"
                )
        # parse custom fields once, and refuse them, before any output opens
        ProblemSpec.check_fields(self.potential, self.source)
        for name, hint, field in (("f_hint", self.f_hint, self.source), ("q_hint", self.q_hint, self.potential)):
            if hint is None:
                continue
            if not math.isfinite(hint):
                raise ArgumentError(f"singularity hint must be a finite number, got {hint}")
            worst = field.min_exponent_at_zero()
            if worst is not None and worst < 0.0 and hint > worst:
                raise DomainError(f"{name} {hint} is weaker than the field's leading exponent {worst}")
        if self.needs_reference and 2**self.k_max > self.reference_m // 8:
            raise ArgumentError(
                f"k_max={self.k_max} is too fine for the reference mesh "
                f"m={self.reference_m}; keep 2^k_max <= reference_m / 8"
            )

    @property
    def bc(self) -> str:
        return MIXED if self.method == "recon_mixed" else DIRICHLET

    @cached_property
    def source(self) -> PowerSum:
        if self.example == "custom":
            return parse_field(self.f_expr)
        return SOURCES[self.example]()

    @cached_property
    def potential(self) -> PowerSum:
        if self.q_kind == "custom":
            return parse_field(self.q_expr)
        return POTENTIALS[self.q_kind]()

    @property
    def q_label(self) -> str:
        return self.q_expr if self.q_kind == "custom" else _Q_LABELS[self.q_kind]

    @property
    def needs_reference(self) -> bool:
        return not self.potential.is_zero

    @property
    def source_smoothness(self) -> float:
        """Sobolev index of the source, used for predicted rates only."""
        terms = self.source.terms
        if not terms:
            return 0.5
        candidates = [t.exponent + 0.5 for t in terms if t.anchor > 0.0 or t.exponent != round(t.exponent)]
        return float(min(max(min(candidates), 0.0), 1.5)) if candidates else 1.0


def _config_from_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ArgumentError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ArgumentError(f"config {path} must hold a JSON object, got {type(raw).__name__}")
    known = {f.name for f in dc_fields(ExperimentConfig)} | {"levels", "q"}
    unknown = set(raw) - known
    if unknown:
        raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _parse_levels(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi if hi else lo)
    except ValueError:
        raise ArgumentError(f"levels must look like '5:10', got {text!r}") from None


def run_experiment(config: ExperimentConfig) -> list[ConvergenceReport]:
    """Run the study grid; a failing (alpha, method) cell is reported as an
    error row while the remaining cells still run. The cells share the
    level meshes, finest first, the fine mesh of the exact solutions, and
    the alpha-free data of one spec through ``ProblemSpec.with_alpha``."""
    reports, spec = [], None
    levels = [(k, build_mesh(2**k, config.delta))
              for k in range(config.k_max, config.k_min - 1, -1)]
    fine = build_mesh(config.reference_m)
    for alpha in config.alphas:
        expected = expected_rates(
            alpha,
            "standard" if config.method == "standard" else "reconstruction",
            config.bc,
            config.source_smoothness,
        )
        report = ConvergenceReport(
            alpha=alpha,
            method=config.method,
            example=config.example,
            q_label=config.q_label,
            delta=config.delta,
            expected=expected,
        )
        try:
            spec = (spec.with_alpha(alpha) if spec
                    else ProblemSpec(alpha=alpha, q=config.potential, f=config.source, bc=config.bc))
            report.rows = _run_cell(config, spec, levels, fine)
        except FracFemError as exc:
            report.rows = []
            report.error = f"{type(exc).__name__}: {exc}"
        reports.append(report)
    return reports


def _run_cell(config: ExperimentConfig, spec: ProblemSpec, levels: list, fine: Mesh) -> list[LevelRow]:
    """Rows of one alpha over the (k, mesh) levels, which run finest first,
    so a graded study builds one lead table, measured against the exact
    solution on the ``fine`` mesh."""
    exact = (reference_solution if config.needs_reference else exact_q0)(spec, fine)
    rows = []
    for k, mesh in levels:
        if config.method == "standard":
            sol = solve_standard(assemble_system(spec, mesh, "standard"))
        else:
            sol = solve_reconstruction(spec, mesh)
        norms = error_norms(sol, exact)
        err_mu = None if sol.mu_h is None else abs(exact.mu - sol.mu_h)
        rows.append(LevelRow(k, 1.0 / mesh.m, norms.l2, norms.energy, norms.linf, err_mu))
    return rows[::-1]


def _fmt(value, spec: str = ".10e") -> str:
    if value is None or not math.isfinite(value):
        return ""
    return format(float(value), spec)


def emit_table(reports: list[ConvergenceReport], fmt: str = "csv") -> str:
    """Render reports as CSV (fixed column schema) or markdown."""
    if fmt == "csv":
        return _emit_csv(reports)
    if fmt == "markdown":
        return _emit_markdown(reports)
    raise ArgumentError(f"format must be csv or markdown, got {fmt!r}")


def _emit_csv(reports: list[ConvergenceReport]) -> str:
    out = io.StringIO()
    out.write(CSV_COLUMNS + "\n")
    for report in reports:
        alpha_txt = format(report.alpha, "g")
        if report.error is not None:
            # structured error row: alpha present, every other field empty
            out.write(alpha_txt + "," * (len(CSV_COLUMNS.split(",")) - 1) + "\n")
            continue
        rate_cols = {
            norm: report.rates_of(norm) for norm in ("l2", "energy", "linf", "mu")
        }
        exp = report.expected
        for idx, row in enumerate(report.rows):
            cells = [
                alpha_txt,
                str(row.k),
                _fmt(row.h),
                _fmt(row.err_l2),
                _fmt(row.err_energy),
                _fmt(row.err_linf),
                _fmt(row.err_mu),
            ]
            for norm in ("l2", "energy", "linf", "mu"):
                cells.append("" if idx == 0 else _fmt(rate_cols[norm][idx - 1], ".4f"))
            cells.append(_fmt(exp["l2"], ".4f"))
            cells.append(_fmt(exp["energy"], ".4f"))
            cells.append(_fmt(exp["linf"], ".4f"))
            out.write(",".join(cells) + "\n")
    return out.getvalue()


def _emit_markdown(reports: list[ConvergenceReport]) -> str:
    out = io.StringIO()
    for report in reports:
        head = (
            f"### alpha = {report.alpha:g}, method = {report.method}, "
            f"example = {report.example}, q = {report.q_label}"
        )
        if report.delta != 1.0:
            head += f", delta = {report.delta:g}"
        out.write(head + "\n\n")
        if report.error is not None:
            out.write(f"**failed**: {report.error}\n\n")
            continue
        ks = [str(r.k) for r in report.rows]
        out.write("| k | " + " | ".join(ks) + " | expected |\n")
        out.write("|---" * (len(ks) + 2) + "|\n")
        norms = [("l2", "L2"), ("energy", "energy"), ("linf", "Linf")]
        if any(r.err_mu is not None for r in report.rows):
            norms.append(("mu", "mu"))
        for norm, title in norms:
            errs = report.errors_of(norm)
            cells = [
                "" if not math.isfinite(e) else format(e, ".2e") for e in errs
            ]
            out.write(f"| err_{title} | " + " | ".join(cells) + " |  |\n")
            rr = report.rates_of(norm)
            rate_cells = [""] + [
                "" if not math.isfinite(r) else format(r, ".2f") for r in rr
            ]
            expected = report.expected.get(norm)
            exp_txt = "" if expected is None else format(expected, ".2f")
            out.write(f"| rate_{title} | " + " | ".join(rate_cells) + f" | {exp_txt} |\n")
        out.write("\n")
    return out.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfem",
        description="Convergence studies for fractional two-point boundary value problems.",
    )
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    parser.add_argument("--alpha", dest="alphas",
                        help="comma-separated fractional orders, e.g. 1.25,1.5,1.75")
    parser.add_argument("--example", help="source: a, b, c, or custom")
    parser.add_argument("--q", help="potential: zero, x_times_1mx, or custom")
    parser.add_argument("--method", help="discretization: standard, recon, or recon_mixed")
    parser.add_argument("--levels", help="mesh levels k_min:k_max (m = 2^k)")
    parser.add_argument("--graded", type=float, dest="delta", help="grading exponent delta >= 1")
    parser.add_argument("--reference-m", type=int, dest="reference_m", help="reference mesh size")
    parser.add_argument("--format", dest="fmt", help="output format: csv or markdown")
    parser.add_argument("--out", help="output path (defaults to stdout)")
    parser.add_argument("--f-expr", dest="f_expr", help="custom source expression")
    parser.add_argument("--f-hint", dest="f_hint", type=float,
                        help="optional source exponent at 0, checked against the source")
    parser.add_argument("--q-expr", dest="q_expr", help="custom potential expression")
    parser.add_argument("--q-hint", dest="q_hint", type=float,
                        help="optional potential exponent at 0, checked against the potential")
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's keys, overridden by every option given, then
    ``levels``, ``q`` and ``alphas`` normalised once."""
    raw = _config_from_json(args.config) if args.config else {}
    raw.update((name, value) for name, value in vars(args).items()
               if value is not None and name != "config")
    if "levels" in raw:
        raw["k_min"], raw["k_max"] = _parse_levels(str(raw.pop("levels")))
    if "q" in raw:
        raw["q_kind"] = raw.pop("q")
    if "alphas" in raw:
        value = raw["alphas"]
        items = [tok for tok in value.split(",") if tok] if isinstance(value, str) else value
        try:
            raw["alphas"] = tuple(float(a) for a in items)
        except (TypeError, ValueError):
            raise ArgumentError(f"alphas must be numbers, got {value!r}") from None
    return ExperimentConfig(**raw)


def _open_out(path: str | None):
    """The output file at ``path``, opened for writing, or standard output."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        # the output opens before the study runs, so a path that cannot be
        # written is refused before any work is done
        with _open_out(config.out) as sink:
            reports = run_experiment(config)
            sink.write(emit_table(reports, config.fmt))
    except FracFemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in reports if r.error is not None]
    for report in failed:
        print(f"alpha={report.alpha:g} failed: {report.error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
