"""Configuration validation, table emission, determinism, and exit codes."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracfem import analysis, assembly, cli
from fracfem.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_table,
    main,
    run_experiment,
)
from fracfem.errors import ArgumentError, DomainError
from fracfem.fields import source_bump
from fracfem.mesh import build_mesh

# potential scale that drives 1 + (I^1.5 q u_s)(1) through zero
DEGENERATE_SCALE = -1.0 / 0.051821321143524765

# SHA-256 of the CSVs of the chi(0,0.5) reconstruction study and the graded
# standard study in test_csv_bytes_do_not_depend_on_the_blas_thread_count;
# the graded one was retaken when closed-form L2 and sup errors left the union
# with the m = 4096 fine mesh for the study cells cut toward the anchors, which
# moved err_l2 by at most 5.6e-9 and err_linf by 5.3e-6 relative and no rate;
# the chi one was retaken when the splitting constant's term at 1/2 left the
# adaptive bisection for one fixed rule, which moved two err_mu entries by at
# most 1.6e-11 relative, and again when the load of Q took its zero-anchored
# part exactly and only the part anchored inside (0, 1) by quadrature, which
# moved err_mu by at most 9.9e-8 and err_l2 by 1.0e-8 relative and no rate;
# both were retaken when every load, mass and endpoint integral became exact
# (the series of assembly._hat_moments), which moved the chi study's err_mu by
# at most 4.5e-11, the graded study's err_l2 by 1.2e-10 relative, and no rate;
# both were retaken when systems of n <= 63 unknowns took the LAPACK solution
# and the n = 127 level's GMRES its FFT preconditioner, which moved the chi
# study's err_mu by at most 9.5e-11, the graded study's err_energy by 1.5e-11
# relative, and no rate
CHI_RECON_SHA256 = "bd5c5bd7c9f1c44cbd7cfc6af784a20dc91e112de2e223ffaef554e56e35dd29"
GRADED_STANDARD_SHA256 = "95a421202011cebb9eb049e70df97dc5addf73f65676e5db765763f4eaab46ed"


def _tiny(**overrides):
    base = dict(
        alphas=(1.5,),
        example="a",
        q_kind="zero",
        method="recon",
        k_min=3,
        k_max=5,
        reference_m=512,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_rejects_bad_grids():
    for overrides in (
        dict(alphas=()),
        dict(method="petrov"),
        dict(example="d"),
        dict(example="custom"),
        dict(q_kind="well"),
        dict(q_kind="custom"),
        dict(k_min=1),
        dict(k_min=6, k_max=5),
        dict(delta=0.5),
        dict(fmt="tsv"),
        dict(method="recon_mixed", alphas=(1.5,)),
        dict(reference_m=100),
        dict(reference_m=8),
    ):
        with pytest.raises(ArgumentError):
            _tiny(**overrides)
    # study meshes must stay well below a potential-driven reference
    with pytest.raises(ArgumentError):
        _tiny(q_kind="x_times_1mx", k_max=9, reference_m=512)


def test_config_refuses_a_gmres_basis_over_the_array_limit(capsys, monkeypatch):
    # only configs are built: the GMRES basis on the finest mesh, level or
    # reference, holds 51 rows of m - 1 floats, 816 MiB at m = 2^21 and
    # 1631 MiB at 2^22, over the 1 GiB limit
    studies = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: studies.append(config) or [])
    assert ExperimentConfig(k_max=21).k_max == 21
    assert ExperimentConfig(reference_m=2**21).reference_m == 2**21
    for overrides, name in ((dict(k_max=22), "k_max=22"), (dict(reference_m=2**22), "reference_m=4194304")):
        message = f"{name} needs a 1631 MiB GMRES basis on m=4194304, over the 1024 MiB limit"
        with pytest.raises(ArgumentError, match=message):
            ExperimentConfig(**overrides)
    assert main(["--levels", "5:25"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: k_max=25 needs a 13055 MiB GMRES basis on m=33554432, "
                            "over the 1024 MiB limit\n") and captured.out == ""
    assert studies == []


def test_config_derived_properties():
    config = _tiny()
    assert config.bc == "dirichlet"
    assert config.source == source_bump()
    assert config.q_label == "zero"
    assert config.potential.is_zero
    assert not config.needs_reference
    assert config.source_smoothness == 1.0
    mixed = _tiny(method="recon_mixed", alphas=(1.75,), example="c")
    assert mixed.bc == "mixed"
    assert mixed.source_smoothness == 0.25
    # the step at 1/2 of example b, from its power sum
    assert _tiny(example="b").source_smoothness == 0.5
    with_q = _tiny(q_kind="x_times_1mx", k_min=2, k_max=3, reference_m=64)
    assert with_q.needs_reference
    assert with_q.q_label == "x(1-x)"
    assert _tiny(q_kind="custom", q_expr="chi(0,0.5)", k_min=2, k_max=3, reference_m=64).q_label == "chi(0,0.5)"


def test_custom_expression_smoothness():
    config = _tiny(example="custom", f_expr="x^0.7", f_hint=0.7)
    assert config.source_smoothness == pytest.approx(1.2)
    config = _tiny(example="custom", f_expr="x*(1-x)", f_hint=0.0)
    assert config.source_smoothness == 1.0


def test_csv_schema_and_rate_layout():
    reports = run_experiment(_tiny(k_max=4))
    text = emit_table(reports, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 2  # header plus one row per level
    width = len(CSV_COLUMNS.split(","))
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert len(first) == len(second) == width
    # rates are blank on the first level and filled afterwards
    assert all(cell == "" for cell in first[7:11])
    assert all(cell != "" for cell in second[7:10])
    assert first[0] == "1.5" and first[1] == "3" and second[1] == "4"
    # the q = 0 reconstruction recovers the strength scale exactly, so the
    # mu error is zero and its rate column stays blank
    assert float(first[6]) == 0.0
    assert second[10] == ""


def test_observed_rates_near_two_for_reconstruction():
    reports = run_experiment(_tiny(k_min=4, k_max=6))
    rate = reports[0].rates_of("l2")[-1]
    assert rate == pytest.approx(2.0, abs=0.15)


def test_observed_rate_near_half_for_standard():
    reports = run_experiment(_tiny(method="standard", k_min=5, k_max=7))
    rate = reports[0].rates_of("linf")[-1]
    assert rate == pytest.approx(0.5, abs=0.1)


def test_emitted_tables_are_deterministic():
    config = _tiny(q_kind="x_times_1mx", k_min=2, k_max=3, reference_m=64)
    first = emit_table(run_experiment(config), "csv")
    second = emit_table(run_experiment(config), "csv")
    assert first == second


def test_markdown_mirror():
    reports = run_experiment(_tiny(k_max=4))
    text = emit_table(reports, "markdown")
    assert text.startswith("### alpha = 1.5, method = recon")
    assert "| err_L2 |" in text and "| rate_mu |" in text
    with pytest.raises(ArgumentError):
        emit_table(reports, "tsv")


def test_failing_cell_is_reported_not_raised():
    config = _tiny(
        alphas=(1.5, 1.6),
        q_kind="custom",
        q_expr=f"{DEGENERATE_SCALE!r}*x*(1-x)",
        q_hint=0.0,
        k_min=2,
        k_max=3,
        reference_m=64,
    )
    reports = run_experiment(config)
    assert reports[0].error is not None and "Degenerate" in reports[0].error
    assert reports[1].error is None and len(reports[1].rows) == 2
    text = emit_table(reports, "csv")
    lines = text.strip().split("\n")
    # the failed alpha contributes a structured error row
    assert lines[1] == "1.5" + "," * (len(CSV_COLUMNS.split(",")) - 1)
    assert "**failed**" in emit_table(reports, "markdown")
    # so does an alpha whose spec cannot be built; the cells after it print
    # what they print alone
    grid = dict(k_min=2, k_max=3, reference_m=64)
    reports = run_experiment(_tiny(alphas=(2.5, 1.5, 0.5, 1.6), **grid))
    assert ["DomainError" in (r.error or "") for r in reports] == [True, False, True, False]
    for report in reports[1::2]:
        alone = run_experiment(_tiny(alphas=(report.alpha,), **grid))
        assert emit_table([report]) == emit_table(alone)


def test_main_writes_file_and_returns_zero(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        [
            "--alpha",
            "1.5",
            "--example",
            "a",
            "--method",
            "recon",
            "--levels",
            "3:4",
            "--reference-m",
            "512",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_COLUMNS and len(lines) == 3


def test_main_stdout_round_trip(capsys):
    argv = [
        "--alpha", "1.5", "--example", "custom", "--f-expr", "x*(1-x)",
        "--f-hint", "0", "--method", "recon", "--levels", "3:4",
        "--reference-m", "512",
    ]
    assert main(argv) == 0
    custom_text = capsys.readouterr().out
    argv_catalog = [
        "--alpha", "1.5", "--example", "a", "--method", "recon",
        "--levels", "3:4", "--reference-m", "512",
    ]
    assert main(argv_catalog) == 0
    catalog_text = capsys.readouterr().out
    # the custom expression reproduces the catalog source byte for byte
    assert custom_text == catalog_text


def test_main_config_file_with_aliases(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "alphas": "1.5",
                "example": "a",
                "q": "zero",
                "method": "recon",
                "levels": "3:4",
                "reference_m": 512,
            }
        )
    )
    out = tmp_path / "study.csv"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith(CSV_COLUMNS)


def test_main_error_exit_codes(tmp_path, capsys):
    assert main(["--levels", "abc"]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    assert main(["--config", str(bad)]) == 2
    capsys.readouterr()
    argv = [
        "--alpha", "1.5", "--method", "recon", "--q", "custom",
        f"--q-expr={DEGENERATE_SCALE!r}*x*(1-x)", "--q-hint", "0",
        "--levels", "2:3", "--reference-m", "64",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "alpha=1.5 failed" in captured.err
    assert captured.out.startswith(CSV_COLUMNS)
    # values of the wrong type end in a one-line error that names them
    for raw, named in (({"alphas": 1.5}, "1.5"), ({"k_min": "3"}, "'3'"),
                       ({"q_hint": "0"}, "'0'"), ({"out": 3}, "out")):
        bad.write_text(json.dumps(raw))
        assert main(["--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
    # so do option values that ExperimentConfig refuses
    for argv, named in ((["--alpha", "1.5,abc"], "1.5,abc"), (["--example", "d"], "'d'"),
                        (["--method", "petrov"], "'petrov'"), (["--format", "tsv"], "'tsv'")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err, argv
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_options_override_the_config_file(tmp_path):
    path = tmp_path / "config.json"
    options = ["--levels", "5:6", "--q", "zero", "--alpha", "1.6"]
    for raw in ({"k_min": 3, "k_max": 4, "q_kind": "x_times_1mx", "alphas": [1.25, 1.75]},
                {"levels": "3:4", "q": "x_times_1mx", "q_kind": "zero", "alphas": "1.25,1.75"}):
        path.write_text(json.dumps({**raw, "reference_m": 512}))
        for argv, expected in (([], (3, 4, "x_times_1mx", (1.25, 1.75))), (options, (5, 6, "zero", (1.6,)))):
            config = cli._assemble_config(cli._build_parser().parse_args(["--config", str(path), *argv]))
            assert (config.k_min, config.k_max, config.q_kind, config.alphas) == expected, (raw, argv)


def test_every_option_names_a_config_field():
    # _assemble_config forwards every option given under its dest
    known = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"levels", "q", "config"}
    dests = {action.dest for action in cli._build_parser()._actions} - {"help"}
    assert "alphas" in dests and dests <= known


@pytest.mark.parametrize("hint", ["nan", "inf"])
def test_non_finite_hints_are_refused_in_one_line(hint, capsys, monkeypatch):
    studies = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: studies.append(config) or [])
    for argv in (["--example", "b", "--q", "custom", "--q-expr", "chi(0,0.5)", f"--q-hint={hint}",
                  "--method", "recon", "--levels", "3:4", "--reference-m", "128"],
                 ["--example", "custom", "--f-expr", "x*(1-x)", f"--f-hint={hint}"]):
        assert main(["--alpha", "1.5", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: singularity hint must be a finite number, got {hint}\n"
        assert captured.out == ""
    assert studies == []


def test_graded_levels_past_the_block_limit_are_refused(capsys, monkeypatch):
    # only configs are built: a graded k_max = 13 holds a 512 MiB lead
    # block and passes, 14 would need 2 GiB; uniform meshes keep a stencil
    studies = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: studies.append(config) or [])
    assert _tiny(method="standard", delta=5.0, k_max=13).k_max == 13
    assert _tiny(method="standard", k_max=14).k_max == 14
    message = "k_max=14 with grading exponent 5.0 needs a 2047 MiB lead block, over the 1024 MiB limit"
    with pytest.raises(ArgumentError, match=message):
        _tiny(method="standard", delta=5.0, k_max=14)
    assert main(["--graded", "5", "--levels", "3:14"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert studies == []


def test_unreadable_config_and_unwritable_output_end_in_one_line(tmp_path, capsys, monkeypatch):
    # a missing, malformed or non-object config, and an output path in a
    # missing directory, exit 2 with one error line, before any study runs
    studies = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: studies.append(config) or [])
    malformed, scalar = tmp_path / "malformed.json", tmp_path / "scalar.json"
    malformed.write_text('{"alphas": ')
    scalar.write_text("5")
    cases = [
        (["--config", str(tmp_path / "missing.json")], "cannot read config"),
        (["--config", str(malformed)], "is not valid JSON"),
        (["--config", str(scalar)], "must hold a JSON object, got int"),
        (["--out", str(tmp_path / "missing" / "study.csv")], "cannot write"),
    ]
    for argv, named in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err, argv
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert studies == []


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_grading_exponent_is_rejected_up_front(delta, capsys):
    with pytest.raises(ArgumentError, match=str(delta)):
        _tiny(delta=delta)
    with pytest.raises(ArgumentError, match=str(delta)):
        build_mesh(8, delta)
    assert main(["--graded", str(delta), "--levels", "2:3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: grading exponent must be a finite number >= 1, got {delta}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_too_steep_grading_is_refused_in_one_line(capsys, monkeypatch, tmp_path):
    # only configs are built: at delta = 200 the first width of m = 16
    # squares to zero, which the lead's near band would divide by; the
    # config names the width and delta before any level runs or the output
    # opens (m = 8: 2^-600, whose square is zero too, is never reached)
    studies = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: studies.append(config) or [])
    width = np.diff(build_mesh(16, 200.0).nodes).min()
    message = f"k_max=4 with grading exponent 200 makes the first element width {width:.3g}, which squares to zero"
    with pytest.raises(DomainError, match=f"^{message}$"):
        ExperimentConfig(delta=200.0, k_min=3, k_max=4)
    assert ExperimentConfig(delta=100.0, k_min=3, k_max=5).k_max == 5  # 2^-500 squares to a subnormal
    out = tmp_path / "table.csv"
    assert main(["--graded", "200", "--levels", "3:4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists() and studies == []


def test_bad_custom_source_leaves_the_output_file_alone(tmp_path, capsys):
    # the source is parsed with the config, before the output file opens
    out = tmp_path / "found.csv"
    out.write_text("keep\n")
    argv = [
        "--example", "custom", "--f-expr", "x*(", "--f-hint", "0", "--q", "x_times_1mx",
        "--levels", "3:4", "--reference-m", "128", "--out", str(out),
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert out.read_text() == "keep\n"


def test_potential_expression_that_cancels_is_the_zero_potential(capsys):
    argv = ["--example", "a", "--method", "recon", "--levels", "5:10"]
    assert main(argv + ["--q", "zero"]) == 0
    zero = capsys.readouterr().out
    assert main(argv + ["--q", "custom", "--q-expr", "0*x", "--q-hint", "0"]) == 0
    assert capsys.readouterr().out == zero


def test_deeply_nested_expression_exits_with_an_error(capsys):
    argv = [
        "--alpha", "1.5", "--method", "recon", "--q", "custom",
        "--q-expr", "(" * 400 + "x" + ")" * 400, "--q-hint", "0", "--levels", "2:3",
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "nests too deeply" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("expr, literal, at", [("x^1e400", "1e400", 2), ("1e400*x", "1e400", 0),
                                               ("x*(1-x)+-1e999", "-1e999", 8)])
def test_overflowing_literal_is_refused_in_one_line(expr, literal, at, capsys):
    argv = ["--example", "custom", "--f-expr", expr, "--f-hint", "0", "--levels", "3:4", "--method", "recon"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: number {literal!r} at position {at} in {expr!r} overflows a float\n"
    assert captured.out == ""


def test_singular_pair_built_once_per_cell(monkeypatch):
    # the reference solve and every level of a cell share one spec, so the
    # pair is built once per alpha, not once per mesh
    calls = []
    build = assembly.build_singular_pair

    def counting(spec):
        calls.append(spec.alpha)
        return build(spec)

    monkeypatch.setattr(assembly, "build_singular_pair", counting)
    config = _tiny(
        alphas=(1.3137, 1.7071), q_kind="custom", q_expr="chi(0,0.5)", q_hint=0.0,
        k_min=3, k_max=4, reference_m=128,
    )
    reports = run_experiment(config)
    assert all(r.error is None and len(r.rows) == 2 for r in reports)
    assert calls == [1.3137, 1.7071]


def test_one_lead_per_mesh_in_a_reference_cell(monkeypatch):
    # the reference solve's leading block also serves the energy norm of
    # every level, so a cell builds levels + 1 blocks, not levels + 2
    calls = []
    stencil = assembly.lead_stencil

    def counting(mesh, alpha):
        calls.append((alpha, mesh.m))
        return stencil(mesh, alpha)

    monkeypatch.setattr(assembly, "lead_stencil", counting)
    config = _tiny(
        alphas=(1.3137, 1.7071), q_kind="x_times_1mx", k_min=3, k_max=5, reference_m=512,
    )
    reports = run_experiment(config)
    assert all(r.error is None and len(r.rows) == 3 for r in reports)
    assert sorted(calls) == [
        (alpha, m) for alpha in (1.3137, 1.7071) for m in (8, 16, 32, 512)
    ]


def test_potential_with_non_dyadic_jumps_runs(capsys):
    # chi(0.3,0.7): the splitting constant must split its quadrature at the
    # jumps, which bisection from [0, 1] cannot reach within its depth cap
    argv = [
        "--alpha", "1.3,1.7", "--example", "b", "--q", "custom", "--q-expr", "chi(0.3,0.7)",
        "--q-hint", "0", "--method", "recon", "--levels", "3:5", "--reference-m", "512",
    ]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        [alpha, k] for alpha in ("1.3", "1.7") for k in ("3", "4", "5")
    ]
    assert all(np.isfinite(float(v)) for r in rows for v in r.split(",")[3:7])


def test_potential_with_non_dyadic_jumps_converges(capsys):
    # chi(0.3,0.7) jumps inside elements of every study mesh and of the
    # reference; element rules cut there keep both rates near second order
    argv = [
        "--alpha", "1.3,1.7", "--example", "b", "--q", "custom", "--q-expr", "chi(0.3,0.7)",
        "--q-hint", "0", "--method", "recon", "--levels", "3:7", "--reference-m", "2048",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(","), r.split(","))) for r in lines[1:]]
    finest = [r for r in rows if r["k"] in ("6", "7")]
    assert [(r["alpha"], r["k"]) for r in finest] == [
        (alpha, k) for alpha in ("1.3", "1.7") for k in ("6", "7")
    ]
    for r in finest:
        assert float(r["rate_l2"]) >= 1.7 and float(r["rate_mu"]) >= 1.7, r


def test_potential_with_a_weak_power_at_zero_runs(capsys):
    # x^0.3: the first element's rule absorbs Q's power x^(0.3 + alpha - 1),
    # read from q's power sum, and the splitting constant takes x^0.3 u_s by
    # the power rule, and each chi edge by a fixed rule anchored there
    argv = [
        "--alpha", "1.4", "--example", "b", "--q", "custom", "--q-expr", "x^0.3-chi(0.25,0.75)",
        "--q-hint", "0", "--method", "recon", "--levels", "3:7", "--reference-m", "2048",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(","), r.split(","))) for r in lines[1:]]
    assert [r["k"] for r in rows] == ["3", "4", "5", "6", "7"]
    assert all(float(r["rate_mu"]) >= 1.7 for r in rows[2:]), rows


@pytest.mark.parametrize("expr, method, alphas", [
    ("chi(0,0.5)*x^2", "recon", "1.3,1.7"),
    ("chi(0,0.5)*x^2", "recon_mixed", "1.6,1.7"),
    ("chi(0.25,0.75)*(x-0.5)^2", "recon", "1.3,1.7"),
    ("chi(0.25,0.75)*(x-0.5)^2", "recon_mixed", "1.6,1.7"),
    ("x^0.3+chi(0.5,1)", "recon_mixed", "1.6,1.7"),
])
def test_potentials_anchored_inside_run(expr, method, alphas, capsys):
    # each term of q anchored inside (0, 1) takes one fixed rule for the
    # splitting constant; an adaptive bisection once ended every cell of these
    # in a QuadratureFailure at its depth cap
    argv = [
        "--alpha", alphas, "--example", "b" if method == "recon" else "c", "--q", "custom",
        "--q-expr", expr, "--q-hint", "0", "--method", method, "--levels", "3:7", "--reference-m", "2048",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(","), r.split(","))) for r in lines[1:]]
    finest = [r for r in rows if r["k"] in ("5", "6", "7")]
    assert len(finest) == 6 and all(float(r["rate_mu"]) >= 1.7 for r in finest), finest


@pytest.mark.parametrize("expr, exponent", [("x^-0.5", "-0.5"), ("x^-0.9", "-0.9")])
def test_unbounded_potential_is_refused_in_one_line(expr, exponent, capsys):
    # the potential's power sum says it is unbounded at 0, though a sample
    # from 1e-3 on stays below 1e8
    argv = ["--alpha", "1.5", "--example", "a", "--q", "custom", "--q-expr", expr, "--q-hint", exponent,
            "--method", "recon", "--levels", "3:4", "--reference-m", "128"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: potential q must be bounded on [0, 1], but has a term x^{exponent}\n"
    assert captured.out == ""


def test_hint_changes_no_number(capsys):
    # q's power sum sets the left exponent of Q's quadrature load, so a
    # hint, given or not, leaves every byte as it is
    argv = ["--alpha", "1.3,1.7", "--example", "a", "--q", "custom", "--q-expr", "x^0.5+chi(0.5,1)",
            "--method", "recon", "--levels", "3:6", "--reference-m", "512"]
    tables = []
    for hint in ([], ["--q-hint", "0"], ["--q-hint", "0.5"], ["--q-hint", "2"]):
        assert main(argv + hint) == 0, hint
        tables.append(capsys.readouterr().out)
    assert tables[0].count("\n") == 9 and all(t == tables[0] for t in tables[1:])


def test_custom_source_runs_without_a_hint(capsys):
    argv = ["--alpha", "1.5", "--example", "custom", "--f-expr", "x^-0.25+x", "--method", "recon",
            "--levels", "3:5"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert table.count("\n") == 4
    assert main(argv + ["--f-hint", "-0.25"]) == 0
    assert capsys.readouterr().out == table


def test_hint_is_optional_and_checked():
    # a hint is the leading exponent at x = 0: it may be left out, but one
    # that claims more smoothness than the parsed expression has is refused
    assert _tiny(example="custom", f_expr="x^-0.5").f_hint is None
    assert _tiny(example="custom", f_expr="x^-0.5", f_hint=-0.5).f_hint == -0.5
    with pytest.raises(DomainError, match=r"^f_hint 0.0 is weaker than the field's leading exponent -0.5$"):
        _tiny(example="custom", f_expr="x^-0.5", f_hint=0.0)
    # a catalog field is checked alike: example c is x^(-1/4)
    with pytest.raises(DomainError, match=r"^f_hint 0.0 is weaker than the field's leading exponent -0.25$"):
        _tiny(example="c", f_hint=0.0)
    with pytest.raises(ArgumentError, match="finite"):
        _tiny(f_hint=float("nan"))


def test_module_entry_point_runs_without_runtime_warning():
    # the package must not import fracfem.cli itself, or runpy warns that the
    # module is already loaded before running it as __main__
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracfem.cli",
         "--alpha", "1.5", "--example", "a", "--q", "zero", "--method", "recon", "--levels", "2:3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("alpha,k,h,")


def _cli_stdout(args, **env):
    """Standard output of ``python -m fracfem.cli args`` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "fracfem.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("alpha,k,h,")
    return done.stdout


def test_csv_bytes_do_not_depend_on_the_blas_thread_count():
    # reconstruction cells whose solves must not round differently when BLAS
    # splits its work across threads. The first reaches m = 256. The second,
    # chi(0,0.5), takes Gauss-Jacobi rules with a nonzero right exponent for
    # its splitting constant, the LAPACK solution on its levels (n <= 31) and
    # a GMRES cycle of several iterations on its references. Its digest was
    # taken when scipy still supplied the tridiagonal eigensolver and the
    # triangular solve; with reference m = 512 (not 256) the bytes move if
    # either is swapped for np.linalg.eig or np.linalg.solve.
    # The third is a graded standard study up to m = 512, whose dense leads
    # are scaled blocks of one table per cell.
    studies = [
        (["--alpha", "1.25,1.75", "--example", "b", "--q", "x_times_1mx", "--method", "recon",
          "--levels", "6:8", "--reference-m", "2048"], None),
        (["--alpha", "1.3,1.7", "--example", "b", "--q", "custom", "--q-expr", "chi(0,0.5)",
          "--q-hint", "0", "--method", "recon", "--levels", "3:5", "--reference-m", "512"],
         CHI_RECON_SHA256),
        (["--alpha", "1.25,1.75", "--example", "a", "--q", "zero", "--method", "standard",
          "--graded", "5", "--levels", "3:9"], GRADED_STANDARD_SHA256),
    ]
    for args, digest in studies:
        outputs = [_cli_stdout(args, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert outputs[0] == outputs[1]
        if digest is not None:
            assert hashlib.sha256(outputs[0].encode()).hexdigest() == digest, args


def test_cached_stencil_band_leaves_no_trace_in_the_csv(capsys):
    # lead_stencil keeps its alpha-only band for the life of the process; a
    # study must print the bytes of a fresh interpreter after other alphas
    # have cycled that cache and other studies have filled it for its own
    chi = ["--q", "custom", "--q-expr", "chi(0,0.5)", "--q-hint", "0", "--reference-m", "256"]
    studies = [
        ["--alpha", "1.3,1.7", "--example", "b", "--method", "recon", "--levels", "3:5", *chi],
        ["--alpha", "1.6,1.8", "--example", "c", "--method", "recon_mixed", "--levels", "3:5", *chi],
    ]
    fresh = [_cli_stdout(args) for args in studies]

    for alpha in np.linspace(1.01, 1.99, 2 * assembly._stencil_band.cache_info().maxsize):
        assembly.lead_stencil(build_mesh(64), alpha)
    run_experiment(_tiny(alphas=(1.3, 1.6, 1.7, 1.8), q_kind="x_times_1mx", k_min=2, k_max=4))
    for _ in range(2):
        for args, want in zip(studies, fresh):
            assert main(args) == 0
            assert capsys.readouterr().out == want


def _graded(delta, alphas=(1.25, 1.5, 1.75)):
    """A graded standard study of three alphas at levels 3:9."""
    return ExperimentConfig(alphas=alphas, example="a", q_kind="zero", method="standard",
                            k_min=3, k_max=9, delta=delta)


def test_graded_study_builds_one_lead_table_per_alpha(monkeypatch):
    # the levels of a cell run finest first, so each alpha's spec builds its
    # table once, on the 513 nodes of level 9, and takes the coarser
    # levels as blocks of it
    calls = []
    build = assembly._lead_rows

    def counting(x, alpha, plans):
        calls.append((alpha, x.size))
        return build(x, alpha, plans)

    monkeypatch.setattr(assembly, "_lead_rows", counting)
    reports = run_experiment(_graded(5.0))
    assert all(r.error is None and [row.k for row in r.rows] == list(range(3, 10)) for r in reports)
    assert calls == [(alpha, 2**9 + 1) for alpha in (1.25, 1.5, 1.75)]


def _chi_recon(method="recon", alphas=(1.6, 1.7, 1.8)):
    """A uniform chi(0,0.5) reconstruction study of three alphas at levels 3:5."""
    return _tiny(alphas=alphas, example="b", method=method, q_kind="custom", q_expr="chi(0,0.5)",
                 q_hint=0.0, k_min=3, k_max=5, reference_m=256)


def test_uniform_study_builds_level_terms_once(monkeypatch):
    # the mass bands and the source load do not depend on alpha, so a study
    # of three alphas builds them once on each level and once on the
    # reference mesh, and its level meshes once
    config, calls = _chi_recon(alphas=(1.3137, 1.5, 1.7071)), []
    bands, load, mesh_of = assembly.mass_bands, assembly.load_vector, cli.build_mesh

    def counting_bands(mesh, q):
        calls.append(("mass", mesh.m))
        return bands(mesh, q)

    def counting_load(mesh, field):
        if field is config.source:
            calls.append(("f", mesh.m))
        return load(mesh, field)

    def counting_mesh(m, delta=1.0):
        calls.append(("mesh", m))
        return mesh_of(m, delta)

    monkeypatch.setattr(assembly, "mass_bands", counting_bands)
    monkeypatch.setattr(assembly, "load_vector", counting_load)
    monkeypatch.setattr(cli, "build_mesh", counting_mesh)
    reports = run_experiment(config)
    assert all(r.error is None and len(r.rows) == 3 for r in reports)
    assert sorted(calls) == sorted([(kind, m) for kind in ("f", "mass") for m in (8, 16, 32, 256)]
                                   + [("mesh", m) for m in (8, 16, 32, 256)])


@pytest.mark.parametrize("method", ["standard", "recon"])
def test_study_builds_each_mesh_once(monkeypatch, method):
    # the exact solutions of all alphas, closed-form (q = 0) or reference
    # solves (chi(0,0.5)), share one fine mesh built next to the levels
    config = _tiny(alphas=(1.3, 1.5, 1.7), method="standard") if method == "standard" else _chi_recon()
    calls, build = [], cli.build_mesh

    def counting(m, delta=1.0):
        calls.append(m)
        return build(m, delta)

    for module in (cli, analysis):
        monkeypatch.setattr(module, "build_mesh", counting)
    reports = run_experiment(config)
    assert all(r.error is None for r in reports) and len(reports) == 3
    assert sorted(calls) == [2**k for k in range(config.k_min, config.k_max + 1)] + [config.reference_m]


def test_graded_study_leaves_nothing_behind():
    # the alpha-free data of a study lives on its specs; after a delta = 3
    # study has filled the scalar-keyed rule and band caches, a delta = 5
    # study leaves nothing of its own, and after a first run of a uniform
    # reconstruction study, Dirichlet or mixed, a second run leaves nothing
    for warm, study in ((_graded(3.0), _graded(5.0)), (_chi_recon(), _chi_recon()),
                        (_chi_recon("recon_mixed"), _chi_recon("recon_mixed"))):
        run_experiment(warm)
        gc.collect()
        tracemalloc.start()
        try:
            run_experiment(study)
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024, (study.method, left)


def test_no_level_holds_the_previous_levels_solution(monkeypatch):
    # levels run finest first; a level that still held the previous level's
    # Solution, and with it that level's dense lead, would peak above the
    # finest level (1.77 against 1.72 finest blocks at m = 1024)
    peaks, assemble = [], cli.assemble_system

    def level_start(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return assemble(*args)

    monkeypatch.setattr(cli, "assemble_system", level_start)
    gc.collect()
    tracemalloc.start()
    try:
        reports = run_experiment(dataclasses.replace(_graded(5.0, (1.25,)), k_max=10))
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert reports[0].error is None
    finest, *later = peaks[1:]  # peaks[0] is the exact solution's, before any level
    assert len(later) == 7 and max(later) <= finest, (finest, later)


def test_graded_studies_in_two_threads_print_serial_bytes():
    configs = [_graded(5.0, (1.25, 1.75)), _graded(3.0, (1.3, 1.7))]
    serial = [emit_table(run_experiment(config)) for config in configs]
    tables = [None] * len(configs)

    def study(index):
        tables[index] = emit_table(run_experiment(configs[index]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=study, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tables == serial
