"""Experiment runner: exit codes, file formats, determinism."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supershift_lab import cli
from supershift_lab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return main(args)


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


class TestExitCodes:
    def test_verify_free_plane_wave_passes(self, outdir):
        # without a datum, verify runs the default plane wave k = 3 and
        # compares it with its closed form as for an explicit one
        for initial in (["--initial", "plane:k=3"], []):
            code = run(["verify", "--potential", "free", *initial, "--output", outdir])
            assert code == 0
            doc = json.loads(Path(outdir, "run_verify.json").read_text())
            assert doc["pass"] is True
            assert doc["initial"] == "plane:k=3"
            names = [c["name"] for c in doc["checks"]]
            assert "free_plane_wave_closed_form" in names

    @pytest.mark.parametrize(
        "args",
        [
            ["--potential", "harmonic"],
            # the points at t = 1e-4, |x| = 2 stay: their coefficient bound
            # is 2.8e-11, below tol/2
            ["--potential", "harmonic", "--tol", "1e-10"],
            ["--potential", "harmonic:omega=2"],
            ["--potential", "harmonic:omega=2", "--initial", "superosc"],
        ],
    )
    def test_verify_harmonic_passes(self, args, outdir):
        # the residual of a correct field is the field's, not the stencil's
        # O(h^2) error, which alone exceeded 1e-3 on these patches
        assert run(["verify", *args, "--output", outdir]) == 0
        doc = json.loads(Path(outdir, "run_verify.json").read_text())
        [check] = [c for c in doc["checks"] if c["name"] == "schrodinger_residual"]
        assert check["value"] <= 1e-5

    def test_verify_patch_inside_grid_times(self, tmp_path, outdir, monkeypatch):
        # a lambda table that ends at 0.4 under a grid t in [0.1, 0.3]: the
        # residual patch starts at the grid's first time and stays inside
        # its times, where the spline is defined
        from supershift_lab import cli

        patches = []
        field = cli.wavefield
        def recorded(k, f, ts, xs, tol):
            patches.append(ts)
            return field(k, f, ts, xs, tol)

        monkeypatch.setattr(cli, "wavefield", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "lambda": {
                        "kind": "table", "t": [0.0, 0.2, 0.4], "values": [1.0, 1.5, 0.5]}},
                    "grid": {"t": [0.1, 0.3, 3], "x": [-1.0, 1.0, 3]},
                }
            )
        )
        assert run(["verify", "--config", str(cfg), "--output", outdir]) == 0
        [patch] = patches
        assert len(patch) == 5 and patch[0] == 0.1 and 0.1 <= min(patch) <= max(patch) <= 0.3

    def test_verify_complex_plane_wave_passes(self, tmp_path, outdir):
        # k = [re, im]: the closed-form check compares with e^{i k x - i k^2 t}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "initial": {"kind": "plane_wave", "k": [2.0, 0.1]},
                }
            )
        )
        assert run(["verify", "--config", str(cfg), "--output", outdir]) == 0
        doc = json.loads(Path(outdir, "run_verify.json").read_text())
        [check] = [c for c in doc["checks"] if c["name"] == "free_plane_wave_closed_form"]
        assert check["pass"] and check["value"] <= 1e-8

    @pytest.mark.parametrize(
        "quadrature, field",
        [
            ({"tol": "abc"}, "quadrature.tol"),
            ({"tol": -1e-9}, "quadrature.tol"),
            ({"tol": 0}, "quadrature.tol"),
            # the panel budget is fixed; a config still setting it is refused
            ({"max_panels": 4000}, "quadrature keys"),
            ({"tol": float("nan")}, "quadrature.tol"),
            ({"tol": float("inf")}, "quadrature.tol"),
            ("abc", "quadrature"),
            (None, "quadrature"),
            # the contour angle is fixed per potential; a config still
            # setting it must not run at another angle unnoticed
            ({"angle": 0.5}, "quadrature keys"),
        ],
    )
    def test_malformed_quadrature_is_usage_error(self, tmp_path, outdir, capsys, quadrature, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "free"}, "quadrature": quadrature}))
        for command in ("evolve", "supershift", "verify"):
            assert run([command, "--config", str(cfg), "--output", outdir]) == 1
            assert capsys.readouterr().err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["evolve", "--potential", "harmonic:omega=inf"], {}),
            (["evolve", "--potential", "electric:lambda=nan"], {}),
            (["evolve", "--initial", "plane:k=nan"], {}),
            (["supershift", "--k", "nan"], {}),
            (["evolve"], {"potential": {"kind": "harmonic", "omega": 1.0},
                          "grid": {"t": [float("nan"), 0.5, 3]}}),
            (["evolve"], {"grid": {"x": [float("-inf"), 1, 3]}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": [2.0, float("nan")]}}),
            (["evolve"], {"initial": {"kind": "superosc", "n": 10, "k": float("inf")}}),
            (["evolve"], {"potential": {"kind": "electric", "lambda": {
                "kind": "sinusoid", "a": 1.0, "b": float("nan"), "omega": 1.0}}}),
            (["evolve"], {"potential": {"kind": "harmonic", "lambda": {
                "kind": "sinusoid", "a": 1.0, "b": 0.5, "omega": float("inf")}}}),
            (["supershift"], {"supershift": {"kappa": float("inf")}}),
            (["supershift"], {"supershift": {"weight_C": float("nan")}}),
            (["supershift"], {"supershift": {"sample_radius": float("nan")}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "terms": [
                {"coeff": float("nan"), "signal": {"kind": "plane_wave", "k": 1.0}}]}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "terms": [
                {"coeff": [1.0, float("inf")], "signal": {"kind": "plane_wave", "k": 1.0}}]}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "terms": []}}),
            # counts, orders and well indices: integers or integral floats only
            (["evolve"], {"initial": {"kind": "superosc", "n": 2.7, "k": 3.0}}),
            (["evolve"], {"potential": {"kind": "poschl_teller", "l": 2.5}}),
            (["evolve"], {"potential": {"kind": "poschl_teller", "l": True}}),
            (["supershift"], {"supershift": {"n_values": [10.5, 20]}}),
            (["supershift"], {"supershift": {"n_values": []}}),
            (["evolve"], {"grid": {"t": [0.1, 0.5, 2.7]}}),
            (["evolve"], {"grid": {"x": [-1.0, 1.0, True]}}),
            (["verify"], {"verify": {"residual_threshold": "abc"}}),
            (["verify"], {"verify": {"initial_limit_threshold": float("nan")}}),
            (["verify"], {"verify": {"t_sequence": [1e-2, float("nan")]}}),
            (["verify"], {"verify": {"t_sequence": []}}),
            # a key the spec's kind does not read is refused, not ignored
            (["evolve"], {"potential": {"kind": "harmonic", "omgea": 2.0}}),
            (["evolve"], {"potential": {"kind": "harmonic", "omega": 1.0,
                                        "lambda": {"kind": "constant", "c": 1.0}}}),
            (["evolve"], {"potential": {"kind": "free", "omega": 1.0}}),
            (["evolve"], {"potential": {"kind": "electric", "lam": 2.0}}),
            (["evolve"], {"potential": {"kind": "poschl_teller", "l": 2, "depth": 3}}),
            (["evolve"], {"potential": {"kind": "electric", "lambda": {
                "kind": "constant", "c": 1.0, "omega": 2.0}}}),
            (["evolve"], {"potential": {"kind": "harmonic", "lambda": {
                "kind": "sinusoid", "a": 1.0, "b": 0.5, "omega": 1.0, "phase": 0.3}}}),
            (["evolve"], {"potential": {"kind": "electric", "lambda": {
                "kind": "table", "t": [0.0, 1.0], "values": [1.0, 1.0], "order": 1}}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": 1.0, "kappa": 5.0}}),
            (["evolve"], {"initial": {"kind": "superosc", "n": 10, "k": 3.0, "m": 2}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "scale": 2.0, "terms": [
                {"coeff": 1.0, "signal": {"kind": "plane_wave", "k": 1.0}}]}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "terms": [
                {"coeff": 1.0, "signal": {"kind": "plane_wave", "k": 1.0, "kapa": 2.0}}]}}),
            (["evolve"], {"initial": {"kind": "linear_combination", "terms": [
                {"coef": 1.0, "signal": {"kind": "plane_wave", "k": 1.0}}]}}),
            (["evolve", "--potential", "harmonic:omgea=2"], {}),
            (["evolve", "--potential", "harmonic:omega=1,lambda=2"], {}),
            (["evolve", "--potential", "free:omega=1"], {}),
            (["evolve", "--potential", "electric:lam=2"], {}),
            (["evolve", "--potential", "pt:l=2,m=1"], {}),
            (["evolve", "--initial", "plane:kappa=5"], {}),
            (["evolve", "--initial", "superosc:n=10,kappa=3"], {}),
            # inline counts follow the config's rule: integral floats only
            (["evolve", "--potential", "pt:l=2.5"], {}),
            (["evolve", "--initial", "superosc:n=10.5"], {}),
            (["supershift", "--n", "10.5"], {}),
            (["supershift", "--n", "10,nan"], {}),
            # a number is a JSON number: booleans and numeric strings are refused
            (["evolve"], {"potential": {"kind": "harmonic", "omega": True}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": True}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": "2"}}),
            (["supershift"], {"supershift": {"kappa": "2"}}),
            (["evolve"], {"grid": {"t": ["0.2", 0.3, 2]}}),
            (["evolve"], {"grid": {"t": [True, 0.3, 2]}}),
            (["evolve"], {"potential": {"kind": "harmonic", "omega": 10**400}}),
            # an axis has exactly 3 entries, a complex k exactly 2
            (["evolve"], {"grid": {"t": [0.2, 0.3, 2, 99]}}),
            (["evolve"], {"grid": {"x": [-1.0, 1.0]}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": [1, 2, 3]}}),
            (["evolve"], {"initial": {"kind": "plane_wave", "k": [1]}}),
            # an inline key given twice is refused, not overwritten
            (["evolve", "--potential", "pt:l=2,l=3"], {}),
            (["evolve", "--potential", "harmonic:lambda=1,lambda=2"], {}),
            (["evolve", "--initial", "plane:k=1,k=2"], {}),
            # a metric over no disk, a mirrored one, or a negative weight
            (["supershift"], {"supershift": {"sample_radius": 0}}),
            (["supershift"], {"supershift": {"sample_radius": -3.0}}),
            (["supershift"], {"supershift": {"weight_C": -1}}),
            # a table: times increasing, one value per knot, at least two knots
            (["evolve"], {"potential": {"kind": "harmonic", "lambda": {
                "kind": "table", "t": [0.0, 0.5, 0.5, 1.0], "values": [1.0, 1.2, 0.9, 1.1]}}}),
            (["evolve"], {"potential": {"kind": "harmonic", "lambda": {
                "kind": "table", "t": [0.0, 0.5, 1.0], "values": [1.0, 1.2]}}}),
            (["evolve"], {"potential": {"kind": "harmonic", "lambda": {
                "kind": "table", "t": [0.0], "values": [1.0]}}}),
            # so is a top-level or section key the runner does not read
            (["supershift"], {"supershift": {"n_value": [5]}}),
            (["supershift"], {"supershift": {"kapa": 2.0}}),
            (["supershift"], {"quadratur": {"tol": 1e-6}}),
            (["supershift"], {"output": {"prefx": "mine"}}),
            (["verify"], {"verify": {"residual_treshold": 1e-9}}),
            (["evolve"], {"threads": 4}),
            (["evolve"], {"grid": {"t": [0.1, 0.5, 3], "dt": 0.1}}),
        ],
    )
    def test_non_finite_number_is_usage_error(self, tmp_path, outdir, capsys, argv, doc):
        # refused while the config is parsed: no output is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "free"}, **doc}))
        assert run([*argv, "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid")
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1, 2], "config"),
            ("abc", "config"),
            ({"potential": {"kind": "free"}, "grid": "abc"}, "grid"),
            ({"potential": {"kind": "free"}, "output": "abc"}, "output"),
            ({"potential": {"kind": "free"}, "verify": "abc"}, "verify"),
            ({"potential": {"kind": "free"}, "supershift": [3.0]}, "supershift"),
        ],
    )
    def test_non_object_section_is_usage_error(self, tmp_path, outdir, capsys, doc, field):
        # checked when the config is loaded, before any subcommand reads it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["evolve"], {"potential": {"kind": "electric", "lambda": {"kind": "ramp"}}},
             "unknown lambda kind 'ramp'"),
            (["evolve", "--potential", "warp"], {}, "cannot parse potential 'warp'"),
            (["evolve", "--potential", "free", "--initial", "gauss:k=1"], {},
             "cannot parse initial condition 'gauss:k=1'"),
            (["evolve"], {"potential": {"kind": "free"}, "initial": {"kind": "gauss"}},
             "config field 'initial.kind' missing or unknown: 'gauss'"),
            (["evolve"], {}, "missing required field: potential"),
            (["evolve"], None, "config file not found"),
            # commands that read no initial datum take no --initial
            (["supershift", "--initial", "plane:k=3"], {"potential": {"kind": "free"}},
             "unrecognized arguments"),
            (["greens-audit", "--initial", "plane:k=3"], {"potential": {"kind": "free"}},
             "unrecognized arguments"),
        ],
    )
    def test_unknown_or_missing_input_is_usage_error(self, tmp_path, outdir, capsys, argv, doc,
                                                     message):
        # doc None: the config path names no file
        cfg = tmp_path / "cfg.json"
        if doc is not None:
            cfg.write_text(json.dumps(doc))
        assert run([*argv, "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not os.path.exists(outdir)

    def test_defaults_survive_a_run(self, outdir):
        # flags write into the merged config; a run must not change the
        # defaults that the next in-process run merges with
        before = json.dumps(cli.DEFAULTS, sort_keys=True)
        assert run(["supershift", "--potential", "free", "--k", "nan", "--tol", "1e-3",
                    "--output", outdir]) == 1
        assert json.dumps(cli.DEFAULTS, sort_keys=True) == before

    def test_empty_combination_is_usage_error(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "free"},
                                   "initial": {"kind": "linear_combination", "terms": []}}))
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert "linear_combination needs at least one term" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "poschl_teller", "l": 1.0},
                    "initial": {"kind": "superosc", "n": 10.0, "k": 2.0},
                    "grid": {"t": [0.1, 0.5, 2.0], "x": [-1.0, 1.0, 3.0]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_field.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 2 * 3

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["greens-audit", "--potential", "pt:l={}"], "2"),
            (["evolve", "--potential", "free", "--initial", "superosc:n={}"], "10"),
            (["supershift", "--potential", "free", "--n", "{}"], "10"),
        ],
    )
    def test_integral_float_inline_counts_accepted(self, tmp_path, argv, count):
        # an inline count of 2.0 or 10.0 runs the experiment of 2 or 10:
        # the same output bytes, and the same manifest but for its timestamp
        # (both runs write to one directory, which the config digest covers)
        out, outputs = tmp_path / "out", []
        for text in (count, count + ".0"):
            assert run([a.format(text) for a in argv] + ["--output", str(out)]) == 0
            outputs.append(_outputs(out))
        assert len(outputs[0]) >= 1 and outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag, inline, spec",
        [
            ("--potential", "free", {"kind": "free"}),
            ("--potential", "electric",
             {"kind": "electric", "lambda": {"kind": "constant", "c": 1.0}}),
            ("--potential", "harmonic:omega=1", {"kind": "harmonic", "omega": 1.0}),
            ("--potential", "pt:l=2.0", {"kind": "poschl_teller", "l": 2}),
            ("--initial", "superosc", {"kind": "superosc", "n": 10, "k": 3.0}),
            ("--initial", "plane", {"kind": "plane_wave", "k": 1.0}),
        ],
    )
    def test_inline_option_is_its_config_spec(self, tmp_path, flag, inline, spec):
        # an inline option runs, and records, the spec it stands for: the
        # same output bytes, and the same manifest but for its timestamp
        key = flag.lstrip("-")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: spec}))
        common = ["--output", str(tmp_path / "out")]
        if key == "initial":
            common += ["--potential", "free"]
        assert run(["evolve", flag, inline, *common]) == 0
        by_option = _outputs(tmp_path / "out")
        assert run(["evolve", "--config", str(cfg), *common]) == 0
        assert _outputs(tmp_path / "out") == by_option
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest[key] == spec
        # a run without a datum records the plane wave k = 3 that it ran
        if key == "potential":
            assert manifest["initial"] == {"kind": "plane_wave", "k": 3.0}

    def test_missing_potential_kind_is_usage_error(self, tmp_path, outdir):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"potential": {"kind": "warp"}}')
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1

    def test_malformed_json_reports_line(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"potential": ')
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert run(["evolve", "--nonsense"]) == 1

    def test_grid_beyond_horizon_rejected(self, tmp_path, outdir):
        # t from 0.1 to 2 crosses the caustic pi/2: the grid runs, its
        # coefficients solved to t = 4, and meets the continued closed form
        from supershift_lab.oracles import harmonic_plane

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "initial": {"kind": "plane_wave", "k": 1.0},
                    "grid": {"t": [0.1, 2.0, 3], "x": [-1, 1, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_field.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            psi = complex(float(row["re_psi"]), float(row["im_psi"]))
            exact = harmonic_plane(float(row["t"]), float(row["x"]), 1.0)
            assert abs(psi - exact) <= float(row["quad_err"])
        assert json.loads(Path(outdir, "run_manifest.json").read_text())["failures"] == 0

    @staticmethod
    def _table_run(tmp_path, outdir, knots, grid_t):
        cfg = tmp_path / "tbl.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "lambda": {
                        "kind": "table", "t": knots, "values": [1.0, 1.2, 0.9]}},
                    "initial": {"kind": "plane_wave", "k": 1.0},
                    "grid": {"t": grid_t, "x": [-1.0, 1.0, 3]},
                }
            )
        )
        return run(["evolve", "--config", str(cfg), "--output", outdir])

    def test_grid_past_lambda_table_is_usage_error(self, tmp_path, outdir, capsys):
        # lambda is not defined past the table's last knot
        assert self._table_run(tmp_path, outdir, [0.0, 0.2, 0.4], [0.3, 1.2, 3]) == 1
        assert "past the lambda table's last knot 0.4" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_lambda_table_after_zero_is_usage_error(self, tmp_path, outdir, capsys):
        # the coefficient solve starts at t = 0: lambda on [0, 0.5) would be
        # extrapolated backward
        assert self._table_run(tmp_path, outdir, [0.5, 1.0, 1.5], [0.1, 0.4, 3]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid potential") and "table starts at t = 0.5" in err
        assert not os.path.exists(outdir)

    def test_table_solve_ends_at_its_last_knot(self, tmp_path, outdir):
        # past t = 0.2 a spline would continue this lambda to -6e5 by
        # t = 1, where the solve, then run to 1, overflowed
        cfg = tmp_path / "tbl.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "lambda": {
                        "kind": "table", "t": [0.0, 0.1, 0.2], "values": [0.0, 5000.0, -5000.0]}},
                    "initial": {"kind": "plane_wave", "k": 1.0},
                    "grid": {"t": [0.05, 0.2, 4], "x": [-1.0, 1.0, 5]},
                }
            )
        )
        assert cli._build_kernel(json.loads(cfg.read_text())).horizon == 0.2
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        assert json.loads(Path(outdir, "run_manifest.json").read_text())["failures"] == 0

    def test_overflowing_solve_ends_its_span(self, outdir, capsys):
        # alpha ~ e^{894 t} overflows at t ~ 0.78, inside the solve's [0, 1]
        # but past the grid's t <= 0.5: the span ends at the last panel
        # that certifies; one that certifies no panel is an error exit
        argv = ["evolve", "--initial", "plane:k=1", "--output", outdir]
        assert run([*argv, "--potential", "harmonic:lambda=-200000"]) == 0
        assert run([*argv, "--potential", "harmonic:lambda=-1e300"]) == 1
        assert capsys.readouterr().err.startswith("error: coefficient solve")

    def test_empty_order_is_usage_error(self, outdir, capsys):
        assert run(["supershift", "--potential", "free", "--n", "10,,20", "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid option")
        assert run(["supershift", "--potential", "free", "--n", "0,10", "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid supershift")

    def test_non_numeric_inline_option_is_usage_error(self, outdir, capsys):
        assert run(["evolve", "--potential", "harmonic:omega=abc", "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid option")

    def test_missing_well_order_is_usage_error(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"potential": {"kind": "poschl_teller"}}')
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid potential: KeyError('l')")

    def test_empty_grid_axis_is_usage_error(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "free"}, "grid": {"t": [0.1, 0.5, 0]}}))
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid grid axis")

    def test_descending_time_axis_checked_against_horizon(self, tmp_path, outdir, capsys):
        # t runs 2.0 -> 0.0: the axis ends at t = 0, where no kernel exists
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "grid": {"t": [2.0, 0.0, 3], "x": [-1, 1, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert "grid times must be > 0, got 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "run_field.csv"))

    def test_harmonic_grid_past_focal_time(self, tmp_path, outdir):
        # t from 0.9 to 1.5 lies past the focal time pi/4 and before the
        # caustic pi/2: the field is written and meets its closed form
        from supershift_lab.oracles import harmonic_plane

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "grid": {"t": [0.9, 1.5, 4], "x": [-1, 1, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_field.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for row in rows:
            psi = complex(float(row["re_psi"]), float(row["im_psi"]))
            exact = harmonic_plane(float(row["t"]), float(row["x"]), 3.0)
            assert abs(psi - exact) <= float(row["quad_err"])
        assert json.loads(Path(outdir, "run_manifest.json").read_text())["failures"] == 0

    def test_verification_failure_exits_two(self, tmp_path, outdir):
        # an unreachable residual threshold forces the failure path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "initial": {"kind": "plane_wave", "k": 3.0},
                    "verify": {"residual_threshold": 1e-30},
                }
            )
        )
        assert run(["verify", "--config", str(cfg), "--output", outdir]) == 2


class TestEvolveOutputs:
    @pytest.fixture()
    def cfg_path(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "initial": {"kind": "plane_wave", "k": 3.0},
                    "grid": {"t": [0.2, 0.6, 3], "x": [-1.0, 1.0, 5]},
                    "quadrature": {"tol": 1e-10},
                }
            )
        )
        return str(cfg)

    def test_csv_format_and_unimodularity(self, cfg_path, outdir):
        assert run(["evolve", "--config", cfg_path, "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_field.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15
        assert set(rows[0]) == {"t", "x", "re_psi", "im_psi", "abs_psi", "quad_err"}
        for row in rows:
            assert abs(float(row["abs_psi"]) - 1.0) <= 1e-8  # |e^{i k x - i k^2 t}| = 1
            assert float(row["quad_err"]) <= 1e-9
        # second row is (t=0.2, x=-0.5); 17 significant digits round-trip
        want = np.exp(3j * -0.5 - 9j * 0.2)
        assert abs(float(rows[1]["re_psi"]) - want.real) < 1e-9
        assert rows[1]["re_psi"] == f"{float(rows[1]['re_psi']):.17g}"

    def test_gnuplot_blocks(self, cfg_path, outdir):
        run(["evolve", "--config", cfg_path, "--output", outdir])
        text = Path(outdir, "run_plot.dat").read_text()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 3  # one per time slice
        assert blocks[0].startswith("# t = 0.2")
        assert len(blocks[0].strip().splitlines()) == 6  # header + 5 x rows

    def test_manifest_fields(self, cfg_path, outdir):
        run(["evolve", "--config", cfg_path, "--output", outdir])
        doc = json.loads(Path(outdir, "run_manifest.json").read_text())
        assert doc["experiment"] == "evolve"
        assert doc["potential"]["kind"] == "free"
        assert doc["tol"] == 1e-10
        assert len(doc["config_digest"]) == 64
        assert "created" in doc

    def test_byte_determinism(self, cfg_path, outdir):
        run(["evolve", "--config", cfg_path, "--output", outdir])
        first_field = Path(outdir, "run_field.csv").read_bytes()
        first_plot = Path(outdir, "run_plot.dat").read_bytes()
        first_manifest = Path(outdir, "run_manifest.json").read_text().splitlines()
        run(["evolve", "--config", cfg_path, "--output", outdir])
        assert Path(outdir, "run_field.csv").read_bytes() == first_field
        assert Path(outdir, "run_plot.dat").read_bytes() == first_plot
        second_manifest = Path(outdir, "run_manifest.json").read_text().splitlines()
        diff = [
            (a, b) for a, b in zip(first_manifest, second_manifest) if a != b
        ]
        assert all("created" in a for a, _ in diff)  # timestamp isolated to one line

    def test_failed_point_rows(self, tmp_path, outdir):
        # past t ~ 355 the l = 2 sech^2 witness overflows: the point fails
        # and both files write its nan value and inf estimate
        cfg = tmp_path / "fail.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "poschl_teller", "l": 2},
                    "initial": {"kind": "plane_wave", "k": 1.0},
                    "grid": {"t": [1.0, 400.0, 2], "x": [0.0, 0.0, 1]},
                    "quadrature": {"tol": 1e-9},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        assert json.loads(Path(outdir, "run_manifest.json").read_text())["failures"] == 1
        rows = Path(outdir, "run_field.csv").read_text().splitlines()
        assert rows[0] == "t,x,re_psi,im_psi,abs_psi,quad_err"
        assert rows[1].startswith("1,0,") and rows[2:] == ["400,0,nan,0,nan,inf"]
        plot = Path(outdir, "run_plot.dat").read_text()
        assert plot.endswith("# t = 400\n0 nan 0 nan\n\n")

    def test_pt_field_independent_of_blas_threads(self, tmp_path):
        # the Faddeeva kernel forms its polynomial blocks as one BLAS
        # product; a sech^2-well field must be byte-identical whatever
        # thread count BLAS runs with
        cfg = tmp_path / "pt.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "poschl_teller", "l": 2},
                    "initial": {"kind": "plane_wave", "k": 2.0},
                    "grid": {"t": [0.1, 1.0, 4], "x": [-2.0, 2.0, 9]},
                    "quadrature": {"tol": 1e-9},
                }
            )
        )
        fields = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "supershift_lab.cli", "evolve",
                 "--config", str(cfg), "--output", str(out)],
                env=_blas_env(threads), capture_output=True, check=True,
            )
            fields.append((out / "run_field.csv").read_bytes())
        assert fields[0] == fields[1]

    def test_erfcx_independent_of_blas_threads(self):
        # products large enough for OpenBLAS to split them across threads:
        # the Faddeeva kernel's (5 x 8)(8 x 2n) product is split from blocks
        # of 16,384 points (above ``_BLOCK``, whose products run on one
        # thread), and a panel product from ~8,000 rows (a stack of 48
        # signals on 186 GL-15/GL-7 panels)
        script = (
            "import hashlib, numpy as np\n"
            "from supershift_lab import contour_quad, special_fn\n"
            "rng = np.random.default_rng(3)\n"
            "z = rng.uniform(-6, 6, 2 * 16384 + 5) + 1j * rng.uniform(-6, 6, 2 * 16384 + 5)\n"
            "h = hashlib.sha256(special_fn.erfcx(z).tobytes())\n"
            "special_fn._BLOCK = 16384\n"
            "h.update(special_fn.erfcx(z).tobytes())\n"
            "f = rng.normal(size=(48, 186 * 22)) + 1j * rng.normal(size=(48, 186 * 22))\n"
            "edges = np.linspace(-1.0, 1.0, 187)\n"
            "sums = contour_quad._panel_sums(lambda y: f, edges[:-1], edges[1:], contour_quad._GL15_GL7)\n"
            "for a in sums:\n"
            "    h.update(a.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = [
            subprocess.run(
                [sys.executable, "-c", script], env=_blas_env(threads),
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert digests[0] == digests[1]

    def test_single_point_grid(self, tmp_path, outdir):
        cfg = tmp_path / "one.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "initial": {"kind": "plane_wave", "k": 2.0},
                    "grid": {"t": [0.3, 0.3, 1], "x": [0.5, 0.5, 1]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0
        rows = Path(outdir, "run_field.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + single data row


class TestSupershiftCommand:
    def test_monotone_distance_column(self, tmp_path, outdir):
        # distances are monotone from n ~ 10 on; the small-n transient
        # (peak near n = 8 on this grid) is genuine, not numerical
        cfg = tmp_path / "ss.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "grid": {"t": [0.1, 0.5, 5], "x": [-1.0, 1.0, 9]},
                    "supershift": {"kappa": 3.0, "n_values": [10, 12, 14]},
                    "quadrature": {"tol": 1e-7},
                }
            )
        )
        assert run(["supershift", "--config", str(cfg), "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_supershift.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [10, 12, 14]
        ds = [float(r["d_n"]) for r in rows]
        ms = [float(r["metric_n"]) for r in rows]
        assert ds[0] > ds[1] > ds[2]
        assert ms[0] > ms[1] > ms[2]
        # frozen 30-digit closed-form oracle values for this grid
        assert abs(ds[0] - 10.394) < 2e-3
        assert abs(ds[2] - 9.0742) < 2e-3

    def test_zero_weight_is_kept(self, tmp_path, outdir):
        # an explicit weight C = 0 (the unweighted sup) is not the default
        cfg = tmp_path / "ss.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "grid": {"t": [0.3, 0.3, 1], "x": [0.0, 0.0, 1]},
                    "supershift": {"kappa": 3.0, "n_values": [10], "weight_C": 0},
                }
            )
        )
        assert run(["supershift", "--config", str(cfg), "--output", outdir]) == 0
        with open(os.path.join(outdir, "run_manifest.json")) as fh:
            assert json.load(fh)["weight_C"] == 0.0


class TestGreensAudit:
    def test_witness_overflow_is_an_error_exit(self, outdir, capsys):
        # the sech^2 witness leaves the double range at l = 60: exit 1 with
        # its reason, no numpy overflow warning, no report
        assert run(["greens-audit", "--potential", "pt:l=60", "--output", outdir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sech^2 witness overflows at t=") and "Warning" not in err
        assert not os.path.exists(outdir)

    def test_well_index_past_largest_is_an_error_exit(self, outdir, capsys):
        # the sech^2 kernel builds up to l = 85: l = 86 is refused as a usage
        # error that names that index, with no traceback and no report
        assert run(["greens-audit", "--potential", "pt:l=86", "--output", outdir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid potential") and "above 85" in err
        assert "Traceback" not in err
        assert not os.path.exists(outdir)

    def test_audit_report_written(self, outdir):
        code = run(
            ["greens-audit", "--potential", "poschl-teller:l=1", "--output", outdir]
        )
        assert code == 0
        doc = json.loads(Path(outdir, "run_audit.json").read_text())
        assert doc["pass"] is True
        assert doc["potential"].startswith("poschl_teller")


class TestInlineSpecs:
    def test_harmonic_omega_inline(self, outdir):
        code = run(
            [
                "verify",
                "--potential",
                "harmonic:omega=1",
                "--initial",
                "plane:k=1",
                "--output",
                outdir,
            ]
        )
        assert code == 0

    def test_prefix_names_the_outputs(self, outdir):
        argv = ["evolve", "--potential", "free", "--initial", "plane:k=2", "--prefix", "mine"]
        assert run([*argv, "--output", outdir]) == 0
        assert sorted(os.listdir(outdir)) == ["mine_field.csv", "mine_manifest.json", "mine_plot.dat"]

    def test_sinusoid_lambda_values(self):
        lam, label = cli._lambda_from_spec({"kind": "sinusoid", "a": 1.0, "b": 0.5, "omega": 2.0})
        assert label == "sin:1,0.5,2"
        for t in (0.0, 0.3, 1.1, 2.5):
            assert lam(t) == 1.0 + 0.5 * np.sin(2.0 * t)

    @staticmethod
    def _field_bytes(tmp_path, name, potential=None, argv=()):
        doc = {"initial": {"kind": "plane_wave", "k": 2.0},
               "grid": {"t": [0.2, 0.4, 2], "x": [-0.5, 0.5, 3]}}
        if potential is not None:
            doc["potential"] = potential
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / name
        assert run(["evolve", "--config", str(cfg), *argv, "--output", str(out)]) == 0
        return (out / "run_field.csv").read_bytes()

    def test_flat_sinusoid_is_the_constant(self, tmp_path):
        sinusoid = {"kind": "sinusoid", "a": 0.7, "b": 0.0, "omega": 3.0}
        constant = {"kind": "constant", "c": 0.7}
        assert self._field_bytes(
            tmp_path, "sin", {"kind": "electric", "lambda": sinusoid}
        ) == self._field_bytes(tmp_path, "const", {"kind": "electric", "lambda": constant})

    def test_harmonic_lambda_specs_are_omega_one(self, tmp_path):
        omega = self._field_bytes(tmp_path, "omega", {"kind": "harmonic", "omega": 1.0})
        spec = {"kind": "harmonic", "lambda": {"kind": "constant", "c": 1.0}}
        assert self._field_bytes(tmp_path, "spec", spec) == omega
        assert self._field_bytes(
            tmp_path, "inline", argv=("--potential", "harmonic:lambda=1")
        ) == omega

    def test_lambda_table_config(self, tmp_path, outdir):
        cfg = tmp_path / "tbl.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {
                        "kind": "electric",
                        "lambda": {
                            "kind": "table",
                            "t": [0.0, 0.5, 1.0, 1.5],
                            "values": [1.0, 1.2, 0.9, 1.1],
                        },
                    },
                    "initial": {"kind": "plane_wave", "k": 2.0},
                    "grid": {"t": [0.2, 0.4, 2], "x": [-0.5, 0.5, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0

    def test_superosc_initial_inline(self, tmp_path, outdir):
        cfg = tmp_path / "so.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "grid": {"t": [0.2, 0.3, 2], "x": [-0.5, 0.5, 3]},
                    "quadrature": {"tol": 1e-7},
                }
            )
        )
        assert (
            run(
                [
                    "evolve",
                    "--config",
                    str(cfg),
                    "--initial",
                    "superosc:n=6,k=3",
                    "--output",
                    outdir,
                ]
            )
            == 0
        )

    def test_linear_combination_config(self, tmp_path, outdir):
        cfg = tmp_path / "lc.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "free"},
                    "initial": {
                        "kind": "linear_combination",
                        "terms": [
                            {"coeff": [2.0, 0.0], "signal": {"kind": "plane_wave", "k": 1.0}},
                            {"coeff": [0.0, -0.5], "signal": {"kind": "plane_wave", "k": -1.0}},
                        ],
                    },
                    "grid": {"t": [0.2, 0.3, 2], "x": [-0.5, 0.5, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 0

    def test_readme_configs_load(self, tmp_path):
        # every JSON block of README's "Config format" section is a config
        # the runner accepts, so the documented keys cannot drift from it
        text = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = text.split("### Config format", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```json\n(.*?)```", section, re.S)
        assert len(blocks) == 4
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            command = json.loads(block)["experiment"]
            cfg = cli._load_config(cli._build_parser().parse_args([command, "--config", str(path)]))
            cli._potential_from_config(cfg["potential"])
            cli._initial(cfg)
            for axis in ("t", "x"):
                cli._grid_axis(cfg["grid"][axis])

    def test_readme_inline_examples_load(self):
        # every inline example of README's CLI section parses and builds
        # its specs, so the documented heads cannot drift from the table
        text = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## CLI", 1)[1].split("\n## ", 1)[0]
        [block] = re.findall(r"```bash\n(.*?)```", section, re.S)
        lines = [line for line in block.splitlines() if "--config" not in line]
        assert len(lines) >= 5
        for line in lines:
            prog, *argv = shlex.split(line)
            assert prog == "supershift-lab"
            cfg = cli._load_config(cli._build_parser().parse_args(argv))
            cli._potential_from_config(cfg["potential"])
            cli._initial(cfg)


def _outputs(out: Path) -> dict:
    """The bytes of an output directory's files; a manifest's lines but
    its timestamp line."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    if "run_manifest.json" in files:
        lines = files["run_manifest.json"].splitlines()
        kept = [line for line in lines if not line.lstrip().startswith(b'"created"')]
        assert len(kept) == len(lines) - 1
        files["run_manifest.json"] = kept
    return files


def _blas_env(threads: str) -> dict:
    return dict(
        os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
    )


class TestLambdaTable:
    """The ``table`` lambda: the not-a-knot cubic spline through the
    knots, defined from the first knot to the last."""

    # scipy 1.17.1's CubicSpline(t, values)(s) at s on the tables of the
    # CLI and coefficient tests
    SCIPY = [
        ([0.0, 0.2, 0.4], [1.0, 1.5, 0.5],
         [(0.02, 1.1175), (0.148, 1.5143), (0.244, 1.4087), (0.372, 0.7303000000000002)]),
        ([0.0, 0.2, 0.4], [1.0, 1.2, 0.9],
         [(0.02, 1.0425), (0.148, 1.1961), (0.244, 1.1769), (0.372, 0.9721000000000002)]),
        ([0.0, 0.5, 1.0, 1.5], [1.0, 1.2, 0.9, 1.1],
         [(0.075, 1.1011875), (0.555, 1.1733634999999998), (0.915, 0.9432395),
          (1.395, 0.9670315000000002)]),
        ([0.0, 0.3, 0.7, 1.2, 1.6, 2.0], [1.0, 1.3, 0.8, 1.1, 0.9, 1.2],
         [(0.1, 1.2533531684355432), (0.74, 0.7892585056174787), (1.22, 1.1034085113126693),
          (1.86, 0.9356602436276035)]),
    ]

    @staticmethod
    def _lam(ts, f):
        vs = [f(t) for t in ts]
        lam, label = cli._lambda_from_spec({"kind": "table", "t": ts, "values": vs})
        assert label == f"table:{len(ts)}pts"
        assert [lam(t) for t in ts] == vs
        return lam

    def test_reproduces_a_cubic_on_uneven_knots(self):
        def cubic(t):
            return 1.0 - 2.0 * t + 0.7 * t * t - 1.3 * t**3

        lam = self._lam([0.0, 0.13, 0.5, 0.61, 1.3], cubic)
        for t in np.linspace(0.0, 1.3, 131).tolist():
            assert lam(t) == pytest.approx(cubic(t), rel=0.0, abs=4e-15)

    def test_three_knots_give_the_parabola_and_two_the_line(self):
        def parabola(t):
            return 0.5 - t + 2.0 * t * t

        def line(t):
            return 1.0 - 2.0 * t

        three, two = self._lam([-0.2, 0.3, 1.1], parabola), self._lam([0.0, 1.1], line)
        for t in np.linspace(0.0, 1.1, 111).tolist():
            assert three(t) == pytest.approx(parabola(t), rel=0.0, abs=2e-15)
            assert two(t) == pytest.approx(line(t), rel=0.0, abs=1e-15)

    def test_refuses_times_outside_its_knots(self):
        lam = self._lam([0.0, 0.2, 0.4], lambda t: 1.0 + t)
        for t in (np.nextafter(0.0, -1.0), np.nextafter(0.4, 1.0), 1.0, -3.0):
            with pytest.raises(ValueError, match="outside the lambda table"):
                lam(float(t))

    def test_matches_scipy_cubic_spline(self):
        for ts, vs, frozen in self.SCIPY:
            lam, _ = cli._lambda_from_spec({"kind": "table", "t": ts, "values": vs})
            for t, want in frozen:
                assert abs(lam(t) - want) <= 2e-15 * abs(want), (ts, t)
