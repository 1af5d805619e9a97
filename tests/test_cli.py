"""Experiment runner: exit codes, file formats, determinism."""

import csv
import json
import os

import numpy as np
import pytest

from supershift_lab.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


class TestExitCodes:
    def test_verify_free_plane_wave_passes(self, outdir):
        code = run(
            ["verify", "--potential", "free", "--initial", "plane:k=3", "--output", outdir]
        )
        assert code == 0
        doc = json.loads(open(os.path.join(outdir, "run_verify.json")).read())
        assert doc["pass"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "free_plane_wave_closed_form" in names

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
        doc = json.loads(open(os.path.join(outdir, "run_verify.json")).read())
        [check] = [c for c in doc["checks"] if c["name"] == "free_plane_wave_closed_form"]
        assert check["pass"] and check["value"] <= 1e-8

    @pytest.mark.parametrize(
        "quadrature, field",
        [
            ({"tol": "abc"}, "quadrature.tol"),
            ({"tol": -1e-9}, "quadrature.tol"),
            ({"tol": 0}, "quadrature.tol"),
            ({"max_panels": "many"}, "quadrature.max_panels"),
            ({"max_panels": 0}, "quadrature.max_panels"),
            ({"max_panels": 2.5}, "quadrature.max_panels"),
            ("abc", "quadrature"),
            (None, "quadrature"),
        ],
    )
    def test_malformed_quadrature_is_usage_error(self, tmp_path, outdir, capsys, quadrature, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "free"}, "quadrature": quadrature}))
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")

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
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1

    def test_empty_order_is_usage_error(self, outdir, capsys):
        assert run(["supershift", "--potential", "free", "--n", "10,,20", "--output", outdir]) == 1
        assert capsys.readouterr().err.startswith("error: invalid option")

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
        # t runs 2.0 -> 0.1; the harmonic horizon pi/4 lies inside the axis
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "harmonic", "omega": 1.0},
                    "grid": {"t": [2.0, 0.1, 3], "x": [-1, 1, 3]},
                }
            )
        )
        assert run(["evolve", "--config", str(cfg), "--output", outdir]) == 1
        assert "grid times must lie in (0, 0.785398)" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, "run_field.csv"))

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
        text = open(os.path.join(outdir, "run_plot.dat")).read()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 3  # one per time slice
        assert blocks[0].startswith("# t = 0.2")
        assert len(blocks[0].strip().splitlines()) == 6  # header + 5 x rows

    def test_manifest_fields(self, cfg_path, outdir):
        run(["evolve", "--config", cfg_path, "--output", outdir])
        doc = json.loads(open(os.path.join(outdir, "run_manifest.json")).read())
        assert doc["experiment"] == "evolve"
        assert doc["potential"]["kind"] == "free"
        assert doc["tol"] == 1e-10
        assert len(doc["config_digest"]) == 64
        assert "created" in doc

    def test_byte_determinism(self, cfg_path, outdir):
        run(["evolve", "--config", cfg_path, "--output", outdir])
        first_field = open(os.path.join(outdir, "run_field.csv"), "rb").read()
        first_plot = open(os.path.join(outdir, "run_plot.dat"), "rb").read()
        first_manifest = open(os.path.join(outdir, "run_manifest.json")).readlines()
        run(["evolve", "--config", cfg_path, "--output", outdir])
        assert open(os.path.join(outdir, "run_field.csv"), "rb").read() == first_field
        assert open(os.path.join(outdir, "run_plot.dat"), "rb").read() == first_plot
        second_manifest = open(os.path.join(outdir, "run_manifest.json")).readlines()
        diff = [
            (a, b) for a, b in zip(first_manifest, second_manifest) if a != b
        ]
        assert all("created" in a for a, _ in diff)  # timestamp isolated to one line

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
        rows = open(os.path.join(outdir, "run_field.csv")).read().strip().splitlines()
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


class TestGreensAudit:
    def test_audit_report_written(self, outdir):
        code = run(
            ["greens-audit", "--potential", "poschl-teller:l=1", "--output", outdir]
        )
        assert code == 0
        doc = json.loads(open(os.path.join(outdir, "run_audit.json")).read())
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
