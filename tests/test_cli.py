"""End-to-end tests of the command line front end (driving main() directly)."""

import json
import math
import os

import numpy as np
import pytest

from relbell import cli, dirac
from relbell.bell import STANDARD_SETTINGS
from relbell.cli import main
from relbell.kinematics import BeamVelocity, alpha_vector

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorrelate:
    def test_routes_agree(self, capsys):
        code, out, err = run(
            capsys, "correlate", "--a", "1,0,0", "--b", "0,1,0", "--beta", "0.6,0,0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("closed_form=")
        assert lines[1].startswith("oracle=")
        assert lines[2].startswith("difference=")
        closed = float(lines[0].split("=")[1])
        oracle = float(lines[1].split("=")[1])
        assert abs(closed - oracle) < 1e-12

    def test_rest_is_minus_cosine(self, capsys):
        code, out, _ = run(
            capsys, "correlate", "--a", "0,0,1", "--b", "0,0,1", "--beta", "0,0,0"
        )
        assert code == 0
        assert out.splitlines()[0] == "closed_form=-1.0"

    def test_non_unit_axis_warns_and_normalizes(self, capsys):
        code, out, err = run(
            capsys, "correlate", "--a", "2,0,0", "--b", "0,1,0", "--beta", "0,0,0"
        )
        assert code == 0
        assert "warning: --a normalized" in err

    def test_degenerate_axis_exits_two(self, capsys):
        code, _, err = run(
            capsys, "correlate", "--a", "0,1,0", "--b", "0,0,1", "--beta", "1,0,0"
        )
        assert code == 2
        assert "DegenerateObservable" in err

    def test_superluminal_beta_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "correlate", "--a", "1,0,0", "--b", "0,1,0", "--beta", "2,0,0")
        assert exc.value.code == 1

    def test_velocity_with_underflowing_squares(self, capsys):
        code, out, err = run(capsys, "correlate", "--a", "1,0,0", "--b", "0,1,0",
                             "--beta=1.00489977e-157,-1.05584915e-157,5.11858302e-157")
        assert (code, err) == (0, "")
        assert out.startswith("closed_form=")

    def test_negative_leading_component_via_equals(self, capsys):
        code, out, _ = run(
            capsys, "correlate", "--a=-1,0,0", "--b", "1,0,0", "--beta", "0,0,0"
        )
        assert code == 0
        assert out.splitlines()[0] == "closed_form=1.0"


class TestChsh:
    def test_rest_value_bit_exact(self, capsys):
        code, out, _ = run(capsys, "chsh", "--beta", "0,0,0")
        assert code == 0
        assert out == "-2.8284271247461903\n"

    def test_in_plane_suppression(self, capsys):
        code, out, _ = run(capsys, "chsh", "--beta", "0.99,0,0")
        assert code == 0
        assert abs(float(out) + 2.2597608606534427) < 1e-12

    def test_custom_settings(self, capsys):
        s = "0.7071067811865476"
        settings = f"1,0,0,0,1,0,{s},{s},0,{s},-{s},0"
        code, out, _ = run(capsys, "chsh", "--beta", "0,0,0", "--settings", settings)
        assert code == 0
        assert abs(float(out) + TWO_SQRT_TWO) < 1e-13

    def test_bad_settings_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "chsh", "--beta", "0,0,0", "--settings", "1,0,0")
        assert exc.value.code == 1


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys)
        assert exc.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "chsh", "--beta", "0,0,0", "--frame", "lab")
        assert exc.value.code == 1

    def test_zero_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "fig1", "--grid", "0")
        assert exc.value.code == 1

    def test_negative_mass(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "dirac-check", "--p", "1,0,0", "--m", "-1")
        assert exc.value.code == 1

    def test_threshold_out_of_range(self, capsys, tmp_path):
        dist = tmp_path / "d.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "crypto-audit", "--dist", str(dist), "--threshold", "3.5")
        assert exc.value.code == 1


class TestFigureTables:
    def test_fig1_golden_small_grid(self, capsys):
        code, out, _ = run(capsys, "fig1", "--grid", "3")
        assert code == 0
        assert out == (
            "# correlation=orthogonal axes at 45 degrees to the beam\n"
            "# proper_time=sqrt(1-beta^2)-1\n"
            "beta,correlation,proper_time\n"
            "0.0,-0.0,0.0\n"
            "0.5,-0.14285714285714285,-0.1339745962155614\n"
            "1.0,-1.0,-1.0\n"
        )

    def test_fig1_luminal_row_reaches_minus_one(self, capsys):
        code, out, _ = run(capsys, "fig1", "--grid", "5")
        assert code == 0
        assert out.splitlines()[-1] == "1.0,-1.0,-1.0"

    def test_fig2_columns_and_rest_axis(self, capsys):
        code, out, _ = run(capsys, "fig2", "--grid", "5", "--beta-mag", "0.95,0.99")
        assert code == 0
        lines = out.splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "theta,phi,chsh_beta_0.95,chsh_beta_0.99"
        first = [l for l in lines if not l.startswith("#")][1].split(",")
        # theta = 0: motion normal to the settings plane, bound preserved.
        assert abs(float(first[2]) + TWO_SQRT_TWO) < 1e-12
        assert abs(float(first[3]) + TWO_SQRT_TWO) < 1e-12

    @pytest.mark.parametrize("grid", [21, 33])
    def test_fig2_at_light_speed_gaps_follow_alpha(self, capsys, grid):
        code, out, err = run(capsys, "fig2", "--grid", str(grid), "--beta-mag", "1.0")
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == grid * grid
        for row in rows:
            theta, phi = float(row[0]), float(row[1])
            n = np.array([math.cos(phi) * math.sin(theta), math.sin(phi) * math.sin(theta),
                          math.cos(theta)])
            bv = BeamVelocity(beta=n, magnitude=1.0, direction=n)
            gap = any(np.linalg.norm(alpha_vector(axis, bv)) <= 1e-12
                      for _, axis in STANDARD_SETTINGS.labeled())
            assert (row[2] == "degenerate") == gap, row

    def test_fig3_runs_and_is_deterministic(self, capsys):
        code, first, _ = run(capsys, "fig3", "--grid", "4")
        assert code == 0
        code, second, _ = run(capsys, "fig3", "--grid", "4")
        assert code == 0
        assert first == second

    def test_fig2_deterministic(self, capsys):
        code, first, _ = run(capsys, "fig2", "--grid", "4", "--beta-mag", "0.9")
        code2, second, _ = run(capsys, "fig2", "--grid", "4", "--beta-mag", "0.9")
        assert code == code2 == 0
        assert first == second

    def test_out_file_matches_stdout_and_leaves_no_temps(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fig1", "--grid", "3")
        target = tmp_path / "fig1.csv"
        code2, out2, _ = run(capsys, "fig1", "--grid", "3", "--out", str(target))
        assert code == code2 == 0
        assert out2 == ""
        assert target.read_text() == out
        assert os.listdir(tmp_path) == ["fig1.csv"]


class TestDiracCheck:
    def test_random_trials_all_pass(self, capsys):
        code, out, _ = run(capsys, "dirac-check", "--trials", "2", "--seed", "3")
        assert code == 0
        records = json.loads(out)
        assert records
        names = [r["check"] for r in records]
        assert names == sorted(names)
        for record in records:
            assert record["pass"] is True
            assert record["max_residual"] <= record["tolerance"]
        assert "kinetic.moment_vs_mass_radius" in names
        assert "kinetic.spin_half_angular_velocity" in names

    def test_fixed_rest_context(self, capsys):
        code, out, _ = run(capsys, "dirac-check", "--p", "0,0,0", "--m", "1", "--trials", "1")
        assert code == 0
        names = [r["check"] for r in json.loads(out)]
        assert "spin_spectrum.eigenvalues" in names
        assert "eigenstate.energy" not in names  # needs |p| > 0

    def test_fixed_massless_context(self, capsys):
        code, out, _ = run(capsys, "dirac-check", "--p", "1,1,1", "--m", "0", "--trials", "1")
        assert code == 0
        names = [r["check"] for r in json.loads(out)]
        assert "precession.omega_commutes_with_hamiltonian" in names
        assert "massless_velocity.hamiltonian" in names

    def test_deterministic(self, capsys):
        code, first, _ = run(capsys, "dirac-check", "--trials", "2")
        code2, second, _ = run(capsys, "dirac-check", "--trials", "2")
        assert code == code2 == 0
        assert first == second

    @pytest.mark.parametrize("argv", [
        ("--trials", "25", "--seed", "11"),
        ("--p", "0.5,-1,2", "--trials", "6", "--seed", "4"),
        ("--m", "0", "--trials", "6", "--seed", "4"),
    ])
    def test_draws_follow_the_scalar_loop_order(self, capsys, monkeypatch, argv):
        seen = []

        def record(p, m, a):
            seen.append((p.copy(), m.copy(), a.copy()))
            return ()

        monkeypatch.setattr(cli, "dirac_battery", record)
        run(capsys, "dirac-check", *argv)
        args = cli.build_parser().parse_args(["dirac-check", *argv])
        # The order of draws of the per-trial loop that came before the battery.
        rng = np.random.default_rng(args.seed)
        p, m, a = [], [], []
        for _ in range(args.trials):
            p.append(args.p if args.p is not None
                     else rng.uniform(0.3, 4.0) * cli._random_direction(rng))
            m.append(args.m if args.m is not None else float(rng.uniform(0.2, 3.0)))
            a.append(cli._random_direction(rng))
        (got_p, got_m, got_a), = seen
        assert np.array_equal(got_p, np.array(p))
        assert np.array_equal(got_m, np.array(m))
        assert np.array_equal(got_a, np.array(a))

    @pytest.mark.parametrize("argv", [
        ("--trials", "40", "--seed", "2"),
        ("--m", "0", "--trials", "15", "--seed", "6"),
    ])
    def test_output_does_not_depend_on_the_block_size(self, capsys, monkeypatch, argv):
        outputs = []
        for block in (dirac._BLOCK, 1, 7):
            monkeypatch.setattr(dirac, "_BLOCK", block)
            code, out, _ = run(capsys, "dirac-check", *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_tiny_momentum_passes(self, capsys):
        # |p| ~ 1e-160: the squares of p underflow, the direction must not.
        code, out, err = run(capsys, "dirac-check", "--p=1e-160,0,1e-160", "--m", "1",
                             "--trials", "1")
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))

    def test_null_context_exits_two(self, capsys):
        code, out, err = run(capsys, "dirac-check", "--p", "0,0,0", "--m", "0", "--trials", "1")
        assert (code, out) == (2, "")
        assert err.startswith("NullContext: ")


class TestCryptoAudit:
    def test_rest_distribution_is_quiet(self, capsys, tmp_path):
        dist = tmp_path / "rest.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n")
        code, out, _ = run(capsys, "crypto-audit", "--dist", str(dist))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "NoAlarm"
        assert abs(report["expected_chsh"] + TWO_SQRT_TWO) < 1e-12

    def test_fast_beam_exits_three(self, capsys, tmp_path):
        dist = tmp_path / "fast.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0.99,0,0,1\n")
        code, out, _ = run(capsys, "crypto-audit", "--dist", str(dist))
        assert code == 3
        assert json.loads(out)["verdict"] == "FalseAlarmRisk"

    def test_malformed_distribution_exits_two(self, capsys, tmp_path):
        dist = tmp_path / "bad.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,x,0,1\n")
        code, _, err = run(capsys, "crypto-audit", "--dist", str(dist))
        assert code == 2
        assert "ParseError" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "crypto-audit", "--dist", str(tmp_path / "absent.csv"))
        assert code == 1
        assert "cannot read" in err

    def test_report_written_atomically(self, capsys, tmp_path):
        dist = tmp_path / "rest.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n")
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "crypto-audit", "--dist", str(dist), "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["verdict"] == "NoAlarm"


class TestSelftest:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--samples", "30")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("oracle_equivalence")
        assert lines[0].endswith("PASS")
        assert lines[1].startswith("chsh_bound")
        assert lines[1].endswith("PASS")

    def test_deterministic(self, capsys):
        code, first, _ = run(capsys, "selftest", "--samples", "20")
        code2, second, _ = run(capsys, "selftest", "--samples", "20")
        assert code == code2 == 0
        assert first == second
