"""End-to-end tests of the command line front end (driving main() directly)."""

import argparse
import codecs
import json
import locale
import math
import os

import numpy as np
import pytest

import relbell.audit as audit_module
from conftest import plain_csv
from golden.update import CI_BETA
from relbell import cli, dirac
from relbell.bell import STANDARD_SETTINGS, chsh_value
from relbell.cli import main
from relbell.kinematics import BeamVelocity, alpha_vector, random_direction

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main() call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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

    def test_degenerate_axis_text_has_plain_floats(self, capsys):
        code, out, err = run(
            capsys, "correlate", "--a", "1,0,0", "--b", "0,0,1", "--beta", "0,1,0"
        )
        assert (code, out) == (2, "")
        assert err == "DegenerateObservable: axis a = (1.0, 0.0, 0.0) degenerate at |beta| = 1.0\n"

    # Squares of 3e200 overflow and those of 3e-200 underflow: both rows are
    # divided by their largest component before their lengths are taken.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, length", [("3e200,4e200,0", "4.9999999999999995e+200"),
                                           ("3e-200,4e-200,0", "5e-200")])
    def test_axis_of_extreme_magnitude(self, capsys, a, length):
        assert cli._unit_arg([float(x) for x in a.split(",")], "--a").tolist() == [0.6, 0.8, 0.0]
        capsys.readouterr()
        code, out, err = run(capsys, "correlate", f"--a={a}", "--b=0.6,0.8,0", "--beta=0,0,0")
        assert code == 0
        assert err == f"warning: --a normalized from |v|={length}\n"
        assert out.splitlines()[0] == "closed_form=-1.0"

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
        assert out == "-2.2597608606534414\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_beta_is_usage_error_without_warning(self, capsys):
        code, out, err = outcome(capsys, ["chsh", "--beta=1e200,0,0"])
        assert (code, out) == (1, "")
        assert err.endswith("error: argument --beta: superluminal velocity |beta| = 1e+200 > 1\n")
        assert "Warning" not in err

    def test_ci_velocity_agrees_with_a_one_sample_audit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "chsh", f"--beta={CI_BETA}")
        assert (code, out) == (0, "-2.4814623204103285\n")
        dist = tmp_path / "one.csv"
        dist.write_text(f"beta_x,beta_y,beta_z,weight\n{CI_BETA},1\n")
        # |chsh| = 2.48 is below the default threshold 2.7: exit code 3.
        code, out, _ = run(capsys, "crypto-audit", "--dist", str(dist))
        assert code == 3
        assert '  "expected_chsh": -2.4814623204103285,' in out.splitlines()

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
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["correlate", "--a=nan,0,0", "--b=0,1,0", "--beta=0.1,0,0"],
         "argument --a: --a components must be finite"),
        (["correlate", "--a=1,0,0", "--b=0,-inf,0", "--beta=0.1,0,0"],
         "argument --b: --b components must be finite"),
        (["chsh", "--beta=0,0,0", "--settings=1,0,0,0,1,0,0,1,0,1,0,inf"],
         "argument --settings: settings axis b_prime components must be finite"),
        (["fig3", "--grid=3", "--settings=inf,0,0,0,1,0,0,1,0,1,0,0"],
         "argument --settings: settings axis a components must be finite"),
    ], ids=["correlate_a_nan", "correlate_b_inf", "chsh_settings_inf", "fig3_settings_inf"])
    def test_non_finite_axis_is_usage_error_without_warning(self, capsys, argv, message):
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: {message}\n")
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_axes_of_extreme_length_are_normalized_without_warning(self, capsys):
        # Squares of 1e300 overflow and those of 1e-200 underflow; the
        # directions are still (1, 1, 0)/sqrt(2) and (1, 0, 0).
        code, out, err = outcome(capsys, ["correlate", "--a=1e300,1e300,0", "--b=1e-200,0,0",
                                          "--beta=0,0,0"])
        assert code == 0
        assert err == ("warning: --a normalized from |v|=1.4142135623730952e+300\n"
                       "warning: --b normalized from |v|=1e-200\n")
        assert "Warning" not in err
        assert abs(float(out.splitlines()[0].split("=")[1]) + math.sqrt(0.5)) < 1e-15

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

    def test_chsh_bound_stream_is_pinned(self, capsys):
        # The sweep draws its settings and velocities after the oracle sweep,
        # from the same seeded stream: this line pins the draw order of both.
        code, out, _ = run(capsys, "selftest", "--samples", "20", "--seed", "7")
        assert code == 0
        assert out.splitlines()[1] == ("chsh_bound samples=200 max_abs=2.4173881336097454 "
                                       "limit=2.8284271257461904 PASS")

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
        records = json.loads(out)
        names = [r["check"] for r in records]
        assert "spin_spectrum.eigenvalues" in names
        assert "eigenstate.energy" not in names  # needs |p| > 0
        assert all(r["pass"] for r in records)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("--p", "1e6,0,0", "--m", "1", "--trials", "5"),
                                      ("--trials", "3000", "--seed", "1")])
    def test_large_ratio_and_several_blocks_pass_without_warning(self, capsys, argv):
        # |p| / m = 1e6; 3000 random trials span three blocks of 1024.
        code, out, err = run(capsys, "dirac-check", *argv)
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))

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
                     else rng.uniform(0.3, 4.0) * random_direction(rng))
            m.append(args.m if args.m is not None else float(rng.uniform(0.2, 3.0)))
            a.append(random_direction(rng))
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

    def test_kinetic_record_bytes(self, capsys):
        # The two rotator records, their tolerances from dirac._TOL.
        code, out, _ = run(capsys, "dirac-check", "--trials", "2", "--seed", "3")
        assert code == 0
        for name, tolerance in (("moment_vs_mass_radius", "1e-14"),
                                ("spin_half_angular_velocity", "9.9999999999999998e-13")):
            assert (f'    "check": "kinetic.{name}",\n    "max_residual": 0,\n'
                    f'    "tolerance": {tolerance},\n    "pass": true\n') in out

    def test_null_context_exits_two(self, capsys):
        code, out, err = run(capsys, "dirac-check", "--p", "0,0,0", "--m", "0", "--trials", "1")
        assert (code, out) == (2, "")
        assert err.startswith("NullContext: ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("--p", "1e160,0,0", "--m", "1"),
                                      ("--p", "1,0,0", "--m", "1e160"),
                                      ("--p=1e308,-1e308,1e308", "--m", "1")])
    def test_energy_whose_square_overflows_passes_without_warning(self, capsys, argv):
        # The operators are in units of p0: no square of the energy is formed.
        code, out, err = run(capsys, "dirac-check", *argv, "--trials", "1")
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("--p", "0,0,0", "--m", "1e-160"),
                                      ("--p=0,0,1e-155", "--m", "0"),
                                      ("--p=0,0,1e-300", "--m", "0"),
                                      ("--p=1e-154,0,0", "--m", "0")])
    def test_energy_whose_square_underflows_passes_without_warning(self, capsys, argv):
        code, out, err = run(capsys, "dirac-check", *argv, "--trials", "1")
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))

    @pytest.mark.filterwarnings("error")
    def test_momentum_near_the_largest_energy_passes_without_warning(self, capsys):
        # Where products like omega H once overflowed: in units of p0 every
        # record passes, with nothing on stderr.
        code, out, err = run(capsys, "dirac-check", "--m=1.0", "--trials", "1",
                             "--p=2.1492886912562937e+153,-9.718045410419598e+153,"
                             "-7.55067570652086e+153")
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("--p=1.5e308,1.5e308,0", "--m", "1"),
                                      ("--p=1.5e308,0,0", "--m", "1.5e308")])
    def test_infinite_energy_is_a_usage_error_without_warning(self, capsys, argv):
        code, out, err = run(capsys, "dirac-check", *argv, "--trials", "5")
        assert (code, out) == (1, "")
        assert err == "error: energy hypot(|p|, m) exceeds the largest float (trial 0)\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("--p=1.4916681462400413e-154,0,0", "--m", "0"),
                                      ("--p", "0,0,0", "--m", "1.4916681462400413e-154")])
    def test_smallest_energy_whose_square_is_normal_passes(self, capsys, argv):
        code, out, err = run(capsys, "dirac-check", *argv, "--trials", "1")
        assert (code, err) == (0, "")
        assert all(r["pass"] for r in json.loads(out))


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

    def test_field_beyond_the_csv_limit_exits_two(self, capsys, tmp_path):
        dist = tmp_path / "long.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n0,0,0," + "1" * 200_000 + "\n")
        code, out, err = run(capsys, "crypto-audit", "--dist", str(dist))
        assert (code, out) == (2, "")
        assert err == "ParseError: line 3: field larger than field limit (131072)\n"

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "crypto-audit", "--dist", str(tmp_path / "absent.csv"))
        assert code == 1
        assert "cannot read" in err

    def test_weights_summing_past_float_max_are_normalized(self, capsys, tmp_path):
        dist = tmp_path / "heavy.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0.1,0,0,1e308\n0.2,0,0,1e308\n")
        code, out, err = run(capsys, "crypto-audit", "--dist", str(dist))
        assert (code, err) == (0, "")
        assert [s["weight"] for s in json.loads(out)["samples"]] == [0.5, 0.5]

    def test_velocity_with_underflowing_squares(self, capsys, tmp_path):
        # |beta|^2 = 1e-320 loses bits; the sample still audits, at the
        # value chsh computes for the same velocity.
        dist = tmp_path / "tiny.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n1e-160,0,0,1\n0.5,0,0,1\n")
        code, out, err = run(capsys, "crypto-audit", "--dist", str(dist))
        assert (code, err) == (0, "")
        tiny = json.loads(out)["samples"][0]
        assert tiny["chsh"] == chsh_value(STANDARD_SETTINGS, [1e-160, 0.0, 0.0])

    def test_crlf_file_gives_the_bytes_of_its_lf_twin(self, capsys, tmp_path):
        # Universal newlines, as Path.read_text reads, over many blocks.
        text = plain_csv(np.random.default_rng(12_000), 12_000)
        results = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            dist = tmp_path / f"{name}.csv"
            dist.write_text(text, newline=newline)
            target = tmp_path / f"{name}.json"
            results.append((run(capsys, "crypto-audit", "--dist", str(dist)),
                            run(capsys, "crypto-audit", "--dist", str(dist), "--out", str(target)),
                            target.read_bytes()))
        assert results[0] == results[1]
        assert results[0][0][0] == 0 and len(json.loads(results[0][0][1])["samples"]) == 12_000

    def test_bad_byte_after_the_first_block_reports_its_file_position(self, capsys, tmp_path):
        if codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
            pytest.skip("the file is read in the locale encoding, which is not UTF-8 here")
        data = plain_csv(np.random.default_rng(3), 3000).encode()
        at = data.index(b"\n", 3 * audit_module._BLOCK_CHARS) + 5
        dist = tmp_path / "bad.csv"
        dist.write_bytes(data[:at] + b"\xff" + data[at:])
        code, out, err = run(capsys, "crypto-audit", "--dist", str(dist))
        assert (code, out) == (1, "")
        assert err == (f"error: 'utf-8' codec can't decode byte 0xff in position {at}: "
                       "invalid start byte\n")

    def test_report_written_atomically(self, capsys, tmp_path):
        dist = tmp_path / "rest.csv"
        dist.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n")
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "crypto-audit", "--dist", str(dist), "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["verdict"] == "NoAlarm"


class TestOutFile:
    """--out PATH writes stdout's bytes to a mkstemp file (mode 0600) beside
    PATH and renames it over PATH."""

    @pytest.mark.parametrize("argv", [["chsh", f"--beta={CI_BETA}"], ["fig3", "--grid", "5"],
                                      ["crypto-audit", "--dist", "{dist}"]])
    def test_holds_the_stdout_bytes_alone(self, capsys, monkeypatch, tmp_path, argv):
        # The 10-sample audit report is written in five pieces.
        monkeypatch.setattr(audit_module, "_JSON_BLOCK_SAMPLES", 4)
        dist = tmp_path / "dist.csv"
        dist.write_text(plain_csv(np.random.default_rng(10), 10))
        argv = [arg.replace("{dist}", str(dist)) for arg in argv]
        code, out, err = run(capsys, *argv)
        target = tmp_path / "out" / "result"
        target.parent.mkdir()
        assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()
        assert os.listdir(target.parent) == ["result"]
        assert os.stat(target).st_mode & 0o777 == 0o600

    def test_partial_writes_are_completed(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run(capsys, "fig3", "--grid", "5")
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
        target = tmp_path / "fig3.csv"
        assert run(capsys, "fig3", "--grid", "5", "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode()

    def test_a_failing_piece_leaves_the_target_alone(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_bytes(b"old report\n")

        def pieces():
            yield "first piece\n"
            raise RuntimeError("no second piece")

        with pytest.raises(RuntimeError, match="no second piece"):
            cli._emit(pieces(), str(target))
        assert target.read_bytes() == b"old report\n"
        assert os.listdir(tmp_path) == ["report.json"]


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


class TestParserReuse:
    """main() builds its parser once per process; every call must still
    behave exactly as on a freshly built parser."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_interleaved_calls_match_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        rest = tmp_path / "rest.csv"
        rest.write_text("beta_x,beta_y,beta_z,weight\n0,0,0,1\n")
        fast = tmp_path / "fast.csv"
        fast.write_text("beta_x,beta_y,beta_z,weight\n0.99,0,0,1\n")
        argvs = [
            ("correlate", "--a", "2,0,0", "--b", "0,1,0", "--beta", "0.6,0,0"),
            ("correlate", "--a", "1,0,0", "--b", "0,1,0", "--beta", "2,0,0"),
            ("correlate", "--a", "1,0,0", "--b", "0,1,0"),
            ("chsh", "--beta", "0.99,0,0"),
            ("chsh", "--beta", "0,0,0", "--settings", "1,0,0"),
            ("chsh", "--help"),
            ("fig1", "--grid", "3"),
            ("fig2", "--grid", "3"),
            ("fig2", "--grid", "3", "--beta-mag", "0.5,1.0"),
            ("fig3", "--grid", "0"),
            ("fig3", "--grid", "3"),
            ("dirac-check", "--p", "0,0,0", "--m", "0"),
            ("dirac-check", "--trials", "2", "--seed", "5"),
            ("dirac-check", "--p", "1,0,0", "--m", "-1"),
            ("crypto-audit", "--dist", str(rest)),
            ("crypto-audit", "--dist", str(fast)),
            ("crypto-audit", "--dist", str(rest), "--threshold", "3"),
            ("selftest", "--samples", "5"),
            ("frobnicate",),
            (),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [outcome(capsys, argv) for argv in argvs]
        codes = {code for code, _, _ in fresh}
        assert codes == {0, 1, 2, 3}, codes
        order = [*range(len(argvs)), *reversed(range(len(argvs)))]
        for k in order:
            assert outcome(capsys, argvs[k]) == fresh[k], argvs[k]

    def test_every_default_is_immutable(self):
        subparsers, = (action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                assert isinstance(action.default, (type(None), int, float, str, tuple)), \
                    (name, action.dest, action.default)

    def test_a_changed_namespace_leaves_the_next_default_alone(self, capsys):
        args = cli.build_parser().parse_args(["fig2"])
        with pytest.raises(AttributeError):
            args.beta_mag.append(0.5)
        args.beta_mag += (0.5,)
        assert cli.build_parser().parse_args(["fig2"]).beta_mag == (0.99, 0.95)
        code, out, _ = run(capsys, "fig2", "--grid", "3")
        assert code == 0
        assert "# beta_magnitude=0.99,0.95\n" in out
        assert "theta,phi,chsh_beta_0.99,chsh_beta_0.95\n" in out
