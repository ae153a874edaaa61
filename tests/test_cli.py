"""Command-line behavior: printed numbers, exit codes, file round trips."""

import json
import math

import numpy as np

from qrsgame.cli import main
from qrsgame.game import (
    SQRT3,
    HonestQuantum,
    TallyTable,
    canonical_game,
    estimate_payoff,
    exact_payoff,
    partial_bsm_povm,
)
from qrsgame.states import (
    SETTING_KEYS,
    RefereeEnsemble,
    ensemble_to_dict,
    referee_ideal,
    save_ensemble,
    werner_state,
)
from qrsgame.witness import CountRecord

from helpers import depolarize_ensemble
from test_witness import counts_from_ensemble

# Tilting the j = 3 axis by asin(0.2528414998...) pushes the calibration
# boundary to the headline rate 1.081.
TILT_SIN = 0.25284149982935


def tilted_ensemble():
    cos = math.sqrt(1.0 - TILT_SIN ** 2)
    vectors = {k: v.copy() for k, v in referee_ideal().vectors.items()}
    vectors[(3, 1)] = np.array([TILT_SIN, 0.0, cos])
    vectors[(3, -1)] = np.array([-TILT_SIN, 0.0, -cos])
    return RefereeEnsemble(vectors)


def write_nan_ensemble(tmp_path):
    # The JSON token NaN parses to float nan, so only the ensemble check
    # can stop it.
    data = ensemble_to_dict(referee_ideal())
    data["vectors"][4]["n"][2] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    return str(path)


class TestPayoff:
    def test_non_finite_ensemble_rejected(self, tmp_path, capsys):
        path = write_nan_ensemble(tmp_path)
        assert main(["payoff", "--W", "0.9", "--ensemble", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(3, 1) is not finite" in captured.err

    def test_malformed_ensemble_json_exits_2(self, tmp_path, capsys):
        records = ensemble_to_dict(referee_ideal())["vectors"]
        bad_data = [{"vectors": 5}, {"vectors": None}]
        for field, bad in (("j", 1.7), ("s", True), ("j", "1")):
            bad_data.append({"vectors": [dict(records[0], **{field: bad})] + records[1:]})
        for i, data in enumerate(bad_data):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            assert main(["payoff", "--W", "0.5", "--ensemble", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "ensemble" in captured.err

    def test_non_numeric_bloch_component_exits_2(self, tmp_path, capsys):
        records = ensemble_to_dict(referee_ideal())["vectors"]
        for i, bad in enumerate((["1", "0", "0"], [True, False, False])):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps({"vectors": [dict(records[0], n=bad)] + records[1:]}))
            assert main(["payoff", "--W", "0.5", "--ensemble", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Bloch component that is not a number" in captured.err

    def test_bad_weight_reported_before_bad_visibility(self, capsys):
        for command in (["payoff"], ["simulate", "--n", "5"]):
            assert main(command + ["--W", "2", "--visibility", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: Werner weight must lie in [0, 1], got 2.0\n"

    def test_golden_point(self, capsys):
        assert main(["payoff", "--W", "0.698", "--r", "1.081"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "exact_payoff = 0.221653077"
        assert out[1] == "linear_reference = 0.221653077"
        assert out[2] == "regime = steerable-open-Bell-window"

    def test_singlet_at_unit_rate(self, capsys):
        assert main(["payoff", "--W", "1", "--r", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "exact_payoff = 1.267949192"
        assert out[2] == "regime = Bell-violating"

    def test_unsteerable_point(self, capsys):
        assert main(["payoff", "--W", "0.5", "--r", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "exact_payoff = -0.2320508076"
        assert out[2] == "regime = unsteerable-by-this-game"

    def test_regime_follows_the_game_as_played(self, tmp_path, capsys):
        """The label is set by the threshold of the game actually played, at
        the run's visibility and ensemble: a losing honest payoff is never
        labelled steerable."""
        assert main(["payoff", "--W", "0.6", "--visibility", "0.9"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "exact_payoff = -0.2852558883"
        assert out[2] == "regime = unsteerable-by-this-game"
        assert main(["payoff", "--W", "0.6", "--visibility", "0.9", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "unsteerable-by-this-game"
        path = str(tmp_path / "depol.json")
        save_ensemble(depolarize_ensemble(referee_ideal(), 0.9), path)
        for w, regime in (("0.62", "unsteerable-by-this-game"),
                          ("0.7", "steerable-open-Bell-window")):
            assert main(["payoff", "--W", w, "--ensemble", path]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[2] == f"regime = {regime}"
            payoff = float(out[0].split(" = ")[1])
            assert (payoff <= 0.0) == (regime == "unsteerable-by-this-game")

    def test_linear_reference_follows_visibility(self, capsys):
        """linear_reference is 3vW - sqrt(3) r (2 - v): at v = 0.9 on the
        ideal ensemble it is the exact honest payoff within 1e-12, and text
        and JSON print the two alike."""
        w, r, v = 0.8, 1.2, 0.9
        reference = 3.0 * v * w - SQRT3 * r * (2.0 - v)
        strategy = HonestQuantum(werner_state(w), partial_bsm_povm(v))
        assert abs(reference - exact_payoff(canonical_game(r), strategy, referee_ideal())) <= 1e-12
        argv = ["payoff", "--W", str(w), "--r", str(r), "--visibility", str(v)]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "exact_payoff = -0.126307066"
        assert out[1] == "linear_reference = -0.126307066"
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["linear_reference"] == data["exact_payoff"] == -0.126307066

    def test_estimate_lines(self, capsys):
        assert main(["payoff", "--W", "0.698", "--r", "1.081", "--n", "20000",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        est = float(out[3].split(" = ")[1])
        err = float(out[4].split(" = ")[1])
        assert out[3].startswith("estimate = ")
        assert out[4].startswith("estimate_stderr = ")
        assert abs(est - 0.2216530770180436) < 5.0 * err

    def test_json_format(self, capsys):
        assert main(["payoff", "--W", "0.698", "--r", "1.081", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["W"] == 0.698
        assert data["exact_payoff"] == 0.221653077
        assert data["regime"] == "steerable-open-Bell-window"

    def test_auto_rate_clamps_to_legal_floor(self, tmp_path, capsys):
        # Depolarized states calibrate below 1; 'auto' must not go lower.
        path = str(tmp_path / "depol.json")
        save_ensemble(depolarize_ensemble(referee_ideal(), 0.8), path)
        assert main(["payoff", "--W", "0.698", "--r", "auto", "--ensemble", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "linear_reference = 0.3619491924"

    def test_auto_rate_rises_with_bad_calibration(self, tmp_path, capsys):
        path = str(tmp_path / "tilted.json")
        save_ensemble(tilted_ensemble(), path)
        assert main(["payoff", "--W", "0.698", "--r", "auto", "--ensemble", path,
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["r"] - 1.081) < 1e-6

    def test_csv_format_rejected(self, capsys):
        assert main(["payoff", "--W", "0.5", "--r", "1", "--format", "csv"]) == 2
        capsys.readouterr()

    def test_seed_without_runs_rejected(self, capsys):
        assert main(["payoff", "--W", "0.9", "--r", "1", "--seed", "5"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["payoff", "--W", "0.9", "--r", "1", "--n", "0", "--seed", "5"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_runs_rejected(self, capsys):
        assert main(["payoff", "--W", "0.9", "--r", "1", "--n", "-3"]) == 2
        assert "--n must be nonnegative" in capsys.readouterr().err

    def test_bad_rate_string(self, capsys):
        assert main(["payoff", "--W", "0.5", "--r", "fast"]) == 2
        assert "--r must be a number or 'auto'" in capsys.readouterr().err

    def test_non_finite_rate_rejected(self, capsys):
        for rate in ("nan", "inf"):
            for argv in (["payoff", "--W", "0.5"], ["sweep", "--steps", "3"],
                         ["simulate", "--W", "0.5", "--n", "10"]):
                assert main(argv + ["--r", rate]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "penalty rate r must be finite" in captured.err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "payoff.txt"
        assert main(["payoff", "--W", "1", "--r", "1", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[0] == "exact_payoff = 1.267949192"


class TestCalibrate:
    def test_ideal_ensemble(self, tmp_path, capsys):
        path = str(tmp_path / "ideal.json")
        save_ensemble(referee_ideal(), path)
        assert main(["calibrate", "--ensemble", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["r_star_oracle"] == 1.0
        assert data["r_star_printed"] == 2.0
        assert data["r_star_legal"] == 1.0
        assert data["bootstrap"] is None

    def test_depolarized_ensemble(self, tmp_path, capsys):
        path = str(tmp_path / "depol.json")
        save_ensemble(depolarize_ensemble(referee_ideal(), 0.8), path)
        assert main(["calibrate", "--ensemble", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["r_star_oracle"] == 0.8
        assert data["r_star_legal"] == 1.0

    def test_tilted_ensemble_raises_legal_rate(self, tmp_path, capsys):
        path = str(tmp_path / "tilted.json")
        save_ensemble(tilted_ensemble(), path)
        assert main(["calibrate", "--ensemble", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["r_star_oracle"] - 1.081) < 1e-6
        assert data["r_star_legal"] == data["r_star_oracle"]

    def test_counts_with_bootstrap(self, tmp_path, capsys):
        path = str(tmp_path / "counts.csv")
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 20000)
        record.save(path)
        assert main(["calibrate", "--counts", path, "--trials", "20"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["r_star_oracle"] - 0.9) < 0.05
        assert set(data["bootstrap"]) == {"mean", "std", "failures"}
        assert data["bootstrap"]["failures"] == 0

    def test_output_file(self, tmp_path, capsys):
        ens_path = str(tmp_path / "ideal.json")
        out_path = tmp_path / "report.json"
        save_ensemble(referee_ideal(), ens_path)
        assert main(["calibrate", "--ensemble", ens_path, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["r_star_printed"] == 2.0

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["calibrate"]) == 2
        assert "exactly one" in capsys.readouterr().err
        ens_path = str(tmp_path / "ideal.json")
        save_ensemble(referee_ideal(), ens_path)
        assert main(["calibrate", "--ensemble", ens_path, "--counts", ens_path]) == 2

    def test_bootstrap_flags_rejected_with_ensemble(self, tmp_path, capsys):
        path = str(tmp_path / "ideal.json")
        save_ensemble(referee_ideal(), path)
        assert main(["calibrate", "--ensemble", path, "--trials", "7", "--seed", "3"]) == 2
        assert "--trials or --seed" in capsys.readouterr().err
        assert main(["calibrate", "--ensemble", path, "--seed", "0"]) == 2
        assert "does not use --seed" in capsys.readouterr().err

    def test_malformed_ensemble_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["calibrate", "--ensemble", str(path)]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_deeply_nested_ensemble_json_exits_2(self, tmp_path, capsys):
        """JSON nested past the interpreter's recursion limit is a parse
        failure that names the file, not a RecursionError traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["calibrate", "--ensemble", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: could not parse ensemble JSON {path}: ")

    def test_missing_file(self, capsys):
        assert main(["calibrate", "--ensemble", "/nonexistent/e.json"]) == 2

    def test_non_finite_ensemble_rejected(self, tmp_path, capsys):
        path = write_nan_ensemble(tmp_path)
        assert main(["calibrate", "--ensemble", path]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_out_of_range_count_names_line(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("j,s,axis,outcome,count\n1,+1,1,+1,10\n1,+1,4,+1,3\n")
        assert main(["calibrate", "--counts", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_axis_names_key_and_axis(self, tmp_path, capsys):
        path = str(tmp_path / "counts.csv")
        counts = dict(counts_from_ensemble(referee_ideal(), 100).counts)
        counts[(3, -1, 1, 1)] = counts[(3, -1, 1, -1)] = 0
        CountRecord(counts).save(path)
        for extra in ([], ["--trials", "5", "--seed", "1"]):
            assert main(["calibrate", "--counts", path, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: no counts for key (j=3, s=-1) on axis 1\n"

    def test_count_beyond_exact_floats_names_line(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(f"j,s,axis,outcome,count\n1,+1,1,+1,10\n1,+1,1,-1,{10**19}\n")
        assert main(["calibrate", "--counts", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestSweep:
    def test_grid_and_thresholds(self, capsys):
        assert main(["sweep", "--r", "1", "--w-min", "0", "--w-max", "1",
                     "--steps", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# threshold this-game W = 0.5773502692"
        assert out[1] == "# threshold no-Bell-possible-below W = 0.6595"
        assert out[2] == "# threshold known-Bell-above W = 0.7056"
        assert out[3] == "# threshold CHSH W = 0.7071067812"
        assert out[4] == "W,exact_payoff,regime"
        assert out[5] == "0,-1.732050808,unsteerable-by-this-game"
        assert out[6] == "0.5,-0.2320508076,unsteerable-by-this-game"
        assert out[7] == "1,1.267949192,Bell-violating"
        assert len(out) == 8

    def test_threshold_and_labels_at_reduced_visibility(self, capsys):
        """At visibility 0.9 the header prints W_game = sqrt(3)(2 - v)/(3v)
        and every row is labelled unsteerable exactly when its payoff is not
        positive."""
        assert main(["sweep", "--visibility", "0.9", "--steps", "101"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# threshold this-game W = 0.705650329"
        assert math.isclose(float(out[0].split(" = ")[1]), SQRT3 * 1.1 / 2.7, rel_tol=1e-9)
        for row in out[5:]:
            _, payoff, regime = row.split(",")
            assert (regime == "unsteerable-by-this-game") == (float(payoff) <= 0.0)

    def test_threshold_at_zero_visibility_is_inf(self, capsys):
        """At visibility 0 the honest payoff does not depend on W, so no
        weight wins: the header prints inf, not the reciprocal of rounding
        noise, and every row is labelled unsteerable."""
        assert main(["sweep", "--visibility", "0", "--steps", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# threshold this-game W = inf"
        assert out[5:] == [
            "0,-3.464101615,unsteerable-by-this-game",
            "0.5,-3.464101615,unsteerable-by-this-game",
            "1,-3.464101615,unsteerable-by-this-game",
        ]

    def test_single_point_golden_row(self, capsys):
        assert main(["sweep", "--r", "1.081", "--w-min", "0.698", "--w-max", "0.698",
                     "--steps", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "0.698,0.221653077,steerable-open-Bell-window"

    def test_empty_grid_fails(self, capsys):
        assert main(["sweep", "--r", "1", "--steps", "0"]) == 2
        assert "at least one grid point" in capsys.readouterr().err

    def test_bad_bounds_fail(self, capsys):
        assert main(["sweep", "--r", "1", "--w-min", "0.9", "--w-max", "0.2",
                     "--steps", "5"]) == 2
        assert "grid bounds" in capsys.readouterr().err

    def test_unused_flags_rejected(self, capsys):
        assert main(["sweep", "--r", "1", "--steps", "3", "--seed", "1"]) == 2
        assert main(["sweep", "--r", "1", "--steps", "3", "--format", "json"]) == 2
        capsys.readouterr()


class TestSimulate:
    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--W", "0.698", "--r", "1.081", "--n", "1000",
                "--seed", "7"]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(path_a)]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--out", str(path_b)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_written_tally_reproduces_estimate(self, tmp_path, capsys):
        """The saved tally is the full record: re-ingesting it must give
        back the printed estimate to all printed digits."""
        path = tmp_path / "tally.csv"
        assert main(["simulate", "--W", "0.698", "--r", "1.081", "--n", "2000",
                     "--seed", "11", "--out", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        est = estimate_payoff(canonical_game(1.081), TallyTable.load(str(path)))
        assert printed["value"] == float(format(est.value, ".10g"))
        assert printed["stderr"] == float(format(est.stderr, ".10g"))
        assert printed["n_per_setting"] == [
            {"j": j, "s": s, "n": 2000} for j, s in SETTING_KEYS
        ]

    def test_tally_to_stdout(self, capsys):
        assert main(["simulate", "--W", "1", "--r", "1", "--n", "50", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("j,s,a,b,count\n")
        assert '"value":' in out

    def test_needs_runs(self, capsys):
        assert main(["simulate", "--W", "0.5", "--r", "1"]) == 2
        assert "--n >= 1" in capsys.readouterr().err

    def test_runs_beyond_the_count_cap_rejected(self, capsys):
        """More rounds than a tally count may hold exit 2 with the cap named,
        not with numpy's OverflowError from the draw."""
        for n in (2**52 + 1, 2**64):
            assert main(["simulate", "--W", "0.5", "--r", "1", "--n", str(n)]) == 2
            assert "from 1 to 2^52, a tally count's cap" in capsys.readouterr().err
            assert main(["payoff", "--W", "0.5", "--r", "1", "--n", str(n)]) == 2
            assert "from 1 to 2^52, a tally count's cap" in capsys.readouterr().err

    def test_format_flag_rejected(self, capsys):
        assert main(["simulate", "--W", "0.5", "--r", "1", "--n", "10",
                     "--format", "json"]) == 2
        capsys.readouterr()


class TestChsh:
    def test_golden_point(self, capsys):
        assert main(["chsh", "--W", "0.698"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "chsh = 1.974242133"
        assert out[1] == "classical_bound = 2"
        assert out[2] == "violated = no"

    def test_violation(self, capsys):
        assert main(["chsh", "--W", "0.9"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "chsh = 2.545584412"
        assert out[2] == "violated = yes"

    def test_json(self, capsys):
        assert main(["chsh", "--W", "0.9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violated"] is True

    def test_out_of_range_weight(self, capsys):
        assert main(["chsh", "--W", "2"]) == 2
        assert "Werner weight" in capsys.readouterr().err


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_weight(self, capsys):
        assert main(["payoff"]) == 2
        capsys.readouterr()

    def test_out_of_range_weight(self, capsys):
        assert main(["payoff", "--W", "1.5", "--r", "1"]) == 2
        assert "Werner weight" in capsys.readouterr().err

    def test_abbreviated_flags_rejected(self, capsys):
        """No parser completes a prefix of a flag: --vis is not --visibility."""
        assert main(["payoff", "--W", "0.698", "--r", "1.081", "--vis", "0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --vis 0.9" in captured.err
        for argv in (["calibrate", "--ens", "e.json"], ["sweep", "--st", "3"],
                     ["simulate", "--W", "1", "--n", "5", "--se", "1"],
                     ["chsh", "--W", "1", "--form", "json"], ["--he"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().out == ""


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import qrsgame

    # The child must import the same package as this process, installed or
    # taken from a checkout's src/ by pytest's pythonpath setting.
    src = os.path.dirname(os.path.dirname(qrsgame.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qrsgame.cli", "payoff", "--W", "1", "--r", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "exact_payoff = 1.267949192"
