import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _frozen import BELINFANTE, MC_REFERENCE, REFERENCE, REGRESSIONS
import bellhv
from bellhv import __version__
from bellhv import cli
from bellhv.cli import _z_score, main
from bellhv.montecarlo import chsh
from bellhv.rng import RngStream
from bellhv.transmission import REFERENCE_MODEL, CosineSquaredModel


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestCurve:
    def test_reference_curve(self, tmp_path):
        stem = tmp_path / "ref"
        assert main(["curve", "--out", str(stem)]) == 0

        header, rows = read_rows(tmp_path / "ref.csv")
        assert header == ["angle_deg", "p1", "pair_ratio", "malus"]
        assert len(rows) == 19
        assert rows[0] == ["0", "1", "1", "1"]
        for deg, _, ratio, malus_value in rows:
            assert float(ratio) == pytest.approx(
                REFERENCE["ratio_curve"][str(int(float(deg)))], abs=2e-9
            )
            assert abs(float(ratio) - float(malus_value)) <= 0.05

        manifest = read_json(tmp_path / "ref.manifest.json")
        assert manifest["artifact"] == "bellhv"
        assert manifest["version"] == __version__
        assert (manifest["numpy_version"], manifest["platform"].split("-")[0]) == (
            np.__version__, platform.system()
        )
        assert manifest["subcommand"] == "curve"
        assert manifest["stem"] == "ref"
        assert manifest["converged"] is True
        assert manifest["parameters"]["model"] == "reference"
        blob = (tmp_path / "ref.csv").read_bytes()
        assert manifest["outputs"]["ref.csv"] == hashlib.sha256(blob).hexdigest()
        assert b"\r" not in blob

    def test_half_degree_grid_writes_exact_degrees(self, tmp_path):
        # the degree column is start + step i: 7.5 and 52.5, not 7.499999999999999
        assert main(["curve", "--grid-step", "7.5", "--out", str(tmp_path / "half")]) == 0
        _, rows = read_rows(tmp_path / "half.csv")
        degrees = [row[0] for row in rows]
        assert degrees[:3] == ["0", "7.5", "15"] and degrees[7] == "52.5"
        assert [float(deg) for deg in degrees] == [7.5 * i for i in range(13)]

    def test_cosine_squared_profile_misses_the_intensity_law(self, tmp_path):
        stem = tmp_path / "bel"
        assert main(["curve", "--model", "belinfante", "--out", str(stem)]) == 0
        _, rows = read_rows(tmp_path / "bel.csv")
        deviations = {row[0]: abs(float(row[2]) - float(row[3])) for row in rows}
        assert max(deviations.values()) == pytest.approx(
            BELINFANTE["malus_residual"], abs=1e-9
        )
        assert max(deviations.values()) > 0.1
        assert max(deviations, key=deviations.get) == "70"

    def test_tabulated_profile(self, tmp_path):
        table = tmp_path / "profile.csv"
        table.write_text(
            "angle_deg,probability\n0,1.0\n30,0.8\n60,0.3\n90,0.0\n", encoding="utf-8"
        )
        stem = tmp_path / "tab"
        assert main(["curve", "--model", f"table:{table}", "--out", str(stem)]) == 0
        _, rows = read_rows(tmp_path / "tab.csv")
        assert rows[0][2] == "1"
        assert float(rows[-1][2]) < 1.0

    def test_byte_order_mark_is_not_part_of_the_table(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        blobs = set()
        for encoding in ("utf-8", "utf-8-sig"):
            for header in ("", "angle_deg,probability\n"):
                table = tmp_path / "t.csv"
                table.write_text(header + "0,1\n45,0.5\n90,0\n", encoding=encoding)
                stem = tmp_path / "tab"
                argv = ["curve", "--model", f"table:{table}", "--grid-step", "15"]
                assert main(argv + ["--out", str(stem)]) == 0
                blobs.add((tmp_path / "tab.csv").read_bytes())
        assert len(blobs) == 1
        _, rows = read_rows(tmp_path / "tab.csv")
        assert rows[0][:2] == ["0", "1"]

    @pytest.mark.parametrize(
        "subcommand, text",
        [
            pytest.param("curve", "0.5\n0,1\n1.5,0\n", id="curve-short-first-row"),
            pytest.param("curve", "angle,prob\nx,y\n0,1\n90,0\n", id="curve-second-header"),
            pytest.param("simulate", "angle,prob\nx,y\n0,1\n90,0\n",
                         id="simulate-second-header"),
            pytest.param("curve", "angle,prob,sigma\n0,1,0.1\n45,0.5,oops\n90,0\n",
                         id="curve-extra-cell"),
            pytest.param("curve", "0,1,0\n90,0,0\n", id="curve-three-numbers"),
        ],
    )
    def test_malformed_table_row_is_a_usage_error(self, tmp_path, capsys, subcommand, text):
        # only the first row may be a header, and only if it starts with a non-number
        table = tmp_path / "t.csv"
        table.write_text(text, encoding="utf-8")
        stem = tmp_path / "tab"
        argv = [subcommand, "--model", f"table:{table}", "--out", str(stem)]
        if subcommand == "curve":
            argv += ["--grid-step", "45"]
        else:
            argv += ["--n", "1000"]
        assert main(argv) == 2
        assert not (tmp_path / "tab.manifest.json").exists()
        assert "malformed table row" in capsys.readouterr().err

    def test_undecodable_table_is_a_usage_error(self, tmp_path, capsys):
        # a UTF-16 export is not UTF-8 text: one error line, no traceback
        table = tmp_path / "t16.csv"
        table.write_text("0,1\n45,0.5\n90,0\n", encoding="utf-16")
        stem = tmp_path / "tab"
        argv = ["curve", "--model", f"table:{table}", "--grid-step", "15", "--out", str(stem)]
        assert main(argv) == 2
        assert not (tmp_path / "tab.manifest.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err

    def test_unknown_model_is_a_usage_error(self, tmp_path, capsys):
        stem = tmp_path / "bad"
        assert main(["curve", "--model", "quantum", "--out", str(stem)]) == 2
        assert not (tmp_path / "bad.manifest.json").exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--grid-start", "nan", "grid start and stop must be finite",
                         id="--grid-start-nan"),
            pytest.param("--grid-stop", "inf", "grid start and stop must be finite",
                         id="--grid-stop-inf"),
            # 9e301 points: rejected before any array is allocated
            pytest.param("--grid-step", "1e-300", "exceeds the cap", id="--grid-step-1e-300"),
        ],
    )
    def test_non_finite_grid_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        assert main(["curve", flag, value, "--out", str(tmp_path / "grid")]) == 2
        assert not (tmp_path / "grid.manifest.json").exists()
        assert message in capsys.readouterr().err


class TestBounds:
    def run(self, tmp_path, regime, name, extra=()):
        stem = tmp_path / name
        code = main(
            ["bounds", "--regime", regime, "--seed", "0", "--restarts", "2",
             "--out", str(stem), *extra]
        )
        assert code == 0
        return read_json(tmp_path / f"{name}.json")

    def test_classical(self, tmp_path):
        doc = self.run(tmp_path, "classical", "cls")
        assert doc["best_expectation"] == pytest.approx(2.0, abs=1e-9)
        assert doc["best_bb_dagger"] == pytest.approx(4.0, abs=1e-9)
        assert doc["theoretical_limit_expectation"] == 2.0
        assert doc["theoretical_limit_bb"] == 4.0

    def test_commuting(self, tmp_path):
        doc = self.run(tmp_path, "commuting", "com")
        limit = 2.0 * math.sqrt(2.0)
        assert limit - 1e-3 <= doc["best_expectation"] <= limit + 1e-6
        assert doc["best_bb_dagger"] <= 8.0 + 1e-6
        assert doc["theoretical_limit_expectation"] == pytest.approx(limit)
        assert doc["theoretical_limit_bb"] == 8.0
        # complex matrix entries serialize as [re, im] pairs
        cell = doc["witness"]["a1"][0][0]
        assert isinstance(cell, list) and len(cell) == 2
        state = np.array([complex(re, im) for re, im in doc["witness_state"]])
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    def test_unrestricted(self, tmp_path):
        doc = self.run(tmp_path, "unrestricted", "unr", extra=("--dim", "4"))
        limit = 2.0 * math.sqrt(3.0)
        assert 2.0 * math.sqrt(2.0) - 1e-3 <= doc["best_expectation"] <= limit + 1e-6
        assert doc["best_bb_dagger"] <= 12.0 + 1e-6
        assert doc["dim"] == 4

    def test_oversized_dimension_is_a_usage_error(self, tmp_path):
        stem = tmp_path / "big"
        assert main(
            ["bounds", "--regime", "commuting", "--dim", "5", "--out", str(stem)]
        ) == 2

    def test_unknown_regime_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bounds", "--regime", "super", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_winner_at_the_iteration_cap_is_not_converged(self, tmp_path, monkeypatch):
        search = cli.search_bound

        def capped(regime, dim, config):
            return dataclasses.replace(search(regime, dim, config), iterations=config.max_iterations)

        monkeypatch.setattr(cli, "search_bound", capped)
        stem = tmp_path / "capped"
        assert main(["bounds", "--regime", "commuting", "--restarts", "1", "--out", str(stem)]) == 1
        assert read_json(tmp_path / "capped.manifest.json")["converged"] is False
        assert read_json(tmp_path / "capped.json")["iterations"] == 400


class TestSimulate:
    def test_single_angle_run_is_reproducible(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        args = ["simulate", "--alpha", "0", "--n", "20000", "--seed", "7"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

        doc = read_json(tmp_path / "one.json")
        (setting,) = doc["settings"]
        assert setting["n11"] + setting["n10"] + setting["n01"] + setting["n00"] == 20000
        assert abs(setting["z_score"]) <= 5.0

    def test_tally_without_coincidences_is_scored_at_the_expected_rate(self, tmp_path):
        # 20 crossed pairs give no coincidence; the tally's own stderr is 0
        stem = tmp_path / "empty"
        assert main(
            ["simulate", "--alpha", "90", "--n", "20", "--seed", "4", "--out", str(stem)]
        ) == 0
        (setting,) = read_json(tmp_path / "empty.json")["settings"]
        assert (setting["n11"], setting["p11"], setting["p11_stderr"]) == (0, 0.0, 0.0)
        expected = setting["p11_expected"]
        assert expected > 0.0
        sigma = math.sqrt(expected * (1.0 - expected) / 20)
        assert setting["z_score"] == pytest.approx(-expected / sigma, rel=1e-9)
        assert setting["z_score"] < -0.5

    def test_crossed_analyzers_match_the_expected_rate(self, tmp_path):
        stem = tmp_path / "crossed"
        assert main(
            ["simulate", "--alpha", "90", "--n", "200000", "--seed", "3",
             "--out", str(stem)]
        ) == 0
        (setting,) = read_json(tmp_path / "crossed.json")["settings"]
        assert setting["p11_expected"] == pytest.approx(
            MC_REFERENCE["q11_alpha90"], abs=1e-9
        )
        sigma = max(setting["p11_stderr"], 1e-12)
        assert abs(setting["p11"] - MC_REFERENCE["q11_alpha90"]) <= 4.0 * sigma

    def test_canonical_settings_report_both_chsh_estimators(self, tmp_path):
        stem = tmp_path / "chsh"
        assert main(["simulate", "--n", "50000", "--seed", "11", "--out", str(stem)]) == 0
        doc = read_json(tmp_path / "chsh.json")
        assert [
            [s["angle_a_deg"], s["angle_b_deg"]] for s in doc["settings"]
        ] == [[0.0, 22.5], [0.0, -22.5], [45.0, 22.5], [45.0, -22.5]]
        chsh = doc["chsh"]
        assert chsh["all_events_S"] <= 2.0 + 5.0 * chsh["all_events_stderr"]
        assert chsh["post_selected_S"] > 2.0 + 10.0 * chsh["post_selected_stderr"]
        expected_retained = float(np.mean(MC_REFERENCE["q11_settings"]))
        assert chsh["retained_fraction"] == pytest.approx(expected_retained, abs=5e-3)
        _, rows = read_rows(tmp_path / "chsh.csv")
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "name, model",
        [
            ("reference", REFERENCE_MODEL),
            ("belinfante", CosineSquaredModel()),
        ],
    )
    def test_chsh_block_is_the_library_runner(self, tmp_path, name, model):
        # the command line and chsh() share one per-setting stream rule
        stem = tmp_path / name
        argv = ["simulate", "--model", name, "--n", "20000", "--seed", "5"]
        assert main(argv + ["--out", str(stem)]) == 0
        block = read_json(tmp_path / f"{name}.json")["chsh"]
        all_events, post = chsh(model, 20000, RngStream(5))
        round12 = lambda value: float(format(value, ".12g"))  # the writer's precision
        assert block == {
            "all_events_S": round12(all_events.value),
            "all_events_stderr": round12(all_events.stderr),
            "post_selected_S": round12(post.value),
            "post_selected_stderr": round12(post.stderr),
            "retained_fraction": round12(post.retained_fraction),
            "correlations_all_events": [round12(e) for e in all_events.correlations],
            "correlations_post_selected": [round12(e) for e in post.correlations],
        }

    def test_angle_outside_window_is_a_usage_error(self, tmp_path):
        assert main(
            ["simulate", "--alpha", "100", "--out", str(tmp_path / "x")]
        ) == 2


class TestZScore:
    def test_spread_tally_divides_by_its_own_stderr(self):
        assert _z_score(0.25, 0.01, 0.2, 100) == (0.25 - 0.2) / 0.01

    @pytest.mark.parametrize("estimate", [0.0, 1.0])
    def test_degenerate_tally_uses_the_expected_spread(self, estimate):
        expected = 0.3
        sigma = math.sqrt(expected * (1.0 - expected) / 50)
        assert _z_score(estimate, 0.0, expected, 50) == (estimate - expected) / sigma

    @pytest.mark.parametrize(
        "estimate,expected", [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0 + 2e-16), (0.0, -1e-300)]
    )
    def test_certain_rate_met_scores_zero(self, estimate, expected):
        assert _z_score(estimate, 0.0, expected, 10) == 0.0


class TestFit:
    def test_default_fit_matches_the_recorded_run(self, tmp_path):
        stem = tmp_path / "fit"
        assert main(["fit", "--out", str(stem)]) == 0
        doc = read_json(tmp_path / "fit.json")
        frozen = REGRESSIONS["fit_default_from_reference"]
        assert doc["converged"] is True
        assert doc["residual"] == pytest.approx(frozen["residual"], abs=1e-9)
        assert doc["intensity_ratio_at_fit"] == pytest.approx(
            frozen["intensity_ratio_at_fit"], abs=1e-6
        )
        assert doc["start"] == {"a": 2.6, "e": 2.2, "c": 45.0}
        assert doc["objective"] == "chebyshev"
        assert doc["grid_deg"] == [float(d) for d in range(0, 91, 5)]
        manifest = read_json(tmp_path / "fit.manifest.json")
        assert manifest["converged"] is True

    def test_invalid_start_is_a_usage_error(self, tmp_path):
        assert main(["fit", "--a", "-1", "--out", str(tmp_path / "x")]) == 2

    def test_start_outside_the_box_is_a_usage_error(self, tmp_path, capsys):
        argv = ["fit", "--c", "1e6", "--restarts", "1", "--grid-step", "30"]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "outside the fit's box" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--a", "--e"])
    def test_start_whose_residual_cannot_be_computed_is_a_usage_error(
        self, tmp_path, capsys, flag
    ):
        # inside the box, but the start's own quadrature does not converge
        argv = ["fit", flag, "1e5", "--restarts", "1", "--grid-step", "30"]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "the residual or intensity ratio at start StretchedExponentialModel(" in err
        assert "100000.0" in err and "cannot be computed" in err
        assert list(tmp_path.iterdir()) == []

    def test_fit_requires_the_closed_form_model(self, tmp_path, capsys):
        # fit takes no --model: the closed-form family is the only one it adjusts
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--model", "belinfante", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err


class TestReplay:
    def test_curve_replay_is_byte_identical(self, tmp_path, capsys):
        stem = tmp_path / "orig"
        assert main(["curve", "--grid-step", "15", "--out", str(stem)]) == 0
        replay_dir = tmp_path / "replayed"
        assert main(
            ["replay", str(tmp_path / "orig.manifest.json"), "--out-dir", str(replay_dir)]
        ) == 0
        assert (replay_dir / "orig.csv").read_bytes() == (tmp_path / "orig.csv").read_bytes()
        assert "orig.csv: ok" in capsys.readouterr().out

    def test_simulate_replay_is_byte_identical(self, tmp_path):
        stem = tmp_path / "sim"
        assert main(
            ["simulate", "--alpha", "30", "--n", "30000", "--seed", "5",
             "--out", str(stem)]
        ) == 0
        replay_dir = tmp_path / "replayed"
        assert main(
            ["replay", str(tmp_path / "sim.manifest.json"), "--out-dir", str(replay_dir)]
        ) == 0
        for name in ("sim.csv", "sim.json"):
            assert (replay_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_replay_writes_every_file_of_the_run(self, tmp_path, capsys):
        # the manifest lists one output; the replay still writes both
        stem = tmp_path / "sim"
        assert main(["simulate", "--alpha", "30", "--n", "2000", "--out", str(stem)]) == 0
        manifest_path = tmp_path / "sim.manifest.json"
        manifest = read_json(manifest_path)
        del manifest["outputs"]["sim.json"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(manifest_path), "--out-dir", str(replay_dir)]) == 0
        assert capsys.readouterr().out == "sim.csv: ok\n"
        for name in ("sim.csv", "sim.json"):
            assert (replay_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_output_the_replay_does_not_produce_is_reported(self, tmp_path, capsys):
        assert main(["curve", "--grid-step", "30", "--out", str(tmp_path / "orig")]) == 0
        manifest_path = tmp_path / "orig.manifest.json"
        manifest = read_json(manifest_path)
        manifest["outputs"]["orig.json"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(manifest_path), "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "orig.csv: ok\n"
        assert captured.err == "orig.json: missing from replay\n"

    def test_tampered_manifest_is_reported(self, tmp_path, capsys):
        stem = tmp_path / "victim"
        assert main(["curve", "--grid-step", "30", "--out", str(stem)]) == 0
        manifest_path = tmp_path / "victim.manifest.json"
        manifest = read_json(manifest_path)
        manifest["outputs"]["victim.csv"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(
            ["replay", str(manifest_path), "--out-dir", str(tmp_path / "out")]
        ) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_missing_manifest_is_a_usage_error(self, tmp_path):
        assert main(
            ["replay", str(tmp_path / "absent.manifest.json"),
             "--out-dir", str(tmp_path / "out")]
        ) == 2

    @pytest.mark.parametrize(
        "content, message", [("{not json", "not JSON"), ("42", "must be a JSON object")]
    )
    def test_manifest_that_is_not_a_json_object_is_a_usage_error(
        self, tmp_path, capsys, content, message
    ):
        manifest_path = tmp_path / "broken.manifest.json"
        manifest_path.write_text(content, encoding="utf-8")
        assert main(["replay", str(manifest_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_manifest_without_stem_or_outputs_is_a_usage_error(self, tmp_path, capsys):
        manifest_path = tmp_path / "empty.manifest.json"
        manifest_path.write_text(
            json.dumps({"subcommand": "curve", "parameters": {}, "outputs": {}}),
            encoding="utf-8",
        )
        assert main(["replay", str(manifest_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "neither a stem nor any output" in capsys.readouterr().err

    @pytest.mark.parametrize("stem", ["../escape", "sub/escape", "..", "."])
    def test_stem_outside_the_output_directory_is_a_usage_error(self, tmp_path, capsys, stem):
        assert main(["curve", "--grid-step", "30", "--out", str(tmp_path / "orig")]) == 0
        manifest_path = tmp_path / "orig.manifest.json"
        manifest = read_json(manifest_path)
        manifest["stem"] = stem
        manifest["outputs"] = {f"{stem}.csv": manifest["outputs"]["orig.csv"]}
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        replay_dir = tmp_path / "deep" / "replayed"
        assert main(["replay", str(manifest_path), "--out-dir", str(replay_dir)]) == 2
        assert "not a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "deep" / "escape.csv").exists()
        assert not replay_dir.exists()

    @pytest.mark.parametrize(
        "subcommand, argv, edit, message",
        [
            ("curve", ["--grid-step", "30"], lambda p: [], "must be a JSON object"),
            ("curve", ["--grid-step", "30"], lambda p: {}, "missing ['a', 'c', 'e', 'grid_start'"),
            ("curve", ["--grid-step", "30"], lambda p: {**p, "grid_step": "x"},
             "argument --grid-step: invalid float value"),
            ("curve", ["--grid-step", "30"], lambda p: {**p, "extra": 1},
             "unrecognized arguments: --extra=1"),
            ("bounds", ["--regime", "classical", "--restarts", "1"],
             lambda p: {**p, "regime": "nope"}, "argument --regime: invalid choice"),
            ("bounds", ["--regime", "classical", "--restarts", "1"],
             lambda p: {k: v for k, v in p.items() if k != "regime"}, "arguments are required"),
            ("fit", ["--restarts", "1", "--grid-step", "45"],
             lambda p: {**p, "model": "reference"}, "unrecognized arguments: --model=reference"),
        ],
        ids=["list", "empty", "bad-type", "unknown", "bad-choice", "no-regime", "fit-model"],
    )
    def test_malformed_parameters_are_a_usage_error(
        self, tmp_path, capsys, subcommand, argv, edit, message
    ):
        # the short fit stops at its iteration cap (exit 1) but records its manifest
        main([subcommand, *argv, "--out", str(tmp_path / "orig")])
        manifest_path = tmp_path / "orig.manifest.json"
        manifest = read_json(manifest_path)
        manifest["parameters"] = edit(manifest["parameters"])
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(manifest_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


class TestSeedResolution:
    def test_default_seed_is_zero(self, tmp_path):
        stem = tmp_path / "zero"
        assert main(["simulate", "--alpha", "0", "--n", "100", "--out", str(stem)]) == 0
        assert read_json(tmp_path / "zero.manifest.json")["parameters"]["seed"] == 0

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        # --seed is the only way to set a seed: a value left in the
        # environment must not change a run that omits the flag
        monkeypatch.setenv("BELLHV_SEED", "123")
        stem = tmp_path / "env"
        assert main(["simulate", "--alpha", "0", "--n", "100", "--out", str(stem)]) == 0
        assert read_json(tmp_path / "env.manifest.json")["parameters"]["seed"] == 0


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["curve", "--out", str(tmp_path / "x"), "--frequency", "3"])
        assert excinfo.value.code == 2

    def test_missing_output_stem(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["curve"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("out", ["", "..", "{work}/.."])
    def test_output_stem_without_a_file_name_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, out
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["curve", "--grid-step", "45", "--out", out.format(work=work)]) == 2
        assert "names no file stem" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [work]

    @pytest.mark.parametrize("subcommand", ["curve", "replay"])
    def test_unwritable_output_path_is_a_usage_error(self, tmp_path, capsys, subcommand):
        blocker = tmp_path / "afile"  # a regular file where the directory should be
        blocker.write_text("")
        if subcommand == "curve":
            argv = ["curve", "--grid-step", "45", "--out", str(blocker / "x")]
        else:
            assert main(["curve", "--grid-step", "45", "--out", str(tmp_path / "run")]) == 0
            argv = ["replay", str(tmp_path / "run.manifest.json"), "--out-dir", str(blocker)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}: ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["curve", "--grid-step", "30"], "--grid-start", "-1e-5"),
            (["simulate", "--n", "10"], "--alpha", "-1e-3"),
            (["simulate", "--n", "10"], "--alpha", "-.5e1"),
        ],
        ids=["curve", "simulate", "no-leading-digit"],
    )
    def test_negative_exponent_value_as_separate_argument(self, tmp_path, argv, flag, value):
        assert main([*argv, flag, value, "--out", str(tmp_path / "spaced" / "run")]) == 0
        assert main([*argv, f"{flag}={value}", "--out", str(tmp_path / "joined" / "run")]) == 0
        data = sorted(p.name for p in (tmp_path / "joined").iterdir() if "manifest" not in p.name)
        assert data
        for name in data:
            spaced = (tmp_path / "spaced" / name).read_bytes()
            assert spaced == (tmp_path / "joined" / name).read_bytes()

    def test_simulate_help_lists_the_canonical_angles(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--help"])
        assert excinfo.value.code == 0
        assert "CHSH settings 0/45/22.5/-22.5)" in " ".join(capsys.readouterr().out.split())

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestAngleFlags:
    """An angle flag outside the model's window is a usage error that names
    the flag and gives its value in degrees, as passed."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--alpha", "100", "--n", "10"],
             "--alpha must lie in [-90, 90] degrees; got 100"),
            (["simulate", "--alpha", "nan", "--n", "10"],
             "--alpha must lie in [-90, 90] degrees; got nan"),
            (["curve", "--grid-stop", "100"], "--grid-stop must lie in [-90, 90] degrees; got 100"),
            (["fit", "--grid-stop", "100"], "--grid-stop must lie in [-90, 90] degrees; got 100"),
            (["curve", "--grid-start", "-100"],
             "--grid-start must lie in [-90, 90] degrees; got -100"),
        ],
        ids=["simulate-alpha", "simulate-alpha-nan", "curve-stop", "fit-stop", "curve-start"],
    )
    def test_angle_outside_window_names_the_flag(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--grid-start", "-90", "--grid-step", "90"],
            ["simulate", "--alpha", "-90", "--n", "10"],
            ["simulate", "--alpha", "90", "--n", "10"],
        ],
        ids=["curve", "simulate-low", "simulate-high"],
    )
    def test_window_is_closed(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 0


# the names perfbench/layers.py rebinds on bellhv.cli to trace each layer
_REBOUND = (
    "normalized_pair_curve",
    "run_pairs",
    "expected_coincidence_probability",
    "search_bound",
    "run_fit",
)


def _data_files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if "manifest" not in p.name}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["curve", "--grid-step", "15"], {"normalized_pair_curve": 1}),
        (["simulate", "--alpha", "30", "--n", "1000"],
         {"run_pairs": 1, "expected_coincidence_probability": 1}),
        (["bounds", "--regime", "commuting", "--restarts", "2"], {"search_bound": 1}),
        (["fit", "--restarts", "1", "--grid-step", "30"], {"run_fit": 1}),
    ],
    ids=["curve", "simulate", "bounds", "fit"],
)
def test_executors_call_the_library_through_the_rebindable_names(
    tmp_path, monkeypatch, argv, expected
):
    assert main([*argv, "--out", str(tmp_path / "plain" / "run")]) == 0
    calls = dict.fromkeys(_REBOUND, 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in _REBOUND:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    assert main([*argv, "--out", str(tmp_path / "spied" / "run")]) == 0
    assert calls == {**dict.fromkeys(_REBOUND, 0), **expected}
    assert _data_files(tmp_path / "spied") == _data_files(tmp_path / "plain")


def _scipy_and_futures_loaded_by(module: str) -> str:
    """Whether importing `module` in a fresh interpreter loads scipy and
    concurrent.futures, as "<bool> <bool>"."""
    env = dict(os.environ, PYTHONPATH=str(Path(bellhv.__file__).resolve().parents[1]))
    code = (
        f"import sys, {module}; "
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return done.stdout.strip()


def _bellhv_modules_after(argv=None) -> list:
    """The bellhv modules a fresh interpreter has loaded after importing
    bellhv.cli and, if argv is given, running `main(argv)`."""
    env = dict(os.environ, PYTHONPATH=str(Path(bellhv.__file__).resolve().parents[1]))
    code = "import json, sys\nfrom bellhv.cli import main\n"
    if argv is not None:
        code += "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
    code += "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'bellhv')))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, *(argv or [])], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


_CLI_MODULES = ["bellhv", "bellhv.cli", "bellhv.errors"]
_CURVE_MODULES = _CLI_MODULES + ["bellhv.angles", "bellhv.quadrature", "bellhv.transmission"]
_BOUNDS_MODULES = _CLI_MODULES + ["bellhv.bell", "bellhv.linalg", "bellhv.rng"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--version"], _CLI_MODULES),
        (["--help"], _CLI_MODULES),
        (["curve"], _CLI_MODULES),  # a usage error: no --out
        (["curve", "--grid-step", "45", "--out", "{out}/curve"], _CURVE_MODULES),
        (["bounds", "--regime", "commuting", "--restarts", "1", "--out", "{out}/bounds"],
         _BOUNDS_MODULES),
        (["simulate", "--alpha", "30", "--n", "1000", "--out", "{out}/sim"],
         sorted(set(_CURVE_MODULES + _BOUNDS_MODULES + ["bellhv.montecarlo"]))),
        (["fit", "--restarts", "1", "--grid-step", "30", "--out", "{out}/fit"],
         _CURVE_MODULES + ["bellhv.malusfit", "bellhv.rng"]),
    ],
    ids=["version", "help", "usage-error", "curve", "bounds", "simulate", "fit"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    argv = [arg.format(out=tmp_path) for arg in argv]
    assert _bellhv_modules_after(argv) == sorted(modules)


def test_replay_loads_the_modules_of_the_replayed_command(tmp_path):
    argv = ["bounds", "--regime", "commuting", "--restarts", "1", "--out", str(tmp_path / "b")]
    assert main(argv) == 0
    replay = ["replay", str(tmp_path / "b.manifest.json"), "--out-dir", str(tmp_path / "check")]
    assert _bellhv_modules_after(replay) == sorted(_BOUNDS_MODULES)


def test_cli_import_loads_no_library_module():
    assert _bellhv_modules_after() == sorted(_CLI_MODULES)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the package needs no scipy at all; concurrent.futures is loaded only
    # by a multi-chunk run_pairs
    assert _scipy_and_futures_loaded_by("bellhv.cli") == "False False"


def test_montecarlo_import_leaves_scipy_and_futures_unloaded():
    # the sampler imports bell for the CHSH sign pattern, and bell no more
    assert _scipy_and_futures_loaded_by("bellhv.montecarlo") == "False False"


def test_fit_loads_no_scipy(tmp_path):
    # the fit's SQP is in the package; scipy is only its test oracle
    env = dict(os.environ, PYTHONPATH=str(Path(bellhv.__file__).resolve().parents[1]))
    argv = ["fit", "--grid-step", "30", "--restarts", "1", "--out", str(tmp_path / "fit")]
    code = (
        "import sys; from bellhv.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.split()[-2:] == ["0", "False"]


def test_package_import_loads_no_submodule():
    # the package root holds only __version__; names come from their modules
    env = dict(os.environ, PYTHONPATH=str(Path(bellhv.__file__).resolve().parents[1]))
    code = (
        "import sys, bellhv; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'bellhv'), bellhv.__version__)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.strip() == f"['bellhv'] {__version__}"
