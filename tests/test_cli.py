import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from cliffproxy import noise as nz
from cliffproxy import sdp
from cliffproxy.cli import main
from cliffproxy.scenarios import (
    ConfigError,
    default_config,
    emit_figure,
    run_scenario,
    validate_config,
)
from cliffproxy.seeding import seed_derive

SMALL_UNIFORMITY = {
    "widths": [2],
    "targets_per_kind": 2,
    "cliffordizations": 10,
    "min_depth": 5,
    "max_depth": 15,
}

SMALL_XEB = {
    "depths": [2, 4],
    "randomizations": 3,
    "shots": 500,
}

SMALL_SPAM = {
    "width": 4,
    "depths": [1],
    "randomizations": 2,
    "shots": 100,
    "calib_shots": 100,
    "layer_fit_depths": [2, 4, 8],
}


# each scenario at its smallest valid size: one target or randomization,
# width 2, depths 1 and 2
TINY = {
    **{
        scenario: {"widths": [2], "targets_per_kind": 1, "cliffordizations": 2,
                   "min_depth": 1, "max_depth": 2}
        for scenario in ("uniformity", "accuracy")
    },
    "spam-compare": {"width": 2, "depths": [1, 2], "randomizations": 1},
    "volumetric": {"widths": [2], "depths": [1, 2], "randomizations": 1},
    "xeb-compare": {"width": 2, "depths": [1, 2], "randomizations": 1},
}

# the CSV columns that hold text rather than numbers
TEXT_COLUMNS = {"experiment_id", "protocol", "pauli", "seed", "kind", "group", "series"}


class TestSeedDerive:
    def test_same_path_same_stream(self):
        a = seed_derive(7, "x", 1).integers(1 << 30, size=100)
        b = seed_derive(7, "x", 1).integers(1 << 30, size=100)
        assert np.array_equal(a, b)

    def test_sibling_paths_differ(self):
        a = seed_derive(7, "x", 1).integers(1 << 30, size=10_000)
        b = seed_derive(7, "x", 2).integers(1 << 30, size=10_000)
        c = seed_derive(8, "x", 1).integers(1 << 30, size=10_000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_equidistribution_smoke(self):
        # pooled uniforms from many derived streams pass a coarse moment check
        vals = np.concatenate(
            [seed_derive(3, "stream", k).random(1000) for k in range(20)]
        )
        assert abs(vals.mean() - 0.5) < 5 * np.sqrt(1 / 12 / len(vals))
        assert abs(np.mean(vals**2) - 1 / 3) < 5 * np.sqrt(0.1 / len(vals))
        # lag-1 correlation within one stream
        x = seed_derive(3, "corr").random(20_000)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(corr) < 5 / np.sqrt(len(x))


class TestConfigValidation:
    def test_defaults_exist_for_all_scenarios(self):
        for name in ("uniformity", "accuracy", "spam-compare", "volumetric", "xeb-compare"):
            cfg = default_config(name)
            assert cfg.scenario == name

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            default_config("nope")

    def test_unknown_fields_listed_exhaustively(self):
        with pytest.raises(ConfigError) as err:
            validate_config("uniformity", {"bogus": 1, "also_bad": 2}, 0, ".")
        msg = str(err.value)
        assert "bogus" in msg and "also_bad" in msg

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="widths"):
            validate_config("uniformity", {"widths": "two"}, 0, ".")

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="two_qubit_budget"):
            validate_config("uniformity", {"two_qubit_budget": 2.0}, 0, ".")
        with pytest.raises(ConfigError, match="cliffordizations"):
            validate_config("accuracy", {"cliffordizations": 1}, 0, ".")
        with pytest.raises(ConfigError, match="min_depth"):
            validate_config("uniformity", {"min_depth": 50, "max_depth": 20}, 0, ".")
        with pytest.raises(ConfigError) as err:
            validate_config(
                "uniformity", {"cliffordizations": 1, "min_depth": 9, "max_depth": 8}, 0, "."
            )
        assert "cliffordizations" in str(err.value) and "min_depth" in str(err.value)

    @pytest.mark.parametrize(
        "scenario, overrides, field",
        [
            ("uniformity", {"widths": ["a"]}, "widths"),
            ("uniformity", {"widths": [1]}, "widths"),
            ("volumetric", {"widths": [4, True]}, "widths"),
            ("accuracy", {"kinds": ["weird"]}, "kinds"),
            ("uniformity", {"kinds": []}, "kinds"),
            ("uniformity", {"widths": [12]}, "exact-folding limit"),
            ("accuracy", {"widths": [2, 11]}, "exact-folding limit"),
            ("xeb-compare", {"width": 11}, "exact-folding limit"),
            ("spam-compare", {"width": 1}, "width"),
            ("spam-compare", {"layer_fit_depths": [2, 4]}, "layer_fit_depths"),
            ("volumetric", {"layer_fit_depths": [2, 2, 4]}, "layer_fit_depths"),
            ("volumetric", {"depths": []}, "depths"),
            ("xeb-compare", {"depths": [2, 0]}, "depths"),
            ("spam-compare", {"markovian": False}, "markovian"),
            ("accuracy", {"widths": [4]}, "diamond-norm SDP limit"),
            ("spam-compare", {"calib_shots": 50}, "calib_shots"),
            ("spam-compare", {"width": 32}, "Pauli-sampling limit"),
            ("volumetric", {"widths": [4, 32]}, "Pauli-sampling limit"),
            ("spam-compare", {"width": 3.99}, "'width' expects an integer"),
            ("xeb-compare", {"shots": 2.5}, "'shots' expects an integer"),
            ("spam-compare", {"calib_shots": 100.9}, "'calib_shots' expects an integer"),
            ("uniformity", {"two_qubit_budget": 0, "one_qubit_budget": 0}, "both be 0"),
            ("accuracy", {"two_qubit_budget": 0.0, "one_qubit_budget": 0.0}, "both be 0"),
        ],
    )
    def test_fields_checked_up_front(self, scenario, overrides, field):
        with pytest.raises(ConfigError, match=field):
            validate_config(scenario, overrides, 0, ".")

    def test_integral_floats_and_one_zero_budget_accepted(self):
        cfg = validate_config("spam-compare", {"width": 4.0, "calib_shots": 200.0}, 0, ".")
        assert cfg.params["width"] == 4 and type(cfg.params["width"]) is int
        assert type(cfg.params["calib_shots"]) is int
        validate_config("accuracy", {"two_qubit_budget": 0.0}, 0, ".")
        validate_config("volumetric", {"two_qubit_budget": 0.0, "one_qubit_budget": 0.0}, 0, ".")

    def test_list_problems_listed_together(self):
        with pytest.raises(ConfigError) as err:
            validate_config(
                "volumetric", {"widths": ["a"], "depths": [], "layer_fit_depths": [2, 4]}, 0, "."
            )
        msg = str(err.value)
        assert "'widths'" in msg and "'depths'" in msg and "'layer_fit_depths'" in msg
        # a depth-0 decay point is a valid fit depth
        validate_config("volumetric", {"layer_fit_depths": [0, 2, 4]}, 0, ".")

    def test_paper_scale_overrides(self):
        small = default_config("uniformity")
        big = default_config("uniformity", paper_scale=True)
        assert small.params["cliffordizations"] == 100
        assert big.params["cliffordizations"] == 500
        assert big.params["targets_per_kind"] == 100

    def test_published_sampling_budgets(self):
        vol = default_config("volumetric").params
        assert (vol["randomizations"], vol["shots"]) == (50, 1000)
        xebc = default_config("xeb-compare").params
        assert (xebc["randomizations"], xebc["shots"]) == (20, 10000)
        spam = default_config("spam-compare").params
        assert spam["width"] == 15
        assert spam["depths"] == [4, 8, 12, 16, 20]
        assert spam["scrambler_depth"] == 4

    def test_config_hash_stable_and_sensitive(self):
        a = validate_config("uniformity", SMALL_UNIFORMITY, 1, "out")
        b = validate_config("uniformity", SMALL_UNIFORMITY, 1, "elsewhere")
        c = validate_config("uniformity", SMALL_UNIFORMITY, 2, "out")
        assert a.config_hash() == b.config_hash()  # out_dir not part of identity
        assert a.config_hash() != c.config_hash()


class TestRunScenario:
    def test_uniformity_outputs_and_determinism(self, tmp_path):
        cfg1 = validate_config("uniformity", SMALL_UNIFORMITY, 5, str(tmp_path / "a"))
        cfg2 = validate_config("uniformity", SMALL_UNIFORMITY, 5, str(tmp_path / "b"))
        m1 = run_scenario(cfg1)
        m2 = run_scenario(cfg2)
        assert m1.config_hash == m2.config_hash
        for name in m1.files:
            with open(tmp_path / "a" / name, "rb") as f1, open(tmp_path / "b" / name, "rb") as f2:
                assert f1.read() == f2.read(), name
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        for name in manifest["files"]:
            assert (tmp_path / "a" / name).exists()

    def test_results_csv_schema(self, tmp_path):
        cfg = validate_config("uniformity", SMALL_UNIFORMITY, 5, str(tmp_path))
        run_scenario(cfg)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == (
            "experiment_id,protocol,n,depth,randomization_id,pauli,estimate,stderr,shots,seed"
        )

    def test_figures_regenerate_identically(self, tmp_path):
        cfg = validate_config("uniformity", SMALL_UNIFORMITY, 5, str(tmp_path))
        run_scenario(cfg)
        svg = (tmp_path / "uniformity_cov_hist.svg").read_text()
        again = emit_figure(str(tmp_path / "uniformity_summary.csv"), "hist")
        assert svg == again

    def test_single_randomization_xeb_compare_warns_nothing(self, tmp_path):
        overrides = dict(SMALL_XEB, depths=[2], randomizations=1)
        cfg = validate_config("xeb-compare", overrides, 4, str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(cfg)
        with open(tmp_path / "xeb_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["stderr"] == "nan" for r in rows)
        assert all(math.isfinite(float(r["mean"])) for r in rows)

    def test_spam_compare_mitigation_ordering(self, tmp_path):
        overrides = {"depths": [4, 8], "randomizations": 8, "shots": 200,
                     "layer_fit_depths": [2, 4, 8], "calib_shots": 2000}
        cfg = validate_config("spam-compare", overrides, 2, str(tmp_path))
        run_scenario(cfg)
        with open(tmp_path / "spam_compare_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_depth: dict = {}
        for r in rows:
            by_depth.setdefault(r["depth"], {})[r["series"]] = float(r["mean"])
        for series in by_depth.values():
            for name in ("reference", "readout", "layer_fidelity"):
                assert series["unmitigated"] < series[name]

    def test_spam_compare_records_failures(self, tmp_path):
        # SPAM at the validity edge leaves no positive decay point to fit,
        # so every cell records the failed layer fit and the run goes on
        overrides = dict(SMALL_SPAM, width=3, depths=[2], prep_error=0.45, meas_error=0.45)
        run_scenario(validate_config("spam-compare", overrides, 0, str(tmp_path)))
        with open(tmp_path / "results.csv", newline="") as fh:
            failed = [r for r in csv.DictReader(fh) if r["protocol"].endswith("_failed")]
        assert "layer_fidelity_failed" in {r["protocol"] for r in failed}
        assert all(r["seed"] and r["estimate"] == "" for r in failed)
        with open(tmp_path / "spam_compare_summary.csv", newline="") as fh:
            series = {r["series"] for r in csv.DictReader(fh)}
        assert "layer_fidelity" not in series and "unmitigated" in series


    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_spam_compare_readout_divisor_floor(self, tmp_path, seed):
        # every qubit's calibration passes, but the sampled Paulis' readout
        # divisors fall to 1.6e-4, 7.6e-4 and 5.2e-5 at these seeds, which
        # once wrote estimates of -9.88, -0.198 and 30.10 as valid
        overrides = dict(width=3, depths=[2], prep_error=0.45, meas_error=0.45, calib_shots=100)
        run_scenario(validate_config("spam-compare", overrides, seed, str(tmp_path)))
        with open(tmp_path / "results.csv", newline="") as fh:
            protocols = {r["protocol"] for r in csv.DictReader(fh)}
        assert "readout_failed" in protocols
        assert not protocols & {"readout", "readout_pauli"}


# two widths of one target per kind: the n=2 SDPs are solved in one call,
# then the n=3 ones
ACCURACY_TWO_WIDTHS = {
    "widths": [2, 3],
    "targets_per_kind": 1,
    "cliffordizations": 3,
    "min_depth": 2,
    "max_depth": 4,
}


class TestPartialAccuracyRun:
    """A run that fails at its k-th target stops as it did when each target's
    SDP was solved with it: the same error and exit code 3, and a partial
    results.csv with every earlier target's rows and none of the k-th's."""

    @staticmethod
    def _run(tmp_path, name, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(ACCURACY_TWO_WIDTHS))
        out = tmp_path / name
        rc = main(["run", "accuracy", "--config", str(cfg_file), "--seed", "2", "--out", str(out)])
        return rc, out, capsys.readouterr().err

    def _expected_partial(self, tmp_path, capsys, k):
        rc, out, _ = self._run(tmp_path, "full", capsys)
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines(keepends=True)
        ids = list(dict.fromkeys(line.split(",")[0] for line in lines[1:]))
        assert len(ids) == 4
        return "".join(lines[:1] + [line for line in lines[1:] if line.split(",")[0] in ids[:k]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_failed_sdp(self, tmp_path, capsys, monkeypatch, k):
        # k = 1 fails the second n=2 target, k = 2 the first n=3 one
        expected = self._expected_partial(tmp_path, capsys, k)
        error = sdp.SdpConvergenceError(
            "diamond SDP stalled at duality gap 1.000e-03 (required 1.0e-08)", 1e-3
        )
        solve, solved = sdp.solve_diamond_sdps, []

        def failing(deltas, d_in):
            outcomes = solve(deltas, d_in)
            for i in range(len(outcomes)):
                if len(solved) == k:
                    outcomes[i] = error
                solved.append(i)
            return outcomes

        monkeypatch.setattr(sdp, "solve_diamond_sdps", failing)
        rc, out, err = self._run(tmp_path, "failed", capsys)
        assert rc == 3
        assert err == f"error: {error}\n"
        assert (out / "results.csv").read_text() == expected
        assert not (out / "manifest.json").exists()
        solved.clear()
        with pytest.raises(sdp.SdpConvergenceError) as raised:
            run_scenario(validate_config("accuracy", ACCURACY_TWO_WIDTHS, 2, str(tmp_path / "api")))
        assert raised.value is error

    def test_failed_fold_keeps_earlier_diamond_rows(self, tmp_path, capsys, monkeypatch):
        # the second n=2 target fails before its SDP: the first one's SDP
        # is still solved and its rows written
        expected = self._expected_partial(tmp_path, capsys, 1)
        fold, calls = nz.cliffordization_infidelities, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("fold failed")
            return fold(*args)

        monkeypatch.setattr(nz, "cliffordization_infidelities", failing)
        rc, out, err = self._run(tmp_path, "failed", capsys)
        assert rc == 3
        assert err == "error: fold failed\n"
        assert (out / "results.csv").read_text() == expected


class TestCliCommands:
    def test_run_and_plot(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        for scenario, overrides, summary in (
            ("xeb-compare", SMALL_XEB, "xeb_summary.csv"),
            # depth 1 once stopped part-way (exit 3): the layer fit's second
            # brick parity had no noise entry
            ("spam-compare", SMALL_SPAM, "spam_compare_summary.csv"),
        ):
            cfg_file.write_text(json.dumps(overrides))
            out = tmp_path / scenario
            rc = main(
                ["run", scenario, "--config", str(cfg_file), "--seed", "3",
                 "--out", str(out)]
            )
            assert rc == 0
            assert (out / "results.csv").exists()
            svg_out = tmp_path / "fig.svg"
            rc = main(["plot", str(out / summary), "--kind", "bars",
                       "--out", str(svg_out)])
            assert rc == 0
            assert svg_out.read_text().startswith("<svg")

    @pytest.mark.parametrize("scenario", sorted(TINY))
    def test_smallest_config_writes_plain_cells(self, tmp_path, scenario):
        # one observable once gave an np.float64 stderr, written as
        # "np.float64(...)", and the run stopped reading it back (exit 3)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(TINY[scenario]))
        out = tmp_path / "out"
        assert main(["run", scenario, "--config", str(cfg_file), "--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert tables
        for path in tables:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, path.name
            for row in rows:
                for column, cell in row.items():
                    assert not cell.startswith("np."), (path.name, column, cell)
                    if cell in ("", "true", "false") or column in TEXT_COLUMNS:
                        continue
                    float(cell)

    def test_bad_config_exit_code(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus_field": True}))
        rc = main(
            ["run", "uniformity", "--config", str(cfg_file), "--out", str(tmp_path)]
        )
        assert rc == 2
        # rejected before the run, not part-way through its fold loop
        cfg_file.write_text(json.dumps({**SMALL_UNIFORMITY, "cliffordizations": 1}))
        rc = main(
            ["run", "uniformity", "--config", str(cfg_file), "--out", str(tmp_path / "run")]
        )
        assert rc == 2
        assert not (tmp_path / "run").exists()
        for scenario, bad in (
            ("uniformity", {"widths": ["a"]}),
            ("uniformity", {"kinds": ["weird"]}),
            ("uniformity", {"widths": [12]}),
            ("accuracy", {"widths": [4]}),
        ):
            cfg_file.write_text(json.dumps({**SMALL_UNIFORMITY, **bad}))
            rc = main(
                ["run", scenario, "--config", str(cfg_file), "--out", str(tmp_path / "run")]
            )
            assert rc == 2
            assert not (tmp_path / "run").exists()
        # small runs that would otherwise stop part-way with exit code 3
        small_dfe = {"depths": [2], "randomizations": 1, "shots": 100}
        for scenario, bad in (
            ("spam-compare", {"width": 4, "calib_shots": 50}),
            ("spam-compare", {"width": 32}),
            ("volumetric", {"widths": [32]}),
        ):
            cfg_file.write_text(json.dumps({**small_dfe, **bad}))
            rc = main(
                ["run", scenario, "--config", str(cfg_file), "--out", str(tmp_path / "run")]
            )
            assert rc == 2
            assert not (tmp_path / "run").exists()

    def test_unreadable_config_exit_code(self, tmp_path):
        rc = main(["run", "uniformity", "--config", str(tmp_path / "missing.json")])
        assert rc == 2

    def test_validate_command(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"scenario": "xeb-compare", **SMALL_XEB}))
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "xeb-compare", "nonsense": 1}))
        assert main(["validate", str(bad)]) == 2
        missing_scenario = tmp_path / "none.json"
        missing_scenario.write_text(json.dumps({"seed": 1}))
        assert main(["validate", str(missing_scenario)]) == 2

    def test_plot_missing_file_exit_code(self, tmp_path):
        rc = main(["plot", str(tmp_path / "none.csv"), "--kind", "hist"])
        assert rc == 3

    def test_plot_empty_data_is_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("value\n")
        rc = main(["plot", str(empty), "--kind", "hist"])
        assert rc == 3
