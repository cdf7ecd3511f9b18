"""Config schema, run/sweep commands, CSV round-trip, exit-code contract."""

import csv
import json
import math
import sys

import pytest

from drcbf import cli, simulate
from drcbf.acc import DEFAULT_SEED, AccParameters, summarize_log
from drcbf.cli import (
    ConfigError,
    case_document,
    execute_document,
    main,
    prepare_run,
    validate_document,
    write_trajectory_csv,
    _split_values,
)
from drcbf.robust import optimal_k
from drcbf.simulate import TrajectoryLog, run_simulation

from oracles import read_trajectory_csv


def quiet_doc(controller="drcbf", horizon=0.5, **extra):
    """Disturbance-free short run: the robust cascades collapse to nominal."""
    doc = {"controller": controller, "horizon": horizon, "output": {"plots": False}}
    doc.update(extra)
    return doc


def pushed_doc(horizon=1.0):
    """Tight initial margin plus a constant unmodeled push on the gap rate:
    the nominal controller loses the safety margin within the first second."""
    return {
        "controller": "hocbf",
        "horizon": horizon,
        "parameters": {"initial_state": [10.5, 20.0]},
        "disturbance": {
            "channels": [
                [{"type": "constant", "value": -3.0}],
                [{"type": "constant", "value": 0.0}],
            ]
        },
        "output": {"plots": False},
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSchema:
    def test_minimal_document_passes(self):
        validate_document({"controller": "drcbf"})

    def test_controller_is_required(self):
        with pytest.raises(ConfigError) as err:
            validate_document({})
        assert "controller" in str(err.value)

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError) as err:
            validate_document({"controller": "drcbf", "bogus": 1})
        assert "bogus" in str(err.value)

    def test_unknown_nested_key_points_at_the_section(self):
        with pytest.raises(ConfigError) as err:
            validate_document({"controller": "drcbf", "gains": {"zeta": 1.0}})
        assert err.value.key_path == "gains"
        assert "zeta" in str(err.value)

    def test_nonpositive_horizon_points_at_the_key(self):
        with pytest.raises(ConfigError) as err:
            validate_document({"controller": "drcbf", "horizon": -1.0})
        assert err.value.key_path == "horizon"

    def test_unknown_controller_value(self):
        with pytest.raises(ConfigError) as err:
            validate_document({"controller": "bang-bang"})
        assert err.value.key_path == "controller"

    def test_case_and_disturbance_are_mutually_exclusive(self):
        doc = {
            "controller": "drcbf",
            "case": 1,
            "disturbance": {"channels": [[], []]},
        }
        with pytest.raises(ConfigError) as err:
            validate_document(doc)
        assert err.value.key_path == "case"

    def test_channel_count_is_fixed(self):
        doc = {"controller": "drcbf", "disturbance": {"channels": [[]]}}
        with pytest.raises(ConfigError) as err:
            validate_document(doc)
        assert "disturbance" in err.value.key_path

    def test_incomplete_wave_term_rejected(self):
        doc = {
            "controller": "drcbf",
            "disturbance": {
                "channels": [[{"type": "sinusoid", "amplitude": 1.0}], []]
            },
        }
        with pytest.raises(ConfigError):
            validate_document(doc)

    def test_case_export_round_trips(self):
        doc = case_document(1, "drcbf")
        assert doc == {"case": 1, "controller": "drcbf"}
        with_extras = case_document(3, "adrcbf", horizon=12.0, seed=7)
        validate_document(with_extras)
        assert with_extras["horizon"] == 12.0

    def test_case_export_validates_overrides(self):
        with pytest.raises(ConfigError):
            case_document(1, "drcbf", bogus=1)


class TestPrepareRun:
    def test_explicit_channels_set_the_bound(self):
        doc = pushed_doc()
        doc["controller"] = "drcbf"
        config, _, _ = prepare_run(doc)
        assert config.disturbance is not None
        assert config.controller.chain.disturbance_bound == pytest.approx(
            3.0, rel=1e-15
        )

    def test_explicit_gains_reach_the_cascade(self):
        doc = quiet_doc(gains={"k": [0.2, 0.3]})
        config, _, _ = prepare_run(doc)
        assert config.controller.chain.k == (0.2, 0.3)

    def test_optimal_gain_request_derives_from_the_bound(self):
        doc = {"controller": "drcbf", "case": 3, "gains": {"use_optimal_k": True}}
        config, _, _ = prepare_run(doc)
        assert config.controller.chain.k == optimal_k(
            (1.0, 1.0), config.controller.chain.disturbance_bound
        )

    def test_adaptive_rates_reach_the_cascade(self):
        doc = {"controller": "adrcbf", "case": 2, "gains": {"adaptive": [4.0, 9.0]}}
        config, _, _ = prepare_run(doc)
        assert config.controller.chain.r == (4.0, 9.0)

    def test_bad_parameters_become_config_errors(self):
        doc = quiet_doc(parameters={"initial_state": [5.0, 13.89]})
        with pytest.raises(ConfigError) as err:
            prepare_run(doc)
        assert err.value.key_path == "parameters"

    def test_defaults_recorded_in_metadata(self):
        _, _, meta = prepare_run({"controller": "drcbf"})
        assert meta["seed"] == DEFAULT_SEED
        assert meta["horizon"] == 30.0
        assert meta["control_period"] == 1e-3


class TestExitCodes:
    def test_clean_run_writes_artifacts(self, tmp_path):
        doc = quiet_doc()
        doc["output"]["plots"] = True
        code, summary = execute_document(doc, out_dir=tmp_path)
        assert code == 0
        assert summary["exit_code"] == 0
        assert summary["violation"] is False
        assert summary["wall_clock_seconds"] > 0.0
        assert summary["min_distance_required"] == 10.0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.json").exists()
        speed = (tmp_path / "speed.svg").read_text()
        dist = (tmp_path / "distance.svg").read_text()
        assert speed.startswith("<svg") and "polyline" in speed
        assert dist.startswith("<svg") and "polyline" in dist

    def test_plots_can_be_disabled(self, tmp_path):
        code, _ = execute_document(quiet_doc(), out_dir=tmp_path)
        assert code == 0
        assert not (tmp_path / "speed.svg").exists()
        assert not (tmp_path / "distance.svg").exists()

    def test_violation_exits_two(self, tmp_path):
        code, summary = execute_document(pushed_doc(), out_dir=tmp_path)
        assert code == 2
        assert summary["violation"] is True
        assert summary["min_distance"] < 10.0

    def test_fault_exits_three_and_beats_violation(self, tmp_path, monkeypatch):
        doc = pushed_doc()
        config, _, _ = prepare_run(doc)
        log = run_simulation(config)
        assert not log.failed
        log.failed = True
        log.failure_reason = "forced fault for the exit-code contract"
        monkeypatch.setattr("drcbf.cli.run_simulation", lambda _config: log)
        code, summary = execute_document(doc, out_dir=tmp_path)
        assert code == 3
        assert summary["violation"] is True
        assert summary["failed"] is True

    def test_initial_state_outside_the_set_is_a_config_error(self, tmp_path):
        doc = quiet_doc(parameters={"initial_state": [10.5, 30.0]}, case=1)
        del doc["horizon"]
        doc["horizon"] = 0.5
        with pytest.raises(ConfigError):
            execute_document(doc, out_dir=tmp_path)


class TestCsvContract:
    def test_round_trip_is_bitwise(self, tmp_path):
        doc = case_document(1, "drcbf", horizon=0.2, output={"plots": False})
        config, _, _ = prepare_run(doc)
        log = run_simulation(config)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, log)
        cols = read_trajectory_csv(path)
        assert list(cols) == [
            "t", "D", "v_f", "u", "slack", "d_u", "d_m",
            "phi_0", "phi_1", "cbf_residual", "clf_residual", "qp_status",
        ]
        n = len(log.times)
        assert all(len(v) == n for v in cols.values())
        for i in range(n):
            assert cols["t"][i] == log.times[i]
            assert cols["D"][i] == log.states[i][0]
            assert cols["v_f"][i] == log.states[i][1]
            assert cols["u"][i] == log.controls[i][0]
            assert cols["slack"][i] == log.slacks[i]
            assert cols["d_u"][i] == log.disturbances[i][0]
            assert cols["d_m"][i] == log.disturbances[i][1]
            assert cols["phi_0"][i] == log.phi[i][0]
            assert cols["phi_1"][i] == log.phi[i][1]
            assert cols["cbf_residual"][i] == log.cbf_residuals[i]
            assert cols["clf_residual"][i] == log.clf_residuals[i]
            assert cols["qp_status"][i] == log.qp_statuses[i]

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.min, 1e16]
    )
    def test_percent_format_writes_what_format_writes(self, value):
        assert "%.17g" % value == format(value, ".17g")

    def test_file_matches_a_csv_writer(self, tmp_path):
        doc = case_document(3, "adrcbf", horizon=0.3, output={"plots": False})
        config, _, _ = prepare_run(doc)
        log = run_simulation(config)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, log)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(read_trajectory_csv(path))
            for i in range(len(log)):
                figures = (
                    log.times[i], *log.states[i], log.controls[i][0], log.slacks[i],
                    *log.disturbances[i], *log.phi[i], log.cbf_residuals[i], log.clf_residuals[i],
                )
                writer.writerow([format(v, ".17g") for v in figures] + [log.qp_statuses[i]])
        assert path.read_bytes() == expected.read_bytes()

    def test_unsolved_step_writes_nan_for_the_control(self, tmp_path):
        log = TrajectoryLog(n=2, p=1, q=2, levels=2)
        log.record(0.0, (12.5, -0.0), (), math.nan, (0.0, 1e16), (5e-324, math.inf),
                   math.nan, -math.inf, "infeasible", 0, ())
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, log)
        assert path.read_bytes().splitlines()[1] == (
            b"0,12.5,-0,nan,nan,0,10000000000000000,4.9406564584124654e-324,inf,nan,-inf,infeasible"
        )
        assert math.isnan(read_trajectory_csv(path)["u"][0])

    def test_a_log_of_another_shape_is_refused(self, tmp_path):
        # The CSV's columns are an ACC log's row: n, p, q = 2, 1, 2.
        log = TrajectoryLog(n=3, p=1, q=2, levels=2)
        with pytest.raises(ValueError, match="not an ACC log"):
            write_trajectory_csv(tmp_path / "trajectory.csv", log)

    def test_safety_binding_fraction_matches_the_csv_residuals(self, tmp_path, monkeypatch):
        # The safety row binds exactly where its residual is zero: the
        # summary's share of steps with the row in the QP's active set must
        # be the share of CSV rows with |cbf_residual| <= 1e-9, row for row.
        logs = []

        def kept(config):
            logs.append(run_simulation(config))
            return logs[-1]

        monkeypatch.setattr(cli, "run_simulation", kept)
        doc = case_document(1, "drcbf", output={"plots": False})
        execute_document(doc, out_dir=tmp_path)
        residuals = read_trajectory_csv(tmp_path / "trajectory.csv")["cbf_residual"]
        written = json.loads((tmp_path / "summary.json").read_text())
        (log,) = logs
        disagree = [
            (i, log.times[i], log.active_sets[i], r)
            for i, r in enumerate(residuals)
            if (1 in log.active_sets[i]) != (abs(r) <= 1e-9)
        ]
        assert not disagree, f"rows (index, t, active set, cbf_residual) that disagree: {disagree}"
        binding = sum(abs(r) <= 1e-9 for r in residuals)
        assert 0 < binding < len(residuals) == 30000
        assert written["safety_binding_fraction"] == binding / len(residuals)

    def test_slack_figures_match_the_csv_slack_column(self, tmp_path):
        # The CSV writes every slack with 17 significant digits, so the
        # column reads back exactly; every step of this run is solved.
        doc = case_document(1, "drcbf", output={"plots": False})
        execute_document(doc, out_dir=tmp_path)
        cols = read_trajectory_csv(tmp_path / "trajectory.csv")
        written = json.loads((tmp_path / "summary.json").read_text())
        assert set(cols["qp_status"]) == {"optimal"}
        slacks = cols["slack"]
        assert len(slacks) == 30000 and max(slacks) > 0.0
        assert written["slack_max"] == max(slacks)
        assert written["slack_mean"] == sum(slacks) / len(slacks)

    def test_slack_figures_skip_unsolved_steps(self):
        log = TrajectoryLog(n=2, p=1, q=2, levels=2, final_state=(50.0, 20.0), failed=True)
        log.record(0.0, (50.0, 20.0), (1.0,), 0.5, (0.0, 0.0), (1.0, 1.0),
                   0.0, 0.0, "optimal", 0, (0,))
        log.record(1e-3, (50.0, 20.0), (), math.nan, (0.0, 0.0), (1.0, 1.0),
                   math.nan, math.nan, "infeasible", 0, ())
        summary = summarize_log(log, AccParameters())
        assert summary["slack_max"] == summary["slack_mean"] == 0.5
        log.qp_statuses[0] = "infeasible"
        summary = summarize_log(log, AccParameters())
        assert summary["slack_max"] is None and summary["slack_mean"] is None

    def test_summary_counts_the_steps_the_generated_loop_handed_back(self, tmp_path, monkeypatch):
        doc = case_document(1, "adrcbf", horizon=0.5, output={"plots": False})
        execute_document(doc, out_dir=tmp_path / "traced")
        written = json.loads((tmp_path / "traced" / "summary.json").read_text())
        assert written["fallback_steps"] == 0
        monkeypatch.setattr(simulate, "_compile_loop", lambda config, log: None)
        execute_document(doc, out_dir=tmp_path / "untraced")
        written = json.loads((tmp_path / "untraced" / "summary.json").read_text())
        assert written["fallback_steps"] == written["records"] == 500
        traced = (tmp_path / "traced" / "trajectory.csv").read_bytes()
        assert (tmp_path / "untraced" / "trajectory.csv").read_bytes() == traced

    def test_summary_min_distance_matches_the_csv_column(self, tmp_path):
        code, summary = execute_document(pushed_doc(), out_dir=tmp_path)
        cols = read_trajectory_csv(tmp_path / "trajectory.csv")
        written = json.loads((tmp_path / "summary.json").read_text())
        assert min(cols["D"]) == summary["min_distance"]
        assert written["min_distance"] == summary["min_distance"]
        assert written["exit_code"] == code


class TestCommandLine:
    def test_run_command_succeeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quiet_doc())
        out = tmp_path / "artifacts"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert "ok" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"controller": "drcbf", "bogus": 1})
        assert main(["run", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [None, 1])
    def test_infinite_horizon_exits_one(self, tmp_path, capsys, case):
        # With a case the disturbance's realization rejects the horizon,
        # without one the run's configuration does.
        doc = quiet_doc(horizon=math.inf)
        if case is not None:
            doc["case"] = case
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "horizon must be finite" in capsys.readouterr().err

    def test_a_horizon_of_more_periods_than_a_float_holds_exits_one(self, tmp_path, capsys):
        # 1e306 / 1e-3 overflows to inf, so the run has no step count.
        cfg = write_config(tmp_path, quiet_doc(horizon=1e306))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "more control periods than a float holds" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 1

    def test_controller_override_wins(self, tmp_path):
        cfg = write_config(tmp_path, quiet_doc(controller="hocbf"))
        out = tmp_path / "artifacts"
        assert main(["run", str(cfg), "--controller", "drcbf", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controller"] == "drcbf"

    def test_violation_exit_code_propagates(self, tmp_path):
        cfg = write_config(tmp_path, pushed_doc())
        assert main(["run", str(cfg), "--out", str(tmp_path / "v")]) == 2

    def test_quiet_robust_run_matches_nominal(self, tmp_path):
        for controller, sub in (("drcbf", "a"), ("hocbf", "b")):
            cfg = write_config(tmp_path, quiet_doc(controller), f"{sub}.json")
            assert main(["run", str(cfg), "--out", str(tmp_path / sub)]) == 0
        one = read_trajectory_csv(tmp_path / "a" / "trajectory.csv")
        two = read_trajectory_csv(tmp_path / "b" / "trajectory.csv")
        for column in ("D", "v_f", "u", "slack"):
            gap = max(abs(p - q) for p, q in zip(one[column], two[column]))
            assert gap <= 1e-9

    def test_single_value_sweep_equals_a_run(self, tmp_path):
        cfg = write_config(tmp_path, quiet_doc(horizon=1.0))
        run_out = tmp_path / "single"
        sweep_out = tmp_path / "swept"
        assert main(["run", str(cfg), "--horizon", "0.3", "--out", str(run_out)]) == 0
        assert (
            main(
                [
                    "sweep", str(cfg),
                    "--param", "horizon",
                    "--values", "0.3",
                    "--out", str(sweep_out),
                    "--jobs", "1",
                ]
            )
            == 0
        )
        swept = sweep_out / "00_horizon_0.3" / "trajectory.csv"
        assert swept.read_bytes() == (run_out / "trajectory.csv").read_bytes()
        assert (sweep_out / "sweep_summary.csv").exists()

    def test_sweep_writes_a_comparison_table(self, tmp_path):
        doc = case_document(3, "drcbf", horizon=0.3, output={"plots": False})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", str(cfg),
                "--param", "gains.k_multiplier",
                "--values", "1,20",
                "--out", str(out),
                "--jobs", "1",
            ]
        )
        assert code == 0
        table = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert table[0].startswith("param,value,exit_code")
        assert len(table) == 3
        for line in table[1:]:
            cells = line.split(",")
            assert cells[0] == "gains.k_multiplier"
            assert math.isfinite(float(cells[5]))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_rejected_member_ends_only_its_own_run(self, tmp_path, capsys, jobs):
        # A 5 m initial gap is inside the 10 m floor: prepare_run rejects it.
        cfg = write_config(tmp_path, quiet_doc(horizon=0.2))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", str(cfg),
                "--param", "parameters.initial_state",
                "--values", "[100.0,20.0],[5.0,20.0],[80.0,20.0]",
                "--out", str(out),
                "--jobs", jobs,
            ]
        )
        assert code == 1
        assert "minimum gap" in capsys.readouterr().err
        table = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert [line.split('"')[2].split(",")[1] for line in table[1:]] == ["0", "1", "0"]
        assert (out / "00_parameters_initial_state__100.0__20.0_" / "trajectory.csv").exists()
        assert (out / "02_parameters_initial_state__80.0__20.0_" / "trajectory.csv").exists()

    def test_an_infinite_horizon_ends_only_its_own_member(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quiet_doc(case=1))
        out = tmp_path / "sweep"
        code = main(["sweep", str(cfg), "--param", "horizon", "--values", "0.2,Infinity",
                     "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert "horizon must be finite" in capsys.readouterr().err
        table = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert [line.split(",")[1:3] for line in table[1:]] == [["0.2", "0"], ["Infinity", "1"]]

    def test_a_horizon_of_too_many_periods_ends_only_its_own_member(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quiet_doc())
        out = tmp_path / "sweep"
        code = main(["sweep", str(cfg), "--param", "horizon", "--values", "0.2,1e306",
                     "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert "more control periods than a float holds" in capsys.readouterr().err
        table = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert [line.split(",")[1:3] for line in table[1:]] == [["0.2", "0"], ["1e+306", "1"]]

    def test_sweep_rejects_unknown_parameter_paths(self, tmp_path):
        cfg = write_config(tmp_path, quiet_doc())
        code = main(
            [
                "sweep", str(cfg),
                "--param", "bogus",
                "--values", "1,2",
                "--out", str(tmp_path / "s"),
                "--jobs", "1",
            ]
        )
        assert code == 1

    def test_sweep_rejects_empty_value_lists(self, tmp_path):
        cfg = write_config(tmp_path, quiet_doc())
        code = main(
            [
                "sweep", str(cfg),
                "--param", "horizon",
                "--values", " ,",
                "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1

    def test_value_list_parsing(self):
        assert _split_values("0.2,1,10,20") == [0.2, 1, 10, 20]
        assert _split_values("[1,2],[3,4]") == [[1, 2], [3, 4]]
        assert _split_values("abc") == ["abc"]


@pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
def test_a_run_writes_nothing_to_stdout_or_stderr(mode, tmp_path, capfd, monkeypatch):
    # Callers such as a benchmark read a result line from stdout; the run
    # itself, traced or falling back step by step, prints nothing.
    doc = case_document(1, mode, horizon=1.0)
    cli.execute_document(doc, out_dir=tmp_path / "traced")
    monkeypatch.setattr(simulate, "_compile_loop", lambda config, log: None)
    cli.execute_document(doc, out_dir=tmp_path / "fallback")
    assert capfd.readouterr() == ("", "")
