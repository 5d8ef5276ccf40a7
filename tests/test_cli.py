import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import fanshift
import numpy as np
import pytest
import yaml

from fanshift import cli, compare, data_io, engine, errors, metrics, tracefile
from fanshift.errors import ConfigurationError, NumericalError, TuningError

from conftest import count_marches, make_trace, quick_scenario, use_cpus

CLOSED_LOOP_3H = """\
scenario_id: short
mode: closed_loop
dt_s: 10.0
warmup_s: 7200
settle_duration_s: 10800
building:
  mix_r: 0.5
  mix_c: 0.3
event:
  kind: UP_DOWN
  half_duration_s: 1800
  power_delta_frac: 0.10
"""


class TestWindowLabels:
    def test_full_row_labelled_with_settling_window(self, tmp_path):
        config = tmp_path / "short.yaml"
        config.write_text(CLOSED_LOOP_3H)
        code = cli.main(["simulate", "--config", str(config),
                         "--out", str(tmp_path), "--window", "both"])
        assert code == 0
        rows = data_io.read_results(tmp_path / "short_metrics.csv")
        assert [r.window_hr for r in rows] == [3.0, 2.0]

    def test_unknown_window_rejected(self, tmp_path):
        config = tmp_path / "short.yaml"
        config.write_text(CLOSED_LOOP_3H)
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match="unknown window"):
            cli.cmd_simulate(config=config, out=out, dt=None, window="bogus",
                             tune_neutral=False)
        assert not out.exists()


class TestDriftSlope:
    @pytest.mark.parametrize("dt", [1.0, 2.0])
    def test_ramp(self, dt):
        # a 50 W step at event start, then a 0.25 W/s ramp
        t = np.arange(0.0, 4000.0 + dt, dt)
        t_start = 1000.0
        diff = np.where(t >= t_start, 50.0 + 0.25 * (t - t_start), 0.0)
        event = make_trace(t, 1000.0 + diff)
        baseline = make_trace(t, np.full_like(t, 1000.0))
        step0, slope = compare._drift_slope(event, baseline, t_start)
        assert step0 == pytest.approx(50.0 + 0.25 * 120.0)
        assert slope == pytest.approx(0.25)

    def test_coarse_dt_rejected(self):
        t = np.arange(0.0, 12000.0, 1200.0)
        trace = make_trace(t, np.full_like(t, 1000.0))
        with pytest.raises(ConfigurationError, match="drift window"):
            compare._drift_slope(trace, trace, 1200.0)


# the scenario ids of forced-settling's outdoor-step cases, in case order
OA_STEP_CASES = [f"{case}_{kind}" for case in list(cli.STUDY_CASES)[2:]
                 for kind in ("UP_DOWN", "DOWN_UP")]


class TestForcedSettlingMarches:
    def test_each_distinct_run_marched_once(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)
        calls = count_marches(monkeypatch)
        # 200 s divides every study duration; the self-check may fail there
        code = cli.main(["forced-settling", "--dt", "200", "--out", str(tmp_path)])
        assert code in (0, 3)
        # 10 events and 2 baselines, the flat and the stepped forecast
        assert len(calls) == 12
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 24

    @pytest.mark.parametrize("step", [
        ["--step-offset", "1e9"],    # far past the horizon
        ["--step-offset", "35000"],  # at the last sample, t_settle
        ["--step-f", "0"],
        ["--step-offset", "34900"],  # at 42,100 s, after the last input read
        ["--step-offset", "-7100"],  # before event start
        ["--step-offset", "-7200"],  # at t=0
    ])
    def test_step_that_never_happens_exits_1(self, tmp_path, capsys, monkeypatch, step):
        # the oa_step rows would be copies of the forced ones, mislabelled
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["forced-settling", "--dt", "200", *step, "--out", str(out)]) == 1
        assert "oa_step cases need" in capsys.readouterr().err
        assert not calls and not out.exists()

    @pytest.mark.parametrize("offset, copied", [
        # the forecast is read only while the power loop is engaged, to 7,180 s
        # after event start, and reaches the baseline's power two steps late
        ("7200", ["oa_step_prediction_only_UP_DOWN", "oa_step_prediction_only_DOWN_UP"]),
        # three steps before t_settle the step moves event and counterfactual alike
        ("34940", OA_STEP_CASES),
        ("900", []),  # perfbench's largest offset
    ], ids=["prediction-only", "all-oa-step", "none"])
    def test_step_that_moves_no_metric_exits_3(self, tmp_path, capsys, offset, copied):
        out = tmp_path / "out"
        code = cli.main(["forced-settling", "--dt", "20", "--step-offset", offset,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == (3 if copied else 0)
        assert [sid for sid in OA_STEP_CASES if sid in err] == copied
        # every row and trace is still written
        assert len(data_io.read_results(out / "settling_study.csv")) == 10
        assert len(list((out / "traces").glob("*.csv"))) == 24


MEASURED_COLUMNS = ["--column-map", "time=ts,power=fan"]


class TestRejectedCommandWritesNothing:
    @pytest.mark.parametrize("argv, message", [
        (["forced-settling", "--dt", "7"], "not a multiple of dt"),
        (["compare-models", "--dt", "7"], "not a multiple of dt"),
        # the step-size check rejects this air pocket only once marching starts
        (["simulate", "--config", "{config}", "--dt", "200"], "is unstable"),
        # measured data is checked before the model marches write their traces
        (["compare-models", "--dt", "100", "--measured", "{one_row}",
          *MEASURED_COLUMNS], "need at least 2"),
        (["compare-models", "--dt", "100", "--measured", "{hours}",
          *MEASURED_COLUMNS, "--measured-window", "5050,5250,8050"],
         "not on trace grid"),
        (["compare-models", "--dt", "100", "--measured", "{one_row}"],
         "--measured needs --column-map"),
        (["compare-models", "--dt", "100", "--measured", "{hours}",
          "--column-map", "time=ts:ms,power=fan"], "unknown unit 'ms' for time"),
        (["compare-models", "--dt", "100", *MEASURED_COLUMNS],
         "need --measured"),
        (["compare-models", "--dt", "100", "--measured-window", "0,100,200"],
         "need --measured"),
        # files that cannot be read or decoded
        (["compare-models", "--dt", "100", "--measured", "{directory}",
          *MEASURED_COLUMNS], "cannot read measured data"),
        (["compare-models", "--dt", "100", "--measured", "{latin1}",
          *MEASURED_COLUMNS], "cannot read measured data"),
        (["compare-models", "--dt", "100", "--measured", "{huge_field}",
          *MEASURED_COLUMNS], "cannot read measured data"),
        (["simulate", "--config", "{directory}"], "cannot read config"),
        (["simulate", "--config", "{latin1}"], "cannot read config"),
        # a zero delta used to fail the mixing self-check after the two-state
        # traces were written; a negative one named a kind never given
        (["compare-models", "--dt", "10", "--setpoint-delta-f", "0"],
         "--setpoint-delta-f must be positive"),
        (["compare-models", "--dt", "10", "--setpoint-delta-f", "-1"],
         "--setpoint-delta-f must be positive"),
        # without a pocket the "mixing" model is the two-state one
        (["compare-models", "--dt", "10", "--mix-r", "0", "--mix-c", "0"],
         "needs a mixing pocket"),
    ], ids=["forced-settling", "compare-models", "simulate", "measured-one-row",
            "measured-window-off-grid", "measured-no-column-map", "measured-time-unit",
            "column-map-alone", "measured-window-alone", "measured-directory",
            "measured-not-utf8", "measured-huge-field", "config-directory",
            "config-not-utf8", "setpoint-delta-zero", "setpoint-delta-negative",
            "compare-models-no-pocket"])
    def test_no_output_directory(self, tmp_path, capsys, argv, message):
        raw = yaml.safe_load(CLOSED_LOOP_3H)
        raw["building"]["mix_c"] = 0.01
        config = tmp_path / "fast_pocket.yaml"
        config.write_text(yaml.safe_dump(raw))
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("ts,fan\n0,500\n")
        hours = tmp_path / "hours.csv"
        hours.write_text("ts,fan\n" + "".join(f"{100 * i},500\n" for i in range(201)))
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("ts,fan\n0,500\n100,500 \xb0\n".encode("latin-1"))
        huge_field = tmp_path / "huge_field.csv"  # past the csv module's field limit
        huge_field.write_text("ts,fan\n0," + "5" * 200_000 + "\n100,500\n")
        out = tmp_path / "out"
        argv = [arg.format(config=config, one_row=one_row, hours=hours,
                           directory=tmp_path, latin1=latin1, huge_field=huge_field)
                for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{config}"],
        ["sweep-mixing", "--r-grid", "0.5", "--dt", "10"],
        ["forced-settling", "--dt", "200"],
        ["compare-models", "--dt", "10"],
    ], ids=["simulate", "sweep-mixing", "forced-settling", "compare-models"])
    @pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, monkeypatch, argv, beneath):
        config = tmp_path / "short.yaml"
        config.write_text(CLOSED_LOOP_3H)
        taken = tmp_path / "taken.csv"
        taken.write_text("kept\n")
        out = taken / "out" if beneath else taken
        calls = count_marches(monkeypatch)
        argv = [arg.format(config=config) for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert f"error: cannot write output to {out}" in capsys.readouterr().err
        # refused before the first march, and the file is left alone
        assert not calls and taken.read_text() == "kept\n"


class TestShortWindowFit:
    @pytest.mark.parametrize("window, root, event", [
        ("both", {"settle_duration_s": 3600}, {}),            # ends past t_settle
        ("both", {}, {"half_duration_s": 4500}),              # ends before t_end
        ("both", {"dt_s": 14, "warmup_s": 1400, "settle_duration_s": 14000},
         {"half_duration_s": 1400}),                           # 7200 s is 514.3 steps
    ], ids=["past-settle", "before-event-end", "off-grid"])
    def test_rejected_before_the_march(self, tmp_path, capsys, monkeypatch,
                                       window, root, event):
        raw = yaml.safe_load(CLOSED_LOOP_3H)
        raw.update(root)
        raw["event"].update(event)
        config = tmp_path / "short.yaml"
        config.write_text(yaml.safe_dump(raw))
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--window", window,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: the 2 h window ends at" in err and "settling window" in err
        assert not calls and not out.exists()


def simulate_config(tmp_path, name, base, root=None, event=None):
    """Exit code of ``simulate`` on ``base`` YAML with ``root`` and ``event``
    keys set, and the ``name`` output directory."""
    raw = yaml.safe_load(base)
    raw.update(root or {})
    raw["event"].update(event or {})
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / name
    return cli.main(["simulate", "--config", str(config), "--out", str(out)]), out


def written_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestOneClosedLoopMode:
    # both closed-loop spellings run one mode, keyed by the forced-settle hold

    def test_closed_loop_runs_without_a_hold(self, tmp_path):
        # no hold, so none has to be a multiple of dt=14
        code, out = simulate_config(
            tmp_path, "off-grid", CLOSED_LOOP_3H,
            {"dt_s": 14, "warmup_s": 1400, "settle_duration_s": 14000},
            {"half_duration_s": 1400})
        assert code == 0
        [row] = data_io.read_results(out / "short_metrics.csv")
        assert row.mode == "closed_loop"

    def test_hold_under_either_spelling(self, tmp_path):
        outs = [simulate_config(tmp_path, mode, CLOSED_LOOP_3H, {"mode": mode},
                                {"forced_settle_s": 1800})
                for mode in ("closed_loop", "closed_loop_forced_settling")]
        assert [code for code, _ in outs] == [0, 0]
        held, forced = (written_bytes(out) for _, out in outs)
        assert held == forced
        [row] = data_io.read_results(outs[0][1] / "short_metrics.csv")
        assert row.mode == "closed_loop_forced_settling"

    def test_forced_spelling_holds_an_hour_by_default(self, tmp_path):
        outs = [simulate_config(tmp_path, name, CLOSED_LOOP_3H,
                                {"mode": "closed_loop_forced_settling"},
                                event)
                for name, event in (("default", {}), ("hour", {"forced_settle_s": 3600}))]
        assert [code for code, _ in outs] == [0, 0]
        assert written_bytes(outs[0][1]) == written_bytes(outs[1][1])

    @pytest.mark.parametrize("hold", [600, 99990])
    def test_open_loop_hold_rejected(self, tmp_path, capsys, monkeypatch, hold):
        config = Path(__file__).resolve().parent.parent / "configs" / "open_loop_gta.yaml"
        calls = count_marches(monkeypatch)
        code, out = simulate_config(tmp_path, "held", config.read_text(), None,
                                    {"forced_settle_s": hold})
        assert code == 1
        assert ("error: an open-loop event has no forced-settle hold, "
                f"got forced_settle_duration={hold}") in capsys.readouterr().err
        assert not calls and not out.exists()


class TestOtherLoopCommandRejected:
    # a loop reads only its own command, so the other loop's was dropped
    GTA = (Path(__file__).resolve().parent.parent / "configs"
           / "open_loop_gta.yaml").read_text()

    @pytest.mark.parametrize("base, event, message", [
        (CLOSED_LOOP_3H, {"setpoint_deltas_f": [-1.0, 1.0]},
         "closed_loop events take power_delta_frac and no setpoint_deltas"),
        (GTA, {"power_delta_frac": 0.10},
         "open_loop events take setpoint_deltas and no power_delta_frac"),
        (GTA, {"power_deltas_w": [-100.0, 100.0]},
         "unknown keys in event: ['power_deltas_w']"),
        # the watts spelling is gone: it no longer wins over the fraction
        (CLOSED_LOOP_3H, {"power_deltas_w": [100.0, -100.0]},
         "unknown keys in event: ['power_deltas_w']"),
    ], ids=["closed-setpoint", "open-frac", "open-deltas", "closed-frac-and-deltas"])
    def test_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch,
                                     base, event, message):
        calls = count_marches(monkeypatch)
        code, out = simulate_config(tmp_path, "mixed", base, None, event)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not calls and not out.exists()

    @pytest.mark.parametrize("base, message", [
        (CLOSED_LOOP_3H, "closed_loop events take power_delta_frac and no setpoint_deltas"),
        (GTA, "open_loop events take setpoint_deltas and no power_delta_frac"),
    ], ids=["closed", "open"])
    def test_event_without_command_exits_1(self, tmp_path, capsys, monkeypatch,
                                           base, message):
        raw = yaml.safe_load(base)
        raw["event"] = {"kind": raw["event"]["kind"]}
        config = tmp_path / "bare.yaml"
        config.write_text(yaml.safe_dump(raw))
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not calls and not out.exists()

    def test_tune_neutral_needs_open_loop(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "closed.yaml"
        config.write_text(CLOSED_LOOP_3H)
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(out)]) == 1
        assert "tuning applies to open-loop scenarios" in capsys.readouterr().err
        assert not calls and not out.exists()


class TestConfigSectionNotAMapping:
    # only a section left out or null is empty; a falsy value is no mapping either
    @pytest.mark.parametrize("section, value", [
        ("building", []), ("control", 0), ("event", ""), ("outdoor", False),
        ("building", [1, 2]),
    ], ids=["empty-list", "zero", "empty-string", "false", "list"])
    def test_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch, section, value):
        raw = yaml.safe_load(CLOSED_LOOP_3H)
        raw[section] = value
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(raw))
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {section} must be a mapping\n"
        assert not calls and not out.exists()


class TestConfigValueRefused:
    # a YAML boolean (yes/no/on/off), which float() would take as 1 or 0, and
    # setpoint deltas that are not a pair are refused before any march
    @pytest.mark.parametrize("old, new, message", [
        ("dt_s: 1.0", "dt_s: yes", "bad value for dt_s"),
        ("mix_r: 0.3", "mix_r: on", "bad value for mix_r"),
        ("[1.0, -1.0]", "[yes, no]", "bad value for setpoint_deltas_f"),
        ("[1.0, -1.0]", "[1.0]", "setpoint_deltas needs two deltas, got 1"),
        ("[1.0, -1.0]", "[1.0, -1.0, 0.0]", "setpoint_deltas needs two deltas, got 3"),
        ("[1.0, -1.0]", "[]", "setpoint_deltas needs two deltas, got 0"),
    ], ids=["dt-yes", "mix-r-on", "deltas-yes-no", "one-delta", "three-deltas",
            "no-deltas"])
    def test_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch, old, new, message):
        text = TestOtherLoopCommandRejected.GTA
        assert old in text
        config = tmp_path / "bad.yaml"
        config.write_text(text.replace(old, new))
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not calls and not out.exists()


class TestEventPair:
    @pytest.mark.parametrize("actual, baselines", [
        (None, 1), (engine.OutdoorProfile.step_at(29.4, 1200.0, 1.0), 2),
    ], ids=["agreeing", "differing"])
    def test_each_baseline_marched_once(self, monkeypatch, actual, baselines):
        sc = quick_scenario(mode="closed_loop", oa_actual=actual,
                            event=engine.EventSchedule(kind="DOWN_UP",
                                                       power_delta_frac=0.1))
        calls = count_marches(monkeypatch)
        _, counterfactual = cli.run_event_pair(sc)
        assert len(calls) == 1 + baselines  # the event and each distinct baseline
        assert (counterfactual is engine.run_baseline(sc)) == (baselines == 1)


class TestStepCountLimit:
    # from 2**53 steps on, no float step count can fail the multiple-of-dt
    # check; the scenario is rejected before any array is sized from it

    @pytest.mark.parametrize("key, value", [("dt_s", "1.0e-300"),
                                            ("settle_duration_s", "1.0e+300")])
    def test_simulate_exits_1(self, tmp_path, capsys, key, value):
        raw = yaml.safe_load(CLOSED_LOOP_3H)
        raw[key] = float(value)
        config = tmp_path / "huge.yaml"
        config.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at most 2**53 - 1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSweepArgumentsCheckedOnce:
    # arguments shared by every grid point are rejected before the grid

    @pytest.mark.parametrize("option, value, message", [
        ("--dt", "0", "dt must be finite and positive"),
        ("--dt", "nan", "dt must be finite and positive"),
        ("--dt", "7", "warmup=7200.0 is not a multiple of dt=7.0"),
        ("--dt", "1e-300", "a run takes at most 2**53 - 1 steps"),
        ("--power-frac", "nan", "power_delta_frac must be finite"),
        ("--power-frac", "-0.1", "power_delta_frac must be finite and >= 0"),
    ], ids=["dt-0", "dt-nan", "dt-7", "dt-1e-300", "power-frac-nan",
            "power-frac-negative"])
    def test_one_error_no_output(self, tmp_path, capsys, monkeypatch,
                                 option, value, message):
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["sweep-mixing", "--r-grid", "0.2,0.4", option, value,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not calls and not out.exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """Spy on ``os.fork``; the returned list gains one entry per fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)  # a child appends to its own copy
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


class TestSweepFailures:
    def _sweep(self, tmp_path, capsys, monkeypatch, r_grid):
        """Exit code, rows and stderr, the same on one CPU and on two."""
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            code = cli.main(["sweep-mixing", "--r-grid", r_grid, "--c-grid", "0.1",
                             "--dt", "10", "--out", str(out)])
            runs.append((code, data_io.read_results(out / "mixing_sweep.csv"),
                         capsys.readouterr().err))
        assert_no_child_left()
        assert runs[0] == runs[1]
        return runs[0]

    def test_infeasible_point_exits_1(self, tmp_path, capsys, monkeypatch):
        code, rows, err = self._sweep(tmp_path, capsys, monkeypatch, "2.0")
        assert code == 1
        assert rows == []
        assert "r=2.0 c=0.1" in err

    def test_underflowing_pocket_is_a_listed_failure(self, tmp_path, capsys,
                                                     monkeypatch):
        # 5e-324 * r_wall rounds to an r_mix of zero
        code, rows, err = self._sweep(tmp_path, capsys, monkeypatch, "5e-324")
        assert code == 1
        assert rows == []
        assert "r=5e-324 c=0.1: mixing pocket needs positive r_mix" in err
        assert "Traceback" not in err

    def test_good_points_still_written(self, tmp_path, capsys, monkeypatch):
        code, rows, _ = self._sweep(tmp_path, capsys, monkeypatch, "0.2,2.0")
        assert code == 1
        assert [(r.r, r.window_hr) for r in rows] == [(0.2, 35000.0 / 3600.0),
                                                       (0.2, 2.0)]

    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # on two CPUs the second point fails in a forked worker
        def diverge(scenario):
            raise NumericalError("diverged", {"t": 30.0, "t_mix": float("inf")})

        monkeypatch.setattr(cli, "run_event_pair", diverge)
        code, rows, err = self._sweep(tmp_path, capsys, monkeypatch, "0.2,0.4")
        assert code == 2
        assert rows == []
        assert "r=0.4 c=0.1: diverged" in err
        assert err.endswith("numerical failure: diverged\n"
                            "  state: {'t': 30.0, 't_mix': inf}\n")


class TestForkedSweep:
    # six points, two of them infeasible (r = 2.0), so failures cross workers
    ARGV = ["sweep-mixing", "--r-grid", "0.2,2.0,0.6", "--c-grid", "0.1,0.3",
            "--dt", "10"]

    def _run(self, tmp_path, capsys, name):
        out = tmp_path / name
        code = cli.main([*self.ARGV, "--out", str(out)])
        return code, (out / "mixing_sweep.csv").read_bytes(), capsys.readouterr().err

    def test_same_bytes_for_any_worker_count(self, tmp_path, capsys, monkeypatch):
        forks = count_forks(monkeypatch)
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            runs.append(self._run(tmp_path, capsys, f"cpus{cpus}"))
            assert len(forks) == cpus - 1
            assert_no_child_left()
            forks.clear()
        code, csv, err = runs[0]
        assert code == 1 and csv.count(b"\n") == 1 + 4 * 2
        assert err.count("r=2.0") == 2
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_rows_and_failures_in_grid_order(self, tmp_path, capsys, monkeypatch):
        # neither grid is sorted; the infeasible r = 2.0 fails at both c
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            code = cli.main(["sweep-mixing", "--r-grid", "0.6,0.2,2.0", "--c-grid",
                             "0.3,0.1", "--dt", "10", "--out", str(out)])
            runs.append((code, (out / "mixing_sweep.csv").read_bytes(),
                         capsys.readouterr().err))
            assert_no_child_left()
        assert runs[0] == runs[1]
        code, _, err = runs[0]
        rows = data_io.read_results(tmp_path / "cpus1" / "mixing_sweep.csv")
        assert code == 1
        assert [(row.r, row.c, row.window_hr) for row in rows] == [
            (r, c, hours) for r in (0.2, 0.6) for c in (0.1, 0.3)
            for hours in (35000.0 / 3600.0, 2.0)]
        assert [line.split(":")[0] for line in err.splitlines()[:3]] == [
            "sweep points failed", "  r=2.0 c=0.1", "  r=2.0 c=0.3"]

    @pytest.mark.parametrize("loss", ["dies", "garbles"])
    def test_lost_share_marched_by_parent(self, tmp_path, capsys, monkeypatch, loss):
        use_cpus(monkeypatch, 1)
        serial = self._run(tmp_path, capsys, "serial")
        parent = os.getpid()
        if loss == "dies":
            run_event_pair = cli.run_event_pair

            def die_in_child(scenario):
                if os.getpid() != parent:
                    os._exit(9)  # before the child writes anything
                return run_event_pair(scenario)

            monkeypatch.setattr(cli, "run_event_pair", die_in_child)
        else:
            dumps = pickle.dumps
            monkeypatch.setattr(pickle, "dumps", lambda obj: (
                dumps(obj) if os.getpid() == parent else b"not a pickle"))
        engine._memo_open_loop.cache_clear()  # so every baseline marches again
        calls = count_marches(monkeypatch)
        use_cpus(monkeypatch, 2)
        assert self._run(tmp_path, capsys, "forked") == serial
        assert_no_child_left()
        # the parent marched both shares: 4 feasible points, 2 marches each
        assert len(calls) == 8

    @pytest.mark.parametrize("case", ["one-cpu", "one-point", "no-fork",
                                      "thread-alive"])
    def test_serial_fallback_forks_nothing(self, tmp_path, monkeypatch, case):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 1 if case == "one-cpu" else 2)
        r_grid = "0.2" if case == "one-point" else "0.2,0.4"
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "thread-alive":
            thread.start()
        try:
            assert cli.main(["sweep-mixing", "--r-grid", r_grid, "--dt", "10",
                             "--out", str(tmp_path)]) == 0
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        rows = data_io.read_results(tmp_path / "mixing_sweep.csv")
        assert len(rows) == 2 * len(r_grid.split(","))

    def test_interrupt_kills_and_reaps_children(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def stall_or_interrupt(scenario):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before this ends
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_event_pair", stall_or_interrupt)
        use_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sweep-mixing", "--r-grid", "0.2,0.4", "--dt", "10",
                      "--out", str(tmp_path / "out")])
        assert time.monotonic() - start < 30
        assert_no_child_left()
        assert not (tmp_path / "out").exists()


class TestForkedSettling:
    ARGV = ["forced-settling", "--dt", "20"]

    def _run(self, tmp_path, capsys, name):
        """Exit code, every CSV written (path -> bytes) and stderr."""
        out = tmp_path / name
        code = cli.main([*self.ARGV, "--out", str(out)])
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*.csv")) if p.is_file()}
        return code, files, capsys.readouterr().err

    def test_same_bytes_for_any_worker_count(self, tmp_path, capsys, monkeypatch):
        forks = count_forks(monkeypatch)
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            runs.append(self._run(tmp_path, capsys, f"cpus{cpus}"))
            assert len(forks) == cpus - 1
            assert_no_child_left()
            forks.clear()
        code, files, err = runs[0]
        assert code == 0 and err == ""
        assert len(files) == 25 and "settling_study.csv" in files
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_first_failure_in_case_order(self, tmp_path, capsys, monkeypatch):
        # on two CPUs the child takes cases 1, 3, 5, ...: the earlier failure
        # (case 3) comes back through the pipe, the later one (case 4) is the
        # parent's own
        run_event_pair = cli.run_event_pair
        failing = ("forced_DOWN_UP", "oa_step_predicted_UP_DOWN")

        def diverge(scenario):
            if scenario.scenario_id in failing:
                raise NumericalError(f"{scenario.scenario_id} diverged",
                                     {"t": 30.0, "t_mix": float("inf")})
            return run_event_pair(scenario)

        monkeypatch.setattr(cli, "run_event_pair", diverge)
        runs = []
        for cpus in (2, 1):
            use_cpus(monkeypatch, cpus)
            runs.append(self._run(tmp_path, capsys, f"cpus{cpus}"))
            assert_no_child_left()
        assert runs[0] == runs[1]
        code, files, err = runs[0]
        assert (code, err) == (
            2, "study cases failed:\n"
               "  forced_DOWN_UP: forced_DOWN_UP diverged\n"
               "  oa_step_predicted_UP_DOWN: oa_step_predicted_UP_DOWN diverged\n"
               "numerical failure: forced_DOWN_UP diverged\n"
               "  state: {'t': 30.0, 't_mix': inf}\n")
        # the 8 cases that succeeded keep their rows and event traces
        rows = data_io.read_results(tmp_path / "cpus1" / "settling_study.csv")
        succeeded = [f"{case}_{kind}" for case in cli.STUDY_CASES
                     for kind in ("UP_DOWN", "DOWN_UP")
                     if f"{case}_{kind}" not in failing]
        assert [row.scenario_id for row in rows] == succeeded
        assert sorted(name for name in files if not name.endswith(
            ("_baseline.csv", "_counterfactual.csv", "settling_study.csv"))) == sorted(
            f"traces/{sid}.csv" for sid in succeeded)

    def test_no_event_failure_before_any_event(self, tmp_path, capsys, monkeypatch):
        run_baseline = cli.run_baseline

        def diverge_on_step(scenario):  # the first oa_step case's stepped forecast
            if scenario.scenario_id.startswith("oa_step"):
                raise NumericalError("diverged", {"t": 30.0})
            return run_baseline(scenario)

        monkeypatch.setattr(cli, "run_baseline", diverge_on_step)
        forks, calls = count_forks(monkeypatch), count_marches(monkeypatch)
        use_cpus(monkeypatch, 2)
        code, files, err = self._run(tmp_path, capsys, "out")
        assert (code, err) == (2, "numerical failure: diverged\n  state: {'t': 30.0}\n")
        # the flat baseline alone marched, and no event; no-event files are
        # written after the fork, so none is
        assert len(calls) == 1 and not forks
        assert files == {}

    def _spy_encodes(self, monkeypatch, log):
        """Spy on the trace encoder: each encode appends its process id to
        ``log``, so the encodes of forked workers count too."""
        trace_chunks = tracefile._trace_chunks

        def spy(columns):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return trace_chunks(columns)

        monkeypatch.setattr(tracefile, "_trace_chunks", spy)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_twelve_encodes_on_any_cpu_count(self, tmp_path, capsys, monkeypatch, cpus):
        log = tmp_path / "encodes"
        self._spy_encodes(monkeypatch, log)
        use_cpus(monkeypatch, cpus)
        assert self._run(tmp_path, capsys, "out")[0] == 0
        assert_no_child_left()
        # two no-event traces and ten events; the other 12 files are copies
        assert len(log.read_text().split()) == 12

    def test_parent_forks_before_it_writes(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "encodes"
        self._spy_encodes(monkeypatch, log)
        forks, forks_at_write = count_forks(monkeypatch), []
        write_trace = data_io.write_trace

        def spy(*args):
            forks_at_write.append(len(forks))  # a child appends to its own copy
            return write_trace(*args)

        monkeypatch.setattr(data_io, "write_trace", spy)
        use_cpus(monkeypatch, 2)
        assert self._run(tmp_path, capsys, "out")[0] == 0
        assert_no_child_left()
        assert forks_at_write and set(forks_at_write) == {1}
        # each worker encodes one no-event trace and its five events
        pids = log.read_text().split()
        assert len(pids) == 12 and pids.count(str(os.getpid())) == 6

    # the no-event files, (case, file) pairs for both kinds, by forecast
    NO_EVENT_FILES = {
        "flat": [("unforced", "baseline"), ("forced", "baseline"),
                 ("oa_step_unpredicted", "baseline"),
                 ("oa_step_prediction_only", "counterfactual")],
        "stepped": [("oa_step_predicted", "baseline"),
                    ("oa_step_unpredicted", "counterfactual"),
                    ("oa_step_prediction_only", "baseline")],
    }

    # on two CPUs the flat group is the parent's item, the stepped the child's;
    # a group's first file is encoded, its later ones are copies of it
    @pytest.mark.parametrize("forecast, other, at", [
        pytest.param("flat", "stepped", 0, id="flat-stepped"),
        pytest.param("stepped", "flat", 0, id="stepped-flat"),
        pytest.param("flat", "stepped", 1, id="flat-stepped-copy"),
    ])
    def test_no_event_write_failure_listed(self, tmp_path, capsys, monkeypatch,
                                           forecast, other, at):
        case, label = self.NO_EVENT_FILES[forecast][at]
        blocked = tmp_path / "out" / "traces" / f"{case}_UP_DOWN_{label}.csv"
        blocked.mkdir(parents=True)  # a directory where that file goes
        use_cpus(monkeypatch, 2)
        code, files, err = self._run(tmp_path, capsys, "out")
        assert_no_child_left()
        assert code == 1
        assert err.startswith(f"study cases failed:\n  no-event trace, {forecast} "
                              f"forecast: cannot write trace to {blocked}: ")
        assert err.count("cannot write trace") == 2  # listed, then the exit's line
        # every event keeps its row and its trace; the other group is whole,
        # and the failed group keeps the files written before the blocked one
        sids = [f"{case}_{kind}" for case in cli.STUDY_CASES
                for kind in ("UP_DOWN", "DOWN_UP")]
        rows = data_io.read_results(tmp_path / "out" / "settling_study.csv")
        assert [row.scenario_id for row in rows] == sids
        assert sorted(files) == sorted(
            ["settling_study.csv", *(f"traces/{sid}.csv" for sid in sids),
             *(f"traces/{case}_{kind}_{label}.csv"
               for case, label in [*self.NO_EVENT_FILES[other],
                                   *self.NO_EVENT_FILES[forecast][:at]]
               for kind in ("UP_DOWN", "DOWN_UP"))])

    @pytest.mark.parametrize("loss", ["dies", "garbles"])
    def test_lost_share_marched_by_parent(self, tmp_path, capsys, monkeypatch, loss):
        use_cpus(monkeypatch, 1)
        serial = self._run(tmp_path, capsys, "serial")
        parent = os.getpid()
        if loss == "dies":
            run_event_pair = cli.run_event_pair

            def die_in_child(scenario):
                if os.getpid() != parent:
                    os._exit(9)  # before the child writes anything
                return run_event_pair(scenario)

            monkeypatch.setattr(cli, "run_event_pair", die_in_child)
        else:  # the child writes its traces, then sends what is no pickle
            dumps = pickle.dumps
            monkeypatch.setattr(pickle, "dumps", lambda obj: (
                dumps(obj) if os.getpid() == parent else b"not a pickle"))
        engine._memo_open_loop.cache_clear()  # so both baselines march again
        calls = count_marches(monkeypatch)
        use_cpus(monkeypatch, 2)
        assert self._run(tmp_path, capsys, "forked") == serial
        assert_no_child_left()
        # the parent marched both baselines and all 10 events
        assert len(calls) == 12


OPEN_LOOP_SHORT = """\
mode: open_loop
dt_s: 10.0
warmup_s: 600
settle_duration_s: 7200
event:
  kind: DOWN_UP
  setpoint_deltas_k: [0.5, -0.5]
"""


class TestTuningFailure:
    def test_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_bracket(scenario):
            raise TuningError("could not bracket a neutral schedule")

        monkeypatch.setattr(cli, "tune_open_loop_event", no_bracket)
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT)
        code = cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "could not bracket" in capsys.readouterr().err

    def test_saturated_airflow_named(self, tmp_path, capsys):
        # at r 0.3 a +-2 F UP_DOWN event saturates the airflow at its 0 floor:
        # from |delta2| = 2.9384 K on, every probe gives the same net
        config = tmp_path / "saturated.yaml"
        config.write_text("mode: open_loop\ndt_s: 10.0\nwarmup_s: 7200\n"
                          "settle_duration_s: 140000\n"
                          "building:\n  mix_r: 0.3\n  mix_c: 0.1\n"
                          "event:\n  kind: UP_DOWN\n  setpoint_deltas_f: [-2.0, 2.0]\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tuning failed: could not bracket")
        assert "flat at 109863 J from |delta2|=2.9384 on" in err
        assert not out.exists()


class TestTunedEvent:
    def test_accepted_schedule_marched_once(self, tmp_path, monkeypatch):
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT)
        calls = count_marches(monkeypatch)
        engine.tune_open_loop_event(data_io.load_scenario_config(config))
        tuning = len(calls)  # the baseline and every probe, each cut at t_end
        engine._memo_open_loop.cache_clear()
        calls.clear()
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(out)]) == 0
        # the tuner's marches, then the root once, in the event run
        assert len(calls) == tuning + 1
        assert calls.count(calls[0]) == 2  # the baseline and the root reach t_settle

    def test_forecast_off_the_actual_profile(self, tmp_path, monkeypatch):
        # the control baseline (forecast), the counterfactual (actual) and the
        # root each march once to t_settle; the four probes stop at t_end
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT
                          + "outdoor:\n  actual: {step_at_s: 600, step_f: 6}\n")
        calls = count_marches(monkeypatch)
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 7
        assert calls.count(780) == 3  # n_steps of 7,800 s at dt 10


class TestMemoHoldsNoEventRuns:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{config}", "--tune-neutral"],
        ["compare-models", "--dt", "10"],
    ], ids=["simulate-tune-neutral", "compare-models"])
    def test_no_event_runs_alone(self, tmp_path, monkeypatch, argv):
        # an event is marched once, where it is asked for: memoising it
        # would keep a trace nothing reads again
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT)
        events, memo = [], engine._memo_open_loop

        def spy(scenario):
            events.append(scenario.event)
            return memo(scenario)

        monkeypatch.setattr(engine, "_memo_open_loop", spy)
        argv = [arg.format(config=config) for arg in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert events and set(events) == {engine._NO_EVENT}


class TestTunedResidual:
    def test_row_residual_meets_the_stop_rule(self, tmp_path):
        # the actual outdoor profile steps +6 F at event start; the forecast
        # stays flat, so the row's counterfactual is not the control baseline
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT + "scenario_id: stepped\n"
                          "outdoor:\n  actual: {step_at_s: 600, step_f: 6}\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(out)]) == 0
        [row] = data_io.read_results(out / "stepped_metrics.csv")
        event = data_io.read_trace(out / "stepped_event.csv")
        counterfactual = data_io.read_trace(out / "stepped_counterfactual.csv")
        net, scale = metrics.event_net(event, counterfactual,
                                       metrics.EventWindow(600.0, 4200.0, 7800.0))
        assert row.residual_j == abs(net)
        assert row.residual_j <= engine.NET_STOP_FRAC * scale

    def test_rte_converged_in_dt(self, tmp_path):
        config = Path(__file__).resolve().parent.parent / "configs" / "open_loop_gta.yaml"
        rtes = []
        for dt in ("2", "10"):
            out = tmp_path / dt
            assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                             "--dt", dt, "--out", str(out)]) == 0
            [row] = data_io.read_results(out / "open_loop_gta_metrics.csv")
            rtes.append(row.rte)
        assert abs(rtes[0] - rtes[1]) <= 1e-3


class TestMeasuredErrors:
    def _compare(self, tmp_path, rows, *extra):
        measured = tmp_path / "measured.csv"
        measured.write_text("ts,fan\n" + "".join(f"{t},{p}\n" for t, p in rows))
        return cli.main(["compare-models", "--dt", "100", "--out", str(tmp_path),
                         "--measured", str(measured),
                         "--column-map", "time=ts,power=fan", *extra])

    def test_single_row_exits_1(self, tmp_path, capsys):
        assert self._compare(tmp_path, [(0.0, 500.0)]) == 1
        assert "need at least 2" in capsys.readouterr().err

    def test_span_below_one_step_exits_1(self, tmp_path):
        assert self._compare(tmp_path, [(0.0, 500.0), (50.0, 510.0)]) == 1

    def test_window_off_grid_exits_1(self, tmp_path, capsys):
        rows = [(100.0 * i, 500.0) for i in range(201)]
        code = self._compare(tmp_path, rows, "--measured-window", "5050,5250,8050")
        assert code == 1
        assert "not on trace grid" in capsys.readouterr().err

    def test_window_on_grid_writes_metrics(self, tmp_path):
        rows = [(100.0 * i, 500.0 + (50.0 if 5000 <= 100 * i < 5200 else 0.0))
                for i in range(201)]
        code = self._compare(tmp_path, rows, "--measured-window", "5000,5200,8000")
        assert code == 0
        [record] = data_io.read_results(tmp_path / "measured_metrics.csv")
        assert record.e_in_j > 0.0
        assert record.window_hr == 3000 / 3600  # t_start to t_settle

    def test_event_past_the_normalized_span_writes_metrics(self, tmp_path):
        # the power is scaled by its mean from 30 min before to 3 h after
        # event start, whether or not the event has ended by then
        rows = [(100.0 * i, 500.0 + (50.0 if 5000 <= 100 * i < 17000 else 0.0))
                for i in range(301)]
        code = self._compare(tmp_path, rows, "--measured-window", "5000,17000,20000")
        assert code == 0
        [record] = data_io.read_results(tmp_path / "measured_metrics.csv")
        assert record.window_hr == 15000 / 3600


class TestMeasuredEpochClock:
    # a measured file keeps its epoch clock, where one float spacing is
    # 2.4e-7 s: a decimal step is not exact on it

    def test_decimal_step(self, tmp_path):
        measured = tmp_path / "epoch.csv"
        measured.write_text("ts,fan\n1700000000,500\n1700000100,600\n")
        trace, record = compare._measured_outputs(measured, "time=ts,power=fan", 0.1, None)
        assert trace.n_samples == 1001 and trace.dt == 0.1 and record is None

    def test_window_on_grid_gives_a_row(self, tmp_path):
        # the linear baseline averages 30 min on either side of the window,
        # so the file spans 2.5 h; a +50 W step from 1 h to 1 h 10 min
        measured = tmp_path / "epoch.csv"
        measured.write_text("ts,fan\n1700000000,500\n1700003599.9,500\n"
                            "1700003600,550\n1700004199.9,550\n"
                            "1700004200,500\n1700009000,500\n")
        window = (1700003600.0, 1700004200.1, 1700005400.3)
        trace, record = compare._measured_outputs(measured, "time=ts,power=fan", 0.1,
                                                  window)
        assert trace.n_samples == 90_001 and trace.dt == 0.1
        assert record.kind == "MEASURED" and record.e_in_j > 0.0


class TestNumberArguments:
    @pytest.mark.parametrize("argv", [
        ["sweep-mixing", "--r-grid", "abc"],
        ["sweep-mixing", "--r-grid", "0.1:x:0.1"],
        ["sweep-mixing", "--c-grid", "0.1,zero"],
        ["compare-models", "--measured-window", "1,2,x"],
        ["sweep-mixing", "--r-grid", "nan:1:0.1"],
        ["sweep-mixing", "--r-grid", "0:inf:0.1"],
        ["sweep-mixing", "--c-grid", "0.1,-inf"],
        ["compare-models", "--measured-window", "1,nan,3"],
        ["compare-models", "--measured-window", "1,2,inf"],
    ])
    def test_bad_number_exits_1(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert "error: bad number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["forced-settling", "--dt", "nan"],
        ["forced-settling", "--step-f", "nan"],
        ["compare-models", "--dt", "nan"],
        ["sweep-mixing", "--r-grid", "0.5", "--power-frac", "nan"],
    ])
    def test_non_finite_option_exits_1(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("building", "c_room_j_per_k", float("nan")),
        ("building", "r_wall_k_per_w", float("inf")),
        ("control", "kp_temp", float("nan")),
        ("control", "tau_fan_s", float("nan")),
        ("control", "kp_power", float("nan")),
    ])
    def test_non_finite_config_field_exits_1(self, tmp_path, capsys, section, key, value):
        raw = yaml.safe_load(CLOSED_LOOP_3H)
        raw.setdefault(section, {})[key] = value
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestParseGrid:
    @pytest.mark.parametrize("spec, grid", [
        ("0.1:1.0:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        ("0.2:1.0:0.2", [0.2, 0.4, 0.6, 0.8, 1.0]),
        ("0:1:0.35", [0.0, 0.35, 0.7]),
        ("0:1:0.5", [0.0, 0.5, 1.0]),
        ("0.3:0.3:0.1", [0.3]),
        ("0.5,0.1", [0.5, 0.1]),
    ])
    def test_grid(self, spec, grid):
        assert cli.parse_grid(spec) == grid


class TestUsageErrors:
    # exit 2 is numerical failure or tuning; a usage error is a configuration error

    @pytest.mark.parametrize("argv", [
        ["forced-settling", "--window", "2h", "--out", "{out}"],
        ["sweep-mixing", "--dt", "abc", "--out", "{out}"],
        ["simulate", "--out", "{out}"],
        ["sweep-mixing", "--kind", "SIDEWAYS", "--out", "{out}"],
        ["frobnicate", "--out", "{out}"],
        [],
        ["simulate", "--config", "c.yaml", "--window", "2h", "--out", "{out}"],
        ["--out", "{out}"],
        ["--dt", "10", "sweep-mixing", "--out", "{out}"],
    ], ids=["invalid-window", "bad-float", "missing-required", "invalid-choice",
            "unknown-command", "missing-command", "simulate-2h", "option-alone",
            "option-before-command"])
    def test_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch, argv):
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main([arg.format(out=out) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fanshift") and err.count("\n") == 1
        assert not calls and not out.exists()

    @pytest.mark.parametrize("argv", [["--out", "x"], ["--dt", "10", "sweep-mixing"]])
    def test_option_before_subcommand_named(self, capsys, argv):
        # argparse took the option's value for the subcommand's name
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: fanshift: the subcommand comes first, one of simulate, "
            "sweep-mixing, forced-settling, compare-models\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep-mixing", "--help"])
        assert info.value.code == 0
        assert "--r-grid" in capsys.readouterr().out


class TestExitCodes:
    # every class in errors.py, with the exit code and the stderr label
    # main reports it by
    CODES = {
        errors.FanshiftError: (1, "error"),
        errors.ConfigurationError: (1, "error"),
        errors.EquilibriumInfeasibleError: (1, "error"),
        errors.DataFormatError: (1, "error"),
        errors.TraceAlignmentError: (1, "error"),
        errors.NumericalError: (2, "numerical failure"),
        errors.TuningError: (2, "tuning failed"),
        errors.SelfCheckError: (3, "self-check failed"),
    }

    def test_every_class_listed(self):
        assert set(self.CODES) == {cls for cls in vars(errors).values()
                                   if isinstance(cls, type)
                                   and issubclass(cls, errors.FanshiftError)}

    def _main(self, monkeypatch, exc) -> int:
        def fail(**kwargs):
            raise exc

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        return cli.main(["simulate", "--config", "c.yaml", "--out", "o"])

    @pytest.mark.parametrize("cls", list(CODES), ids=lambda cls: cls.__name__)
    def test_exits_by_class(self, capsys, monkeypatch, cls):
        code, label = self.CODES[cls]
        assert self._main(monkeypatch, cls("boom")) == code
        assert capsys.readouterr().err == f"{label}: boom\n"

    def test_subclass_defined_elsewhere_exits_1(self, capsys, monkeypatch):
        class ElsewhereError(errors.FanshiftError):
            pass

        assert self._main(monkeypatch, ElsewhereError("boom")) == 1
        assert capsys.readouterr().err == "error: boom\n"


class TestStudyWindows:
    @pytest.mark.parametrize("command", ["sweep-mixing", "forced-settling"])
    def test_short_window_alone_rejected(self, tmp_path, capsys, monkeypatch, command):
        # a study judges neutrality on its full-window rows, so it must write them
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main([command, "--dt", "200", "--window", "2h", "--out", str(out)]) == 1
        assert "invalid choice: '2h'" in capsys.readouterr().err
        assert not calls and not out.exists()

    @pytest.mark.parametrize("command, kw", [
        (cli.cmd_sweep_mixing, dict(r_grid=[0.5], c_grid=[0.3], kind="UP_DOWN",
                                    power_frac=0.1)),
        (cli.cmd_forced_settling, dict(step_offset=0.0, step_f=3.0, mix_r=0.5,
                                       mix_c=0.3)),
    ], ids=["sweep-mixing", "forced-settling"])
    def test_short_window_alone_rejected_in_library(self, tmp_path, monkeypatch,
                                                    command, kw):
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match="unknown window '2h'"):
            command(out=out, dt=200.0, window="2h", **kw)
        assert not calls and not out.exists()

    def test_repeated_grid_value_marched_once(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["sweep-mixing", "--r-grid", "0.2,0.2", "--c-grid", "0.1",
                         "--dt", "10", "--out", str(out)]) == 0
        rows = data_io.read_results(out / "mixing_sweep.csv")
        assert [(r.r, r.c, r.window_hr) for r in rows] == [
            (0.2, 0.1, 35000.0 / 3600.0), (0.2, 0.1, 2.0)]
        assert len(calls) == 2  # the event and its baseline


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.yaml", "--out", "o"],
        ["sweep-mixing", "--out", "o"],
        ["forced-settling", "--out", "o"],
        ["compare-models", "--out", "o"],
    ])
    def test_namespace_matches_command(self, argv):
        args = vars(cli._build_parser().parse_args(argv))
        run = args.pop("run")
        del args["command"]
        params = inspect.signature(run).parameters
        assert set(args) == set(params)
        assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty
                   for p in params.values())


def loaded_after(names: list[str], argv: list[str] | None = None) -> list[str]:
    """Those of ``names`` in ``sys.modules`` of a fresh interpreter once it
    has imported the package and its CLI and, given ``argv``, run
    ``cli.main(argv)``, which must return 0."""
    src = str(Path(fanshift.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, fanshift, fanshift.cli\n"
            + ("" if argv is None else f"assert fanshift.cli.main({argv!r}) == 0\n")
            + f"print(*[name for name in {names!r} if name in sys.modules])")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition went fails here; the
    # names data_io loads on first use count as well
    modules = [fanshift] + [importlib.import_module(f"fanshift.{m.name}")
                            for m in pkgutil.iter_modules(fanshift.__path__)]
    checked = [mod.__name__ for mod in modules if hasattr(mod, "__all__")]
    assert {"fanshift", "fanshift.data_io", "fanshift.metrics"} <= set(checked)
    assert [f"{mod.__name__}.{name}" for mod in modules
            for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_import_leaves_yaml_out():
    # only config files need PyYAML, so the commands that read none skip its import
    assert loaded_after(["yaml"]) == []


def test_import_leaves_unused_modules_out():
    # no command needs a digest; measured data (and its logging) is read
    # only by compare-models --measured; only a forked map cut short sends a
    # kill; the trace codec, the config loader and compare-models load when a
    # command first uses them
    assert loaded_after(["hashlib", "_hashlib", "logging", "signal",
                         "fanshift.measured", "fanshift.tracefile",
                         "fanshift.scenario_config", "fanshift.compare"]) == []


LOADED_ON_USE = ["fanshift.tracefile", "fanshift.scenario_config", "fanshift.compare"]


@pytest.mark.parametrize("argv, loaded", [
    (["sweep-mixing", "--r-grid", "0.3", "--c-grid", "0.1", "--dt", "10"], []),
    (["simulate", "--config", "{config}"],
     ["fanshift.tracefile", "fanshift.scenario_config"]),
    (["compare-models", "--dt", "10"], ["fanshift.tracefile", "fanshift.compare"]),
], ids=["sweep-mixing", "simulate", "compare-models"])
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    # a sweep writes no trace and reads no config, so it compiles neither codec
    config = tmp_path / "short.yaml"
    config.write_text(CLOSED_LOOP_3H)
    argv = [arg.format(config=config) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert loaded_after(LOADED_ON_USE, argv) == loaded
