import inspect
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import fanshift
import numpy as np
import pytest
import yaml

from fanshift import cli, data_io, engine, metrics
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
        step0, slope = cli._drift_slope(event, baseline, t_start)
        assert step0 == pytest.approx(50.0 + 0.25 * 120.0)
        assert slope == pytest.approx(0.25)

    def test_coarse_dt_rejected(self):
        t = np.arange(0.0, 12000.0, 1200.0)
        trace = make_trace(t, np.full_like(t, 1000.0))
        with pytest.raises(ConfigurationError, match="drift window"):
            cli._drift_slope(trace, trace, 1200.0)


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
    ])
    def test_step_that_never_happens_exits_1(self, tmp_path, capsys, monkeypatch, step):
        # the oa_step rows would be copies of the forced ones, mislabelled
        calls = count_marches(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["forced-settling", "--dt", "200", *step, "--out", str(out)]) == 1
        assert "oa_step cases need" in capsys.readouterr().err
        assert not calls and not out.exists()


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
    ], ids=["forced-settling", "compare-models", "simulate", "measured-one-row",
            "measured-window-off-grid", "measured-no-column-map",
            "column-map-alone", "measured-window-alone", "measured-directory",
            "measured-not-utf8", "measured-huge-field", "config-directory",
            "config-not-utf8", "setpoint-delta-zero", "setpoint-delta-negative"])
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
        ("2h", {"settle_duration_s": 3600}, {}),
        ("both", {}, {"half_duration_s": 4500}),              # ends before t_end
        ("both", {"dt_s": 14, "warmup_s": 1400, "settle_duration_s": 14000},
         {"half_duration_s": 1400, "forced_settle_s": 1400}),  # 7200 s is 514.3 steps
    ], ids=["past-settle", "past-settle-2h-only", "before-event-end", "off-grid"])
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


class TestEventPair:
    @pytest.mark.parametrize("actual, baselines", [
        (None, 1), (engine.OutdoorProfile.step_at(29.4, 1200.0, 1.0), 2),
    ], ids=["agreeing", "differing"])
    def test_each_baseline_marched_once(self, monkeypatch, actual, baselines):
        sc = quick_scenario(mode="closed_loop", oa_actual=actual,
                            event=engine.EventSchedule(kind="DOWN_UP",
                                                       power_delta_frac=0.1))
        calls = count_marches(monkeypatch)
        _, control_base, counterfactual = cli.run_event_pair(sc)
        assert len(calls) == 1 + baselines  # the event and each distinct baseline
        assert (counterfactual is control_base) == (baselines == 1)


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
                 for p in sorted(out.rglob("*.csv"))}
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

        def diverge(scenario):
            if scenario.scenario_id in ("forced_DOWN_UP", "oa_step_predicted_UP_DOWN"):
                raise NumericalError(f"{scenario.scenario_id} diverged",
                                     {"t": 30.0, "t_mix": float("inf")})
            return run_event_pair(scenario)

        monkeypatch.setattr(cli, "run_event_pair", diverge)
        runs = []
        for cpus in (2, 1):
            use_cpus(monkeypatch, cpus)
            code, files, err = self._run(tmp_path, capsys, f"cpus{cpus}")
            assert_no_child_left()
            assert "settling_study.csv" not in files
            runs.append((code, err))
        assert runs[0] == runs[1] == (
            2, "numerical failure: forced_DOWN_UP diverged\n"
               "  state: {'t': 30.0, 't_mix': inf}\n")

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
        # the flat baseline alone marched, and no event
        assert len(calls) == 1 and not forks
        assert sorted(files) == [f"traces/{case}_{kind}_baseline.csv"
                                 for case in ("forced", "unforced")
                                 for kind in ("DOWN_UP", "UP_DOWN")]

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


class TestTunedEvent:
    def test_accepted_schedule_marched_once(self, tmp_path, monkeypatch):
        config = tmp_path / "open.yaml"
        config.write_text(OPEN_LOOP_SHORT)
        calls = count_marches(monkeypatch)
        engine.tune_open_loop_event(data_io.load_scenario_config(config))
        tuning = len(calls)  # the baseline and every probe
        engine._memo_open_loop.cache_clear()
        calls.clear()
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--tune-neutral",
                         "--out", str(out)]) == 0
        # the event run reuses the accepted probe's march
        assert len(calls) == tuning

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


class TestMeasuredEpochClock:
    # a measured file keeps its epoch clock, where one float spacing is
    # 2.4e-7 s: a decimal step is not exact on it

    def test_decimal_step(self, tmp_path):
        measured = tmp_path / "epoch.csv"
        measured.write_text("ts,fan\n1700000000,500\n1700000100,600\n")
        trace, record = cli._measured_outputs(measured, "time=ts,power=fan", 0.1, None)
        assert trace.n_samples == 1001 and trace.dt == 0.1 and record is None

    def test_window_on_grid_gives_a_row(self, tmp_path):
        # the linear baseline averages 30 min on either side of the window,
        # so the file spans 2.5 h; a +50 W step from 1 h to 1 h 10 min
        measured = tmp_path / "epoch.csv"
        measured.write_text("ts,fan\n1700000000,500\n1700003599.9,500\n"
                            "1700003600,550\n1700004199.9,550\n"
                            "1700004200,500\n1700009000,500\n")
        window = (1700003600.0, 1700004200.1, 1700005400.3)
        trace, record = cli._measured_outputs(measured, "time=ts,power=fan", 0.1,
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


def test_import_leaves_yaml_out():
    # only config files need PyYAML, so the commands that read none skip its import
    src = str(Path(fanshift.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, fanshift.cli; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
