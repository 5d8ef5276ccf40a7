import numpy as np
import pytest

from fanshift import cli, data_io
from fanshift.errors import ConfigurationError, NumericalError, TuningError

from conftest import count_marches, make_trace

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
            cli.cmd_simulate(config, out, window="bogus")
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
        calls = count_marches(monkeypatch)
        # 200 s divides every study duration; the self-check may fail there
        code = cli.main(["forced-settling", "--dt", "200", "--out", str(tmp_path)])
        assert code in (0, 3)
        # 10 events and 2 baselines, the flat and the stepped forecast
        assert len(calls) == 12
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 24


class TestSweepFailures:
    def _sweep(self, tmp_path, r_grid):
        code = cli.main(["sweep-mixing", "--r-grid", r_grid, "--c-grid", "0.1",
                         "--dt", "10", "--out", str(tmp_path)])
        return code, data_io.read_results(tmp_path / "mixing_sweep.csv")

    def test_infeasible_point_exits_1(self, tmp_path, capsys):
        code, rows = self._sweep(tmp_path, "2.0")
        assert code == 1
        assert rows == []
        assert "r=2.0 c=0.1" in capsys.readouterr().err

    def test_good_points_still_written(self, tmp_path):
        code, rows = self._sweep(tmp_path, "0.2,2.0")
        assert code == 1
        assert [(r.r, r.window_hr) for r in rows] == [(0.2, 35000.0 / 3600.0),
                                                       (0.2, 2.0)]

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch):
        def diverge(scenario):
            raise NumericalError("diverged")

        monkeypatch.setattr(cli, "run_event_pair", diverge)
        code, rows = self._sweep(tmp_path, "0.2")
        assert code == 2
        assert rows == []


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


class TestNumberArguments:
    @pytest.mark.parametrize("argv", [
        ["sweep-mixing", "--r-grid", "abc"],
        ["sweep-mixing", "--r-grid", "0.1:x:0.1"],
        ["sweep-mixing", "--c-grid", "0.1,zero"],
        ["compare-models", "--measured-window", "1,2,x"],
    ])
    def test_bad_number_exits_1(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert "error: bad number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
