import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fanshift import (BuildingParams, ControllerGains, EventSchedule, Scenario,
                      data_io)
from fanshift.errors import ConfigurationError, DataFormatError
from fanshift.trace import SERIES_FIELDS

from conftest import make_trace


class TestTraceRoundTrip:
    def test_arrays_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 50.0, 0.1)
        trace = make_trace(t, 800.0 + 50.0 * rng.standard_normal(t.size),
                           t_room=21.7 + rng.standard_normal(t.size) / 3.0)
        # a series the measurement lacks is NaN-filled
        trace = replace(trace, t_wall=np.full(t.size, math.nan))
        data_io.write_trace(trace, tmp_path / "trace.csv")
        back = data_io.read_trace(tmp_path / "trace.csv")
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(back, name), getattr(trace, name),
                                  equal_nan=True), name


    def test_golden_bytes(self, tmp_path):
        trace = make_trace([0.0, 0.5, 1.0], [0.1, -0.0, 1e-300],
                           t_room=[math.nan, 21.7, -0.0])
        data_io.write_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"t_s,T_mix_C,T_room_C,T_wall_C,T_set_eff_C,mdot_desired_kg_s,"
            b"mdot_actual_kg_s,P_fan_W,T_outdoor_C,P_event_ref_W\r\n"
            b"0,0,nan,0,0,0,0,0.10000000000000001,0,0\r\n"
            b"0.5,0,21.699999999999999,0,0,0,0,-0,0,0\r\n"
            b"1,0,-0,0,0,0,0,1e-300,0,0\r\n")


HEADER = ",".join(data_io.TRACE_HEADER) + "\r\n"


class TestTraceReadErrors:
    @pytest.mark.parametrize("body", [
        "0,0,0,0,0,0,0,0,0,0\r\n1,0,0,0,0,0,0,0,0\r\n",
        "0,0,0,0,0,0,0,abc,0,0\r\n",
        "0,0,0,0,0,0,0,0,0\r\n1,0,0,0,0,0,0,0,0\r\n",
        "0,0,0,0,0,0,0,0,0,0,0\r\n",
    ], ids=["ragged", "not_a_number", "column_short", "column_long"])
    def test_malformed_row(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_bytes((HEADER + body).encode())
        with pytest.raises(DataFormatError, match="trace.csv"):
            data_io.read_trace(path)

    @pytest.mark.parametrize("body", ["", "\r\n"], ids=["no_rows", "blank_row"])
    def test_empty_trace(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_bytes((HEADER + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="trace.csv: empty trace"):
                data_io.read_trace(path)


class TestResultsRoundTrip:
    def test_records_survive(self, tmp_path):
        records = [
            data_io.ResultRecord("a", "closed_loop", "UP_DOWN", 0.3, 0.1, 9.72,
                                 1.0 / 3.0, 2.0e5, 0.7, True, 12.5, 0.01),
            data_io.ResultRecord("b", "measured", "MEASURED", math.nan, math.nan,
                                 2.0, 0.0, 3.5, None, False, 1e-300, 0.2),
        ]
        data_io.write_results(records, tmp_path / "results.csv")
        back = data_io.read_results(tmp_path / "results.csv")
        assert back[0] == records[0]
        assert back[1].rte is None
        assert math.isnan(back[1].r) and math.isnan(back[1].c)
        assert back[1].residual_j == 1e-300 and not back[1].neutral
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert rows[2].split(",")[8] == ""  # undefined RTE is an empty field

    @pytest.mark.parametrize("row", [
        "a,closed_loop,UP_DOWN,0.3,0.1",
        "a,closed_loop,UP_DOWN,0.3,0.1,2,1,1,1,true,0,0,extra",
        "a,closed_loop,UP_DOWN,0.3,0.1,2,1,abc,1,true,0,0",
        "a,closed_loop,UP_DOWN,0.3,0.1,2,1,1,1,yes,0,0",
    ], ids=["short", "long", "not_a_number", "not_a_flag"])
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "results.csv"
        path.write_text(",".join(data_io.RESULTS_HEADER) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="results.csv: line 2"):
            data_io.read_results(path)


CONFIG = """\
mode: open_loop
building: {}
control: {}
event: {}
outdoor: {}
"""


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestScenarioConfig:
    def test_empty_sections_give_dataclass_defaults(self, tmp_path):
        path = write_config(tmp_path, CONFIG)
        scenario = data_io.load_scenario_config(path)
        assert scenario == Scenario(scenario_id="cfg")
        assert scenario.params == BuildingParams()
        assert scenario.gains == ControllerGains()
        assert scenario.event == EventSchedule()

    def test_fahrenheit_keys_convert(self, tmp_path):
        path = write_config(tmp_path, CONFIG.replace(
            "control: {}", "control: {t_set_nominal_f: 71.06}").replace(
            "event: {}", "event: {kind: DOWN_UP, setpoint_deltas_f: [1.8, -1.8]}"))
        scenario = data_io.load_scenario_config(path)
        assert scenario.gains.t_set_nominal == pytest.approx(21.7)
        assert scenario.event.setpoint_deltas == pytest.approx((1.0, -1.0))

    @pytest.mark.parametrize("section, keys", [
        ("building", "{t_supply_c: 15.0, t_supply_f: 59.0}"),
        ("control", "{t_set_nominal_c: 21.0, t_set_nominal_f: 70.0}"),
        ("event", "{setpoint_deltas_k: [0.5, -0.5], setpoint_deltas_f: [1, -1]}"),
        ("outdoor", "{actual: {step_at_s: 7200, step_c: 1.0, step_f: 9.0}}"),
    ])
    def test_both_units_rejected(self, tmp_path, section, keys):
        path = write_config(tmp_path, CONFIG.replace(f"{section}: {{}}",
                                                     f"{section}: {keys}"))
        with pytest.raises(ConfigurationError, match="not both"):
            data_io.load_scenario_config(path)

    @pytest.mark.parametrize("where, text", [
        ("config root", CONFIG + "colour: red\n"),
        ("building", CONFIG.replace("building: {}", "building: {c_rom: 1}")),
        ("control", CONFIG.replace("control: {}", "control: {kp: 1}")),
        ("event", CONFIG.replace("event: {}", "event: {half: 1}")),
        ("outdoor", CONFIG.replace("outdoor: {}", "outdoor: {forecast: 1}")),
    ])
    def test_unknown_key_rejected(self, tmp_path, where, text):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigurationError, match=f"unknown keys in {where}"):
            data_io.load_scenario_config(path)

    @pytest.mark.parametrize("text", [
        CONFIG + "dt_s: fast\n",
        CONFIG.replace("event: {}", "event: {power_deltas_w: 100}"),
        CONFIG.replace("building: {}", "building: [mix_r, 0.3]"),
        CONFIG.replace("outdoor: {}", "outdoor: {actual: [[0, abc]]}"),
        CONFIG.replace("outdoor: {}", "outdoor: {actual: [[0]]}"),
        CONFIG.replace("outdoor: {}", "outdoor: {actual: {step_at_s: soon}}"),
    ])
    def test_bad_value_is_a_configuration_error(self, tmp_path, text):
        with pytest.raises(ConfigurationError):
            data_io.load_scenario_config(write_config(tmp_path, text))


def write_measured(tmp_path, rows, name="measured.csv"):
    path = tmp_path / name
    path.write_text("ts,fan\n" + "".join(f"{t},{p}\n" for t, p in rows))
    return path


class TestMeasuredNonFinite:
    def test_nan_timestamp_rejected_and_order_kept(self, tmp_path):
        rows = [(float(i), 500.0) for i in range(200)]
        rows.insert(100, ("nan", 500.0))
        rows.insert(101, (50.0, 500.0))  # before the last good time
        series = data_io.load_measured_csv(write_measured(tmp_path, rows),
                                           "time=ts,power=fan")
        assert [i for i, _ in series.rejects] == [100, 101]
        assert np.all(np.diff(series.t) > 0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_power_rejected(self, tmp_path, bad):
        rows = [(float(i), 500.0) for i in range(200)]
        rows[7] = (7.0, bad)
        series = data_io.load_measured_csv(write_measured(tmp_path, rows),
                                           "time=ts,power=fan")
        assert series.rejects == [(7, "non-finite value")]
        assert np.all(np.isfinite(series.power))

    def test_non_finite_rows_count_toward_threshold(self, tmp_path):
        rows = [(float(i), "nan" if i < 3 else 500.0) for i in range(100)]
        with pytest.raises(DataFormatError, match="3/100 rows rejected"):
            data_io.load_measured_csv(write_measured(tmp_path, rows),
                                      "time=ts,power=fan")
