import math
import re
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanshift import (BuildingParams, ControllerGains, EventSchedule,
                      OutdoorProfile, Scenario, cli, data_io, measured,
                      scenario_config, tracefile)
from fanshift.errors import ConfigurationError, DataFormatError
from fanshift.trace import SERIES_FIELDS, Trace

from conftest import make_trace, use_cpus


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

    def test_trace_is_its_series_and_step(self):
        # nothing a file leaves out lives on a trace, so a read-back is whole
        assert [f.name for f in fields(Trace)] == [*SERIES_FIELDS, "dt"]

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

    def test_golden_bytes_signed_zeros_apart(self, tmp_path):
        # equal by value, different bits: each zero keeps its own sign
        trace = make_trace([0.0, 1.0, 2.0, 3.0], [0.0, -0.0, -0.0, 0.0],
                           t_room=[-0.0, 0.0, 0.0, -0.0])
        data_io.write_trace(trace, tmp_path / "trace.csv")
        body = (tmp_path / "trace.csv").read_bytes().split(b"\r\n", 1)[1]
        assert body == (b"0,0,-0,0,0,0,0,0,0,0\r\n"
                        b"1,0,0,0,0,0,0,-0,0,0\r\n"
                        b"2,0,0,0,0,0,0,-0,0,0\r\n"
                        b"3,0,-0,0,0,0,0,0,0,0\r\n")


def savetxt_bytes(trace, path):
    """The trace file as ``np.savetxt`` writes it: the encoder's oracle."""
    with path.open("w", newline="") as fh:
        np.savetxt(fh, np.column_stack([getattr(trace, name) for name in SERIES_FIELDS]),
                   fmt=data_io.FLOAT_FMT, delimiter=",", newline="\r\n",
                   header=",".join(tracefile.TRACE_HEADER), comments="")
    return path.read_bytes()


CHUNK = tracefile.TRACE_CHUNK_ROWS
# both zeros, two NaN payloads, infinities, the smallest subnormal and plain values
RUN_VALUES = [0.0, -0.0, math.nan,
              np.array([0x7FF4_0000_0000_0001], dtype=np.uint64).view(np.float64)[0],
              math.inf, -math.inf, 5e-324, 1e308, 0.1, 21.7]
INT_VALUES = [0, -1, 7, 2**53 + 1]  # 2**53 + 1 rounds on its way to float64


@st.composite
def trace_series(draw, n):
    """A column of ``n`` samples made of runs, in one of four array forms."""
    runs = draw(st.lists(st.tuples(st.integers(0, len(RUN_VALUES) - 1),
                                   st.integers(1, CHUNK + 2)), min_size=1, max_size=8))
    index = np.resize(np.repeat(*np.array(runs).T), n)
    form = draw(st.sampled_from(["float64", "float32", "int", "strided"]))
    if form == "int":
        return np.array(INT_VALUES)[index % len(INT_VALUES)]
    values = np.array(RUN_VALUES)[index]
    if form == "float32":
        with np.errstate(over="ignore", invalid="ignore"):
            return values.astype(np.float32)
    if form == "strided":
        both = np.full(2 * n, 0.5)
        both[::2] = values
        return both[::2]
    return values


class TestTraceEncoder:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(),
           n=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    def test_bytes_of_savetxt(self, tmp_path, data, n):
        series = {name: data.draw(trace_series(n), label=name)
                  for name in SERIES_FIELDS[1:]}
        trace = Trace(t=np.arange(n), **series, dt=1.0)
        data_io.write_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == savetxt_bytes(
            trace, tmp_path / "oracle.csv")

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        # stacking the columns alone would take 16 MB
        t = np.arange(200_000.0)
        trace = make_trace(t, 800.0 + np.sin(t / 50.0))
        tracemalloc.start()
        try:
            data_io.write_trace(trace, tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def encoded_cells(column) -> list[str]:
    """Each sample's text as the trace encoder writes a one-column trace."""
    return b"".join(tracefile._trace_chunks([column])).decode().split("\r\n")[:-1]


def percent_cells(values) -> list[str]:
    """The encoder's oracle: ``FLOAT_FMT % v`` of each value."""
    return [data_io.FLOAT_FMT % v for v in values]


# the exact integer path covers 2**-6 <= |x| < 2**53; draw a little beyond it
LOG_UNIFORM = st.builds(lambda e, sign: sign * 2.0 ** e,
                        st.floats(-7.0, 54.0), st.sampled_from([-1.0, 1.0]))


def with_neighbours(values) -> np.ndarray:
    """Each value and the doubles on either side of it."""
    x = np.array(values, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestCellEncoder:
    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert encoded_cells(x) == percent_cells(x.tolist())

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(LOG_UNIFORM, min_size=1, max_size=40))
    def test_log_uniform(self, values):
        assert encoded_cells(np.array(values)) == percent_cells(values)

    @pytest.mark.parametrize("values", [
        [10.0 ** k for k in range(-2, 16)],
        [-(10.0 ** k) for k in range(-2, 16)],
        [2.0 ** -6, 2.0 ** 53, -(2.0 ** -6), -(2.0 ** 53)],
    ], ids=["powers_of_ten", "negative_powers_of_ten", "range_ends"])
    def test_edges_and_neighbours(self, values):
        x = with_neighbours(values)
        assert encoded_cells(x) == percent_cells(x.tolist())

    @pytest.mark.parametrize("value, text", [
        (131073 / 2**17, "1.0000076293945312"),  # ...3125: the even floor stays
        (131075 / 2**17, "1.0000228881835938"),  # ...9375: the odd floor rounds up
        (-131075 / 2**17, "-1.0000228881835938"),
        (2.0 ** 51 + 0.5, "2251799813685248.5"),
        (0.015625, "0.015625"),
        (21.7, "21.699999999999999"),
        (100.0, "100"),
    ])
    def test_exact_ties_and_trims(self, value, text):
        assert encoded_cells(np.array([value])) == [text] == percent_cells([value])

    def test_ties_at_every_scale(self):
        odd = np.arange(1, 2**18, 2 * 97, dtype=np.float64) / 2.0 ** 17
        x = np.concatenate([odd * 2.0 ** j for j in range(-6, 36, 5)])
        assert encoded_cells(x) == percent_cells(x.tolist())

    @pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
    def test_decimal_exponent_corrected_after_log10(self, monkeypatch, toward):
        # the text must not rest on np.log10 being correctly rounded
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
        x = with_neighbours([10.0 ** k for k in range(-1, 16)])
        assert encoded_cells(x) == percent_cells(x.tolist())

    @pytest.mark.parametrize("column", [
        np.array([0.1, 21.7, 1e-3, 3e20, 2.0 ** -6], dtype=np.float32),
        np.array([0, -1, 7, 10**15, 2**53 - 1, 2**53 + 1]),
    ], ids=["float32", "int"])
    def test_other_dtypes(self, column):
        assert encoded_cells(column) == percent_cells(column.tolist())


def count_encodes(monkeypatch) -> list:
    """Spy on the trace encoder; the returned list gains one entry per encode."""
    calls, trace_chunks = [], tracefile._trace_chunks

    def spy(columns):
        calls.append(len(columns[0]))
        return trace_chunks(columns)

    monkeypatch.setattr(tracefile, "_trace_chunks", spy)
    return calls


class TestTraceRegistry:
    """A trace written to several files: encoded once, then copied."""

    def test_repeated_trace_copied(self, tmp_path, monkeypatch):
        trace = make_trace([0.0, 1.0, 2.0], [800.0, -0.0, 810.0])
        data_io.write_trace(trace, tmp_path / "a.csv")
        encodes = count_encodes(monkeypatch)
        data_io.write_trace(trace, tmp_path / "b.csv", tmp_path / "a.csv")
        assert encodes == []
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_copy_failure_is_a_data_format_error(self, tmp_path):
        trace = make_trace([0.0, 1.0], [800.0, 805.0])
        # the file to copy from was never written
        with pytest.raises(DataFormatError, match="cannot write trace to .*b.csv"):
            data_io.write_trace(trace, tmp_path / "b.csv", tmp_path / "a.csv")
        assert not (tmp_path / "b.csv").exists()

    def test_forced_settling_encodes_each_distinct_trace_once(self, tmp_path,
                                                              monkeypatch):
        use_cpus(monkeypatch, 1)
        encodes = count_encodes(monkeypatch)
        assert cli.main(["forced-settling", "--dt", "20", "--out", str(tmp_path)]) == 0
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 24
        # 10 events, the flat-forecast and the stepped-forecast baseline
        assert len(encodes) == 12


def _write_encoded(tmp_path, path):
    data_io.write_trace(make_trace([0.0, 1.0], [800.0, 805.0]), path)


def _write_copied(tmp_path, path):
    trace = make_trace([0.0, 1.0], [800.0, 805.0])
    data_io.write_trace(trace, tmp_path / "source.csv")
    with pytest.MonkeyPatch.context() as monkeypatch:
        encodes = count_encodes(monkeypatch)
        data_io.write_trace(trace, path, tmp_path / "source.csv")
    assert encodes == []  # copied, not encoded


def _write_results(tmp_path, path):
    data_io.write_results([], path)


# each writer, and both ways a trace file is written, makes its own directory
WRITERS = {"trace-encoded": _write_encoded, "trace-copied": _write_copied,
           "results": _write_results}


class TestOutputDir:
    def test_file_in_the_way_is_a_data_format_error(self, tmp_path):
        (tmp_path / "taken").write_text("")
        with pytest.raises(DataFormatError, match="taken is not a directory"):
            data_io.check_output_dir(tmp_path / "taken" / "out")
        for name, write in WRITERS.items():
            # the file in the way is the parent, or further up
            for path in (tmp_path / "taken" / f"{name}.csv",
                         tmp_path / "taken" / "out" / f"{name}.csv"):
                with pytest.raises(DataFormatError,
                                   match=f"cannot write .* to {re.escape(str(path))}"):
                    write(tmp_path, path)

    def test_new_and_existing_directories_pass(self, tmp_path):
        for name, write in WRITERS.items():
            out = tmp_path / name / "a" / "b"
            assert data_io.check_output_dir(str(out)) == out
            # the first write makes the nested directories, the second finds them
            for file in ("first.csv", "second.csv"):
                write(tmp_path, out / file)
                assert (out / file).is_file()
            assert data_io.check_output_dir(out).is_dir()


def test_codec_names_load_on_use_and_nothing_else():
    # data_io keeps the codecs' public names, defined in the modules they load
    assert data_io.write_trace is tracefile.write_trace
    assert data_io.read_trace is tracefile.read_trace
    assert data_io.load_scenario_config is scenario_config.load_scenario_config
    for name in ("write_traces", "_trace_chunks", "TRACE_HEADER"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(data_io, name)


HEADER =",".join(tracefile.TRACE_HEADER) + "\r\n"


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

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_time(self, tmp_path, bad):
        # rejected before the grid is rebuilt from it, so numpy warns of nothing
        path = tmp_path / "trace.csv"
        path.write_bytes((HEADER + "0,0,0,0,0,0,0,500,0,0\r\n"
                          f"{bad},0,0,0,0,0,0,500,0,0\r\n").encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError,
                               match="trace.csv: t_s holds a non-finite time"):
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

# CONFIG with the one key it must give, the open loop's command
OPEN_CONFIG = CONFIG.replace("event: {}", "event: {setpoint_deltas_k: [0, 0]}")


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestScenarioConfig:
    def test_empty_sections_give_dataclass_defaults(self, tmp_path):
        # the event's command is the one key a config must give
        with pytest.raises(ConfigurationError, match="take setpoint_deltas"):
            data_io.load_scenario_config(write_config(tmp_path, CONFIG))
        path = write_config(tmp_path, CONFIG.replace(
            "event: {}", "event: {setpoint_deltas_k: [0, 0]}"))
        scenario = data_io.load_scenario_config(path)
        event = EventSchedule(setpoint_deltas=(0.0, 0.0))
        assert scenario == Scenario(event=event, scenario_id="cfg")
        assert scenario.params == BuildingParams()
        assert scenario.gains == ControllerGains()

    def test_null_sections_are_empty(self, tmp_path):
        text = OPEN_CONFIG
        for section in ("building", "control", "outdoor"):
            text = text.replace(f"{section}: {{}}", f"{section}: null")
        scenario = data_io.load_scenario_config(write_config(tmp_path, text))
        assert scenario == Scenario(event=EventSchedule(setpoint_deltas=(0.0, 0.0)),
                                    scenario_id="cfg")

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

    def test_outdoor_profile_lists(self, tmp_path):
        path = write_config(tmp_path, OPEN_CONFIG.replace(
            "outdoor: {}", "outdoor: {actual: [[0, 29.4], [9000, 31.0]], "
                           "predicted: [[0, 29.4]]}"))
        scenario = data_io.load_scenario_config(path)
        assert scenario.oa_actual == OutdoorProfile(times=(0.0, 9000.0),
                                                    values=(29.4, 31.0))
        assert scenario.oa_predicted == OutdoorProfile(times=(0.0,), values=(29.4,))

    @pytest.mark.parametrize("times", [(0, 9000, 9000), (0, 9000, 4000)],
                             ids=["repeated", "decreasing"])
    def test_outdoor_times_must_increase(self, tmp_path, times):
        pairs = ", ".join(f"[{t}, 29.4]" for t in times)
        path = write_config(tmp_path, OPEN_CONFIG.replace(
            "outdoor: {}", f"outdoor: {{actual: [{pairs}]}}"))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            data_io.load_scenario_config(path)

    @pytest.mark.parametrize("outdoor, message", [
        ("{actual: [[0, 29.4], [100, no]]}",
         "outdoor.actual: bad value: no config key takes a boolean"),
        ("{predicted: [[0, 29.4], [9000, 31.0], [4000, 30.0]]}",
         "outdoor.predicted: profile times must be strictly increasing"),
        ("{actual: {step_at_s: 100, step_f: .nan}}",
         "outdoor.actual: profile times and values must be finite"),
    ], ids=["bad-value", "times-backwards", "non-finite-step"])
    def test_bad_profile_names_its_key(self, tmp_path, outdoor, message):
        path = write_config(tmp_path, OPEN_CONFIG.replace("outdoor: {}",
                                                          f"outdoor: {outdoor}"))
        with pytest.raises(ConfigurationError) as info:
            data_io.load_scenario_config(path)
        assert str(info.value).startswith(message)


def write_measured(tmp_path, rows, name="measured.csv"):
    path = tmp_path / name
    path.write_text("ts,fan\n" + "".join(f"{t},{p}\n" for t, p in rows))
    return path


class TestEpochClock:
    # measured files keep their own clock: seconds since 1970 are ~1.7e9,
    # where one float spacing is 2.4e-7 s

    def test_grid_at_decimal_step_accepted(self, tmp_path):
        series = measured.load_measured_csv(
            write_measured(tmp_path, [(1.7e9, 500.0), (1.7e9 + 100.0, 600.0)]),
            "time=ts,power=fan")
        trace = measured.resample(series, 0.1)
        assert trace.n_samples == 1001
        assert trace.t[0] == 1.7e9 and trace.t[-1] == 1.7e9 + 100.0

    def test_millisecond_jitter_rejected(self, tmp_path):
        # the sampling of a t column from outside is checked where it is read
        t = 1.7e9 + 0.1 * np.arange(11)
        t[5] += 1e-3
        data_io.write_trace(make_trace(t, np.zeros(11)), tmp_path / "jitter.csv")
        with pytest.raises(DataFormatError,
                           match="jitter.csv: t_s is not uniformly sampled"):
            data_io.read_trace(tmp_path / "jitter.csv")

    def test_one_row_trace_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_bytes((HEADER + "1700000000,0,0,0,0,0,0,500,0,0\r\n").encode())
        with pytest.raises(DataFormatError, match="one.csv: a one-row trace has no step"):
            data_io.read_trace(path)

    @pytest.mark.parametrize("t, dt, n", [((1.7e9, 1.7e9 + 0.3), 0.1, 4),
                                          ((32768.0, 32768.003), 0.003, 2)])
    def test_last_sample_kept(self, t, dt, n):
        # t1 - t0 is 0.29999995 s here: the clock's rounding, far more than 1e-9 steps
        series = measured.MeasuredSeries(t=np.array(t), power=np.array([500.0, 600.0]))
        trace = measured.resample(series, dt)
        assert trace.n_samples == n
        assert trace.index_at(t[1]) == n - 1
        assert trace.p_fan[-1] == 600.0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(t0=st.floats(0.0, 2e9),
           dt=st.sampled_from([0.003, 0.01, 0.07, 0.1, 0.25, 1.0, 8.0, 20.0]),
           n=st.integers(2, 3000))
    def test_every_sample_found(self, tmp_path, t0, dt, n):
        # the series ends on the grid's last sample, to the clock's rounding
        series = measured.MeasuredSeries(t=np.array([t0, t0 + (n - 1) * dt]),
                                         power=np.array([500.0, 600.0]))
        trace = measured.resample(series, dt)
        assert trace.dt == dt and trace.n_samples == n
        data_io.write_trace(trace, tmp_path / "trace.csv")
        back = data_io.read_trace(tmp_path / "trace.csv")
        assert np.array_equal(back.t, trace.t)
        # the file knows the step only to the rounding of its clock
        assert abs(back.dt - dt) * (n - 1) <= 4.0 * np.spacing(trace.t[-1])
        for tr in (trace, back):
            assert [tr.index_at(float(x)) for x in tr.t] == list(range(tr.n_samples))


class TestMeasuredNonFinite:
    def test_nan_timestamp_rejected_and_order_kept(self, tmp_path):
        rows = [(float(i), 500.0) for i in range(200)]
        rows.insert(100, ("nan", 500.0))
        rows.insert(101, (50.0, 500.0))  # before the last good time
        series = measured.load_measured_csv(write_measured(tmp_path, rows),
                                            "time=ts,power=fan")
        assert [i for i, _ in series.rejects] == [100, 101]
        assert np.all(np.diff(series.t) > 0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_power_rejected(self, tmp_path, bad):
        rows = [(float(i), 500.0) for i in range(200)]
        rows[7] = (7.0, bad)
        series = measured.load_measured_csv(write_measured(tmp_path, rows),
                                            "time=ts,power=fan")
        assert series.rejects == [(7, "non-finite value")]
        assert np.all(np.isfinite(series.power))

    def test_short_row_rejected(self, tmp_path):
        path = write_measured(tmp_path, [(float(i), 500.0) for i in range(200)])
        lines = path.read_text().splitlines(keepends=True)
        lines[8] = "7\n"  # row 7 lacks its power field
        path.write_text("".join(lines))
        series = measured.load_measured_csv(path, "time=ts,power=fan")
        assert [i for i, _ in series.rejects] == [7]

    def test_non_finite_rows_count_toward_threshold(self, tmp_path):
        rows = [(float(i), "nan" if i < 3 else 500.0) for i in range(100)]
        with pytest.raises(DataFormatError, match="3/100 rows rejected"):
            measured.load_measured_csv(write_measured(tmp_path, rows),
                                       "time=ts,power=fan")


class TestMeasuredSetpoint:
    COLUMN_MAP = "time=ts,power=fan:kW,temp=zone:F,setpoint=sp:F"

    def _measured(self, tmp_path):
        path = tmp_path / "measured.csv"
        path.write_text("ts,fan,zone,sp\n0,0.8,71.06,71.06\n100,0.9,71.06,72.86\n")
        return path

    def test_setpoint_column_in_celsius(self, tmp_path):
        series = measured.load_measured_csv(self._measured(tmp_path), self.COLUMN_MAP)
        trace = measured.resample(series, 50.0)
        # 71.06 F and 72.86 F are 21.7 C and 22.7 C, interpolated between
        assert trace.t_set_eff == pytest.approx([21.7, 22.2, 22.7], abs=1e-12)
        assert trace.t_room == pytest.approx([21.7] * 3, abs=1e-12)
        assert trace.p_fan == pytest.approx([800.0, 850.0, 900.0])

    def test_unknown_setpoint_unit(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown unit 'K' for setpoint"):
            measured.load_measured_csv(self._measured(tmp_path),
                                       "time=ts,power=fan,setpoint=sp:K")


class TestColumnMapRefused:
    def test_unit_on_time(self, tmp_path):
        # millisecond stamps would load as seconds, 1,000 times too far apart
        path = write_measured(tmp_path, [(1_700_000_000_000, 500.0),
                                         (1_700_000_060_000, 600.0)])
        with pytest.raises(ConfigurationError, match="unknown unit 'ms' for time"):
            measured.load_measured_csv(path, "time=ts:ms,power=fan")

    def test_repeated_key(self, tmp_path):
        path = tmp_path / "measured.csv"
        path.write_text("ts,a,b\n0,500,0.5\n100,600,0.6\n")
        with pytest.raises(ConfigurationError, match="column-map key 'power' given twice"):
            measured.load_measured_csv(path, "time=ts,power=a,power=b:kW")


T0 = 1719835200  # 2024-07-01T12:00:00Z


def stamp(epoch: int, zone: str | int) -> str:
    """``epoch`` as numeric seconds, ISO with ``Z``, ISO with no zone (UTC),
    or ISO at a UTC offset of ``zone`` minutes."""
    utc = datetime.fromtimestamp(epoch, timezone.utc)
    if zone == "seconds":
        return str(epoch)
    if zone == "Z":
        return utc.strftime("%Y-%m-%dT%H:%M:%SZ")
    if zone == "naive":
        return utc.strftime("%Y-%m-%dT%H:%M:%S")
    return utc.astimezone(timezone(timedelta(minutes=zone))).isoformat()


ZONES = st.one_of(st.sampled_from(["seconds", "Z", "naive"]),
                  st.integers(-12 * 4, 14 * 4).map(lambda q: 15 * q))
# a row that every position past the first rejects, whatever precedes it
BAD_ROWS = {
    "time": lambda t: ("soon", "5.0", "70.0"),
    "power": lambda t: (stamp(t, "Z"), "abc", "70.0"),
    "blank": lambda t: (stamp(t, "Z"), "", "70.0"),
    "nan": lambda t: (stamp(t, "Z"), "nan", "70.0"),
    "inf_temp": lambda t: (stamp(t, "Z"), "5.0", "inf"),
    "negative": lambda t: (stamp(t, "Z"), "-0.5", "70.0"),
    "repeat": lambda t: (stamp(T0, "naive"), "5.0", "70.0"),
}
KW_F = "time=ts,power=fan_kw:kW,temp=zone_f:F"
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_rows(path, rows):
    path.write_text("ts,fan_kw,zone_f\n" + "".join(",".join(r) + "\n" for r in rows))
    return path


@pytest.fixture
def local_time_off_utc(monkeypatch):
    """A local zone 5:30 h off UTC, so a naive stamp read as local time shows."""
    monkeypatch.setenv("TZ", "XST-05:30")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestMeasuredFuzz:
    @FUZZ
    @given(rows=st.lists(st.tuples(st.integers(1, 3600), ZONES,
                                   st.floats(0.0, 100.0), st.floats(-40.0, 140.0)),
                         min_size=1, max_size=40))
    def test_timestamps_and_units(self, tmp_path, local_time_off_utc, rows):
        epochs = T0 + np.cumsum([gap for gap, _, _, _ in rows])
        path = write_rows(tmp_path / "m.csv", [
            (stamp(int(t), zone), repr(kw), repr(f))
            for t, (_, zone, kw, f) in zip(epochs, rows)])
        series = measured.load_measured_csv(path, KW_F)
        assert series.rejects == []
        assert series.t.tolist() == epochs.astype(float).tolist()
        assert series.power.tolist() == [kw * 1000.0 for _, _, kw, _ in rows]
        assert series.temp == pytest.approx([(f - 32.0) / 1.8 for *_, f in rows],
                                            rel=1e-12, abs=1e-12)

    @FUZZ
    @given(k=st.integers(0, 3), slack=st.integers(-2, 2), data=st.data())
    def test_bad_rows_and_reject_threshold(self, tmp_path, k, slack, data):
        n = max(k + 2, 100 * k + slack)
        bad = data.draw(st.dictionaries(st.integers(1, n - 1), st.sampled_from(
            sorted(BAD_ROWS)), min_size=k, max_size=k))
        rows = [BAD_ROWS[bad[i]](T0 + 60 * i) if i in bad
                else (stamp(T0 + 60 * i, "Z"), "5.0", "70.0") for i in range(n)]
        path = write_rows(tmp_path / "m.csv", rows)
        if 100 * k > n:  # more than 1% of the rows
            with pytest.raises(DataFormatError, match=f"{k}/{n} rows rejected"):
                measured.load_measured_csv(path, KW_F)
            return
        series = measured.load_measured_csv(path, KW_F)
        assert [i for i, _ in series.rejects] == sorted(bad)
        assert series.t.tolist() == [T0 + 60.0 * i for i in range(n) if i not in bad]
