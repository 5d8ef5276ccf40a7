"""The layer boundaries the benchmark's tracer wraps must exist.

``perfbench/spans.py`` patches public names of the package from outside; a
renamed or moved boundary leaves its layer unmeasured. The two writers are
also timed by file size, read from their second positional argument, and
each kernel call is counted by the plant model and step count in its first
two. A trace copied from an identical one already written stays inside the
``write_trace`` boundary, so ``trace_write`` counts files, not encodes.

The work of each benchmark workload, built by ``perfbench/workloads.py`` at
seed 1 and run in-process, is pinned in kernel calls, simulated steps and
trace encodes, so a run or an encode that stops being reused fails here.
They run on one CPU, so ``sweep-mixing`` and ``forced-settling`` march
every run in-process, where the spies and the tracer see it.

Before it measures anything, ``perfbench/run.py`` runs its environment probe
in a child process and fails if the probe fails; the probe reads
``kernels.JIT_ENABLED``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fanshift
import fanshift.cli  # noqa: F401 - the tracer reaches every module through the package
from fanshift import cli, data_io, engine, kernels

from conftest import make_trace, quick_scenario, use_cpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_found_and_writers_sized(tmp_path, monkeypatch):
    tracer = load_perfbench(monkeypatch, "spans").Tracer()
    try:
        assert tracer.install(fanshift) == []
        trace_path, results_path = tmp_path / "trace.csv", tmp_path / "results.csv"
        data_io.write_trace(make_trace([0.0, 1.0], [1.0, 2.0]), trace_path)
        data_io.write_results([], results_path)
    finally:
        tracer.uninstall()
    assert [(s.layer, s.info["bytes"]) for s in tracer.spans] == [
        ("trace_write", trace_path.stat().st_size),
        ("results_write", results_path.stat().st_size)]


def test_kernel_span_reads_model_and_steps(monkeypatch):
    tracer = load_perfbench(monkeypatch, "spans").Tracer()
    scenario = quick_scenario(warmup=300.0, settle_duration=3600.0)
    try:
        assert tracer.install(fanshift) == []
        engine.run_open_loop(scenario)
    finally:
        tracer.uninstall()
    assert [s.info for s in tracer.spans if s.layer == "kernel"] == [
        {"model": kernels.MODEL_MIXING, "steps": scenario.n_steps}]
    assert tracer.layer_metrics()["kernel.steps"] == scenario.n_steps


def test_forced_settling_sizes_every_trace_file(tmp_path, monkeypatch):
    paths, write_trace = [], data_io.write_trace

    def record_path(trace, path, *rest):
        paths.append(Path(path))
        return write_trace(trace, path, *rest)

    # installed under the tracer, so the i-th path belongs to the i-th span
    monkeypatch.setattr(data_io, "write_trace", record_path)
    use_cpus(monkeypatch, 1)  # the tracer sees no span of a forked worker
    tracer = load_perfbench(monkeypatch, "spans").Tracer()
    try:
        assert tracer.install(fanshift) == []
        assert cli.main(["forced-settling", "--dt", "20", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.layer == "trace_write"]
    assert len(spans) == len(set(paths)) == 24
    assert sorted(paths) == sorted((tmp_path / "traces").glob("*.csv"))
    assert [s.info["bytes"] for s in spans] == [p.stat().st_size for p in paths]


@pytest.mark.parametrize("workload, work", [
    ("settling_study", (12, 25_320, 12)),
    ("mixing_sweep", (20, 84_400, 0)),
    ("neutral_tune", (6, 15_950, 2)),
])
def test_workload_work_pinned(tmp_path, monkeypatch, workload, work):
    """Kernel calls, simulated steps and trace encodes of each benchmark
    workload at seed 1: a lost reuse of a run or an encode fails here."""
    command = load_perfbench(monkeypatch, "workloads").WORKLOADS[workload](1, tmp_path)
    use_cpus(monkeypatch, 1)
    steps, encodes = [], []
    simulate_loop, trace_chunks = kernels.simulate_loop, data_io._trace_chunks

    def count_steps(*args):
        steps.append(args[1])
        return simulate_loop(*args)

    def count_encodes(columns):
        encodes.append(len(columns[0]))
        return trace_chunks(columns)

    monkeypatch.setattr(kernels, "simulate_loop", count_steps)
    monkeypatch.setattr(data_io, "_trace_chunks", count_encodes)
    assert cli.main(command.argv + ["--out", str(tmp_path / "out")]) == 0
    assert (len(steps), sum(steps), len(encodes)) == work


def test_environment_probe_prints_its_record(monkeypatch):
    run = load_perfbench(monkeypatch, "run")
    # the benchmark's own call: ENV_PROBE under sys.executable with
    # PYTHONPATH=src, checked, its last line parsed as JSON
    record = run.probe_environment(run.child_env())
    assert record["jit_enabled"] is False
    assert {"python", "numpy", "numba_imports", "platform"} <= record.keys()
