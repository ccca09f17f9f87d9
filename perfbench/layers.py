"""Per-layer numbers for the traced run, one function per kind of workload.

Each function runs one traced op plus probes that time single public
calls on that op's own inputs and outputs, and returns a LayerRun.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

import momflow
import momflow.cli
from momflow import reports, svgplot
from momflow.ensemble import REASON_LABELS

from tracing import FieldCounter, counting_field
from workloads import CLI_ENSEMBLE, EVOLVE_RK4, EVOLVE_RK4_X0, EVOLVE_RKF45

VALUE_REPEATS = 5
IMPORT_SAMPLES = 3


@dataclass
class LayerRun:
    """One traced op: its time, output checksum and failures, and the layer numbers.

    ``notes`` holds figures printed beside the metrics as bases or
    cross-checks; ``hists`` are the op's histograms, reused by the writers.
    """

    op_seconds: float
    checksum: str
    failures: list
    metrics: dict
    notes: dict = dataclass_field(default_factory=dict)
    hists: list = dataclass_field(default_factory=list)


def ensemble_layers(workload, spec, tracer, op_id):
    """Traced op on a counting field, then probes of its sampling, field and energy calls."""
    field, potential = workload.field(), workload.potential()
    # Sampling and energy probes sit right before and after the traced op,
    # so the host's slow speed drift cancels in the stepper's derived
    # self time as far as it can.
    with tracer.span("ensemble.sample_initial", op_id):
        momflow.sample_initial(spec, poles=field.poles, tolerance=field.tolerance)
    counter = FieldCounter()
    start = time.perf_counter()
    result, hists, comps = workload.run(counting_field(field, counter), potential, spec,
                                        tracer, op_id)
    op_seconds = time.perf_counter() - start
    with tracer.span("fields.energy_at", op_id):
        for points in result.positions:
            momflow.energy_at(field, potential, points)
    checksum, failures = workload.check(result, hists, comps)

    n = spec.count
    with tracer.span("core.substream_rng", op_id):
        for i in range(n):
            momflow.substream_rng(spec.seed, spec.first_stream + i)
    probe = (result.positions[0], result.positions[-1][result.completed])
    for _ in range(VALUE_REPEATS):
        with tracer.span("fields.value", op_id):
            for points in probe:
                field.value(points)

    def seconds(name):
        return statistics.median(tracer.seconds(name, op_id))

    snapshots = len(result.times)
    # Stepping calls come first, `stages` per attempted step: the first
    # (k1) covers every live member, the rest only those not retired by
    # the pole guard.  Energy recording adds one call per snapshot.
    stepping = counter.sizes[:-snapshots]
    attempted = -(-len(stepping) // workload.stages)
    member_steps = sum(stepping[1::workload.stages])
    energy_s = seconds("fields.energy_at")
    step_self_s = seconds("ensemble.evolve_ensemble") - seconds("ensemble.sample_initial") - energy_s
    reasons = list(REASON_LABELS)
    metrics = {
        "fields.value_ns_per_point": seconds("fields.value") / sum(len(p) for p in probe) * 1e9,
        "fields.energy_ns_per_point": energy_s / (snapshots * n) * 1e9,
        "fields.value_calls": len(counter.sizes),
        "fields.value_points": sum(counter.sizes),
        "core.substream_us_per_member": seconds("core.substream_rng") / n * 1e6,
        "ensemble.sample_us_per_member": seconds("ensemble.sample_initial") / n * 1e6,
        "ensemble.step_ns_per_member_step": step_self_s / member_steps * 1e9,
        "ensemble.energy_ms_per_snapshot": energy_s / snapshots * 1e3,
        "ensemble.histogram_ms": seconds("ensemble.density_histogram") * 1e3,
        "ensemble.born_ms": seconds("ensemble.compare_density_to_born") * 1e3,
        "ensemble.member_steps": member_steps,
        "ensemble.attempted_steps": attempted,
        "ensemble.accepted_ratio": result.steps / attempted,
        "ensemble.retired_near_node": int(np.count_nonzero(
            result.termination_reason == reasons.index("near-node"))),
        "ensemble.retired_step_underflow": int(np.count_nonzero(
            result.termination_reason == reasons.index("step-underflow"))),
        "ensemble.snapshots": snapshots,
        "ensemble.positions_mb": result.positions.nbytes / 1e6,
    }
    notes = {
        "ensemble.snapshots_requested": spec.snapshots,
        "ensemble.accepted_steps": result.steps,
        "ensemble.step_self_s": step_self_s,
        "ensemble.wall_time_s": result.wall_time,
        "fields.value_probe_points": sum(len(p) for p in probe),
    }
    return LayerRun(op_seconds, checksum, failures, metrics, notes, hists)


def cli_layers(workload, work: Path, runs: dict, master_seed: int, tracer, op_id):
    """Traced CLI pass, the same scenarios through in-process ``cli.main``, and layer probes."""
    start = time.perf_counter()
    codes = workload.run(work, runs, tracer, op_id)
    op_seconds = time.perf_counter() - start
    checksum, failures = workload.check(work, codes)

    in_process = {s: _in_process_main(work / s, argv, tracer, f"cli.main.{s}", op_id)
                  for s, argv in runs.items()}
    in_process_sum, in_process_failures = workload.check(work, in_process)
    failures += in_process_failures
    if in_process_sum != checksum:
        failures.append("in-process cli.main outputs differ from the CLI processes'")

    config = workload.configs(master_seed)["ensemble"][1]["ensemble"]
    spec = CLI_ENSEMBLE.spec(config["seed"])
    ensemble = ensemble_layers(CLI_ENSEMBLE, spec, tracer, op_id)
    failures += ensemble.failures

    field, potential = momflow.qho_field(1), momflow.harmonic_potential()
    with tracer.span("dynamics.evolve.rk4", op_id):
        traj = momflow.evolve(field, potential, EVOLVE_RK4_X0, _integrator(EVOLVE_RK4))
    level3 = momflow.qho_field(EVOLVE_RKF45["field"]["level"])
    with tracer.span("dynamics.evolve.rkf45", op_id):
        adaptive = momflow.evolve(level3, potential, complex(*EVOLVE_RKF45["x0"]),
                                  _integrator(EVOLVE_RKF45))

    body = workload.configs(master_seed)["twobody"][1]["twobody"]
    params = momflow.SpinningPairParams(radius=body["radius"], gamma=body["gamma"])
    with tracer.span("twobody.pair", op_id):
        history = momflow.spinning_pair_history(params, dt=1e-3, samples=body["samples"],
                                                closed_form_derivatives=False)
        momentum = momflow.total_momentum_drift(history)
        force_norm = momflow.force_norm_invariant(history)
    with tracer.span("gridsolver.solve", op_id):
        momflow.solve_schrodinger_1d(potential, momflow.Grid1D(-8.0, 8.0, 4000), 4)

    out = work / "layers"
    hists = ensemble.hists
    written = []
    with tracer.span("reports.csv", op_id):
        written.append(reports.trajectory_csv(traj, out / "trajectory.csv"))
        written += [reports.histogram_csv(h, out / f"histogram_{i}.csv") for i, h in enumerate(hists)]
        written.append(reports.invariant_series_csv(force_norm, out / "force_norm.csv"))
        written.append(reports.invariant_series_csv(momentum, out / "momentum.csv"))
    with tracer.span("reports.json", op_id):
        written.append(reports.write_json(out / "trajectory.json", reports.trajectory_json(traj)))
        written.append(reports.write_json(out / "invariants.json", {
            "force_norm": reports.invariant_series_json(force_norm),
            "momentum_drift": reports.invariant_series_json(momentum)}))
    with tracer.span("svgplot.plots", op_id):
        svgplot.line_plot(out / "trajectory.svg", traj.times, [traj.x.real, traj.x.imag])
        for i, h in enumerate(hists):
            svgplot.histogram_plot(out / f"histogram_{i}.svg", h.edges, h.counts)
        drift = np.abs(force_norm.values - force_norm.mean)
        svgplot.line_plot(out / "drift.svg", force_norm.times, [np.maximum(drift, 1e-18)],
                          log_y=True)
    plots = 2 + len(hists)

    def seconds(name):
        return statistics.median(tracer.seconds(name, op_id))

    metrics = {
        **ensemble.metrics,
        "dynamics.evolve_rk4_us_per_step": seconds("dynamics.evolve.rk4") / (len(traj) - 1) * 1e6,
        "dynamics.evolve_rkf45_us_per_step":
            seconds("dynamics.evolve.rkf45") / (len(adaptive) - 1) * 1e6,
        "dynamics.rkf45_accepted_steps": len(adaptive) - 1,
        "reports.csv_ms": seconds("reports.csv") * 1e3,
        "reports.json_ms": seconds("reports.json") * 1e3,
        "reports.bytes": sum(path.stat().st_size for path in written),
        "svgplot.ms_per_plot": seconds("svgplot.plots") / plots * 1e3,
        "twobody.pair_ms": seconds("twobody.pair") * 1e3,
        "gridsolver.solve_ms": seconds("gridsolver.solve") * 1e3,
        **{f"cli.main_s.{s}": t for s, (_code, t) in in_process.items()},
        # A CLI process's wall time beyond the same run in-process:
        # interpreter start, imports and exit.
        "cli.process_overhead_s": statistics.mean(
            codes[s][1] - in_process[s][1] for s in runs),
    }
    return LayerRun(op_seconds, checksum, failures, metrics, ensemble.notes)


def import_seconds() -> float:
    """Median time of a fresh ``import momflow.cli``, one new interpreter per sample."""
    code = ("import time; t = time.perf_counter(); import momflow.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def _integrator(block):
    return momflow.IntegratorConfig(t_end=block["t_end"], scheme=block["scheme"], dt=block["dt"])


def _in_process_main(directory: Path, argv, tracer, name, op_id):
    """``cli.main`` in this process, from the scenario's directory; (exit code, seconds)."""
    shutil.rmtree(directory / "out", ignore_errors=True)
    previous = Path.cwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), tracer.span(name, op_id):
            start = time.perf_counter()
            code = momflow.cli.main(list(argv))
            return code, time.perf_counter() - start
    finally:
        os.chdir(previous)
