"""momflow's benchmark: one workload per invocation, metrics printed by name.

    python3 perfbench/run.py --workload ens_rk4_long --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; momflow is imported from its
``src``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
runs the separate traced run that gives the per-layer metrics.  Every
line but the last is for people; the last is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Each workload process is a fresh interpreter started here with the
BLAS/OpenMP pools pinned to one thread, and processes run one at a time,
so the benchmark uses at most two threads.  An untraced run starts one
measuring worker per input set (PROCESSES), then set-up-only workers
until there are SETUP_SAMPLES set-up times.  Op time is gated as
``op_rel_p50``, each op's time divided by the time of the reference
timed next to it (reference.py), because the host's speed drifts too
much for raw times to repeat between runs; raw ``op_s_p50`` is printed
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Input sets, one measuring process each, per workload.  The names must
# match workloads.py; run.py itself never imports momflow.
PROCESSES = {"ens_rk4_long": 1, "ens_wide_short": 1, "ens_rkf45": 3, "cli_scenarios": 1}
# Layer numbers printed by the cli_scenarios traced run beside the shared ones.
CLI_LAYER_UNITS = {
    "dynamics.evolve_rk4_us_per_step": "us", "dynamics.evolve_rkf45_us_per_step": "us",
    "dynamics.rkf45_accepted_steps": "count", "reports.csv_ms": "ms",
    "reports.json_ms": "ms", "reports.bytes": "bytes", "svgplot.ms_per_plot": "ms",
    "twobody.pair_ms": "ms", "gridsolver.solve_ms": "ms", "cli.main_s.": "s",
    "cli.process_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every set-up compiles the same sources
    env.update({var: "1" for var in THREAD_VARS})
    return env


def read_until(fd: int, done, deadline: float) -> bytes:
    """Read ``fd`` until ``done(data)`` holds or EOF; BenchError past the deadline."""
    data = b""
    while not done(data):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            raise BenchError("a worker ran past the deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        data += chunk
    return data


def spawn(args: list, deadline: float):
    """Run one worker; return (seconds from spawn to READY, parsed result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE)
    try:
        fd = proc.stdout.fileno()
        head = read_until(fd, lambda data: b"\n" in data, deadline)
        setup_s = time.perf_counter() - start
        if not head.startswith(b"READY\n"):
            raise BenchError(f"worker {args} did not get ready")
        out = head[len(b"READY\n"):] + read_until(fd, lambda data: False, deadline)
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def provenance(seed: int, versions: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"provenance  nproc={os.cpu_count()} cpu=\"{cpu}\" python={versions['python']} "
            f"numpy={versions['numpy']} scipy={versions['scipy']} "
            f"commit={git_commit()} seed={seed} machine={platform.machine()}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def mark_checksum_mismatches(ops: list):
    """Fail every op whose checksum differs from the first op's on the same inputs."""
    first = next((op["checksum"] for op in ops if op["checksum"]), None)
    for op in ops:
        if op["checksum"] and op["checksum"] != first:
            op["failures"].append("checksum differs from the first op on the same inputs")


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    processes = PROCESSES[workload]
    setups, results = [], []
    for k in range(processes):
        setup_s, result = spawn(["--workload", workload, "--seed", str(seed), "--set", str(k),
                                 "--mode", "measure", "--budget", str(seconds / processes)],
                                deadline)
        setups.append(setup_s)
        results.append(result)
    for k in range(processes, SETUP_SAMPLES):
        setups.append(spawn(["--workload", workload, "--seed", str(seed), "--set", str(k),
                             "--mode", "setup"], deadline)[0])

    ops = []
    for result in results:
        mark_checksum_mismatches(result["ops"])
        ops += result["ops"]
    timed = [op for op in ops if op["seconds"] is not None]
    if not timed:
        raise BenchError("no op completed")
    failed = sum(1 for op in ops if op["failures"])
    rss = [result["rss_mb"] for result in results]
    metrics = {
        "setup_s": (statistics.median(setups), f"median of n={len(setups)} process spawns"),
        "op_rel_p50": (statistics.median(op["seconds"] / op["ref_seconds"] for op in timed),
                       f"median of n={len(timed)} ops over {processes} input set(s), "
                       "each op's time / its reference time"),
        "peak_rss_mb": (statistics.median(rss), f"median of n={len(rss)} workload processes"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "1 - failed_ratio"),
    }
    lines = [f"  {'op_s_p50':<38} {statistics.median(op['seconds'] for op in timed)!r} s  "
             f"median of n={len(timed)} op times (not gated: drifts with the host)",
             f"  {'ref_s_p50':<38} {statistics.median(op['ref_seconds'] for op in timed)!r} s  "
             f"median reference time of those ops",
             f"  {'failed_ratio':<38} {failed / len(ops)!r} 1  {failed} failed / {len(ops)} attempted"]
    lines += [f"failed op: {f}" for op in ops for f in op["failures"]]
    for r in results:
        listed = " ".join(f"{op['seconds']:.3f}/{op['ref_seconds']:.3f}"
                          for op in r["ops"] if op["seconds"])
        lines.append(f"set {r['set']}: op/reference seconds {listed}; "
                     f"checksum {r['ops'][0]['checksum']} on {len(r['ops'])} ops")
    return metrics, len(ops), failed, results[0]["versions"], lines


def traced(workload: str, seed: int, seconds: float, deadline: float, units: dict):
    setup_s, result = spawn(["--workload", workload, "--seed", str(seed), "--set", "0",
                             "--mode", "trace", "--budget", str(seconds)], deadline)
    ops, traced_ops = result["ops"], result["traced"]
    every = ops + traced_ops
    mark_checksum_mismatches(every)      # tracing must not change any output
    done = [op for op in traced_ops if op["metrics"]]
    if not done or not any(op["seconds"] for op in ops):
        raise BenchError("no traced op completed")
    names = list(units) + [n for n in done[0]["metrics"] if n not in units]
    values = {}
    for name in names:
        if name in ("cli.import_s", "trace.overhead_s"):
            continue
        samples = [op["metrics"][name] for op in done]
        if units.get(name, unit_of(name)) in ("count", "bytes"):
            if len(set(samples)) > 1:
                done[0]["failures"].append(f"count {name} differs between traced ops: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["cli.import_s"] = result["import_s"]
    untraced_p50 = statistics.median(op["seconds"] for op in ops if op["seconds"])
    traced_p50 = statistics.median(op["seconds"] for op in done)
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    failed = sum(1 for op in every if op["failures"])
    metrics = {name: (values[name], "") for name in units}
    lines = [f"failed op: {f}" for op in every for f in op["failures"]]
    lines.append(f"tracing overhead: traced op_s_p50 {traced_p50:.6f} s (n={len(done)}) - "
                 f"untraced {untraced_p50:.6f} s (n={len(ops)}) = {traced_p50 - untraced_p50:+.6f} s")
    lines.append(f"checksum {every[0]['checksum']} on {len(every)} ops "
                 f"({len(ops)} untraced, {len(traced_ops)} traced)")
    for note, value in done[0]["notes"].items():
        lines.append(f"  {note:<38} {value}")
    for name in names:
        if name not in units and name not in ("cli.import_s", "trace.overhead_s"):
            lines.append(f"  {name:<38} {values[name]!r} {unit_of(name)}")
    lines.append(f"setup_s of the traced process {setup_s:.4f} s; spans in {result['spans']}")
    return metrics, len(every), failed, result["versions"], lines


def unit_of(name: str) -> str:
    for prefix, unit in CLI_LAYER_UNITS.items():
        if name.startswith(prefix):
            return unit
    return ""


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "momflow" / "__init__.py").is_file():
        print(f"error: no momflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    group = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    work_dir = ROOT / ".perfbench_work"
    try:
        if args.trace:
            metrics, attempted, failed, versions, lines = traced(
                args.workload, args.seed, args.seconds, deadline, units)
        else:
            metrics, attempted, failed, versions, lines = untraced(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            work_dir.rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(provenance(args.seed, versions))
    for name, (value, note) in metrics.items():
        print(f"  {name:<38} {value!r} {units[name]}  {note}".rstrip())
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
