"""One workload process: set up, say READY, run ops, print one JSON result line.

run.py starts it with momflow's ``src`` on PYTHONPATH and the BLAS/OpenMP
pools pinned to one thread.  Everything before READY is set-up: the
interpreter, ``import momflow.cli`` (via workloads), making the inputs
from the seed, and a warm-up.

Modes:
  setup    set up, say READY and exit (another setup_s sample);
  measure  untraced ops on one input set until the budget is spent, each
           timed next to the workload's reference (reference.py);
  trace    pairs of an untraced op and a traced op with layer probes,
           in alternating order.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
from reference import interpreter_seconds, reference_seconds
from tracing import Tracer
from workloads import WORKLOADS, CliWorkload, derive_seed

ROOT = Path(__file__).resolve().parent.parent
# At least two ops (or traced pairs) per process: every input set's
# checksum is seen to repeat, and each order of a traced pair runs once.
MIN_OPS = 2


def ensemble_session(workload, master_seed):
    field, potential = workload.field(), workload.potential()
    spec = workload.spec(master_seed)
    workload.warm_up(field, potential, master_seed)
    edge = []          # the reference run right after the previous op

    def op():
        """(op seconds, mean of the reference runs right before and after it, checks)."""
        if not edge:
            reference_seconds()               # warm-up, not recorded
            edge.append(reference_seconds())
        start = time.perf_counter()
        result, hists, comps = workload.run(field, potential, spec)
        seconds = time.perf_counter() - start
        edge.append(reference_seconds())
        ref_seconds = 0.5 * (edge[-2] + edge[-1])
        return (seconds, ref_seconds, *workload.check(result, hists, comps))

    def traced(tracer, op_id):
        return layers.ensemble_layers(workload, spec, tracer, op_id)

    return op, traced


def cli_session(workload, master_seed, work):
    runs = workload.write_configs(work, master_seed)

    def op():
        """(seconds of the CLI processes, seconds of the interpreters started after each, checks)."""
        gauged = []
        codes = workload.run(work, runs, between=lambda: gauged.append(interpreter_seconds()))
        seconds = sum(process_seconds for _code, process_seconds in codes.values())
        return (seconds, sum(gauged), *workload.check(work, codes))

    def traced(tracer, op_id):
        return layers.cli_layers(workload, work, runs, master_seed, tracer, op_id)

    return op, traced


def guarded(op) -> dict:
    """Run an op; an exception is recorded as the op's failure."""
    try:
        seconds, ref_seconds, checksum, failures = op()
    except Exception as exc:  # any op error counts against failed_ratio
        return {"seconds": None, "ref_seconds": None, "checksum": None,
                "failures": [f"{type(exc).__name__}: {exc}"]}
    return {"seconds": seconds, "ref_seconds": ref_seconds, "checksum": checksum,
            "failures": failures}


def traced_entry(traced, tracer, op_id) -> dict:
    """One traced op with its layer numbers; an exception is recorded as its failure."""
    try:
        run = traced(tracer, op_id)
    except Exception as exc:  # a traced op that raises is a failed op too
        return {"seconds": None, "checksum": None, "metrics": None,
                "failures": [f"{type(exc).__name__}: {exc}"]}
    return {"seconds": run.op_seconds, "checksum": run.checksum, "failures": run.failures,
            "metrics": run.metrics, "notes": run.notes}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any CLI process it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def measure(op, budget):
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < budget:
        ops.append(guarded(op))
    return {"ops": ops}


def trace(op, traced, budget, workload_name, seed):
    tracer = Tracer()
    ops, traced_ops = [], []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < budget:
        op_id = len(traced_ops)
        if op_id % 2:             # alternate the order within pairs
            traced_ops.append(traced_entry(traced, tracer, op_id))
            ops.append(guarded(op))
        else:
            ops.append(guarded(op))
            traced_ops.append(traced_entry(traced, tracer, op_id))
    spans = ROOT / ".perfbench_traces" / f"{workload_name}-seed{seed}.jsonl"
    tracer.write(spans)
    return {"ops": ops, "traced": traced_ops, "import_s": layers.import_seconds(),
            "spans": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", type=int, default=0, help="input set index")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of ops")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    master_seed = derive_seed(args.seed, workload.name, args.set)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.set}-{args.mode}"
    try:
        if isinstance(workload, CliWorkload):
            op, traced = cli_session(workload, master_seed, work)
        else:
            op, traced = ensemble_session(workload, master_seed)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(op, args.budget)
        else:
            result = trace(op, traced, args.budget, workload.name, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update({
        "set": args.set,
        "master_seed": master_seed,
        "rss_mb": peak_rss_mb(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
