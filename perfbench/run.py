"""Benchmark of effico: four workloads, end-to-end metrics, an opt-in trace.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; effico is imported from its ``src/``.
Each run repeats whole cycles of its workload's fixed op mix for about
``--seconds`` of wall time (at least one cycle), checks every output
against references computed apart from effico, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# workloads that supply per-layer metrics the traced workload does not reach,
# cheapest first
LAYER_OWNERS = ("exact-sweep", "cli-oneshot", "stochvol-curve")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cycles(workloads, wl, seconds, tracer=None):
    """Whole cycles, ending as near ``seconds`` as the last cycle's length allows.

    Another cycle starts only if it would end nearer ``seconds`` than
    stopping now; at least one cycle runs.  Each op is timed alone.
    """
    records = []
    start = time.perf_counter()
    cycle = 0
    while True:
        ops = wl.cycle()
        c0 = time.perf_counter()
        for op in ops:
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # recorded, and reported by the checks
                out = exc
            dt = time.perf_counter() - t0
            records.append(workloads.Record(op, dt, out, tracer.end_op() if tracer else None, cycle))
        cycle += 1
        last = time.perf_counter() - c0
        if time.perf_counter() - start + last / 2 > seconds:
            return records


def throughput(records) -> float:
    prim = [r.seconds for r in records if r.op.kind == "primary"]
    return len(prim) / sum(prim)


def peak_rss_mb(in_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_seconds(workloads, name: str) -> float:
    """Spawn to 'ready' of one set-up probe: interpreter, import effico, warm-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name],
        cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
    return elapsed


def end_to_end(workloads, wl, seconds):
    records = run_cycles(workloads, wl, seconds)
    rss = peak_rss_mb(wl.in_children)
    setups = [setup_seconds(workloads, wl.name) for _ in range(SETUP_SAMPLES)]
    prim = [r.seconds for r in records if r.op.kind == "primary"]
    alt = [r.seconds for r in records if r.op.kind == "alt"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(prim) / sum(prim),
        "op_ms_p50": statistics.median(prim) * 1e3,
        "alt_op_ms_p50": statistics.median(alt) * 1e3,
        "peak_rss_mb": rss,
    }
    return records, metrics, []


def traced(workloads, tracing, wl, seconds, seed, per_layer, workdir):
    """Untraced then traced cycles of ``wl``, plus one traced cycle of each
    workload that owns a per-layer metric ``wl`` does not reach."""
    targets = workloads.trace_targets()
    plain = run_cycles(workloads, wl, seconds)
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        records = run_cycles(workloads, wl, seconds, tracer)
    finally:
        tracer.restore()
    metrics = wl.layer_metrics(records)
    prim = [r.seconds for r in plain if r.op.kind == "primary"]
    metrics["op_ms_p90"] = statistics.quantiles(prim, n=10)[-1] * 1e3 if len(prim) > 1 else prim[0] * 1e3
    metrics["trace.untraced_ops_per_s"] = throughput(plain)
    metrics["trace.traced_ops_per_s"] = throughput(records)
    errors = []
    for owner in LAYER_OWNERS:
        missing = [m for m in per_layer if m not in metrics]
        if not missing or owner == wl.name:
            continue
        other = workloads.WORKLOADS[owner](seed, workdir / owner)
        try:
            other.warm_up()
            tracer.install()
            try:
                extra = run_cycles(workloads, other, 0, tracer)
            finally:
                tracer.restore()
            got = other.layer_metrics(extra)
            metrics.update({m: got[m] for m in missing if m in got})
            errors += other.check(extra)[1]
        finally:
            other.close()
    if tracing.is_wrapped(targets):
        errors.append("trace wrappers were not restored")
    return plain + records, metrics, errors


def run_one(args, spec) -> int:
    if not (SRC / "effico" / "__init__.py").is_file():
        print(f"perfbench: no effico sources under {SRC}", file=sys.stderr)
        return 2
    # one worker thread for the regime-switching curve: two threads on a
    # shared 2-CPU machine made its run time swing by a third
    os.environ["EFFICO_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if tracing.is_wrapped(workloads.trace_targets()):
        raise RuntimeError("effico functions are wrapped before the run")
    per_layer = [m["name"] for m in spec["per_layer"]]
    workdir = HERE / "_run" / str(os.getpid())
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir / args.workload)
    try:
        wl.warm_up()
        if args.trace:
            records, metrics, errors = traced(
                workloads, tracing, wl, args.seconds, args.seed, per_layer, workdir
            )
            wanted = spec["per_layer"]
        else:
            records, metrics, errors = end_to_end(workloads, wl, args.seconds)
            wanted = spec["end_to_end"]
        failed, check_errors = wl.check(records)
        errors += check_errors
        try:
            errors += wl.self_test(records)
        except StopIteration:  # every op failed: nothing to perturb
            errors.append("self-test: no successful op to perturb")
    finally:
        wl.close()
        try:
            workdir.rmdir()
            workdir.parent.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    kinds = {}
    for r in records:
        kinds[r.op.kind] = kinds.get(r.op.kind, 0) + 1
    print(f"{args.workload}: {kinds} ops, {failed} failed, {len(errors)} check errors", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own interpreter; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"perfbench: {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(w["name"], json.dumps(last))
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
