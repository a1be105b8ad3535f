"""Run one workload of the kcover benchmark and print its metrics.

    python3 perfbench/run.py --workload lp-dense --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run it from anywhere inside a kcover checkout; it benchmarks the sources in
the checkout's src/.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it records the environment, the tail percentile, the
failed share and the behaviour digest.  Files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class Raised:
    """An op that raised instead of returning; its gate always fails."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {self.exc!r}"


def load_workloads():
    if not os.path.isfile(os.path.join(SRC, "kcover", "__init__.py")):
        sys.stderr.write(f"error: no kcover sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import workloads

    return workloads


def timed(op):
    """(wall seconds, answer) of one op; an exception is the answer, for the gate."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # counted as a failed op by the gate
        result = Raised(exc)
    return time.perf_counter() - start, result


def measure(ops, seconds: float, tracer=None):
    """Closed loop over `ops` until `seconds` pass.

    Returns (times, results) of the untraced runs and of the traced ones.
    With a tracer each op runs twice back to back, untraced then traced, so
    a change in host speed hits both alike.
    """
    plain, traced = ([], []), ([], [])

    def record(into, op, outcome):
        into[0].append(outcome[0])
        into[1].append(outcome[1])
        if op.after is not None and not isinstance(outcome[1], Raised):
            op.after(outcome[1])

    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not plain[0]:
        op = ops[i % len(ops)]
        record(plain, op, timed(op))
        if tracer is not None:
            with tracer.installed(), tracer.op(i):
                outcome = timed(op)
            record(traced, op, outcome)
        i += 1
    return plain, traced


def check_all(workloads, workload, checker, ops, results):
    """Gate every op; identical answers to one op are checked once."""
    outcomes, seen = [], {}
    for i, result in enumerate(results):
        op = ops[i % len(ops)]
        if isinstance(result, Raised):
            outcomes.append(workloads.Outcome(False, solved=False, why=repr(result)))
            continue
        try:
            key = (i % len(ops), result)
            hash(key)
        except TypeError:
            key = None
        if key is None or key not in seen:
            try:
                outcome = workload.check(checker, op, result)
            except Exception as exc:  # a malformed answer fails its op, not the run
                outcome = workloads.Outcome(False, solved=False, why=f"check raised {exc!r}")
            if key is not None:
                seen[key] = outcome
        else:
            outcome = seen[key]
        outcomes.append(outcome)
    return outcomes


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import kcover and build the inputs.

    The probes share one input directory, removed after the last one, so
    deleting files is not part of the measurement.
    """
    workdir = os.path.join(OUT, f"probe-{workload}-{seed}")
    samples = []
    try:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
                 "--workload", workload, "--seed", str(seed)],
                check=True,
                cwd=ROOT,
            )
            samples.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(samples)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.isfile(ref):
                with open(ref, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    package = os.path.join(SRC, "kcover")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions",
        "scipy": importlib.util.find_spec("scipy") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def tail(op_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(op_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def spec_metrics(section: str, values: dict) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run(workloads, name: str, seed: int, seconds: float, trace: bool) -> None:
    import spans

    workload = workloads.WORKLOADS[name]
    setup_s = setup_seconds(name, seed) if not trace else None
    workdir = os.path.join(OUT, f"{name}-{seed}")
    try:
        ops = workload.ops(seed, workdir)
        checker = workloads.Checker(seed)
        if trace:
            tracer = spans.Tracer()
            (plain_times, plain_results), (times, results) = measure(ops, seconds, tracer)
            values = spans.layer_metrics(tracer, len(times))
            values["trace.overhead_share"] = sum(times) / sum(plain_times) - 1
            trace_file = os.path.join(OUT, f"trace-{name}-{seed}.json")
            tracer.write(trace_file)
            check_start = time.perf_counter()
            outcomes = check_all(workloads, workload, checker, ops, plain_results)
            outcomes += check_all(workloads, workload, checker, ops, results)
        else:
            (times, results), _ = measure(ops, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check_start = time.perf_counter()
            outcomes = check_all(workloads, workload, checker, ops, results)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    solved = sum(o.ok and o.solved for o in outcomes)
    first_pass = min(len(ops), len(times))  # untraced answers come first
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "ops": attempted,
        "check_s": check_s,
        "failed_share": failed / attempted,
        "unsolved_share": sum(o.ok and not o.solved for o in outcomes) / attempted,
        "behaviour_sha256": hashlib.sha256(
            "\n".join(o.text for o in outcomes[:first_pass]).encode()
        ).hexdigest(),
        "digest_ops": first_pass,
        "failures": [f"op {i}: {o.why}" for i, o in enumerate(outcomes) if not o.ok][:10],
    }
    if trace:
        info["trace_file"] = trace_file
        info["absent"] = tracer.absent
        metrics = spec_metrics("per_layer", values)
    else:
        op_ms = [t * 1000 for t in times]
        tail_ms, tail_pct = tail(op_ms)
        ratios = [r for o in outcomes for r in o.ratios]
        info.update(tail_percentile=tail_pct, tail_samples=len(op_ms))
        metrics = spec_metrics(
            "end_to_end",
            {
                "ops_per_s": attempted / sum(times),
                "op_ms.p50": statistics.median(op_ms),
                "op_ms.tail": tail_ms,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "solved_share": solved / attempted,
                "cover_over_lp": statistics.fmean(ratios) if ratios else 0.0,
            },
        )
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(workloads, seed: int, seconds: float, trace: bool) -> None:
    """Every workload in its own process; one table of every metric."""
    table = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ).stdout
        table[name] = json.loads(out.splitlines()[-1])
        info = json.loads(out.splitlines()[-2])["info"]
        print(f"{name}: correct={table[name]['correct']} attempted={table[name]['attempted']} "
              f"failed={table[name]['failed']} failed_share={info['failed_share']:.4g}")
        for key, m in table[name]["metrics"].items():
            print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    # Relative paths keep the CLI's stdout, and so the behaviour digest,
    # the same in every checkout.
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        # Importing workloads has imported kcover and kcover.cli; build the inputs.
        workloads.WORKLOADS[args.workload].ops(args.seed, args.setup_probe)
    elif args.workload == "all":
        run_all(workloads, args.seed, args.seconds, bool(args.trace))
    else:
        run(workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
