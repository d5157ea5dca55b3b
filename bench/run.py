"""lipcert benchmark: one closed-loop client issuing CLI operations in-process.

    python3 bench/run.py --workload falsify --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports lipcert from the checkout's
src/.  --workload is one of falsify, certify, train, ode, or `all`, which
runs each workload in its own process and prints a table.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  See bench/README.md for the workloads and
the definition of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# BLAS/OpenMP pools pinned to one thread before numpy is imported, here and
# in the interpreters started to time set-up
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SETUP_RUNS = 7
SETUP_CODE = "import lipcert.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
FAILED_EXITS = {3: "overflow", 4: "soundness violation", 5: "descent violation"}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
REFINED_RTOL = 1e-12
# slowdown() takes CAL_ROUNDS rounds around each op and CAL_TICK_ROUNDS every
# CAL_TICK_S during it; one round takes CAL_REF_ROUND_S on the reference
# machine (a 2-vCPU VM, Python 3.11, numpy 2.4) when nothing else loads it,
# and op times are reported at that speed
CAL_ROUNDS = 60
CAL_TICK_ROUNDS = 15
CAL_TICK_S = 0.1
CAL_REF_ROUND_S = 1.25e-3 / 60

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "config.self_s": "s", "config.load_s": "s", "config.write_s": "s",
    "config.bytes_written": "B",
    "bounds.self_s": "s", "bounds.refine_s": "s",
    "bounds.layer_step.calls": "count", "bounds.layer_step.us": "us",
    "bounds.network_certificate.calls": "count", "bounds.network_certificate.us": "us",
    "bounds.loss_certificate.us": "us", "bounds.closed_form_certificate.us": "us",
    "empirical.lipschitz_s": "s", "empirical.self_s": "s", "empirical.map_s": "s",
    "empirical.pairs": "count", "empirical.degenerate_pairs": "count",
    "empirical.useful_pair_share": "share",
    "empirical.output_map.us_per_krow": "us", "empirical.jacobian_map.us_per_krow": "us",
    "network.self_s": "s",
    "network.forward.calls": "count", "network.forward.us": "us",
    "network.grad_params.calls": "count", "network.grad_params.us": "us",
    "training.self_s": "s", "training.steps": "count", "training.projected_steps": "count",
    "training.us_per_step": "us", "training.objective_s": "s",
    "code_net.self_s": "s", "code_net.solve.calls": "count", "code_net.solve.us": "us",
    "code_net.substep.us": "us", "code_net.verify_envelopes_s": "s",
    "code_net.code_certificate.us": "us",
    "trace.overhead_share": "share",
}


@dataclass
class Loop:
    """What one pass of the closed loop saw; op times are speed-normalized."""

    times: dict[int, list[float]] = field(default_factory=dict)  # slot -> op times
    raw: dict[int, list[float]] = field(default_factory=dict)  # slot -> wall times
    digests: dict[int, str] = field(default_factory=dict)  # slot -> first report digest
    # (exec id, slot, op time, speed factor) of every completed execution
    executions: list[tuple[int, int, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops_per_s(self, raw: bool = False) -> float:
        """Ops divided by the sum of each op's median repeat."""
        times = self.raw if raw else self.times
        return len(times) / math.fsum(statistics.median(ts) for ts in times.values())

    def quantile(self, p: float, raw: bool = False) -> float:
        """p-quantile of all repeats, every op weighing the same in total."""
        times = self.raw if raw else self.times
        points = sorted((t, 1.0 / (len(times) * len(ts))) for ts in times.values() for t in ts)
        acc = 0.0
        for t, weight in points:
            acc += weight
            if acc >= p - 1e-9:
                return t
        return points[-1][0]


def slowdown(rounds: int) -> float:
    """How many times slower than on the reference machine a fixed loop runs now.

    The loop mixes small numpy calls with Python loops, the kind of work
    lipcert's ops are made of.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = 0.0
    for i in range(rounds):
        a = np.random.default_rng([7, i]).standard_normal((4, 4))
        x += float((a @ a)[0, 0])
        for j in range(50):
            x += j * j
    return (time.perf_counter() - t0) / (rounds * CAL_REF_ROUND_S)


def timed(fn, *args):
    """(result, wall s, speed factor) of fn(*args).

    The slowdown is sampled right before and right after the call and every
    CAL_TICK_S while it runs, from a SIGALRM handler whose own time is taken
    out of the wall time.  Wall time times the factor, the inverse of the
    mean slowdown, is the time at the reference speed.
    """
    samples = [slowdown(CAL_ROUNDS)]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        samples.append(slowdown(CAL_TICK_ROUNDS))
        spent += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.append(slowdown(CAL_ROUNDS))
    return result, wall - spent, 1.0 / statistics.fmean(samples)


def report_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def check_refined(op: workloads.Op, out: Path) -> str | None:
    """Refined l_grad_phi must not exceed the uniform-budget one.

    The relative slack is the acceptance tests' (tests/test_acceptance.py):
    a split that gives the head the whole radius reproduces the uniform
    value through other roundings, one ulp above it at times.
    """
    refined = json.loads((out / "certificate_refined.json").read_text())["l_grad_phi"]
    uniform = json.loads((out / "certificate_recursive.json").read_text())["l_grad_phi"]
    if not refined <= uniform * (1 + REFINED_RTOL):
        return f"{op.name}: refined l_grad_phi {refined!r} exceeds uniform {uniform!r}"
    return None


def run_op(cli, op: workloads.Op, out: Path, tracer=None, exec_id: int = -1):
    """One CLI call with its output captured; returns (exit code, stderr)."""
    sink, err = io.StringIO(), io.StringIO()
    argv = op.argv(str(out))
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv) if tracer is None else tracer.run_op(exec_id, cli.main, argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
    return code, err.getvalue()


def closed_loop(cli, ops, work: Path, seconds: float, tracer=None) -> Loop:
    """Issue ops back to back until `seconds` passed and every slot ran once."""
    loop = Loop()
    start = time.perf_counter()
    n = 0
    while n < len(ops) or time.perf_counter() - start < seconds:
        _execute(cli, ops[n % len(ops)], work, loop, tracer, n)
        n += 1
    return loop


def _execute(cli, op: workloads.Op, work: Path, loop: Loop, tracer, exec_id: int) -> None:
    """Run one op, time it, and check its exit code and reports."""
    out = work / "out" / f"{op.slot:02d}"
    loop.attempted += 1
    try:
        (code, err), wall, factor = timed(run_op, cli, op, out, tracer, exec_id)
    except Exception:
        loop.problems.append(f"{op.name}: raised\n{traceback.format_exc()}")
        return
    loop.times.setdefault(op.slot, []).append(wall * factor)
    loop.raw.setdefault(op.slot, []).append(wall)
    loop.executions.append((exec_id, op.slot, wall * factor, factor))
    if code in FAILED_EXITS:
        loop.failed += 1
        print(f"failed op {op.name} ({op.config}): exit {code}, {FAILED_EXITS[code]}")
    elif code != 0:
        loop.problems.append(f"{op.name}: exit {code}: {err.strip()}")
        return
    digest = report_digest(out)
    first = loop.digests.setdefault(op.slot, digest)
    if digest != first:
        loop.problems.append(f"{op.name}: rerun reports differ from its first run")
    elif len(loop.times[op.slot]) == 1 and code == 0 and op.command == ("certify",):
        problem = check_refined(op, out)
        if problem:
            loop.problems.append(problem)


def workload_digest(digests: dict[int, str], ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name}:{digests.get(op.slot, 'missing')}\n".encode())
    return h.hexdigest()


def measure_setup() -> tuple[float, float]:
    """Median time, normalized and raw, from starting a fresh interpreter to
    an imported lipcert.cli."""
    env = {**os.environ, "PYTHONPATH": "src"}

    def start_one() -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError("a fresh interpreter could not import lipcert.cli")
        return ready

    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    try:
        for k in range(SETUP_RUNS):
            # the interpreter inherits the CPU on which the slowdown is sampled
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            runs.append(timed(start_one))
    finally:
        os.sched_setaffinity(0, cpus)
    return (
        statistics.median(ready * factor for ready, _, factor in runs),
        statistics.median(ready for ready, _, _ in runs),
    )


def tail_percentile(n_ops: int) -> float:
    """The highest ladder percentile that leaves ten ops' weight beyond it."""
    return max(p for p in TAIL_LADDER if p == 50.0 or n_ops * (1 - p / 100) >= TAIL_BEYOND)


def end_to_end(loop: Loop, setup: tuple[float, float]) -> dict[str, float]:
    """The end-to-end metrics; the same figures from raw wall times are printed.

    setup is (normalized, raw) as measure_setup returns it.
    """
    pct = tail_percentile(len(loop.times))
    figures = {}
    for raw, setup_s in ((False, setup[0]), (True, setup[1])):
        figures[raw] = {
            "ops_per_s": loop.ops_per_s(raw),
            "op_p50_s": loop.quantile(0.5, raw),
            "op_tail_s": loop.quantile(pct / 100, raw),
            "setup_s": setup_s,
        }
    print(f"op_tail_s is p{pct:g} over {len(loop.times)} ops weighted equally "
          f"({len(loop.executions)} executions in the timed loop)")
    print("raw wall-clock figures: " + ", ".join(
        f"{k} = {v:.6g}" for k, v in figures[True].items()))
    return {
        **figures[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(tracer: tracing.Tracer, loop: Loop, untraced: Loop) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals over one pass of the op list, plus self-time check failures.

    Each slot contributes its median traced execution (the lower middle one
    of an even count), so the layer self times add up to those op times.
    Times are scaled by each execution's speed factor, as op times are.
    """
    named = tracing.self_by_name(tracer.spans)
    roots = {s.op: s.end - s.start for s in tracer.spans if s.parent == -1}
    problems = []
    for exec_id, *_ in loop.executions:
        layers = tracing.by_layer(named[exec_id])
        total = math.fsum(layers.values())
        if abs(total - roots[exec_id]) > 1e-6 or min(layers.values()) < -1e-6:
            problems.append(f"exec {exec_id}: layer self times sum to {total}, op took {roots[exec_id]}")
    reps = []
    for slot in sorted(loop.times):
        runs = sorted((t, eid, f) for eid, s, t, f in loop.executions if s == slot)
        reps.append(runs[(len(runs) - 1) // 2][1:])
    self_s: dict[str, float] = {}
    count: dict[str, float] = {}
    for eid, factor in reps:
        for name, sec in named[eid].items():
            self_s[name] = self_s.get(name, 0.0) + sec * factor
        for key, val in tracer.counters[eid].items():
            count[key] = count.get(key, 0.0) + (val * factor if key.endswith(".s") else val)
    layers = tracing.by_layer(self_s)

    def c(key):
        return count.get(key, 0.0)

    def us_per_call(name):
        return _ratio(c(name + ".s"), c(name + ".calls"), 1e6)

    map_s = sum(self_s.get(n, 0.0) for n in tracing.MAP_FACTORIES.values())
    steps = c("training.steps")
    m = {
        "cli.self_s": layers["cli"],
        "config.self_s": layers["config"],
        "config.load_s": sum(self_s.get(n, 0.0) for n in tracing.CONFIG_LOAD),
        "config.write_s": sum(self_s.get(n, 0.0) for n in tracing.CONFIG_WRITE),
        "config.bytes_written": c("config.bytes_written"),
        "bounds.self_s": layers["bounds"],
        "bounds.refine_s": c("bounds.refine_over_layer_budgets.s"),
        "bounds.layer_step.calls": c("bounds.layer_step.calls"),
        "bounds.layer_step.us": us_per_call("bounds.layer_step"),
        "bounds.network_certificate.calls": c("bounds.network_certificate.calls"),
        "bounds.network_certificate.us": us_per_call("bounds.network_certificate"),
        "bounds.loss_certificate.us": us_per_call("bounds.loss_certificate"),
        "bounds.closed_form_certificate.us": us_per_call("bounds.closed_form_certificate"),
        "empirical.lipschitz_s": c("empirical.empirical_lipschitz.s"),
        "empirical.self_s": layers["empirical"] - map_s,
        "empirical.map_s": map_s,
        "empirical.pairs": c("empirical.pairs"),
        "empirical.degenerate_pairs": c("empirical.degenerate_pairs"),
        "empirical.useful_pair_share": _ratio(
            c("empirical.pairs") - c("empirical.degenerate_pairs"), c("empirical.pairs")
        ),
        "empirical.output_map.us_per_krow": _ratio(
            c("empirical.output_map.s"), c("empirical.output_map.rows"), 1e9
        ),
        "empirical.jacobian_map.us_per_krow": _ratio(
            c("empirical.jacobian_map.s"), c("empirical.jacobian_map.rows"), 1e9
        ),
        "network.self_s": layers["network"],
        "network.forward.calls": c("network.forward.calls"),
        "network.forward.us": us_per_call("network.forward"),
        "network.grad_params.calls": c("network.grad_params.calls"),
        "network.grad_params.us": us_per_call("network.grad_params"),
        "training.self_s": layers["training"],
        "training.steps": steps,
        "training.projected_steps": c("training.projected_steps"),
        "training.us_per_step": _ratio(
            c("training.run_gd.s") + c("training.run_adagrad_norm.s"), steps, 1e6
        ),
        "training.objective_s": c("training.objective.s"),
        "code_net.self_s": layers["code_net"],
        "code_net.solve.calls": c("code_net.solve_code.calls"),
        "code_net.solve.us": us_per_call("code_net.solve_code"),
        "code_net.substep.us": _ratio(c("code_net.solve_code.s"), c("code_net.substeps"), 1e6),
        "code_net.verify_envelopes_s": c("code_net.verify_envelopes.s"),
        "code_net.code_certificate.us": us_per_call("code_net.code_certificate"),
        "trace.overhead_share": 1.0 - loop.ops_per_s() / untraced.ops_per_s(),
    }
    print(f"per-layer figures cover one pass of {len(reps)} ops (the median "
          f"traced run of each); layer self times sum to {math.fsum(layers.values()):.4f} s")
    return m, problems


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(args) -> dict:
    work_rel = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, work_rel / "configs")
    setup = measure_setup() if args.trace == 0 else None

    sys.path.insert(0, str(ROOT / "src"))
    import lipcert.cli as cli

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, closed loop, one client")
    print("env: " + json.dumps(env, sort_keys=True))

    # warm-up and byte-identity reference: the first generated op, run once
    ref = next(op for op in ops if not op.shipped)
    problems = []
    code, err = run_op(cli, ref, work / "rerun")
    if code not in FAILED_EXITS and code != 0:
        problems.append(f"{ref.name}: exit {code}: {err.strip()}")

    if args.trace == 0:
        loop = closed_loop(cli, ops, work, args.seconds)
        metrics = end_to_end(loop, setup)
        units = END_TO_END
    else:
        untraced = closed_loop(cli, ops, work, 0.0)
        tracer = tracing.Tracer()
        with tracer.install():
            loop = closed_loop(cli, ops, work, args.seconds, tracer)
        metrics, trace_problems = per_layer(tracer, loop, untraced)
        problems += trace_problems + untraced.problems
        if untraced.digests != loop.digests:
            problems.append("traced reports differ from untraced reports")
        tracer.dump(work / "spans.jsonl")
        units = PER_LAYER

    problems += loop.problems
    if report_digest(work / "rerun") != loop.digests.get(ref.slot):
        problems.append(f"{ref.name}: rerun reports differ byte for byte")
    digest = workload_digest(loop.digests, ops)
    print(f"report digest: {digest}")
    for p in problems:
        print(f"problem: {p}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "report_digest": digest, "env": env, "problems": problems,
         "op_times_s": {op.name: loop.times[op.slot] for op in ops if op.slot in loop.times},
         "op_wall_s": {op.name: loop.raw[op.slot] for op in ops if op.slot in loop.times}},
        indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "rerun", ignore_errors=True)
    return result


def run_all(args) -> dict:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {w} exited with {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results["falsify"]["metrics"])
    print(f"{'metric':<36}" + "".join(f"{w:>14}" for w in results))
    for name in names:
        unit = results["falsify"]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':<36}"
              + "".join(f"{r['metrics'][name]['value']:>14.6g}" for r in results.values()))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<36}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    needed = dict.fromkeys(
        ["src/lipcert/cli.py", *(c for s in workloads.SHIPPED.values() for _, c in s)]
    )
    missing = [path for path in needed if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a lipcert checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
