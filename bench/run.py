"""Benchmark of the motivic calculator: one command prints every metric.

    python3 bench/run.py --workload {cli,field,coeff,lattice} --seed N \
                         --seconds S --trace {0,1}

Run it from the repository root.  It never imports the library itself:
the operations run in child processes (bench/worker.py, or the motivic
command line) with PYTHONPATH=src, one client in a closed loop, and every
result is checked after its timed region.  The loop runs whole rounds of
the seeded operation mix (workloads.py) until --seconds have passed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with rounds whose spans are recorded around the library's public
calls, and prints the per-layer metrics; the difference of the two kinds
of rounds' median operation time is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics ({name: {value, unit}}).  The lines before it give the
environment, the tail percentile and sample count, and any failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import oracles
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable
clock = time.perf_counter

SETUP_REPS = 5  # fresh interpreters timed for setup_s; the median is reported
PROBE_REPS = 5  # fresh interpreters per start-up probe of a traced run
OP_TIMEOUT = 60.0  # a child still running after this is killed and the op fails
GRACE = 30.0  # no op starts later than --seconds + GRACE, even mid-round

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "MOTIVIC_WIDTH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Context:
    def __init__(self, root, tmp, goldens):
        self.root = root
        self.tmp = tmp
        self.env = child_env(root)
        self.goldens = goldens


def _killer(proc, timeout):
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _reap(proc):
    """Wait for proc; returns its peak resident set in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_process(ctx, argv, timeout=OP_TIMEOUT):
    """Spawn and wait: (seconds spawn to exit, exit code, stdout, stderr, peak RSS KiB)."""
    with tempfile.TemporaryFile(dir=ctx.tmp) as out, tempfile.TemporaryFile(dir=ctx.tmp) as err:
        t0 = clock()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root
        )
        timer = _killer(proc, timeout)
        try:
            rss = _reap(proc)
        finally:
            timer.cancel()
        t = clock() - t0
        out.seek(0)
        err.seek(0)
        return t, proc.returncode, out.read().decode(), err.read().decode(), rss


def first_line(ctx, argv):
    """Spawn, time until the child's first stdout line, wait for exit."""
    t0 = clock()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=ctx.env, cwd=ctx.root, text=True
    )
    timer = _killer(proc, OP_TIMEOUT)
    try:
        line = proc.stdout.readline()
        t = clock() - t0
        proc.stdout.read()
        proc.stdout.close()
        _reap(proc)
    finally:
        timer.cancel()
    if proc.returncode != 0 or not line:
        raise RuntimeError("%s exited with status %s" % (" ".join(argv[1:3]), proc.returncode))
    return t, json.loads(line)


class Worker:
    """A bench/worker.py serve process answering one op per line."""

    def __init__(self, ctx, trace):
        self.err = tempfile.TemporaryFile(dir=ctx.tmp)
        argv = [PY, WORKER, "serve"] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            env=ctx.env,
            cwd=ctx.root,
            text=True,
        )
        if self._read(OP_TIMEOUT) is None:
            self.close()
            self.err.seek(0)
            raise RuntimeError("worker did not start:\n" + self.err.read().decode())

    def _read(self, timeout):
        timer = _killer(self.proc, timeout)
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        return json.loads(line) if line else None

    def call(self, op):
        """The worker's reply, or None if it died."""
        try:
            self.proc.stdin.write(json.dumps(op) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read(OP_TIMEOUT)

    def close(self):
        """Stop the worker; returns its peak resident set in KiB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        timer = _killer(self.proc, OP_TIMEOUT)
        try:
            rss = _reap(self.proc)
        finally:
            timer.cancel()
        self.proc.stdout.close()
        self.err.close()
        return rss


class Pass:
    """Results of one closed-loop pass over the operation list."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failures = []
        self.rss_kb = 0
        self.totals = {}
        self.traced = 0

    def record(self, op, t, why, trace=None, rss_kb=0):
        self.attempted += 1
        if t is not None:
            self.times.append(t)
        if why is not None:
            self.failures.append("%s: %s" % (json.dumps(op)[:120], why))
        if trace is not None:
            tracing.merge(self.totals, trace)
            self.traced += 1
        self.rss_kb = max(self.rss_kb, rss_kb)


def _cli_op(ctx, op, trace, res):
    trace_file = os.path.join(ctx.tmp, "trace.json")
    if trace:
        argv = [PY, WORKER, "cli", trace_file] + op["argv"]
    else:
        argv = [PY, "-m", "motivic.cli"] + op["argv"]
    t, rc, out, err, rss = run_process(ctx, argv)
    try:
        oracles.check_cli(op, rc, out, err, ctx.goldens)
        why = None
    except oracles.Mismatch as exc:
        why = str(exc)
    totals = None
    if trace and os.path.exists(trace_file):
        with open(trace_file) as fh:
            totals = json.load(fh)["trace"]
        os.remove(trace_file)
    res.record(op, t, why, totals, rss)


def _reply(res, op, reply, rss_kb=0):
    if reply is None:
        res.record(op, None, "worker died", rss_kb=rss_kb)
    else:
        res.record(op, reply["t"], None if reply["ok"] else reply["why"], reply.get("trace"), rss_kb)


def run_pass(ctx, workload, rounds, seconds, modes=(False,)):
    """Whole rounds until `seconds` have passed (no op starts after +GRACE).

    Round i runs traced if modes[i % len(modes)]; returns one Pass per
    mode.  With modes (False, True) the untraced and traced rounds
    alternate, so both see the same machine conditions."""
    results = [Pass() for _ in modes]
    workers = {}  # field: one long-lived worker per mode; lattice: one per round
    start = clock()
    try:
        for i, rnd in enumerate(itertools.cycle(rounds)):
            k = i % len(modes)
            if k == 0 and clock() - start >= seconds:
                break
            trace, res = modes[k], results[k]
            for op in rnd:
                if clock() - start >= seconds + GRACE:
                    return results
                if workload == "cli":
                    _cli_op(ctx, op, trace, res)
                elif workload == "coeff":
                    fresh = Worker(ctx, trace)  # cold library caches for every op
                    reply = fresh.call(op)
                    _reply(res, op, reply, fresh.close())
                else:
                    if trace not in workers:
                        workers[trace] = Worker(ctx, trace)
                    reply = workers[trace].call(op)
                    _reply(res, op, reply)
                    if reply is None:
                        res.rss_kb = max(res.rss_kb, workers.pop(trace).close())
            if workload == "lattice" and trace in workers:
                # A fresh worker per round: its peak memory is that of one
                # round, not of however many rounds fit in `seconds`.
                res.rss_kb = max(res.rss_kb, workers.pop(trace).close())
    finally:
        for trace, worker in workers.items():
            res = results[modes.index(trace)]
            res.rss_kb = max(res.rss_kb, worker.close())
    return results


def tail(times):
    """(value, percentile, n): highest percentile with >= 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(res, setup_times):
    t_tail, pct, n = tail(res.times)
    return {
        "op_p50_s": statistics.median(res.times),
        "op_tail_s": t_tail,
        "ops_per_s": len(res.times) / sum(res.times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": res.rss_kb / 1024.0,
        "ok_frac": (res.attempted - len(res.failures)) / res.attempted,
    }, "op_tail_s is p%.1f of n=%d operations" % (pct, n)


def git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(ctx, workload, seed):
    """Spawn-to-ready times of fresh set-up probes, after one untimed warm-up
    (which also writes the bytecode caches)."""
    argv = [PY, WORKER, "probe", workload, str(seed)]
    _, info = first_line(ctx, argv)
    times, imports = [], []
    for _ in range(SETUP_REPS):
        t, probe = first_line(ctx, argv)
        times.append(t)
        imports.append(probe["import_s"])
    return times, imports, info


def startup_layers(ctx, import_times):
    interp = [run_process(ctx, [PY, "-c", "pass"])[0] for _ in range(PROBE_REPS)]
    numpy_s = [first_line(ctx, [PY, WORKER, "numpy"])[1]["import_numpy_s"] for _ in range(PROBE_REPS)]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(import_times),
        "cli.import_numpy_s": statistics.median(numpy_s),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "motivic", "__init__.py")):
        print("bench: run from the repository root (src/motivic not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    rounds = workloads.generate(args.workload, args.seed, workloads.ROUNDS)
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp") as tmp:
        ctx = Context(root, tmp, goldens)
        setup_times, import_times, info = measure_setup(ctx, args.workload, args.seed)
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": git_commit(root),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": info["python"],
            "numpy": info["numpy"],
        }
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            passes = plain, traced = run_pass(ctx, args.workload, rounds, args.seconds, (False, True))
            metrics = tracing.layer_metrics(traced.totals, traced.traced)
            metrics.update(startup_layers(ctx, import_times))
            p50_plain = statistics.median(plain.times)
            p50_traced = statistics.median(traced.times)
            metrics["trace.overhead_s"] = p50_traced - p50_plain
            print("op_p50_s untraced %.6f traced %.6f (n=%d, %d)"
                  % (p50_plain, p50_traced, len(plain.times), len(traced.times)))  # fmt: skip
            units = dict(tracing.PER_LAYER)
        else:
            passes = (res,) = run_pass(ctx, args.workload, rounds, args.seconds)
            metrics, note = end_to_end(res, setup_times)
            print(note)
            units = dict(END_TO_END)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures[:20]:
        print("FAILED " + f)
    for name, unit in units.items():
        print("%-28s %14.6f %s" % (name, metrics[name], unit))
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
