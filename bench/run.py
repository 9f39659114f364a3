"""kolafreq benchmark: closed-loop ops through the kolafreq CLI, checked exactly.

    python3 bench/run.py --workload {table,series,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding `src/kolafreq`
and `BENCHMARK.json`).  One client runs one op at a time; every command of an
op is a fresh interpreter, so no `lru_cache` inside the program
(`automaton._profile_cached`, `verification.*_for_depth`) survives from one op
to the next.  Timing repeats in one process would time dict lookups instead,
which is why the benchmark never repeats work in-process and never touches a
cache or a private name.  One untimed warm-up op per run keeps bytecode
compilation and a cold page cache out of the timings.

The runner and every child it starts share one CPU.  While a child runs, the
runner times a fixed reference loop on that CPU every 10 ms (bench/reference.py)
and divides the child's CPU time by the loop's: that normalised CPU time is
the timing the benchmark gates, because raw times on a shared host swing with
the neighbours' load.

With `--trace 0` the run measures the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it alternates untraced ops with ops run under
bench/tracer.py and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the provenance, every
sample, and the failures.  A full record goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
from workloads import WORKLOADS, Command, References, prepare, setup_command  # noqa: E402

# Ops a run makes at least, even when they overrun --seconds.  Three keeps a
# median of the slowest workload (verify, ~10 s an op) meaningful.
MIN_OPS = 3
MIN_TRACED_PAIRS = 1
# `setup_s` samples taken before each op, so that they spread over the run
# like the ops do instead of landing in one second of it.
SETUP_PER_OP = 3
# Per command; a run must end within 180 s.
COMMAND_TIMEOUT_S = 150.0

LAYERS = ("words", "avoided", "automaton", "cluster", "polynomials", "bounds",
          "quasipoly", "verification")
# Exact counts of work done; they repeat from run to run.
WORK_COUNTS = ("automaton.states.", "automaton.degree_profile.state_steps",
               "automaton.enumerate_brute.words", "automaton.weight_poly_dp.calls",
               "cluster.weight_series.tail_updates", "polynomials.packed_bits.peak_computed")
DEPTH_METRICS = {"automaton.degree_profile": (7, 8), "cluster.weight_series": (3, 4)}

CLI_ENTRY = "import sys; from kolafreq.cli import main; sys.exit(main())"


class UsageError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Proc:
    """One finished CLI process."""

    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_unit_s: float  # mean CPU time of a reference unit while the child ran

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * reference.NOMINAL_UNIT_S / self.ref_unit_s


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    norm_cpu_s: float
    rss_mb: float
    problems: list[str]
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Starts kolafreq CLI processes from a checkout and measures each one.

    It pins itself to one CPU, so that every child runs there too and the
    reference loop it times meanwhile sees the same neighbours."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def spawn(self, argv: list[str], name: str) -> Proc:
        out_path = self.work / f"{name}.out"
        with open(out_path, "wb") as out, open(self.work / f"{name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            units: list[float] = []
            try:
                with os.fdopen(os.pidfd_open(proc.pid), "rb", buffering=0) as exited:
                    while True:
                        units.append(reference.unit())
                        # Readable once the child has exited, so its wall time
                        # ends when it does, not at the next sample.
                        if select.select([exited], [], [], reference.SAMPLE_INTERVAL_S)[0]:
                            break
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                    wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    statistics.fmean(units))

    def cli(self, args: tuple[str, ...], name: str) -> Proc:
        return self.spawn([sys.executable, "-c", CLI_ENTRY, *args], name)

    def traced(self, args: tuple[str, ...], name: str, op_id: int) -> tuple[Proc, Path]:
        spans = self.work / f"{name}.spans.jsonl"
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans),
                "--op", str(op_id), "--", *args]
        return self.spawn(argv, name), spans


def run_op(runner: Runner, commands: list[Command], name: str, op_id: int, traced: bool) -> Op:
    """Run the commands of one op in order; the op's time is their sum."""
    walls, cpus, norms, rsss, problems, traces = [], [], [], [], [], []
    for k, command in enumerate(commands):
        label = f"{name}-{command.label}-{k}"
        if traced:
            proc, spans = runner.traced(command.args, label, op_id)
            traces.append((proc.wall_s, spans))
        else:
            proc = runner.cli(command.args, label)
        walls.append(proc.wall_s)
        cpus.append(proc.cpu_s)
        norms.append(proc.norm_cpu_s)
        rsss.append(proc.rss_mb)
        problems += command.check(proc.code, proc.stdout)
    op = Op(sum(walls), sum(cpus), sum(norms), max(rsss), problems, traced)
    if traced:
        try:
            op.layers = layer_metrics([read_trace(wall, path) for wall, path in traces])
        except (OSError, ValueError, KeyError) as exc:
            op.problems.append(f"trace unreadable: {type(exc).__name__}: {exc}")
    return op


# -- traces --------------------------------------------------------------------


@dataclass
class Trace:
    """Spans of one traced process, and its wall time with count-only work removed."""

    wall_s: float
    spans: list[dict]
    counts: dict[str, int]


def read_trace(wall_s: float, path: Path) -> Trace:
    spans, counts, post = [], {}, 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "name" in rec:
                spans.append(rec)
            counts.update(rec.get("counts_outside_op", {}))
            post = rec.get("post_op_s", post)
    return Trace(wall_s - post, spans, counts)


def depth_of(set_size: int) -> int | None:
    """d with |S_d| = 2^(d+1) - 2, or None for a set outside that family."""
    n = set_size + 2
    return n.bit_length() - 2 if n & (n - 1) == 0 else None


def layer_metrics(traces: list[Trace]) -> dict[str, float]:
    """Per-layer numbers of one op, summed over its processes.

    A span's self time is its duration minus its direct children's; a layer's
    self time sums its spans' self times; `cli.self_s` is the rest of the op's
    wall time (interpreter start, import, argument parsing, output).  So the
    layer self times and `cli.self_s` add up to `traced_wall_s` exactly.
    """
    m: dict[str, float] = defaultdict(float)
    states: dict[int, int] = {}
    for trace in traces:
        spans = {s["id"]: s for s in trace.spans}
        child_ns = defaultdict(int)
        children = defaultdict(list)
        for s in trace.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
                children[s["parent"]].append(s)
        m["traced_wall_s"] += trace.wall_s
        for s in trace.spans:
            name, dur = s["name"], s["end"] - s["start"]
            self_s = (dur - child_ns[s["id"]]) / 1e9
            m[name.split(".")[0] + ".self_s"] += self_s
            ancestor, outermost = s["parent"], True
            while ancestor is not None:
                if spans[ancestor]["name"] == name:
                    outermost = False
                    break
                ancestor = spans[ancestor]["parent"]
            if outermost:
                m[name + ".s"] += dur / 1e9
                m[name + ".calls"] += 1
                d = depth_of(s["set_size"]) if "set_size" in s else None
                if name in DEPTH_METRICS and d in DEPTH_METRICS[name]:
                    m[f"{name}.d{d}.s"] += dur / 1e9
            if name == "automaton.build_automaton":
                d = depth_of(s["set_size"])
                if d is not None:
                    states[d] = s["states"]
            elif name == "automaton.degree_profile":
                built = [c for c in children[s["id"]] if c["name"] == "automaton.build_automaton"]
                if built:  # a cache hit builds nothing and steps nothing
                    m["automaton.degree_profile.state_steps"] += built[0]["states"] * s["N"]
                    m["automaton.degree_profile.kernel_s"] += self_s
            elif name == "automaton.enumerate_brute":
                m["automaton.enumerate_brute.words"] += 2 ** s["n"]
            elif name == "cluster.weight_series":
                bits = (s["N"] + 2) * (s["N"] + 1)
                m["polynomials.packed_bits.peak_computed"] = max(
                    m["polynomials.packed_bits.peak_computed"], bits)
            elif name == "verification.run_checks":
                for check, seconds in s["checks"].items():
                    m[f"verification.{check}.s"] += seconds
        for key, value in trace.counts.items():
            m[key] += value
    for d, n in states.items():
        m[f"automaton.states.d{d}"] = n
    steps = m["automaton.degree_profile.state_steps"]
    kernel = m.pop("automaton.degree_profile.kernel_s", 0.0)
    m["automaton.degree_profile.ns_per_state_step"] = kernel * 1e9 / steps if steps else 0.0
    m["cli.self_s"] = m["traced_wall_s"] - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return dict(m)


# -- runs ------------------------------------------------------------------------


def provenance(root: Path, seed: int) -> dict:
    from kolafreq import polynomials

    sha = None
    if (root / ".git").exists():  # a plain source tree has no sha; never ask a parent repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kolafreq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mpz": "gmpy2" if polynomials.mpz is not int else "int",
        "numpy": importlib.util.find_spec("numpy") is not None,
        "seed": seed,
    }


def closed_loop(seconds: float, min_ops: int, warmup_s: float, step) -> None:
    """Call step() until --seconds is spent: start another op only while the last
    one's duration still fits, and always make at least `min_ops`."""
    start = time.perf_counter()
    estimate, done = warmup_s, 0
    while done < min_ops or time.perf_counter() - start + estimate <= seconds:
        estimate = step(done)
        done += 1


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        refs: References, out_dir: Path) -> dict:
    work = out_dir / f"{workload}-s{seed}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    rng = random.Random(seed)
    make_op = WORKLOADS[workload]
    ctx, problems = prepare(workload, lambda args: runner.cli(args, "prepare"),
                            refs, str(work / "S3.txt"))

    setup = setup_command()
    setup_samples: list[float] = []  # normalised CPU seconds, as for ops
    setup_walls: list[float] = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            proc = runner.cli(setup.args, "setup")
            problems.extend(setup.check(proc.code, proc.stdout))
            setup_samples.append(proc.norm_cpu_s)
            setup_walls.append(proc.wall_s)

    if not trace:
        sample_setup(1)
        setup_samples.clear()  # untimed: the first call may compile bytecode
        setup_walls.clear()

    # The warm-up op runs traced: it is untimed anyway, and so every run
    # records the exact work counts.
    warmup = run_op(runner, make_op(rng, ctx), "warmup", 0, traced=True)
    problems += warmup.problems
    ops: list[Op] = []

    def step(k: int) -> float:
        if not trace:
            sample_setup(SETUP_PER_OP)
            ops.append(run_op(runner, make_op(rng, ctx), f"op{k}", k + 1, traced=False))
            return ops[-1].wall_s
        pair = [False, True]
        rng.shuffle(pair)
        for traced in pair:
            ops.append(run_op(runner, make_op(rng, ctx), f"op{k}-{'t' if traced else 'u'}",
                              k + 1, traced=traced))
        return ops[-1].wall_s + ops[-2].wall_s

    closed_loop(seconds, MIN_TRACED_PAIRS if trace else MIN_OPS, warmup.wall_s * (1 + trace), step)
    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        problems += op.problems
    untraced = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    walls = [op.wall_s for op in untraced]
    metrics = {
        "norm_cpu_s.p50": statistics.median(op.norm_cpu_s for op in untraced),
        "wall_s.p50": statistics.median(walls),
        "cpu_s.p50": statistics.median(op.cpu_s for op in untraced),
        "peak_rss_mb": statistics.median(op.rss_mb for op in untraced),
    }
    if setup_samples:
        metrics["setup_s"] = statistics.median(setup_samples)
    if traced_ops:
        # Every layer number comes from one op, the traced op of median wall
        # time, so that they add up to its traced_wall_s exactly.
        typical = sorted(traced_ops, key=lambda op: op.wall_s)[(len(traced_ops) - 1) // 2]
        metrics.update(typical.layers)
        metrics["trace_overhead_s"] = (
            statistics.median(op.wall_s for op in traced_ops) - metrics["wall_s.p50"])
    return {
        "workload": workload,
        "trace": trace,
        "ops": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "wall_s": walls,
        "wall_s.max": max(walls),
        "cpu_s": [op.cpu_s for op in untraced],
        "norm_cpu_s": [op.norm_cpu_s for op in untraced],
        "cpu": runner.cpu,
        "setup_s": setup_samples,
        "setup_wall_s": setup_walls,
        "warmup_s": warmup.wall_s,
        "counts": {k: int(v) for k, v in warmup.layers.items() if k.startswith(WORK_COUNTS)},
        "problems": problems,
        "metrics": metrics,
    }


def declared_metrics(root: Path, trace: bool) -> list[dict]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = BENCH_DIR / "out"
    # Terminated from outside, unwind so that the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    try:
        if not (root / "src" / "kolafreq" / "cli.py").is_file():
            raise UsageError(f"no src/kolafreq in {root}; run from a kolafreq checkout")
        declared = declared_metrics(root, bool(args.trace))
        sys.path.insert(0, str(root / "src"))
        try:
            from kolafreq.verification import REF_RESULTS_TABLE
        except ImportError as exc:
            raise UsageError(f"cannot import kolafreq from {root / 'src'}: {exc}") from exc
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    refs = References.frozen(REF_RESULTS_TABLE)
    facts = provenance(root, args.seed)  # before the runner pins this process to one CPU
    record = run(root, args.workload, args.seed, args.seconds, bool(args.trace), refs, out)
    record["provenance"] = facts
    measured = record["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    # A per-layer metric no traced op produced belongs to a layer this
    # workload never calls: it did 0 s and 0 units of work.
    if missing and not args.trace:
        record["problems"].append(f"metrics not measured: {missing}")
    path = out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    info = {k: record[k] for k in ("provenance", "ops", "fail_ratio", "wall_s", "wall_s.max",
                                   "cpu_s", "norm_cpu_s", "cpu", "setup_s", "setup_wall_s",
                                   "warmup_s", "counts")}
    for raw in ("wall_s.p50", "cpu_s.p50"):  # ungated: see bench/README.md
        info[raw] = measured[raw]
    info["problems"] = record["problems"][:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["ops"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
