"""Benchmark of the casorati command line, end to end and layer by layer.

    python3 perfbench/run.py --workload chart_sweep --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is taken from `src/`.
One client drives the CLI in a closed loop: each `python -m casorati.cli`
invocation runs to completion before the next starts. A pass is the
workload's list of invocations; the run repeats passes while another fits in
--seconds, checks every output against its oracle, and prints one JSON line
last. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes, requires their outputs to be
identical byte for byte, and reports per-layer metrics from the spans.
Work files go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracing.py"
# The whole run, passes and set-up included, must end well inside 180 s.
RUN_CAP_S = 165.0
SETUP_REPS = 5
IMPORTTIME_REPS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Pass:
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)
    children: list = field(default_factory=list)


def run_child(argv: list, env: dict, deadline: float, out_path: Path) -> Child:
    """Run one child to completion and reap it with wait4, which gives its own
    CPU time and peak RSS. A child still running at `deadline` is killed."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def run_pass(invocations: list, env: dict, deadline: float, workdir: Path,
             traced: bool) -> Pass:
    p = Pass()
    for i, inv in enumerate(invocations):
        out_path = workdir / f"{'traced' if traced else 'plain'}-{i}.out"
        spans_path = workdir / f"spans-{i}.json"
        spans_path.unlink(missing_ok=True)
        prefix = ([sys.executable, str(TRACER), str(spans_path)]
                  if traced else [sys.executable, "-m", "casorati.cli"])
        child = run_child(prefix + inv.args, env, deadline, out_path)
        p.children.append(child)
        p.outcomes.append(inv.check(child.returncode, child.stdout, child.stderr))
        p.wall_s += child.wall_s
    return p


def import_child(env: dict, deadline: float, workdir: Path, *flags) -> Child:
    return run_child([sys.executable, *flags, "-c", "import casorati.cli"], env,
                     deadline, workdir / "import.out")


def measure_setup(env: dict, deadline: float, workdir: Path) -> float:
    """Median wall time of a fresh interpreter running `import casorati.cli`,
    after one untimed import that writes the bytecode caches."""
    import_child(env, deadline, workdir)
    return statistics.median(import_child(env, deadline, workdir).wall_s
                             for _ in range(SETUP_REPS))


def parse_importtime(text: str) -> tuple:
    """(cumulative s of casorati.cli, cumulative s of the outermost scipy
    imports) from `python -X importtime` output."""
    entries = []
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue
        raw = parts[2]
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), cumulative))
    total = next((c for _, name, c in entries if name == "casorati.cli"), 0)
    scipy_us, ancestors = 0, []
    # The output lists children before their parent; reversed, a parent comes
    # first and `ancestors` holds the open chain above each entry.
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            scipy_us += cumulative
        ancestors.append((indent, is_scipy))
    return total / 1e6, scipy_us / 1e6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine(env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"),
            "child_thread_env": {k: env.get(k, "unset") for k in THREAD_ENV}}


def tally(passes: list, points: int) -> tuple:
    """(attempted, failed, wrong outputs) over passes."""
    failed = sum(o.failed for p in passes for o in p.outcomes)
    wrong = [w for p in passes for o in p.outcomes for w in o.wrong]
    return points * len(passes), failed, wrong


def keep_going(start: float, seconds: float, walls: list, deadline: float) -> bool:
    """Start another pass only if one more of median length still fits."""
    now = time.monotonic()
    more = statistics.median(walls)
    return now - start + more <= seconds and now + 1.5 * more < deadline


def best_of(passes: list, attr: str) -> float:
    """Sum over invocations of each invocation's smallest value over passes.

    Interference from other tenants of a shared machine only ever slows a
    child down, and it comes and goes within seconds: the median of a 15 s
    window of identical work drifts by about 9% from window to window while
    its minimum stays within about 2%. The fastest repetition of each
    invocation is therefore the steady estimate of its cost.
    """
    return sum(min(getattr(c, attr) for c in reps)
               for reps in zip(*(p.children for p in passes)))


def plain_run(invocations, env, seconds, deadline, workdir) -> tuple:
    setup_s = measure_setup(env, deadline, workdir)
    passes, start = [], time.monotonic()
    while True:
        passes.append(run_pass(invocations, env, deadline, workdir, traced=False))
        if not keep_going(start, seconds, [p.wall_s for p in passes], deadline):
            break
    points = sum(inv.points for inv in invocations)
    return end_to_end(setup_s, passes, points), passes, []


def end_to_end(setup_s: float, passes: list, points: int) -> dict:
    wall = best_of(passes, "wall_s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (points / wall, "1/s"),
        "cpu_s": (best_of(passes, "cpu_s"), "s"),
        "peak_rss_mb": (max(c.rss_mb for p in passes for c in p.children), "MB"),
    }


def traced_run(invocations, env, seconds, deadline, workdir) -> tuple:
    imports = [parse_importtime(import_child(env, deadline, workdir,
                                             "-X", "importtime").stderr)
               for _ in range(IMPORTTIME_REPS)]
    plain, traced, totals, start = [], [], [], time.monotonic()
    while True:
        plain.append(run_pass(invocations, env, deadline, workdir, traced=False))
        traced.append(run_pass(invocations, env, deadline, workdir, traced=True))
        for inv, a, b, o in zip(invocations, plain[-1].children, traced[-1].children,
                                traced[-1].outcomes):
            if (a.returncode, a.stdout) != (b.returncode, b.stdout):
                o.failed = inv.points
                o.wrong.append(f"{inv.label}: traced output differs from untraced")
        spans = [tracing.load_spans(workdir / f"spans-{i}.json")
                 for i in range(len(invocations))]
        totals.append(tracing.layer_totals(spans))
        if len(totals) == 1:
            notes = [f"MISSING boundary {name}: not traced"
                     for name in totals[0]["missing"]]
            notes += [layer_note(inv.label, tracing.layer_totals([data]))
                      for inv, data in zip(invocations, spans)]
        walls = [a.wall_s + b.wall_s for a, b in zip(plain, traced)]
        if not keep_going(start, seconds, walls, deadline):
            break
    metrics = per_layer(invocations, imports, plain, traced, totals)
    return metrics, plain + traced, notes


def layer_note(label: str, totals: dict) -> str:
    """The largest self-time shares of one invocation's in-main time."""
    main_s = totals["main_s"]
    top = sorted(totals["self_s"].items(), key=lambda kv: -kv[1])[:4]
    return (f"trace {label}: in main {main_s:.3f} s; "
            + ", ".join(f"{layer} {ratio(own, main_s):.3f}" for layer, own in top))


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was measured (a layer never called)."""
    return part / whole if whole else 0.0


def per_layer(invocations, imports, plain, traced, totals) -> dict:
    """Counts from the first traced pass (they repeat exactly), self time as
    a share of the in-main time, medians over traced passes."""
    calls, points = totals[0]["calls"], sum(inv.points for inv in invocations)
    metrics = {}
    for layer, count in calls.items():
        metrics[f"{layer}_calls"] = (count, "count")
        metrics[f"{layer}_self_share"] = (statistics.median(
            ratio(t["self_s"][layer], t["main_s"]) for t in totals), "ratio")
    extremize, riemann = calls["invariants.extremize"], calls["geometry.riemann"]
    outcomes = traced[0].outcomes
    metrics.update({
        "elliptic.jacobi_calls_per_point": (calls["elliptic.jacobi"] / points, "calls/point"),
        "immersions.jet_calls_per_point": (calls["immersions.jet"] / points, "calls/point"),
        "immersions.first_partials_per_riemann": (
            ratio(calls["immersions.first_partials"], riemann), "calls/call"),
        "invariants.grid_nodes_per_extremum": (
            ratio(totals[0]["grid_nodes"], extremize), "nodes"),
        "cli.points_skipped": (sum(o.skipped for o in outcomes), "count"),
        "cli.violations": (sum(o.violations for o in outcomes), "count"),
        "cli.import_s": (statistics.median(i[0] for i in imports), "s"),
        "cli.import_scipy_s": (statistics.median(i[1] for i in imports), "s"),
        "trace.main_s": (statistics.median(t["main_s"] for t in totals), "s"),
        "trace.overhead_share": (best_of(traced, "wall_s") / best_of(plain, "wall_s")
                                 - 1.0, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "casorati" / "cli.py").is_file():
        print(f"error: no casorati source under {SRC}; run from the root of a "
              "casorati checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_CAP_S
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = WORKLOADS[args.workload](args.seed, workdir)
    env = child_env()
    print("machine " + json.dumps(machine(env), sort_keys=True))
    run = traced_run if args.trace else plain_run
    metrics, passes, notes = run(invocations, env, args.seconds, deadline, workdir)

    points = sum(inv.points for inv in invocations)
    attempted, failed, wrong = tally(passes, points)
    for i, inv in enumerate(invocations):
        reps = [p.children[i] for p in passes]
        print(f"  {inv.label:32s} {inv.points:4d} points, exit "
              f"{sorted({c.returncode for c in reps})}, failed "
              f"{passes[0].outcomes[i].failed}, wall s "
              + " ".join(f"{c.wall_s:.3f}" for c in reps))
    for w in wrong[:20]:
        print(f"  WRONG {w}")
    for note in notes:
        print(f"  {note}")
    print(f"{len(passes)} passes of {points} points")
    print(f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted} points)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
