"""Host-performance benchmark of the simulator, end to end and per layer.

    python benchmarks/suite/run.py                      # all five workloads
    python benchmarks/suite/run.py --workload contended --seed 7
    python benchmarks/suite/run.py --workload streaming --trace
    python benchmarks/suite/run.py --smoke              # tiny sizes, < 20 s
    python benchmarks/suite/run.py --pin                # regenerate expected.json
    python benchmarks/suite/run.py --baseline           # rewrite BENCH_suite.json

Each workload runs as closed batches of simulation points.  This process
only generates load: it starts one fresh ``child.py`` per (workload,
tier, repetition), one at a time, and repeats until ``--seconds`` are
spent (at least three repetitions).  Children time themselves on the
reference clock (``refclock.py``), which divides out the speed the
shared machine happens to run at.  Host time of each unit of work is its
median repetition; set-up time and memory are medians over the
repetitions too.  Every point's simulated output is checked:
the fast and batch tiers must agree point by point, the sweep service
must agree with ``parallel_matrix``, and at the default seed every point
must match ``expected.json``.

``--trace`` makes two untraced and one traced repetition per tier and
reports the per-layer metrics (host time and counts of each layer,
measured by probes around the program's own functions; see
``probes.py``).  On ``contended`` it adds the ablation rows: each
optional layer installed but unable to act.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
exit code is 0 when every check passed, 1 when one failed, 2 when the
program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from refclock import wall

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
WORK = SUITE / ".work"
EXPECTED = SUITE / "expected.json"
BASELINE = SUITE / "BENCH_suite.json"

WORKLOADS = tuple(workloads.KIND)
TIERS = ("fast", "batch")
ABLATIONS = ("bus", "queue", "watchdog")
MIN_REPS = 3
MAX_REPS = 8
#: A run of one workload ends within this many seconds, whatever happens.
BUDGET_S = 170.0


# ------------------------------------------------------------- children


def launch(
    workload, tier, seed, *, smoke, deadline, trace=False, ablation=None,
    cold_only=False,
):
    """Run one repetition in a fresh process and return its record.

    The child gets its own process group, so a timeout kills it and any
    worker it forked; either way it has ended when this returns.
    """
    tag = "-".join(filter(None, (workload, tier, ablation, "trace" if trace else "")))
    workdir = WORK / f"{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(SUITE / "child.py"),
        "--workload", workload, "--tier", tier, "--seed", str(seed),
        "--out", str(out), "--workdir", str(workdir),
    ]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--cold-only"] * cold_only
    if ablation:
        cmd += ["--ablation", ablation]
    env = dict(os.environ)
    for var in ("REPRO_SANITIZE", "REPRO_BATCH_VECTOR_MIN"):
        env.pop(var, None)
    # A fixed hash seed gives every repetition the same dict layouts,
    # one less source of process-to-process timing noise.
    env.update(
        PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
        REPRO_ENGINE=tier, TMPDIR=str(workdir),
    )
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    err = None
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - wall()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        # Timeout, interrupt or normal exit: nothing of the child's
        # process group outlives this call.
        _reap(proc.pid)
        proc.wait()
    if err is None:
        return _crashed(tag, "timed out")
    if proc.returncode != 0 or not out.exists():
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return _crashed(tag, tail[0])
    result = json.loads(out.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _reap(pgid: int) -> None:
    """Kill anything still alive in the child's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _crashed(tag: str, why: str) -> dict:
    return {"crashed": True, "attempted": 1, "failures": [f"{tag}: {why}"]}


# ---------------------------------------------------------------- checks


class Checks:
    """Correctness bookkeeping of one workload run.

    Every point of every child is one operation.  A point fails when its
    child reported it failed, when its digest differs from the same
    point of the first fast child (tier agreement and determinism), or,
    at the default seed, when it differs from ``expected.json``.
    """

    def __init__(self, workload: str, seed: int, smoke: bool, pins: dict):
        self.expected = None
        if seed == workloads.DEFAULT_SEED:
            self.expected = pins.get("smoke" if smoke else "full", {}).get(workload)
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        if result.get("crashed"):
            return
        got = [p["digest"] for p in result["points"]]
        names = [p["point"] for p in result["points"]]
        if self.reference is None:
            self.reference = got
        for want, what in ((self.reference, "the fast tier"), (self.expected, "the pin")):
            if want is None:
                continue
            if len(want) != len(got):
                self.failures.append(f"{label}: {len(got)} points, {what} has {len(want)}")
                continue
            for name, a, b in zip(names, got, want):
                if a != b:
                    self.failures.append(f"{label} {name}: output differs from {what}")

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def _ok(result: dict) -> bool:
    return not result.get("crashed")


# --------------------------------------------------------------- metrics


def unit_seconds(children: list, with_setup: bool = False) -> float:
    """Host time of one tier's work, in reference seconds: every unit of
    work (one point, or one service job) at its median repetition, so
    one stalled repetition does not move it."""
    units = [child["units"] for child in children]
    return sum(
        statistics.median(u[i]["run_s"] + with_setup * u[i]["setup_s"] for u in units)
        for i in range(len(units[0]))
    )


def flits_per_s(children: list) -> float:
    return children[0]["flits"] / unit_seconds(children)


def end_to_end(reps: list) -> dict:
    """The end-to-end metrics over successful repetitions (set-up time
    and memory are medians over them)."""
    fast = [rep["fast"] for rep in reps]
    return {
        "flits_per_s.fast": flits_per_s(fast),
        "flits_per_s.batch": flits_per_s([rep["batch"] for rep in reps]),
        "points_per_s": len(fast[0]["points"]) / unit_seconds(fast, with_setup=True),
        "setup_s": statistics.median(
            rep["fast"]["setup_s"] + rep["batch"]["setup_s"] for rep in reps
        ),
        "peak_rss_mb": statistics.median(
            max(rep["fast"]["rss_mb"], rep["batch"]["rss_mb"]) for rep in reps
        ),
    }


def timed_run(workload, seed, seconds, smoke, pins):
    """Repeat (fast, batch) child pairs for ``seconds``; return the
    metrics, the per-repetition samples and the checks.  The serve
    workload's warm and parallel checks run in the first repetition
    only."""
    start = wall()
    deadline = start + BUDGET_S
    serve = workloads.KIND[workload] == "serve"
    reps = []
    while True:
        order = TIERS if len(reps) % 2 == 0 else TIERS[::-1]
        reps.append({
            t: launch(
                workload, t, seed, smoke=smoke, deadline=deadline,
                cold_only=serve and bool(reps),
            )
            for t in order
        })
        elapsed = wall() - start
        per_rep = elapsed / len(reps)
        if smoke or len(reps) >= MAX_REPS:
            break
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if wall() + 1.5 * per_rep > deadline:
            break
    checks = Checks(workload, seed, smoke, pins)
    for i, rep in enumerate(reps):
        for t in TIERS:
            checks.add(f"rep {i} {t}", rep[t])
    good = [r for r in reps if all(map(_ok, r.values()))]
    metrics = end_to_end(good) if good else {}
    samples = [end_to_end([r]) for r in good]
    return {
        "metrics": metrics,
        "samples": samples,
        "checks": checks,
        "seconds": wall() - start,
    }


def _owner(name: str):
    """The one tier that reports an unsuffixed per-layer metric (the
    batch kernel's, or the service's, which only the fast repetition
    exercises); None for metrics reported per tier."""
    if name.startswith("batch."):
        return "batch"
    if name.startswith(("serve.", "parallel.")):
        return "fast"
    return None


def traced_run(workload, seed, smoke, pins):
    """Per-layer metrics: two untraced and one traced repetition per
    tier, plus the ablation rows on ``contended``.  The untraced pair is
    the baseline of ``trace.overhead`` and of the ablation ratios."""
    start = wall()
    deadline = start + BUDGET_S

    def run(t, **kw):
        return launch(workload, t, seed, smoke=smoke, deadline=deadline, **kw)

    plain = {t: [run(t), run(t)] for t in TIERS}
    traced = {t: run(t, trace=True) for t in TIERS}
    rows = {}
    if workload == "contended":
        for layer in ABLATIONS:
            for t in TIERS:
                rows[f"ablation.{layer}.{t}"] = run(t, ablation=layer)
    checks = Checks(workload, seed, smoke, pins)
    for t in TIERS:
        for i, result in enumerate(plain[t]):
            checks.add(f"{t} {i}", result)
        checks.add(f"traced {t}", traced[t])
    for name, result in rows.items():
        checks.add(name, result)

    everything = [r for t in TIERS for r in plain[t] + [traced[t]]] + list(rows.values())
    metrics, absent, spans = {}, {}, {}
    if all(map(_ok, everything)):
        base = {t: flits_per_s(plain[t]) for t in TIERS}
        for t in TIERS:
            for name, value in traced[t]["layers"].items():
                owner = _owner(name)
                if owner is None:
                    metrics[f"{name}.{t}"] = value
                elif owner == t:
                    metrics[name] = value
            metrics[f"trace.overhead.{t}"] = base[t] / flits_per_s([traced[t]])
            absent[t] = traced[t]["absent"]
            spans[t] = traced[t]["spans"]
        for name, result in rows.items():
            metrics[name] = flits_per_s([result]) / base[name.rsplit(".", 1)[1]]
        if workload == "serve":
            fast = plain["fast"]
            n = fast[0]["job_points"]
            metrics["serve.warm_points_per_s"] = n / min(
                statistics.median(r["warm_s"]) for r in fast
            )
            metrics["parallel.points_per_s"] = n / min(r["parallel_s"] for r in fast)
    return {
        "metrics": metrics,
        "checks": checks,
        "absent": absent,
        "spans": spans,
        "seconds": wall() - start,
    }


# --------------------------------------------------------------- output


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, run, catalog, section, smoke) -> dict:
    """Print one workload's metrics; return them in catalogue order."""
    checks = run["checks"]
    samples = run.get("samples")
    n = len(samples) if samples is not None else 1
    print(
        f"== {workload}  seed {seed}{'  smoke' if smoke else ''}  "
        f"{'traced' if section == 'per_layer' else f'{n} repetitions'}  "
        f"{run['seconds']:.1f} s"
    )
    out = {}
    if not run["metrics"]:
        return out
    unknown = sorted(set(run["metrics"]) - {m["name"] for m in catalog[section]})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    for m in catalog[section]:
        value = run["metrics"].get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        line = f"  {m['name']:34s} {_fmt(value):>14s} {m['unit']:8s}"
        if section == "end_to_end":
            spread = ""
            if n >= 4:
                q = statistics.quantiles([s[m["name"]] for s in samples], n=4)
                spread = f"  IQR/median {(q[2] - q[0]) / value:.1%}"
            line += f" {m['better']:6s} bound {m['bound']:.0%}  n={n}{spread}"
        print(line)
    for tier, names in run.get("absent", {}).items():
        if names:
            print(f"  absent probes ({tier}): {', '.join(names)}")
    print(f"  checks: {checks.attempted} operations, {checks.failed} failed")
    for line in checks.failures[:10]:
        print(f"    FAIL {line}")
    return out


# ------------------------------------------------------------ pin / baseline


def pin(pins_path: Path) -> int:
    """Run every workload at the default seed on every tier (reference
    too, where the workload runs an engine in this process) and pin the
    outputs -- only if all tiers agree."""
    seed = workloads.DEFAULT_SEED
    pins = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        pins[mode] = {}
        for w in WORKLOADS:
            tiers = TIERS + (("reference",) if workloads.KIND[w] != "serve" else ())
            runs = {t: launch(w, t, seed, smoke=smoke, deadline=wall() + 3600) for t in tiers}
            digests = {}
            for t, r in runs.items():
                if not _ok(r) or r["failures"]:
                    print(f"refusing to pin: {w} ({mode}) {t}: {r['failures']}")
                    return 1
                digests[t] = [p["digest"] for p in r["points"]]
            if len({json.dumps(d) for d in digests.values()}) != 1:
                print(f"refusing to pin: {w} ({mode}) tiers disagree")
                return 1
            pins[mode][w] = digests["fast"]
            print(f"pinned {w} ({mode}): {len(digests['fast'])} points, tiers {'/'.join(tiers)} agree")
    pins_path.write_text(json.dumps({"seed": seed, **pins}, indent=2) + "\n")
    print(f"wrote {pins_path}")
    return 0


def _versions() -> dict:
    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip() or "absent"
    return {
        "git": git("describe", "--always", "--dirty"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--pin", action="store_true", help="regenerate expected.json")
    parser.add_argument(
        "--baseline", action="store_true",
        help="run every workload untraced and traced; rewrite BENCH_suite.json",
    )
    parser.add_argument("--expected", type=Path, default=EXPECTED, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else catalog["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if args.pin:
        return pin(args.expected)
    pins = json.loads(args.expected.read_text()) if args.expected.exists() else {}

    chosen = [args.workload] if args.workload else list(WORKLOADS)
    modes = [0, 1] if args.baseline else [args.trace]
    correct, attempted, failed, printed = True, 0, 0, {}
    record = {"seed": args.seed, "seconds": seconds}
    for trace in modes:
        section = "per_layer" if trace else "end_to_end"
        for w in chosen:
            if trace:
                run = traced_run(w, args.seed, args.smoke, pins)
                trace_file = WORK / f"trace-{w}.json"
                trace_file.write_text(json.dumps({
                    "workload": w, "seed": args.seed, "absent": run["absent"],
                    "metrics": run["metrics"], "spans": run["spans"],
                }))
            else:
                run = timed_run(w, args.seed, seconds, args.smoke, pins)
            shown = report(w, args.seed, run, catalog, section, args.smoke)
            checks = run["checks"]
            attempted += checks.attempted
            failed += checks.failed
            correct = correct and checks.failed == 0 and bool(shown)
            key = f"{w}/" if len(chosen) > 1 or args.baseline else ""
            printed.update({key + k: v for k, v in shown.items()})
            record.setdefault(section, {})[w] = {k: v["value"] for k, v in shown.items()}
    if args.baseline:
        record["versions"] = _versions()
        BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    if not printed:
        print("error: no repetition completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": printed,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
