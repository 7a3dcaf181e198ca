"""tsurf benchmark: fixed CLI pipelines in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root (any directory works; paths resolve from this
file). Each pipeline runs as a fresh `python3 -m tsurf.cli` process on the
checkout's `src/`, the next one starting after the previous exits, for
`--seconds` seconds. Every run's artifacts are checked against
reference.json; a run that exits non-zero, times out or fails its check
counts as failed.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics: median pipeline wall time (`wall_s`), median `tsurf validate` wall
time on the same surface (`setup_s`, probed in a closed loop for the first
quarter of `--seconds`) and median peak RSS of the pipeline process
(`peak_rss_mb`). With `--trace 1` it holds the per-layer metrics of
an in-process traced run (tracing.py), next to one untraced run that gives
the tracing overhead. A human summary goes to stderr, and the full record
(environment, samples, spans) to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from checks import check_artifacts, check_setup, load_reference  # noqa: E402
from tracing import INVARIANT_COUNTERS, PER_LAYER, layer_times, run_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
# Share of `--seconds` spent on `tsurf validate` probes before the pipelines.
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 90.0
# Children are cut so that one benchmark run ends well within 180 s.
RUN_LIMIT_S = 165.0
TSURF = [sys.executable, "-m", "tsurf.cli"]


class BenchError(Exception):
    """The benchmark cannot produce a result at all (no program to run,
    set-up probe broken); the run exits non-zero without a result line."""


@dataclass
class Child:
    returncode: int | None  # None when killed at its timeout
    wall_s: float
    rss_mib: float
    cpu_s: float


@dataclass
class Sample:
    child: Child
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Budget:
    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.end = time.perf_counter() + limit_s

    def timeout(self, cap: float = CHILD_TIMEOUT_S) -> float:
        return min(cap, self.end - time.perf_counter())


def child_env() -> dict:
    """The user's environment, with the checkout's sources as the only extra
    import path and scratch files inside the checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(WORK / "tmp"))


def run_child(argv: list[str], timeout: float, log: Path) -> Child:
    """Run one process to completion or until `timeout`, whichever is first,
    with stderr to `log`. Wall time includes interpreter start-up; peak RSS
    and CPU time come from the child's own rusage."""
    log.parent.mkdir(parents=True, exist_ok=True)
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)

        def kill():
            with lock:
                if state["reaped"]:
                    return
                state["killed"] = True
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - t0
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(None if state["killed"] else proc.returncode, wall,
                 usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def _last_line(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _verdict(child: Child, timeout: float, log: Path, check) -> list[str]:
    if child.returncode is None:
        return [f"timed out after {timeout:.1f} s"]
    if child.returncode != 0:
        return [f"exit code {child.returncode}: {_last_line(log)}"]
    return check()


def run_sample(wl: Workload, seed: int, budget: Budget, ref: dict,
               program: list[str] | None = None, setup: bool = False) -> Sample:
    """One pipeline (or, with `setup`, one `tsurf validate` probe) in a fresh
    process, checked against the reference."""
    kind = "setup" if setup else "pipeline"
    out = WORK / "out" / f"{wl.name}-{kind}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = wl.setup_argv(seed, str(out)) if setup else wl.argv(seed, str(out))
    log = WORK / "logs" / f"{wl.name}-{kind}.stderr"
    timeout = budget.timeout()
    child = run_child([*(program or TSURF), *args], timeout, log)
    check = check_setup if setup else check_artifacts
    return Sample(child, _verdict(child, timeout, log,
                                  lambda: check(wl.name, out, ref)))


def closed_loop(take, seconds: float, budget: Budget) -> list[Sample]:
    """Start the next sample when the previous one ends, as long as a sample
    of median length still fits in `seconds`; at least one sample is always
    taken, so a run lasts about `seconds` however long one sample is."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        samples.append(take())
        typical = statistics.median([s.child.wall_s for s in samples])
        now = time.perf_counter()
        if now + typical > deadline or now + typical > budget.end:
            return samples


def _setup(wl: Workload, seed: int, seconds: float, budget: Budget,
           ref: dict) -> list[Sample]:
    setups = closed_loop(lambda: run_sample(wl, seed, budget, ref, setup=True),
                         SETUP_SHARE * seconds, budget)
    if not any(s.ok for s in setups):
        raise BenchError(f"{wl.name}: every set-up probe failed: {setups[0].problems}")
    return setups


def measure(wl: Workload, seed: int, seconds: float, ref: dict) -> dict:
    """End-to-end run of one workload with tracing off."""
    budget = Budget()
    t0 = time.perf_counter()
    setups = _setup(wl, seed, seconds, budget, ref)
    samples = closed_loop(lambda: run_sample(wl, seed, budget, ref),
                          seconds - (time.perf_counter() - t0), budget)
    good = [s for s in samples if s.ok] or samples
    runs = setups + samples
    return {
        "attempted": len(runs),
        "failed": sum(not s.ok for s in runs),
        "metrics": {
            "wall_s": statistics.median([s.child.wall_s for s in good]),
            "setup_s": statistics.median([s.child.wall_s for s in setups if s.ok]),
            "peak_rss_mb": statistics.median([s.child.rss_mib for s in good]),
        },
        "pipeline_runs": len(samples),
        "samples": [_sample_record(s, "setup") for s in setups]
                   + [_sample_record(s, "pipeline") for s in samples],
    }


def trace(wl: Workload, seed: int, seconds: float, ref: dict, baseline: dict) -> dict:
    """Traced in-process run (tracing.TRACE_REPS repetitions in one child),
    next to one untraced run that gives wall_s and setup_s for the overhead."""
    budget = Budget()
    setups = _setup(wl, seed, seconds, budget, ref)
    untraced = run_sample(wl, seed, budget, ref)
    result = WORK / "trace" / f"{wl.name}.json"
    out = WORK / "trace" / wl.name
    result.unlink(missing_ok=True)
    timeout = budget.timeout(CHILD_TIMEOUT_S + 30.0)
    log = WORK / "logs" / f"{wl.name}-trace.stderr"
    child = run_child([sys.executable, str(HERE / "tracing.py"),
                       "--workload", wl.name, "--seed", str(seed),
                       "--out", str(out),
                       "--result", str(result)], timeout, log)
    problems = _verdict(child, timeout, log, lambda: [])
    doc = json.loads(result.read_text()) if not problems else {"runs": [], "spans": []}
    counters = [run["counters"] for run in doc["runs"]]
    if any(c != counters[0] for c in counters):
        problems.append(f"counters differ between traced runs: {counters}")
    if doc.get("tsurf_file") and not Path(doc["tsurf_file"]).is_relative_to(SRC):
        problems.append(f"traced run imported tsurf from {doc['tsurf_file']}")
    seed_counts = baseline["counters"][wl.name]
    for name in INVARIANT_COUNTERS:
        if counters and name in seed_counts and counters[0].get(name) != seed_counts[name]:
            problems.append(f"{name} = {counters[0].get(name)}, "
                            f"seed commit {seed_counts[name]}")
    traced = [Sample(child, problems + run["problems"] + (
        [f"exit code {run['returncode']}"] if run["returncode"] != 0
        else check_artifacts(wl.name, Path(run["out"]), ref)))
        for run in doc["runs"]] or [Sample(child, problems)]

    per_run = [run_metrics(doc, run) for run in doc["runs"]]
    # Times are the mean of the traced repetitions; counters repeat exactly.
    # A layer the pipeline never calls reads 0; a traced child that failed
    # leaves every metric at 0 and the run incorrect.
    metrics = {name: (statistics.fmean(m.get(name, 0.0) for m in per_run)
                      if unit == "s" else per_run[0].get(name, 0))
               if per_run else 0.0 for name, unit in PER_LAYER}
    setup_s = statistics.median([s.child.wall_s for s in setups if s.ok])
    metrics["process.import_s"] = doc.get("import_s", 0.0)
    metrics["process.cpu_s"] = untraced.child.cpu_s
    metrics["trace.overhead_s"] = (metrics["trace.pipeline_s"]
                                   - (untraced.child.wall_s - setup_s))
    runs = setups + [untraced] + traced
    return {
        "attempted": len(runs),
        "failed": sum(not s.ok for s in runs),
        "metrics": metrics,
        "counters": counters,
        "seed_counters": seed_counts,
        "self_s": [layer_times(doc["spans"], run["run_id"])[1] for run in doc["runs"]],
        "samples": [_sample_record(s, "setup") for s in setups]
                   + [_sample_record(untraced, "pipeline")]
                   + [_sample_record(s, "traced") for s in traced],
        "spans": doc["spans"],
    }


def _sample_record(s: Sample, kind: str) -> dict:
    c = s.child
    return {"kind": kind, "ok": s.ok, "problems": s.problems,
            "returncode": c.returncode, "wall_s": c.wall_s,
            "peak_rss_mb": c.rss_mib, "cpu_s": c.cpu_s}


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "tsurf").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _summary(name: str, res: dict, units: dict) -> str:
    m = res["metrics"]
    parts = [f"{k} {m[k]:.6g} {units[k]}" for k in units if k in m]
    frac = res["failed"] / res["attempted"]
    extra = f" ({res['pipeline_runs']} pipeline runs)" if "pipeline_runs" in res else ""
    return (f"{name}: " + ", ".join(parts) + extra
            + f", failed_frac {frac:.3g} ({res['failed']}/{res['attempted']} runs)")


def prepare():
    if not (SRC / "tsurf" / "cli.py").is_file():
        raise BenchError(f"no tsurf sources under {SRC}")
    for sub in ("tmp", "out", "logs", "results", "trace"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    # Byte-compile once so that no timed run pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError("tsurf sources do not compile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated harness unwinds, so run_child kills the child it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        prepare()
        ref = load_reference()
        baseline = json.loads((HERE / "baseline.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        units = dict(PER_LAYER if args.trace else END_TO_END)
        results = {}
        for name in names:
            wl = WORKLOADS[name]
            res = (trace(wl, args.seed, args.seconds, ref, baseline) if args.trace
                   else measure(wl, args.seed, args.seconds, ref))
            results[name] = res
            print(_summary(name, res, units), file=sys.stderr)
            for p in {q for s in res["samples"] for q in s["problems"]}:
                print(f"  problem: {p}", file=sys.stderr)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    record = {"environment": environment(args.seed), "args": vars(args),
              "results": results}
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    if len(names) == 1:
        metrics = {k: (v, units[k]) for k, v in results[names[0]]["metrics"].items()}
    else:
        for name in names:
            print(_summary(name, results[name], units))
        metrics = {f"{n}.{k}": (v, units[k])
                   for n in names for k, v in results[n]["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
