"""Traced in-process run of one workload, and the analysis of its spans.

Run as a program, this file imports tsurf from the checkout, wraps the
public functions that the CLI subcommands call, runs the workload's pipeline
TRACE_REPS times through `tsurf.cli.main`, and writes one JSON document with
the import time, per-run counters and every span. Spans are kept in memory
until the end. The wrappers live here, not in tsurf: the program runs
unmodified and only the benchmark's own code records spans.

Imported as a module (by run.py) it only analyses spans and needs neither
numpy nor tsurf.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

# Repetitions of the pipeline in one traced run; counters must repeat exactly.
TRACE_REPS = 2

# Per-layer metrics: (name, unit). Times of layer calls are inclusive span
# totals; `*_self_s` subtracts the child spans.
PER_LAYER = [
    ("process.import_s", "s"),
    ("process.cpu_s", "s"),
    ("surface.validate_s", "s"),
    ("unfold.enumerate_s", "s"),
    ("unfold.saddles", "count"),
    ("unfold.rays", "count"),
    ("unfold.trace_s", "s"),
    ("paths.graph_s", "s"),
    ("paths.graph_self_s", "s"),
    ("paths.pair_tests", "count"),
    ("paths.edges", "count"),
    ("paths.edge_yield", "ratio"),
    ("paths.census_s", "s"),
    ("paths.census_paths", "count"),
    ("paths.census_distinct", "count"),
    ("paths.census_mb", "MiB"),
    ("paths.circle_s", "s"),
    ("spectral.entropy_s", "s"),
    ("spectral.rungs", "count"),
    ("spectral.eigensolves", "count"),
    ("spectral.scc_size", "count"),
    ("spectral.converged", "bool"),
    ("spectral.weights_s", "s"),
    ("geodesics.closed_s", "s"),
    ("geodesics.words", "count"),
    ("geodesics.stats_s", "s"),
    ("geodesics.occupancy_s", "s"),
    ("circles.grid_s", "s"),
    ("circles.measure_s", "s"),
    ("circles.arcs", "count"),
    ("circles.arcs_distinct", "count"),
    ("circles.retried", "count"),
    ("circles.dropped", "count"),
    ("trace.pipeline_s", "s"),
    ("trace.overhead_s", "s"),
]

# Layers with a span of their own; `<name>_s` is the inclusive total.
SPAN_NAMES = {"surface.validate", "unfold.enumerate", "paths.graph",
              "paths.census", "paths.circle", "spectral.entropy",
              "spectral.weights", "geodesics.closed", "geodesics.stats",
              "geodesics.occupancy", "circles.grid", "circles.measure"}

# Counters that are facts about the inputs, not about the algorithm: a
# correct program reproduces the seed commit's values exactly.
INVARIANT_COUNTERS = ("unfold.saddles", "paths.edges", "paths.census_paths",
                      "geodesics.words")


class Tracer:
    """Spans (id, name, start, end, parent, run_id), per-run counters (which
    must repeat exactly), per-run tallied seconds, the censuses each run
    built and the metrics it could not measure."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.counters: dict[int, dict[str, float]] = {}
        self.seconds: dict[int, dict[str, float]] = {}
        self.censuses: list = []
        self.problems: dict[int, list[str]] = {}

    def begin(self, run_id: int):
        self.run_id = run_id
        self.counters[run_id] = {}
        self.seconds[run_id] = {}
        self.censuses = []
        self.problems[run_id] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.run_id]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            rec[3] = time.perf_counter()

    def add(self, name: str, n: float):
        run = self.counters[self.run_id]
        run[name] = run.get(name, 0) + n

    def set(self, name: str, value: float):
        self.counters[self.run_id][name] = value

    def spanned(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result
        return traced

    def tallied(self, fn, calls: str, seconds: str):
        """Count calls and their time without a span each: for hot inner
        calls such as one ray trace."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                run = self.seconds[self.run_id]
                run[seconds] = run.get(seconds, 0.0) + time.perf_counter() - t0
                self.add(calls, 1)
        return traced

    def span_dicts(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "run_id": r}
                for i, n, s, e, p, r in self.spans]


# ----------------------------------------------------------------------------
# Analysis (used by run.py; no numpy, no tsurf)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.
    Spans nest on one thread, so children never overlap."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_times(spans: list[dict], run_id: int) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name within one run."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        if s["run_id"] != run_id:
            continue
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own[s["id"]]
    return total, self_s


def run_metrics(doc: dict, run: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the process.* and
    trace.overhead_s entries, which need the untraced run)."""
    total, self_s = layer_times(doc["spans"], run["run_id"])
    c = run["counters"]
    m = {name: total.get(name[:-2], 0.0) for name, unit in PER_LAYER
         if unit == "s" and name[:-2] in SPAN_NAMES}
    m["paths.graph_self_s"] = self_s.get("paths.graph", 0.0)
    for name, unit in PER_LAYER:
        if unit != "s" and name in c:
            m[name] = c[name]
    m["unfold.trace_s"] = run["seconds"].get("unfold.trace_s", 0.0)
    pairs = c.get("paths.pair_tests", 0)
    m["paths.edge_yield"] = c.get("paths.edges", 0) / pairs if pairs else 0.0
    m["trace.pipeline_s"] = run["pipeline_s"]
    return m


# ----------------------------------------------------------------------------
# Counter hooks and patch table (child process only)


def _graph_hook(t: Tracer, G):
    import numpy as np
    starts = np.bincount(G.start, minlength=len(G.cone_k))
    t.add("paths.pair_tests", int(starts[G.end].sum()))
    t.add("paths.edges", sum(len(o) for o in G.out))


def _distinct_pairs(lengths, term) -> int:
    """Distinct (terminal saddle, length) pairs. Lengths are sorted, so
    equal lengths are runs; number them and count distinct (run, saddle)
    keys."""
    import numpy as np
    if not len(lengths):
        return 0
    group = np.concatenate([[0], np.cumsum(lengths[1:] != lengths[:-1])])
    key = group * (int(term.max()) + 1) + term
    return int(np.count_nonzero(np.bincount(key)) if key.max() < 1 << 26
               else len(np.unique(key)))


def _census_hook(t: Tracer, census):
    lengths, term = census.lengths, census.terminal_saddle
    t.censuses.append(census)
    t.add("paths.census_paths", census.count(census.Rmax))
    t.add("paths.census_mb", (lengths.nbytes + census.terminal_k.nbytes
                              + term.nbytes) / 2 ** 20)
    t.set("paths.census_distinct", _distinct_pairs(lengths, term))


def _entropy_hook(t: Tracer, est):
    t.add("spectral.rungs", len(est.per_cutoff))
    t.add("spectral.eigensolves", sum(p["lambda_samples"] for p in est.per_cutoff))
    t.set("spectral.scc_size", est.per_cutoff[-1]["scc_size"])
    t.set("spectral.converged", int(est.converged))


def _measure_hook(t: Tracer, hist):
    for key in ("arcs", "retried", "dropped"):
        t.add("circles." + key, hist.meta[key])
    # One arc for the first sector at the centre, one per census entry of
    # length <= R: find the census this call sampled and count its pairs.
    path_arcs = hist.meta["arcs"] - 1
    R = hist.meta["R"]
    used = [c for c in t.censuses if c.Rmax >= R and c.count(R) == path_arcs]
    if not used:
        t.problems[t.run_id].append(
            f"circles.arcs_distinct: no census of this run has {path_arcs} "
            f"entries of length <= {R}")
        return
    c = used[-1]
    t.add("circles.arcs_distinct",
          _distinct_pairs(c.lengths[:path_arcs], c.terminal_saddle[:path_arcs]))


def patch_table(tsurf_modules) -> list[tuple]:
    """(owner, attribute, span name or None for a tally, hook)."""
    cli, paths, spectral, circles, geodesics, unfold = tsurf_modules
    return [
        (cli, "builtin_surface", "surface.validate", None),
        (cli, "build_concat_graph", "paths.graph", _graph_hook),
        (paths, "enumerate_saddle_connections", "unfold.enumerate",
         lambda t, sad: t.add("unfold.saddles", len(sad))),
        (cli, "path_length_census", "paths.census", _census_hook),
        (circles, "path_length_census", "paths.census", _census_hook),
        (cli, "circle_csv", "paths.circle", None),
        (cli, "solve_entropy", "spectral.entropy", _entropy_hook),
        (spectral, "solve_entropy", "spectral.entropy", _entropy_hook),
        (cli, "v_weights", "spectral.weights", None),
        (cli, "enumerate_closed", "geodesics.closed",
         lambda t, census: t.add("geodesics.words", census.pi())),
        (geodesics.GeodesicCensus, "pi_saddle", "geodesics.stats", None),
        (cli, "occupancy", "geodesics.occupancy", None),
        (cli, "CellGrid", "circles.grid", None),
        (cli, "circle_measure", "circles.measure", _measure_hook),
        (unfold, "trace_ray", None, None),
        (circles, "trace_ray", None, None),
    ]


@contextmanager
def installed(tracer: Tracer, table):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in table]
    try:
        for owner, attr, name, hook in table:
            fn = getattr(owner, attr)
            setattr(owner, attr, tracer.tallied(fn, "unfold.rays", "unfold.trace_s")
                    if name is None
                    else tracer.spanned(fn, name, hook))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import tsurf
    import tsurf.cli
    import_s = time.perf_counter() - t0
    modules = (tsurf.cli, tsurf.paths, tsurf.spectral, tsurf.circles,
               tsurf.geodesics, tsurf.unfold)

    tracer = Tracer()
    runs = []
    with installed(tracer, patch_table(modules)), open(os.devnull, "w") as sink:
        for rep in range(TRACE_REPS):
            out = Path(args.out) / f"rep{rep}"
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            tracer.begin(rep)
            t = time.perf_counter()
            with redirect_stdout(sink):
                rc = tsurf.cli.main(wl.argv(args.seed, str(out)))
            runs.append({"run_id": rep, "returncode": rc, "out": str(out),
                         "pipeline_s": time.perf_counter() - t,
                         "counters": tracer.counters[rep],
                         "problems": tracer.problems[rep],
                         "seconds": tracer.seconds[rep]})
    doc = {"tsurf_file": tsurf.__file__, "import_s": import_s, "runs": runs,
           "spans": tracer.span_dicts()}
    Path(args.result).write_text(json.dumps(doc, default=lambda o: o.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
