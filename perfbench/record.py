"""Write reference.json: the values every benchmark run is checked against.

    python3 perfbench/record.py

Runs each workload once (circle_measure once per seed in MEASURE_SEEDS) on
the current checkout and keeps the values the checks compare. Run it only at
a commit whose outputs are trusted; the committed file was recorded at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys

from checks import REFERENCE, read_csv
from run import TSURF, WORK, prepare, run_child
from workloads import WORKLOADS

# circle_measure is Monte Carlo: its reference histogram is the mean over
# these seeds, and the L1 tolerance is L1_SLACK times the largest distance of
# one seed's histogram from the mean of the others.
MEASURE_SEEDS = range(1, 9)
L1_SLACK = 3.0


def run(argv_of, name: str):
    out = WORK / "record" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = WORK / "logs" / f"record-{name}.stderr"
    child = run_child([*TSURF, *argv_of(str(out))], 600.0, log)
    if child.returncode != 0:
        sys.exit(f"{name}: exit code {child.returncode}, see {log}")
    return out


def masses(path) -> list[float]:
    _, header, rows = read_csv(path)
    col = header.index("mass")
    return [float(r[col]) for r in rows]


def main() -> int:
    prepare()
    ref = {}
    for wl in WORKLOADS.values():
        out = run(lambda o: wl.setup_argv(0, o), f"{wl.name}-validate")
        ref[wl.name] = {"surface": json.loads((out / "surface.json").read_text())}

    out = run(lambda o: WORKLOADS["entropy_ladder"].argv(0, o), "entropy_ladder")
    doc = json.loads((out / "entropy.json").read_text())
    ref["entropy_ladder"].update(h=doc["h"], per_cutoff=[
        {k: p[k] for k in ("cutoff", "num_saddles", "scc_size", "h")}
        for p in doc["per_cutoff"]])

    out = run(lambda o: WORKLOADS["circle_census"].argv(0, o), "circle_census")
    _, _, rows = read_csv(out / "circle.csv")
    ref["circle_census"]["rows"] = [[float(r), int(n), float(ln), float(v)]
                                    for r, n, ln, v in rows]

    out = run(lambda o: WORKLOADS["geodesic_weights"].argv(0, o), "geodesic_weights")
    meta = read_csv(out / "occupancy.csv")[0]
    _, _, rows = read_csv(out / "weights.csv")
    ref["geodesic_weights"].update(
        pi=int(meta["pi"]),
        pi_s=[float(r[1]) for r in rows],
        v_spectral=[float(r[3]) if r[3] else None for r in rows],
        occupancy=masses(out / "occupancy.csv"))

    hists, metas = [], []
    for seed in MEASURE_SEEDS:
        out = run(lambda o: WORKLOADS["circle_measure"].argv(seed, o),
                  f"circle_measure-{seed}")
        metas.append(read_csv(out / "measure.csv")[0])
        hists.append(masses(out / "measure.csv"))
    mean = [statistics.fmean(col) for col in zip(*hists)]
    loo = []
    for i, h in enumerate(hists):
        rest = [statistics.fmean(col) for col in zip(*(hists[:i] + hists[i + 1:]))]
        loo.append(math.fsum(abs(a - b) for a, b in zip(h, rest)))
    print(f"circle_measure leave-one-out L1: {[round(x, 5) for x in loo]}", file=sys.stderr)
    ref["circle_measure"].update(
        R=float(metas[0]["R"]), circle_length=float(metas[0]["circle_length"]),
        seeds=list(MEASURE_SEEDS), masses=mean, l1_tol=L1_SLACK * max(loo))

    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
