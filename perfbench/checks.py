"""Correctness checks of each workload's artifacts against reference values
recorded at the seed commit (reference.json, written by record.py).

Every check returns a list of problems; an empty list means the run is
correct. Exact integers (saddle and path counts, pi(T)) must match exactly;
floats match to the tolerances stated next to each comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

H_ABS = 1e-10        # entropy values
REL = 1e-9           # circle lengths, ball volumes, pi_s, cutoffs
WEIGHT_ABS = 1e-9    # spectral weights v_s, each in [0, 1]
SUM_ABS = 1e-9       # histograms sum to 1
OCC_L1 = 1e-9        # occupancy is deterministic: L1 to the reference


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """Split a tsurf CSV into its '# key=value' meta lines, header and rows."""
    meta, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header or [], rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_entropy(out: Path, ref: dict) -> list[str]:
    doc = json.loads((out / "entropy.json").read_text())
    bad = []
    if abs(doc["h"] - ref["h"]) > H_ABS:
        bad.append(f"h {doc['h']!r} != {ref['h']!r}")
    if not doc["converged"]:
        bad.append("entropy solve did not converge")
    got, want = doc["per_cutoff"], ref["per_cutoff"]
    if len(got) != len(want):
        return bad + [f"{len(got)} ladder rungs, expected {len(want)}"]
    for n, (g, w) in enumerate(zip(got, want)):
        for key in ("num_saddles", "scc_size"):
            if g[key] != w[key]:
                bad.append(f"rung {n} {key} {g[key]} != {w[key]}")
        if not _close(g["cutoff"], w["cutoff"], REL):
            bad.append(f"rung {n} cutoff {g['cutoff']!r} != {w['cutoff']!r}")
        if abs(g["h"] - w["h"]) > H_ABS:
            bad.append(f"rung {n} h {g['h']!r} != {w['h']!r}")
    return bad


def check_circle(out: Path, ref: dict) -> list[str]:
    _, header, rows = read_csv(out / "circle.csv")
    if header != ["R", "N", "circle_length", "ball_volume"]:
        return [f"circle.csv header {header}"]
    if len(rows) != len(ref["rows"]):
        return [f"circle.csv has {len(rows)} rows, expected {len(ref['rows'])}"]
    bad = []
    for (r, n, ln, vol), (wr, wn, wln, wvol) in zip(rows, ref["rows"]):
        if float(r) != wr or int(n) != wn:
            bad.append(f"circle.csv row R={r}: R,N = {r},{n}, expected {wr!r},{wn}")
        elif not (_close(float(ln), wln, REL) and _close(float(vol), wvol, REL)):
            bad.append(f"circle.csv row R={r}: length/volume {ln},{vol} "
                       f"!= {wln!r},{wvol!r}")
    return bad


def _histogram(path: Path) -> tuple[dict, list[float]]:
    meta, header, rows = read_csv(path)
    col = header.index("mass")
    return meta, [float(row[col]) for row in rows]


def _histogram_problems(name: str, masses: list[float], want: list[float],
                        l1_tol: float) -> list[str]:
    if len(masses) != len(want):
        return [f"{name} has {len(masses)} cells, expected {len(want)}"]
    bad = []
    if abs(math.fsum(masses) - 1.0) > SUM_ABS:
        bad.append(f"{name} masses sum to {math.fsum(masses)!r}, not 1")
    l1 = math.fsum(abs(a - b) for a, b in zip(masses, want))
    if l1 > l1_tol:
        bad.append(f"{name} L1 distance {l1:.3g} to the reference exceeds {l1_tol:.3g}")
    return bad


def check_weights(out: Path, ref: dict) -> list[str]:
    _, header, rows = read_csv(out / "weights.csv")
    if header != ["saddle_id", "pi_s", "pi_s_over_pi", "v_spectral"]:
        return [f"weights.csv header {header}"]
    if len(rows) != len(ref["pi_s"]):
        return [f"weights.csv has {len(rows)} saddles, expected {len(ref['pi_s'])}"]
    bad = []
    pi = ref["pi"]
    pi_s = [float(row[1]) for row in rows]
    # pi(T) is not a column; each row with pi_s > 0 recovers it as pi_s / share.
    implied = {round(float(row[1]) / float(row[2])) for row in rows if float(row[2]) > 0}
    if implied != {pi}:
        bad.append(f"weights.csv implies pi(T) in {sorted(implied)}, expected {pi}")
    # Each word q adds sum_s count_s l(s) / l(q) = 1, so sum_s pi_s = pi(T).
    if abs(math.fsum(pi_s) - pi) > REL * pi:
        bad.append(f"sum of pi_s {math.fsum(pi_s)!r} != pi(T) = {pi}")
    for s, (row, want, wv) in enumerate(zip(rows, ref["pi_s"], ref["v_spectral"])):
        if int(row[0]) != s:
            bad.append(f"weights.csv row {s} has saddle id {row[0]}")
        elif not _close(pi_s[s], want, REL):
            bad.append(f"pi_s[{s}] {row[1]} != {want!r}")
        elif (row[3] == "") != (wv is None) or (
                wv is not None and abs(float(row[3]) - wv) > WEIGHT_ABS):
            bad.append(f"v_spectral[{s}] {row[3]!r} != {wv!r}")
    meta, masses = _histogram(out / "occupancy.csv")
    if meta.get("pi") != str(pi):
        bad.append(f"occupancy.csv pi={meta.get('pi')}, expected {pi}")
    return bad + _histogram_problems("occupancy.csv", masses, ref["occupancy"], OCC_L1)


def check_measure(out: Path, ref: dict) -> list[str]:
    meta, masses = _histogram(out / "measure.csv")
    bad = []
    if float(meta.get("R", "nan")) != ref["R"]:
        bad.append(f"measure.csv R={meta.get('R')}, expected {ref['R']!r}")
    if not _close(float(meta.get("circle_length", "nan")), ref["circle_length"], REL):
        bad.append(f"measure.csv circle_length={meta.get('circle_length')}, "
                   f"expected {ref['circle_length']!r}")
    return bad + _histogram_problems("measure.csv", masses, ref["masses"], ref["l1_tol"])


CHECKS = {
    "entropy_ladder": check_entropy,
    "circle_census": check_circle,
    "geodesic_weights": check_weights,
    "circle_measure": check_measure,
}


def check_artifacts(workload: str, out: Path, ref: dict) -> list[str]:
    """Problems with a finished pipeline's artifacts; a missing or unreadable
    artifact is a problem, not a crash of the harness."""
    try:
        return CHECKS[workload](out, ref[workload])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable artifact: {type(e).__name__}: {e}"]


def check_setup(workload: str, out: Path, ref: dict) -> list[str]:
    """Problems with the surface.json a `tsurf validate` probe wrote."""
    want = ref[workload]["surface"]
    try:
        doc = json.loads((out / "surface.json").read_text())
    except (OSError, ValueError) as e:
        return [f"unreadable surface.json: {type(e).__name__}: {e}"]
    return [] if doc == want else [f"surface.json {doc} != {want}"]
