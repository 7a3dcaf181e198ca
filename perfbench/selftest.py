"""Tests of the benchmark itself: corrupted artifacts and broken children
must count as failed runs without stopping the harness.

    python3 perfbench/selftest.py

Needs no tsurf run: correct artifacts are rebuilt from reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checks import check_artifacts, load_reference
from run import END_TO_END, ROOT, WORK, Budget, closed_loop, run_sample
from tracing import PER_LAYER, Tracer, _measure_hook, self_times
from workloads import WORKLOADS

REF = load_reference()
CRASH = [sys.executable, "-c", "import sys; sys.exit(3)"]
HANG = [sys.executable, "-c", "import time; time.sleep(60)"]


def circle_csv(rows) -> str:
    lines = ["R,N,circle_length,ball_volume"]
    lines += [f"{r:.17g},{n},{ln:.17g},{v:.17g}" for r, n, ln, v in rows]
    return "\n".join(lines) + "\n"


def histogram_csv(meta: dict, masses) -> str:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append("cell_id,polygon,i,j,area,mass,density")
    lines += [f"{c},0,0,0,1,{m:.17g},{m:.17g}" for c, m in enumerate(masses)]
    return "\n".join(lines) + "\n"


def weights_files(pi: int, pi_s, v, occupancy) -> dict[str, str]:
    lines = ["saddle_id,pi_s,pi_s_over_pi,v_spectral"]
    lines += [f"{s},{p:.17g},{p / pi:.17g},{'' if w is None else format(w, '.17g')}"
              for s, (p, w) in enumerate(zip(pi_s, v))]
    return {"weights.csv": "\n".join(lines) + "\n",
            "occupancy.csv": histogram_csv({"T": 5.5, "pi": pi}, occupancy)}


def reference_artifacts(workload: str) -> dict[str, str]:
    """Artifacts that a correct run of the workload would write."""
    ref = REF[workload]
    if workload == "entropy_ladder":
        return {"entropy.json": json.dumps(
            {"h": ref["h"], "converged": True, "per_cutoff": ref["per_cutoff"]})}
    if workload == "circle_census":
        return {"circle.csv": circle_csv(ref["rows"])}
    if workload == "geodesic_weights":
        return weights_files(ref["pi"], ref["pi_s"], ref["v_spectral"], ref["occupancy"])
    return {"measure.csv": histogram_csv(
        {"R": ref["R"], "circle_length": ref["circle_length"]}, ref["masses"])}


class ArtifactChecks(unittest.TestCase):
    def setUp(self):
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK / "tmp"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def problems(self, workload: str, files: dict[str, str]) -> list[str]:
        for name, text in files.items():
            (self.dir / name).write_text(text)
        return check_artifacts(workload, self.dir, REF)

    def test_reference_artifacts_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.problems(workload, reference_artifacts(workload)), [])

    def test_one_changed_digit_in_circle_csv_fails(self):
        text = reference_artifacts("circle_census")["circle.csv"]
        lines = text.splitlines()
        r, n, ln, vol = lines[-1].split(",")
        for changed in (f"{r},{int(n) + 1},{ln},{vol}",
                        f"{r},{n},{ln[:4]}{(int(ln[4]) + 1) % 10}{ln[5:]},{vol}"):
            with self.subTest(row=changed):
                bad = "\n".join(lines[:-1] + [changed]) + "\n"
                self.assertNotEqual(self.problems("circle_census", {"circle.csv": bad}), [])

    def test_wrong_pi_count_fails(self):
        ref = REF["geodesic_weights"]
        files = weights_files(ref["pi"] + 1, ref["pi_s"], ref["v_spectral"], ref["occupancy"])
        self.assertNotEqual(self.problems("geodesic_weights", files), [])

    def test_wrong_pi_s_fails(self):
        ref = REF["geodesic_weights"]
        pi_s = list(ref["pi_s"])
        pi_s[0] *= 1 + 1e-6
        files = weights_files(ref["pi"], pi_s, ref["v_spectral"], ref["occupancy"])
        self.assertNotEqual(self.problems("geodesic_weights", files), [])

    def test_entropy_off_by_more_than_tolerance_fails(self):
        ref = REF["entropy_ladder"]
        doc = {"h": ref["h"] + 1e-9, "converged": True, "per_cutoff": ref["per_cutoff"]}
        self.assertNotEqual(self.problems("entropy_ladder", {"entropy.json": json.dumps(doc)}), [])

    def test_measure_that_does_not_sum_to_one_fails(self):
        ref = REF["circle_measure"]
        masses = list(ref["masses"])
        masses[0] += 1e-6
        meta = {"R": ref["R"], "circle_length": ref["circle_length"]}
        self.assertNotEqual(
            self.problems("circle_measure", {"measure.csv": histogram_csv(meta, masses)}), [])

    def test_measure_far_from_reference_fails(self):
        ref = REF["circle_measure"]
        masses = list(ref["masses"])
        shift = ref["l1_tol"]  # moves L1 by 2 * l1_tol and keeps the sum
        masses[0] += shift
        masses[1] -= shift
        meta = {"R": ref["R"], "circle_length": ref["circle_length"]}
        self.assertNotEqual(
            self.problems("circle_measure", {"measure.csv": histogram_csv(meta, masses)}), [])

    def test_missing_artifact_is_a_problem(self):
        self.assertNotEqual(check_artifacts("circle_census", self.dir, REF), [])


class BrokenChildren(unittest.TestCase):
    wl = WORKLOADS["circle_census"]

    def test_crashed_child_is_a_failed_sample(self):
        sample = run_sample(self.wl, 0, Budget(), REF, program=CRASH)
        self.assertFalse(sample.ok)
        self.assertIn("exit code 3", sample.problems[0])

    def test_corrupted_artifact_is_a_failed_run(self):
        text = reference_artifacts("circle_census")["circle.csv"].replace(",0,", ",1,", 1)
        write = ("import pathlib, sys; out = pathlib.Path(sys.argv[sys.argv.index('--out') + 1]); "
                 f"(out / 'circle.csv').write_text({text!r})")
        sample = run_sample(self.wl, 0, Budget(), REF, program=[sys.executable, "-c", write])
        self.assertEqual(sample.child.returncode, 0)
        self.assertFalse(sample.ok)
        self.assertIn("circle.csv row", sample.problems[0])

    def test_timed_out_child_is_killed_and_failed(self):
        t0 = time.perf_counter()
        sample = run_sample(self.wl, 0, Budget(1.0), REF, program=HANG)
        self.assertLess(time.perf_counter() - t0, 10.0)
        self.assertFalse(sample.ok)
        self.assertIsNone(sample.child.returncode)
        self.assertIn("timed out", sample.problems[0])

    def test_closed_loop_keeps_going_after_failures(self):
        budget = Budget()
        samples = closed_loop(lambda: run_sample(self.wl, 0, budget, REF, program=CRASH),
                              0.5, budget)
        self.assertGreaterEqual(len(samples), 2)
        self.assertTrue(all(not s.ok for s in samples))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "paths.graph", "start": 0.0, "end": 10.0, "parent": None, "run_id": 0},
            {"id": 1, "name": "unfold.enumerate", "start": 1.0, "end": 4.0, "parent": 0, "run_id": 0},
            {"id": 2, "name": "unfold.enumerate", "start": 5.0, "end": 6.0, "parent": 0, "run_id": 0},
        ]
        self.assertEqual(self_times(spans), {0: 6.0, 1: 3.0, 2: 1.0})

    def test_arcs_distinct_counts_only_the_sampled_arcs(self):
        lengths = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        census = SimpleNamespace(Rmax=3.0, lengths=lengths,
                                 terminal_saddle=np.array([4, 4, 5, 4, 4, 5]),
                                 count=lambda R: int(np.searchsorted(lengths, R, side="right")))
        hist = SimpleNamespace(meta={"R": 2.5, "arcs": 6, "retried": 0, "dropped": 0})
        t = Tracer()
        t.begin(0)
        _measure_hook(t, hist)
        self.assertNotIn("circles.arcs_distinct", t.counters[0])
        self.assertEqual(len(t.problems[0]), 1)
        t.begin(1)
        t.censuses.append(census)
        _measure_hook(t, hist)
        # Arcs (1, 4), (1, 4), (1, 5), (2, 4), (2, 4); the length-3 entry is
        # beyond R.
        self.assertEqual(t.counters[1]["circles.arcs_distinct"], 3)
        self.assertEqual(t.problems[1], [])


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], PER_LAYER)

    def test_seed_counters_match_the_roadmap_baseline(self):
        counters = json.loads((Path(__file__).with_name("baseline.json")).read_text())["counters"]
        expected = {
            "entropy_ladder": {"unfold.saddles": 576, "paths.edges": 221760,
                               "spectral.eigensolves": 244},
            "circle_census": {"unfold.saddles": 264, "paths.edges": 46728,
                              "paths.census_paths": 24872412},
            "geodesic_weights": {"unfold.saddles": 168, "geodesics.words": 26246},
            "circle_measure": {"unfold.saddles": 112, "circles.arcs": 1389},
        }
        for workload, want in expected.items():
            for name, value in want.items():
                self.assertEqual(counters[workload][name], value, (workload, name))


if __name__ == "__main__":
    unittest.main()
