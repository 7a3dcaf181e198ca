import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tsurf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_info_lshape(capsys):
    code, out, err = run(capsys, "info", "--builtin", "lshape")
    assert code == 0
    assert "genus 2" in out
    assert "k=2" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "slit_tori")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 2
    assert doc["gauss_bonnet"] is True
    assert [c["k"] for c in doc["cone_points"]] == [1, 1]


def test_circle_small_radius(capsys):
    code, out, _ = run(capsys, "circle", "--builtin", "lshape",
                       "--center", "0", "--rmax", "0.5", "--step", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,N,circle_length,ball_volume"
    r, n, cl, _ = lines[1].split(",")
    assert r == "0.5" and n == "0"
    assert float(cl) == pytest.approx(3 * math.pi, rel=1e-12)


def test_circle_accepts_rational_flags(capsys):
    code, out, _ = run(capsys, "circle", "--builtin", "lshape",
                       "--rmax", "1/2", "--step", "1/2")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("0.5,0,")


def test_entropy_ladder(capsys):
    code, out, _ = run(capsys, "entropy", "--builtin", "lshape",
                       "--cutoffs", "3,5,8")
    assert code == 0
    doc = json.loads(out)
    hs = [p["h"] for p in doc["per_cutoff"]]
    assert hs == sorted(hs)
    assert doc["h"] == hs[-1]


def test_missing_surface_is_usage_error(capsys):
    code, _, err = run(capsys, "info")
    assert code == 2
    assert "surface" in err


def test_conflicting_surface_flags(capsys, tmp_path):
    f = tmp_path / "x.json"
    f.write_text("{}")
    code, _, err = run(capsys, "info", "--builtin", "lshape",
                       "--surface", str(f))
    assert code == 2


def test_bad_builtin_params(capsys):
    code, _, err = run(capsys, "info", "--builtin", "lshape",
                       "--params", "1,1")
    assert code == 2


def test_truncation_exit_code(capsys):
    code, _, err = run(capsys, "circle", "--builtin", "lshape",
                       "--rmax", "3", "--step", "1",
                       "--max-length-sq", "1")
    assert code == 3
    assert "--max-length-sq 9" in err


def test_saddles_csv_and_svg(capsys, tmp_path):
    out_dir = tmp_path / "art"
    code, out, _ = run(capsys, "saddles", "--builtin", "lshape",
                       "--max-length-sq", "1", "--svg",
                       "--out", str(out_dir))
    assert code == 0
    rows = out.strip().splitlines()
    # stdout carries the CSV, then the SVG document
    csv_rows = [r for r in rows if "," in r and "<" not in r]
    assert csv_rows[0].startswith("id,start,end")
    assert len(csv_rows) == 13
    assert (out_dir / "saddles.csv").exists()
    ET.parse(out_dir / "saddles.svg")
    assert set(p.name for p in out_dir.iterdir()) == {"saddles.csv", "saddles.svg"}


def test_measure_artifacts_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, _ = run(capsys, "measure", "--builtin", "lshape",
                         "--radius", "1.5", "--grid", "2", "--samples", "1",
                         "--seed", "11", "--out", str(d))
        assert code == 0
    assert (a / "measure.csv").read_bytes() == (b / "measure.csv").read_bytes()


def test_measure_seed_changes_output(capsys, tmp_path):
    outs = []
    for seed in ("1", "2"):
        _, out, _ = run(capsys, "measure", "--builtin", "lshape",
                        "--radius", "1.5", "--grid", "2", "--samples", "1",
                        "--seed", seed)
        outs.append(out)
    assert outs[0] != outs[1]


def test_volume_row(capsys):
    code, out, _ = run(capsys, "volume", "--builtin", "lshape",
                       "--radius", "1.2", "--grid", "2", "--samples", "8",
                       "--cells", "all")
    assert code == 0
    hdr, row = out.strip().splitlines()
    assert hdr.startswith("R,estimate,standard_error")
    vals = [float(x) for x in row.split(",")]
    assert vals[1] == pytest.approx(vals[3], rel=1e-9)


def test_geodesics_and_weights(capsys, tmp_path):
    code, out, _ = run(capsys, "geodesics", "--builtin", "lshape",
                       "--tmax", "2")
    assert code == 0
    assert out.splitlines()[0] == "T,pi,F,pi_h_T_ratio,F_h_ratio"

    out_dir = tmp_path / "w"
    code, out, _ = run(capsys, "weights", "--builtin", "lshape",
                       "--tmax", "2", "--grid", "2", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "weights.csv").exists()
    assert (out_dir / "occupancy.csv").exists()
    header = (out_dir / "weights.csv").read_text().splitlines()[0]
    assert header == "saddle_id,pi_s,pi_s_over_pi,v_spectral"


@pytest.mark.parametrize("command", ["geodesics", "weights"])
def test_no_saddles_within_tmax(capsys, command):
    # no saddle connection of the L is shorter than 1
    code, _, err = run(capsys, command, "--builtin", "lshape", "--tmax", "1/2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("budget", ["0", "1/4"])
def test_entropy_budget_below_shortest_saddle(capsys, budget):
    # no cutoffs were passed, so the message names the empty budget
    code, _, err = run(capsys, "entropy", "--builtin", "lshape",
                       "--max-length-sq", budget)
    assert code == 2
    assert err.startswith(f"error: no saddle connections within the budget "
                          f"length^2 <= {budget}")


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, tsurf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("cells", ["a", "99", "0,-1"])
def test_bad_volume_cells(capsys, cells):
    # the default grid has 48 cells
    code, out, err = run(capsys, "volume", "--builtin", "lshape",
                         "--radius", "1", "--cells", cells)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_geodesics_grid_stays_within_tmax(capsys):
    # the shortest closed geodesic on the slit tori has length 1 > 1/1.5
    code, out, _ = run(capsys, "geodesics", "--builtin", "slit_tori", "--tmax", "1")
    assert code == 0
    ts = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert ts == sorted(ts)
    assert ts[-1] == 1.0
