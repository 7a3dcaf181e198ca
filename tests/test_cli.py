import json
import math
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import tsurf
from tsurf.cli import main

from oracles import enumerate_paths


def _child_env():
    # a child interpreter imports tsurf from this checkout
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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


def _circle_rows(capsys, *argv):
    code, out, err = run(capsys, "circle", *argv)
    assert code == 0, err
    return [line.split(",") for line in out.strip().splitlines()[1:]]


def test_circle_counts_the_paths_of_length_exactly_R(capsys):
    # 42 of the 226 paths have length exactly 8/3; float sums put 40 of
    # them above float(8/3), and N read 186
    rows = _circle_rows(capsys, "--builtin", "lshape", "--params", "7/3,5/2",
                        "--rmax", "8/3", "--step", "1/3", "--max-length-sq", "9")
    assert rows[-1][:2] == ["2.6666666666666665", "226"]


def test_circle_counts_equal_the_exact_oracle_on_a_rational_grid(capsys):
    rows = _circle_rows(capsys, "--builtin", "lshape", "--params", "7/3,5/2",
                        "--rmax", "13/3", "--step", "1/3")
    G = tsurf.build_concat_graph(
        tsurf.builtin_surface("lshape", ["7/3", "5/2"]), Fraction(169, 9))
    want = [sum(1 for _ in enumerate_paths(G, 0, Fraction(k, 3)))
            for k in range(1, 14)]
    assert [int(n) for _, n, _, _ in rows] == want
    # the radii where float sums lost paths of length exactly R
    assert [want[k - 1] for k in (8, 11, 13)] == [226, 2176, 9106]


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


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('"2"', "Infinity", 1).encode(),
    lambda text: text.encode("utf-16"),
    lambda text: text.replace("[0, 3]", "[0, 3.5]").encode(),
    lambda text: text.replace("[0, 1]", "[0, true]").encode(),
], ids=["infinity", "utf-16", "index-3.5", "index-true"])
def test_malformed_surface_file_is_usage_error(capsys, tmp_path, lshape, edit):
    f = tmp_path / "s.json"
    f.write_bytes(edit(json.dumps(lshape.to_dict())))
    code, _, err = run(capsys, "validate", "--surface", str(f))
    assert code == 2
    assert err.startswith("error: ")


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


def test_measure_same_bytes_for_any_seed(capsys):
    # nothing is sampled, so the seed is accepted and not read
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "measure", "--builtin", "lshape",
                           "--radius", "1.5", "--grid", "2", "--samples", "1",
                           "--seed", seed)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("measure", "--builtin", "lshape", "--radius", "11/10", "--grid", "2"),
    ("measure", "--builtin", "lshape", "--radius", "1/10", "--grid", "2"),
    ("volume", "--builtin", "lshape", "--radius", "11/10", "--grid", "2"),
    ("circle", "--builtin", "lshape", "--rmax", "11/10", "--step", "1/10"),
    ("geodesics", "--builtin", "lshape", "--tmax", "21/10"),
    ("weights", "--builtin", "lshape", "--tmax", "21/10"),
])
def test_exact_radius_fits_its_own_budget(capsys, argv):
    # the derived budget is exactly R^2; a radius rounded up to a float
    # before the budget check would exceed it
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_benchmark_tracer_patch_targets_exist():
    # perfbench/tracing.py wraps these attributes by name; read the file
    # without importing it as a module, so nothing under perfbench/ is
    # written
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    modules = (tsurf.cli, tsurf.paths, tsurf.spectral, tsurf.circles,
               tsurf.geodesics, tsurf.unfold)
    table = mod.patch_table(modules)
    assert table
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr)), attr


def test_benchmark_tracer_hooks_read_the_graph_and_census(lshape):
    # perfbench/tracing.py counts edges off G.out and census paths off the
    # per-path views; run its hooks on a small pipeline, read as in the
    # test above
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    t = mod.Tracer()
    t.begin(0)
    G = tsurf.build_concat_graph(lshape, 9)
    mod._graph_hook(t, G)
    census = tsurf.path_length_census(G, 0, 3)
    mod._census_hook(t, census)
    mod._measure_hook(t, tsurf.circle_measure(G, 0, 3, tsurf.CellGrid(lshape, 2),
                                              census))
    assert t.counters[0]["paths.edges"] == G.edges
    assert t.counters[0]["paths.census_paths"] == census.count(3)
    assert t.problems[0] == []


@pytest.mark.parametrize("command", ["validate", "measure", "volume"])
def test_unread_flags_stay_out_of_the_help(capsys, command):
    # --seed and --samples still parse (test_measure_same_bytes_for_any_seed)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--seed" not in out and "--samples" not in out


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


@pytest.mark.parametrize("grid", [[], ["--grid", "2"]])
def test_weights_without_closed_geodesics(capsys, tmp_path, grid):
    # the slit tori have saddle connections shorter than 1/2 but no closed
    # geodesic that short: no pi_s / pi column, no occupancy, nothing written
    out_dir = tmp_path / "w"
    code, out, err = run(capsys, "weights", "--builtin", "slit_tori",
                         "--tmax", "1/2", *grid, "--out", str(out_dir))
    assert code == 2
    assert err == "error: no closed geodesics within the bound\n"
    assert out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("budget", ["0", "1/4"])
def test_entropy_budget_below_shortest_saddle(capsys, budget):
    # no cutoffs were passed, so the message names the empty budget
    code, _, err = run(capsys, "entropy", "--builtin", "lshape",
                       "--max-length-sq", budget)
    assert code == 2
    assert err.startswith(f"error: no saddle connections within the budget "
                          f"length^2 <= {budget}")


def test_cli_import_loads_no_scipy():
    env = _child_env()
    probe = ("import sys, tsurf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _python(code: str) -> str:
    # stdout of `code` run in a fresh interpreter
    return subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          check=True, capture_output=True, text=True,
                          timeout=30).stdout


def _loaded_after(code: str) -> set[str]:
    # the modules a fresh interpreter holds after running `code`
    out = _python(code + "\nimport sys\nprint(' '.join(sys.modules))\n")
    return set(out.splitlines()[-1].split())


def test_startup_path_loads_no_numpy():
    loaded = _loaded_after(
        # as `python -m tsurf.cli validate`, then through tsurf.cli.main
        "import contextlib, io, os, runpy, sys\n"
        # `run` ends the process with os._exit; let the child go on instead
        "def _exit(code):\n"
        "    raise SystemExit(code)\n"
        "os._exit = _exit\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    sys.argv = ['tsurf', 'validate', '--builtin', 'lshape']\n"
        "    with contextlib.suppress(SystemExit):\n"
        "        runpy.run_module('tsurf.cli', run_name='__main__')\n"
        "    import tsurf, tsurf.cli\n"
        "    assert tsurf.cli.main(['validate', '--builtin', 'lshape']) == 0\n"
        "    assert tsurf.cli.main(['info', '--builtin', 'slit_tori']) == 0\n"
        "    with contextlib.suppress(SystemExit):\n"
        "        tsurf.cli.main(['--version'])\n")
    assert "tsurf.surface" in loaded
    assert "numpy" not in loaded
    assert not {"tsurf.paths", "tsurf.unfold"} & loaded


def test_saddles_loads_no_numpy():
    # saddle lengths round between integer square roots (`tsurf.rational`)
    loaded = _loaded_after(
        "import contextlib, io, tsurf.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert tsurf.cli.main(['saddles', '--builtin', 'lshape',\n"
        "                           '--max-length-sq', '9']) == 0\n")
    assert "tsurf.unfold" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", [
    "validate --builtin lshape",
    "info --builtin lshape",
    "saddles --builtin lshape --max-length-sq 9",
    "entropy --builtin lshape --max-length-sq 9",
    "circle --builtin lshape --rmax 2 --step 1/2",
    "measure --builtin lshape --radius 3/2 --grid 2",
    "volume --builtin lshape --radius 3/2 --grid 2",
    "geodesics --builtin lshape --tmax 3",
    "weights --builtin lshape --tmax 3 --grid 2",
])
def test_subcommands_load_no_numpy_ma(tmp_path, argv):
    # np.unique imports numpy.ma on its first call: 17-20 ms and over a MiB
    # of peak memory in a fresh process, for nothing a pipeline reads
    args = [*argv.split(), "--out", str(tmp_path)]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from tsurf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({args!r}) == 0\n")
    assert "numpy.ma" not in loaded


def _cli_process(argv: str) -> subprocess.CompletedProcess:
    # `python -m tsurf.cli` with stdout a pipe, so block-buffered
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "tsurf.cli", *argv.split()],
                          env=env, capture_output=True, text=True, timeout=30)


def test_process_prints_what_main_prints(capsys):
    argv = "entropy --builtin lshape --max-length-sq 9"
    proc = _cli_process(argv)
    code, out, err = run(capsys, *argv.split())
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == err


@pytest.mark.parametrize("argv, code", [
    ("circle --builtin lshape --rmax 8 --step 1 --max-length-sq 49", 3),
    ("validate --builtin lshape --params 1,1", 2),
])
def test_process_keeps_the_exit_code(argv, code):
    proc = _cli_process(argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv, absent", [
    ("entropy --builtin lshape --max-length-sq 9",
     {"tsurf.circles", "tsurf.geodesics"}),
    ("circle --builtin lshape --rmax 2 --step 1 --max-length-sq 4",
     {"tsurf.spectral", "tsurf.circles", "tsurf.geodesics"}),
])
def test_subcommand_loads_only_its_layers(argv, absent):
    loaded = _loaded_after(
        "import contextlib, io, tsurf.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tsurf.cli.main({argv.split()!r}) == 0\n")
    assert "tsurf.paths" in loaded
    assert not absent & loaded


def test_patched_cli_names_win():
    # a wrapper set on tsurf.cli before any subcommand ran is the function
    # the subcommand calls
    code = (
        "import contextlib, io, tsurf.cli as cli\n"
        "calls = []\n"
        "def counting(name):\n"
        "    fn = getattr(cli, name)\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "for name in ('build_concat_graph', 'path_length_census'):\n"
        "    setattr(cli, name, counting(name))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['circle', '--builtin', 'lshape', '--rmax', '2',\n"
        "                     '--step', '1', '--max-length-sq', '4']) == 0\n"
        "print(sorted(calls))\n")
    assert _python(code).strip() == \
        "['build_concat_graph', 'path_length_census']"


def test_package_exports_resolve_to_their_home_modules():
    for name in tsurf.__all__:
        obj = getattr(tsurf, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    # dir() lists the names not yet loaded too: ask a fresh interpreter
    out = _python("import tsurf\n"
                  "print(sorted({'__all__', *tsurf.__all__} - set(dir(tsurf))))")
    assert out.strip() == "[]"
    with pytest.raises(AttributeError):
        tsurf.no_such_name
    namespace = {}
    exec("from tsurf import *", namespace)
    assert {name: namespace[name] for name in tsurf.__all__} == \
        {name: getattr(tsurf, name) for name in tsurf.__all__}


def test_circle_census_peak_memory(tmp_path):
    # 24,872,412 paths up to R = 7 on the L; the census keeps counted
    # groups, so the process stays far below one row per path. The child
    # reports its own high-water mark: the rusage of a child started by
    # fork and exec also holds the parent's peak from before the exec.
    env = _child_env()
    code = ("import sys, tsurf.cli\n"
            "rc = tsurf.cli.main(sys.argv[1:])\n"
            "with open('/proc/self/status') as f:\n"
            "    print(*[r for r in f if r.startswith('VmHWM:')], file=sys.stderr)\n"
            "sys.exit(rc)\n")
    argv = [sys.executable, "-c", code, "circle", "--builtin", "lshape",
            "--rmax", "7", "--step", "1/10", "--max-length-sq", "49",
            "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    name, kib, unit = proc.stderr.split()[-3:]
    assert (name, unit) == ("VmHWM:", "kB")
    assert int(kib) / 1024 < 256
    rows = (tmp_path / "circle.csv").read_text().splitlines()[1:]
    assert len(rows) == 70
    assert rows[-1].startswith("7,24872412,")


def test_circle_step_beyond_rmax(capsys, tmp_path):
    code, out, err = run(capsys, "circle", "--builtin", "lshape", "--rmax", "1",
                         "--step", "2", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_circle_radius_nine_in_seconds(tmp_path):
    # 3,506,769,108 paths up to R = 9 on the L; the float sums take time per
    # census group, not per path
    env = _child_env()
    argv = [sys.executable, "-m", "tsurf.cli", "circle", "--builtin", "lshape",
            "--rmax", "9", "--step", "1/10", "--max-length-sq", "81",
            "--out", str(tmp_path)]
    subprocess.run(argv, env=env, check=True, timeout=15,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    rows = (tmp_path / "circle.csv").read_text().splitlines()[1:]
    assert len(rows) == 90
    assert rows[-1] == "9,3506769108,16664575646.396481,6574625384.1329679"


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


@pytest.mark.parametrize("tmax, pi", [("8/3", 96), ("11/3", 640)])
def test_geodesics_count_lengths_equal_to_tmax(capsys, tmax, pi):
    # words of length exactly T are within T, though float sums of their
    # saddle lengths can land above float(T)
    code, out, err = run(capsys, "geodesics", "--builtin", "lshape",
                         "--params", "7/3,5/2", "--tmax", tmax)
    assert code == 0
    assert out.splitlines()[-1].split(",")[1] == str(pi)
    assert f") = {pi} primitive closed geodesics" in err
