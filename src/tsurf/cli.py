"""Command-line front end.

Machine-readable output (CSV or JSON) goes to stdout and, with --out, into
files under that directory; one-line human summaries go to stderr. Artifacts
are deterministic: the same subcommand and flags produce the same bytes.
Nothing is sampled. `--seed`, and `--samples` of `measure` and `volume`,
are hidden from the help; they still parse, so old command lines run, and
nothing reads them.

Radii, bounds and budgets are parsed as exact rationals and reach the
budget check unrounded, so `--radius 11/10` needs `--max-length-sq 121/100`
and no more.

Exit codes: 0 success, 2 invalid input or configuration, 3 length budget too
small for the requested radius or bound.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import InvalidParams, ParseError, TruncationError, TsurfError
from .rational import parse_rational
from .surface import TranslationSurface, builtin_surface, load_surface_file

# The names each layer lends the subcommands. A subcommand binds the layers
# it runs with `_layers` when it starts, so `validate` and `info` load no
# numpy. Binding never replaces a name that is already set, so a wrapper put
# on `tsurf.cli.<name>` from outside is the one the subcommand calls.
_LAYER_NAMES = {
    "circles": ("CellGrid", "circle_measure", "region_volume"),
    "geodesics": ("enumerate_closed", "occupancy", "pi_stats", "saddle_csv",
                  "stats_csv"),
    "paths": ("ball_volume_closed", "build_concat_graph", "circle_csv",
              "path_length_census"),
    "spectral": ("single_rung_entropy", "solve_entropy", "v_weights"),
    "unfold": ("enumerate_saddle_connections", "saddles_to_csv"),
}


def _layers(*mods: str):
    g = globals()
    for mod in mods:
        module = importlib.import_module(f".{mod}", __package__)
        for name in _LAYER_NAMES[mod]:
            g.setdefault(name, getattr(module, name))


def __getattr__(name):
    # Readers outside the module (the tests, a tracer) see every layer name.
    if any(name in names for names in _LAYER_NAMES.values()):
        _layers(*_LAYER_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _rat(text: str) -> Fraction:
    return parse_rational(text)


def _common(p: argparse.ArgumentParser):
    p.add_argument("--builtin", choices=["lshape", "slit_tori"],
                   help="use a built-in surface")
    p.add_argument("--params", default=None,
                   help="comma-separated rational parameters for --builtin")
    p.add_argument("--surface", default=None, metavar="FILE",
                   help="load a surface description from FILE")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write artifacts under DIR")
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--svg", action="store_true",
                   help="also emit an SVG figure where supported")


def _load(args) -> TranslationSurface:
    if args.surface and args.builtin:
        raise TsurfError("pass either --surface or --builtin, not both")
    if args.surface:
        return load_surface_file(args.surface)
    if args.builtin:
        params = ([_rat(x) for x in args.params.split(",")]
                  if args.params else None)
        return builtin_surface(args.builtin, params)
    raise TsurfError("a surface is required: --surface FILE or --builtin NAME")


def _graph(S, args, *, need_sq=None):
    budget = getattr(args, "max_length_sq", None)
    if budget is not None:
        budget = _rat(budget)
    elif need_sq is not None:
        budget = need_sq
    else:
        raise TsurfError("--max-length-sq is required here")
    return build_concat_graph(S, budget)


def _emit(args, name: str, text: str):
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _note(msg: str):
    print(msg, file=sys.stderr)


# ----------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    S = _load(args)
    doc = {
        "genus": S.genus,
        "area": str(S.area),
        "polygons": len(S.polygons),
        "gluing_pairs": len(S.gluing_pairs),
        "cone_points": [
            {"id": c.id, "k": c.k, "angle_over_pi": 2 * (c.k + 1)}
            for c in S.cone_points
        ],
        "gauss_bonnet": sum(c.k for c in S.cone_points) == 2 * S.genus - 2,
    }
    _emit(args, "surface.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _note(f"valid: genus {S.genus}, {len(S.cone_points)} cone point(s)")
    return 0


def cmd_info(args) -> int:
    S = _load(args)
    lines = [f"genus {S.genus}, area {S.area}"]
    for c in S.cone_points:
        lines.append(f"singularity {c.id}: k={c.k}, "
                     f"cone angle {2 * (c.k + 1)}*pi, {len(c.star)} corners")
    lines.append(f"{len(S.polygons)} polygons, "
                 f"{len(S.gluing_pairs)} gluing pairs")
    _emit(args, "info.txt", "\n".join(lines) + "\n")
    return 0


def cmd_saddles(args) -> int:
    _layers("unfold")
    S = _load(args)
    sad = enumerate_saddle_connections(S, _rat(args.max_length_sq))
    _emit(args, "saddles.csv", saddles_to_csv(sad))
    if args.svg:
        _emit_saddle_svg(args, S, sad)
    _note(f"{len(sad)} saddle connections with length^2 <= {args.max_length_sq}")
    return 0


def _emit_saddle_svg(args, S, sad):
    """Polygon layout plus the developed holonomy star: one chord from the
    origin per connection."""
    scale = 60.0
    gap = 30.0
    xoff = 0.0
    parts = []
    hmax = 1.0
    for poly in S.polygons:
        pts = [(float(x) * scale, float(y) * scale) for x, y in poly]
        ymax = max(p[1] for p in pts)
        path = " ".join(f"{xoff + x:.1f},{ymax - y:.1f}" for x, y in pts)
        parts.append(f'<polygon points="{path}" fill="#eef" stroke="#336"/>')
        xoff += max(p[0] for p in pts) + gap
    for s in sad:
        hmax = max(hmax, abs(float(s.holonomy[0])), abs(float(s.holonomy[1])))
    r = 2.5 * scale
    cx, cy = xoff + r, r
    for s in sad:
        hx = float(s.holonomy[0]) / hmax * r
        hy = float(s.holonomy[1]) / hmax * r
        parts.append(f'<line x1="{cx:.1f}" y1="{cy:.1f}" '
                     f'x2="{cx + hx:.1f}" y2="{cy - hy:.1f}" '
                     f'stroke="#a33" stroke-width="0.8"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{cx + r + 10:.0f}" height="{2 * r + 10:.0f}">'
           + "".join(parts) + "</svg>\n")
    _emit(args, "saddles.svg", svg)


def cmd_entropy(args) -> int:
    _layers("paths", "spectral")
    S = _load(args)
    cut_rats = [_rat(c) for c in args.cutoffs.split(",")] if args.cutoffs else None
    if args.max_length_sq is None and cut_rats is None:
        raise TsurfError("entropy needs --max-length-sq or --cutoffs")
    need = max(cut_rats) ** 2 if cut_rats else None
    G = _graph(S, args, need_sq=need)
    cutoffs = [float(c) for c in cut_rats] if cut_rats else None
    est = solve_entropy(G, cutoffs=cutoffs)
    _emit(args, "entropy.json",
          json.dumps(est.report(), indent=2, sort_keys=True) + "\n")
    _note(f"h = {est.h:.12g} at cutoff {est.cutoff:.6g} "
          f"(tail estimate {est.tail_estimate:.3g})")
    return 0


def cmd_circle(args) -> int:
    _layers("paths")
    S = _load(args)
    rmax = _rat(args.rmax)
    step = _rat(args.step)
    if rmax <= 0 or step <= 0:
        raise TsurfError("--rmax and --step must be positive")
    if step > rmax:
        raise InvalidParams("--step exceeds --rmax: the radius grid is empty")
    G = _graph(S, args, need_sq=rmax * rmax)
    radii = [step * i for i in range(1, int(rmax / step) + 1)]
    census = path_length_census(G, args.center, rmax)
    _emit(args, "circle.csv", circle_csv(G, args.center, radii, census))
    _note(f"{len(radii)} radii up to {float(rmax):g} around cone {args.center}")
    return 0


def cmd_measure(args) -> int:
    _layers("paths", "circles")
    S = _load(args)
    R = _rat(args.radius)
    G = _graph(S, args, need_sq=R * R)
    grid = CellGrid(S, args.grid)
    hist = circle_measure(G, args.center, R, grid)
    _emit(args, "measure.csv", hist.to_csv())
    if args.svg:
        _emit(args, "measure.svg", hist.to_svg())
    _note(f"measure at R={float(R):g}: {hist.meta['arcs']} arcs")
    return 0


def cmd_volume(args) -> int:
    _layers("paths", "circles")
    S = _load(args)
    R = _rat(args.radius)
    G = _graph(S, args, need_sq=R * R)
    grid = CellGrid(S, args.grid)
    if args.cells == "all":
        cells = range(grid.num_cells)
    else:
        try:
            cells = [int(c) for c in args.cells.split(",") if c != ""]
        except ValueError:
            raise ParseError(f"--cells takes 'all' or comma-separated cell "
                             f"ids, got {args.cells!r}") from None
    census = path_length_census(G, args.center, R)
    est = region_volume(G, args.center, R, grid, cells, census=census)
    closed = ball_volume_closed(G, args.center, R, census)
    # volume.csv keeps its standard_error column; the estimate is exact.
    text = ("R,estimate,standard_error,ball_volume_closed\n"
            f"{float(R):.17g},{est:.17g},0,{closed:.17g}\n")
    _emit(args, "volume.csv", text)
    _note(f"V_A({float(R):g}) = {est:.6g}")
    return 0


def cmd_geodesics(args) -> int:
    _layers("paths", "geodesics", "spectral")
    S = _load(args)
    T = _rat(args.tmax)
    G = _graph(S, args, need_sq=T * T)
    census = enumerate_closed(G, T)
    h = single_rung_entropy(G)
    stats = pi_stats(census, h)
    _emit(args, "geodesics.csv", stats_csv(stats))
    _note(f"pi({float(T):g}) = {census.pi()} primitive closed geodesics; "
          f"log-slope {stats['log_pi_slope']:.4f} vs h {h:.4f}")
    return 0


def cmd_weights(args) -> int:
    _layers("paths", "geodesics", "spectral", "circles")
    S = _load(args)
    T = _rat(args.tmax)
    G = _graph(S, args, need_sq=T * T)
    census = enumerate_closed(G, T)
    if census.pi() == 0:
        # pi_s / pi and the occupancy are undefined; nothing is emitted.
        raise InvalidParams("no closed geodesics within the bound")
    ids, w = v_weights(G)
    pi_s = census.pi_saddle()
    _emit(args, "weights.csv", saddle_csv(G, pi_s, census.pi(), ids, w))
    if args.grid:
        grid = CellGrid(S, args.grid)
        hist = occupancy(G, census, grid)
        _emit(args, "occupancy.csv", hist.to_csv())
        if args.svg:
            _emit(args, "occupancy.svg", hist.to_svg())
    _note(f"{census.pi()} geodesics; {len(ids)} saddles in the spectral "
          f"component")
    return 0


# ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tsurf",
        description="flat-surface geometry: saddle connections, circles, "
                    "entropy, closed geodesics")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        _common(p)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check a surface and print its invariants")
    add("info", cmd_info, "human-readable surface summary")

    p = add("saddles", cmd_saddles, "enumerate saddle connections")
    p.add_argument("--max-length-sq", required=True,
                   help="length-squared budget (rational)")

    p = add("entropy", cmd_entropy, "volume entropy by transfer matrices")
    p.add_argument("--max-length-sq", default=None,
                   help="saddle budget; derived from --cutoffs when omitted")
    p.add_argument("--cutoffs", default=None,
                   help="comma-separated length cutoffs")

    p = add("circle", cmd_circle, "exact circle lengths on a radius grid")
    p.add_argument("--center", type=int, default=0, help="cone point id")
    p.add_argument("--rmax", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--max-length-sq", default=None)

    p = add("measure", cmd_measure,
            "circle measure histogram, by unfolding each arc")
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--radius", required=True)
    p.add_argument("--grid", type=int, default=4, help="cells per polygon side")
    p.add_argument("--samples", type=int, help=argparse.SUPPRESS)
    p.add_argument("--max-length-sq", default=None)

    p = add("volume", cmd_volume, "ball volume inside a set of cells")
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--radius", required=True)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--cells", default="all",
                   help="'all' or comma-separated cell ids")
    p.add_argument("--samples", type=int, help=argparse.SUPPRESS)
    p.add_argument("--max-length-sq", default=None)

    p = add("geodesics", cmd_geodesics, "primitive closed geodesic counts")
    p.add_argument("--tmax", required=True)
    p.add_argument("--max-length-sq", default=None)

    p = add("weights", cmd_weights, "per-saddle geodesic vs spectral weights")
    p.add_argument("--tmax", required=True)
    p.add_argument("--grid", type=int, default=0,
                   help="if > 0, also write the occupancy histogram")
    p.add_argument("--max-length-sq", default=None)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The parser is cyclic garbage now, partly promoted to the oldest
    # generation while it was built. Collected here, before a subcommand
    # loads its layers, its memory holds them instead of lingering beside
    # them: `weights` peaked about 0.16 MiB lower.
    gc.collect()
    try:
        return args.fn(args)
    except TruncationError as e:
        hint = ""
        for attr in ("rmax", "radius", "tmax"):
            val = getattr(args, attr, None)
            if val is not None:
                need = _rat(val) ** 2
                hint = f"; pass --max-length-sq {need} or more"
                break
        print(f"error: {e}{hint}", file=sys.stderr)
        return 3
    except TsurfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run():
    """The `tsurf` command: `main` on sys.argv, then the process ends as
    soon as stdout and stderr are flushed. Skipping the interpreter's
    teardown skips freeing memory that the OS takes back anyway; every
    artifact file is closed by then. A flush that fails exits with 120, as
    the interpreter would, and prints no traceback."""
    try:
        code = main()
    except SystemExit as e:  # argparse: --help, --version, usage errors
        code = e.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        code = code or 120
    os._exit(code)


if __name__ == "__main__":
    run()
