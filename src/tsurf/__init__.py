"""tsurf: exact translation-surface geometry and geodesic statistics.

Each exported name and each submodule is imported on first access (PEP 562),
so `import tsurf` loads no layer and no numpy; `tsurf.circle_length` loads
`tsurf.paths` and what it needs, and nothing else.
"""

import importlib

# Exported name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(
        ("CellGrid", "DirectionWindow", "MeasureHistogram", "antipodal_direction",
         "circle_measure", "direction_window", "region_volume"), "circles"),
    **dict.fromkeys(
        ("BracketFailure", "DegenerateRadius", "DerivativeMismatch",
         "Disconnected", "EdgeMismatch", "EmptySCC", "InvalidParams",
         "MismatchedCone", "NonConvexPolygon", "NoSingularities", "ParseError",
         "TruncationError", "TsurfError"), "errors"),
    **dict.fromkeys(
        ("GeodesicCensus", "enumerate_closed", "occupancy", "pi_stats"),
        "geodesics"),
    **dict.fromkeys(
        ("ConcatGraph", "PathCensus", "ball_volume_closed", "ball_volume_grid",
         "build_concat_graph", "circle_length", "circle_length_grid",
         "circle_slope", "complete_graph", "path_length_census"), "paths"),
    **dict.fromkeys(
        ("EntropyEstimate", "SpectralResult", "WeightMatrix", "solve_entropy",
         "spectral_radius", "truncated_scc", "v_weight", "v_weights",
         "weight_matrix"), "spectral"),
    **dict.fromkeys(
        ("ConePoint", "TranslationSurface", "builtin_surface", "load_surface",
         "load_surface_file", "scale_surface"), "surface"),
    **dict.fromkeys(
        ("SaddleConnection", "enumerate_saddle_connections", "trace_ray"),
        "unfold"),
}

_SUBMODULES = ("circles", "cli", "errors", "geodesics", "geometry", "lengths",
               "paths", "rational", "spectral", "surface", "unfold")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
