"""The four fixed tsurf CLI pipelines the benchmark runs.

Each workload is one subcommand on one surface; why each was chosen is
recorded next to its name in BENCHMARK.json. The benchmark seed reaches the
program only as `--seed`; only `measure` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    surface: tuple[str, ...]    # surface flags, shared with the set-up probe
    command: tuple[str, ...]    # subcommand followed by its own flags

    def argv(self, seed: int, out: str) -> list[str]:
        return [self.command[0], *self.surface, *self.command[1:],
                "--seed", str(seed), "--out", out]

    def setup_argv(self, seed: int, out: str) -> list[str]:
        return ["validate", *self.surface, "--seed", str(seed), "--out", out]


WORKLOADS = {w.name: w for w in (
    Workload("entropy_ladder", ("--builtin", "lshape"),
             ("entropy", "--max-length-sq", "100")),
    Workload("circle_census", ("--builtin", "lshape"),
             ("circle", "--rmax", "7", "--step", "1/10", "--max-length-sq", "49")),
    Workload("geodesic_weights", ("--builtin", "lshape", "--params", "7/3,5/2"),
             ("weights", "--tmax", "11/2", "--grid", "2")),
    Workload("circle_measure", ("--builtin", "slit_tori"),
             ("measure", "--radius", "5/2", "--grid", "4", "--samples", "2")),
)}
