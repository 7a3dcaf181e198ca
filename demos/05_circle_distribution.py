#!/usr/bin/env python3
# Where does a big circle spend its time?  Unfold each arc of the
# radius-R circle around the cone point through the gluings, cut it at
# the cells of an area grid, and watch the histograms converge as R grows.

import numpy as np

import tsurf

S = tsurf.builtin_surface("lshape")
G = tsurf.build_concat_graph(S, 16)
grid = tsurf.CellGrid(S, 4)
print(f"grid: {grid.num_cells} cells over the 3 unit squares, "
      f"each of area {float(grid.areas[0]):.6f}")

hists = {}
for R in (1.5, 2.5, 3.5):
    hists[R] = tsurf.circle_measure(G, 0, R, grid)
    m = hists[R].meta
    print(f"R={R}: circle length {m['circle_length']:.3f}, "
          f"{m['arcs']} arcs, histogram mass {m['unnormalized_total']:.3f}")

print("\nL1 distances between the three measures:")
print("  d(1.5, 2.5) =", f"{hists[1.5].l1_distance(hists[2.5]):.4f}")
print("  d(2.5, 3.5) =", f"{hists[2.5].l1_distance(hists[3.5]):.4f}")
print("(closer radii pairs get closer: the measures are converging)")

# density relative to the uniform measure, drawn square by square.
# cell_meta(cid) gives (polygon, column, row) inside that square.
area = np.array([float(a) for a in grid.areas])
dens = hists[3.5].masses * float(S.area) / area
where = {grid.cell_meta(cid): cid for cid in range(grid.num_cells)}
print("\ndensity vs uniform at R=3.5 (1.0 everywhere would be uniform):")
n = grid.n
for poly, label in ((2, "top square"), (0, "bottom-left"), (1, "bottom-right")):
    print(f"  {label}:")
    for row in reversed(range(n)):
        vals = [dens[where[poly, col, row]] for col in range(n)]
        print("   " + "  ".join(f"{v:5.2f}" for v in vals))
print("(the corners carry extra mass; every square corner is a copy of")
print(" the cone point, and arcs pile up around it)")

# ball volume over a sub-region, by the same unfolding; over the whole
# surface it recovers the closed form
top = [cid for cid in range(grid.num_cells) if grid.cell_meta(cid)[0] == 2]
vt = tsurf.region_volume(G, 0, 3.5, grid, top)
va = tsurf.region_volume(G, 0, 3.5, grid, range(grid.num_cells))
exact = tsurf.ball_volume_closed(G, 0, 3.5)
print(f"\nvolume over the top square: {vt:.1f} "
      f"({vt / exact:.1%} of the ball)")
print(f"whole surface: {va:.4f}  closed form: {exact:.4f}")
