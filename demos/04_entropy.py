#!/usr/bin/env python3
"""Volume entropy from truncated transfer operators.

Truncate the concatenation graph at a length cutoff, weight each edge
s -> t by exp(-sigma * len(t)), and solve for the sigma where the
leading eigenvalue crosses 1 (safeguarded Newton, the derivative coming
from the eigenvector pair). Larger cutoffs only add paths, so the
estimates climb toward the true growth rate from below.
"""

import math

import tsurf

# sanity check on a system whose entropy is known exactly: the full
# shift on m symbols with unit edge lengths grows like e^{T log m}
for m in (2, 3, 5):
    est = tsurf.solve_entropy(tsurf.complete_graph(m), cutoffs=[1.0])
    print(f"complete graph on {m}: h = {est.h:.12f}   log {m} = {math.log(m):.12f}")
print()

S = tsurf.builtin_surface("lshape")
G = tsurf.build_concat_graph(S, 64)

est = tsurf.solve_entropy(G, cutoffs=[2.0, 3.0, 5.0, 8.0])
print("L surface, cutoff ladder:")
print(" cutoff   matrix size   h estimate")
for row in est.per_cutoff:
    print(f" {row['cutoff']:>6}   {row['scc_size']:>11}   {row['h']:.12f}")
print(f"\nfinal h = {est.h:.12f}")

# doubling every length halves the growth rate
H = tsurf.build_concat_graph(tsurf.scale_surface(S, 2), 64)
h2 = tsurf.solve_entropy(H, cutoffs=[4.0]).h
h1 = tsurf.solve_entropy(G, cutoffs=[2.0]).h
print(f"\nscale test: h(2S) = {h2:.9f} vs h(S)/2 = {h1 / 2:.9f}")
