#!/usr/bin/env python3
"""Primitive closed geodesics through the cone point.

A closed geodesic is a cyclic word of concatenable saddle connections.
The census below counts every primitive one up to length T by its exact
length, from closed walks graded by letter count and length, without
listing a single word. Then it asks a finer question: what fraction of
geodesics pass through each individual saddle connection? Those visit
frequencies are predicted by the eigenvector data of the transfer
operator, with no enumeration at all.
"""

import math

import numpy as np

import tsurf

S = tsurf.builtin_surface("lshape")
G = tsurf.build_concat_graph(S, 25)

T = 4.5
census = tsurf.enumerate_closed(G, T)
print(f"{census.pi()} primitive closed geodesics of length <= {T}")

print("\n    T     pi(T)   total length F(T)")
for t in np.arange(1.0, T + 0.25, 0.5):
    print(f" {t:4.1f}  {census.pi(t):>7}   {census.F(t):>12.3f}")

print("\nshortest lengths, with the number of words of each:")
for length, count in zip(census.lengths[:4], census.counts[:4]):
    print(f"  length {length:.4f}  {count:>3} words")

# the counting exponent approaches the volume entropy; regress log pi
# over a trailing window one decade of growth wide
h = tsurf.solve_entropy(G).h
print(f"\nspectral h = {h:.4f}; log pi slopes at increasing T:")
for t in (3.0, 3.75, 4.5):
    ts = np.linspace(t - math.log(10) / h, t, 12)
    slope = np.polyfit(ts, np.log([census.pi(u) for u in ts]), 1)[0]
    print(f"  T={t:<5} slope {slope:.4f}  ({(slope - h) / h:+.2%})")

# visit frequencies: census shares against spectral weights. The twelve
# shortest saddles split into four holonomy classes of three, but the
# concatenation rule does not treat the three members identically, so
# their finite-T shares differ in the fourth decimal; the limit weight
# is the same for all twelve.
shares = census.pi_saddle() / census.pi()
ids, w = tsurf.v_weights(G, h=h)
wmap = dict(zip(ids.tolist(), w))
print("\nsaddle   holonomy   census share   spectral weight")
for s in (0, 1, 3, 9):
    hol = tuple(map(str, G.saddles[s].holonomy))
    print(f" {s:>5}   {str(hol):>8}   {shares[s]:.6f}       {wmap[s]:.6f}")
print(f"\nshare mass on the 12 shortest: {shares[:12].sum():.4f}"
      f"  spectral: {sum(wmap[s] for s in range(12)):.4f}")
