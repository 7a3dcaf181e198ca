"""Transfer-matrix spectra over the concatenation graph.

The volume entropy h is the unique sigma where the leading eigenvalue of the
weight matrix W_sigma(s,s') = exp(-sigma*l(s')) [on allowed pairs] equals 1.
Truncating to saddles below a length cutoff gives certified-monotone lower
approximations h_L that stabilize quickly; the tail estimate attached to each
cutoff is a heuristic size for what the truncation dropped, not a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BracketFailure, EmptySCC, InvalidParams
from .paths import ConcatGraph, Runs, _spans
from .rational import parse_list, parse_real


def _prefix_count(G: ConcatGraph, cutoff: float | None) -> int:
    """Canonical ids are sorted by length first, so a length cutoff selects a
    prefix of the id range."""
    if cutoff is None:
        return G.n
    return int(np.searchsorted(G.lengths, parse_real(cutoff, "cutoff"), side="right"))


def _find(nxt: list, p: int) -> int:
    """The first unvisited position >= p (nxt[p] == p marks one), with path
    compression."""
    root = p
    while nxt[root] != root:
        root = nxt[root]
    while nxt[p] != root:
        nxt[p], p = root, nxt[p]
    return root


def _searches(runs: Runs, k: int, roots):
    """Iterative depth-first searches over the runs, among the saddles below
    k: from each root not yet reached, yields the saddles that this search
    alone reaches, in the order it finishes them. Each frame keeps the run
    it is scanning; a union-find over the positions of `runs.order` plus a
    sentinel skips the visited saddles and those outside the prefix, so
    every position is visited once and each run is scanned to its end
    once."""
    order, lo, hi = runs.order.tolist(), runs.lo.tolist(), runs.hi.tolist()
    ptr, pos = runs.ptr.tolist(), runs.pos.tolist()
    nxt = [p if s < k else p + 1 for p, s in enumerate(order)] + [len(order)]
    cur = ptr[:k]
    for root in roots:
        p = pos[root]
        if nxt[p] != p:
            continue
        nxt[p] = p + 1
        done, stack = [], [root]
        while stack:
            i = stack[-1]
            r, end = cur[i], ptr[i + 1]
            while r < end:
                p = _find(nxt, lo[r])
                if p < hi[r]:
                    break
                r += 1
            cur[i] = r
            if r == end:
                done.append(stack.pop())
            else:
                nxt[p] = p + 1
                stack.append(order[p])
        yield done


def truncated_scc(G: ConcatGraph, cutoff: float | None = None) -> np.ndarray:
    """Sorted saddle ids of the largest strongly connected component that
    carries a cycle, in the subgraph on saddles with length <= cutoff (all
    when None). Ids are sorted by length, so the subgraph is the prefix [0,
    k) of the ids. Kosaraju over the runs: a depth-first search over the
    successor runs gives the finishing order, and searches over the
    predecessor runs from the last finished saddle back give the
    components. A union-find over each order's positions skips the visited
    saddles and those outside the prefix, so a search costs O(n alpha(n))
    plus one step per run. A component carries a cycle when it has two
    saddles or a self-concatenation. On a tie the component holding the
    smallest id wins; raises EmptySCC if nothing carries a cycle."""
    k = _prefix_count(G, cutoff)
    if k == 0:
        raise EmptySCC(f"no saddles within cutoff {cutoff}")
    best, key = None, None
    post = [s for done in _searches(G.after, k, range(k)) for s in done]
    for comp in _searches(G.before, k, post[::-1]):
        if len(comp) == 1 and not G.after.contains(comp[0], comp[0]):
            continue
        if key is None or (len(comp), -min(comp)) > key:
            best, key = comp, (len(comp), -min(comp))
    if best is None:
        a = G.after
        inside = np.concatenate(([0], np.cumsum(a.order < k)))
        r = a.ptr[k]
        if not (inside[a.hi[:r]] - inside[a.lo[:r]]).any():
            raise EmptySCC(f"no concatenations within cutoff {cutoff}")
        raise EmptySCC(f"no cycles within cutoff {cutoff}")
    return np.array(sorted(best), dtype=np.int32)


@dataclass
class WeightMatrix:
    """Weight matrix on an SCC index set: W[a, b] = weights[b] when saddle
    ids[b] may follow ids[a], with weights = exp(-sigma * lengths). The
    relation is the successor runs restricted to the component: `cols`
    lists the SCC indices in successor order, and run r of row rows[r]
    covers positions bounds[2r] to bounds[2r+1] - 1 of it. Built once per
    cutoff; `at` only changes the weights."""

    ids: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray
    sigma: float
    rows: np.ndarray
    bounds: np.ndarray
    cols: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)

    def at(self, sigma: float) -> "WeightMatrix":
        return replace(self, weights=np.exp(-sigma * self.lengths), sigma=float(sigma))

    def dot(self, v: np.ndarray) -> np.ndarray:
        """W v: weights * v in successor order, summed over each run by
        np.add.reduceat (slice by slice, so no prefix-sum cancellation),
        then added per row."""
        x = np.zeros(len(self.cols) + 1)
        x[:-1] = (self.weights * v)[self.cols]
        runs = np.add.reduceat(x, self.bounds)[::2]
        return np.bincount(self.rows, weights=runs, minlength=self.size)

    def tdot(self, u: np.ndarray) -> np.ndarray:
        """W^T u: u of each row added at its runs' starts and taken off at
        their ends, summed along the successor order and gathered per
        column."""
        m = len(self.cols)
        ur = u[self.rows]
        diff = (np.bincount(self.bounds[::2], weights=ur, minlength=m + 1)
                - np.bincount(self.bounds[1::2], weights=ur, minlength=m + 1))
        out = np.empty(self.size)
        out[self.cols] = np.cumsum(diff[:m])
        return out * self.weights


def weight_matrix(G: ConcatGraph, sigma: float,
                  cutoff: float | None = None) -> WeightMatrix:
    """The weight matrix at sigma on the SCC at the cutoff: the successor
    runs of its rows, renumbered to the positions of its members in the
    successor order, empty runs dropped."""
    sigma = parse_real(sigma, "sigma")
    ids = truncated_scc(G, cutoff)
    a = G.after
    index = np.full(G.n, -1, dtype=np.int64)
    index[ids] = np.arange(len(ids))
    at = index[a.order]
    cum = np.concatenate(([0], np.cumsum(at >= 0)))
    first, last = a.ptr[ids], a.ptr[ids + 1]
    runs = _spans(first, last)
    lo, hi = cum[a.lo[runs]], cum[a.hi[runs]]
    keep = lo < hi
    lengths = G.lengths[ids]
    return WeightMatrix(
        ids=ids, lengths=lengths, weights=np.exp(-sigma * lengths), sigma=sigma,
        rows=np.repeat(np.arange(len(ids)), last - first)[keep],
        bounds=np.column_stack((lo[keep], hi[keep])).ravel(),
        cols=at[at >= 0])


@dataclass
class SpectralResult:
    lam: float
    u: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int
    converged: bool
    scc_size: int


_MAX_ITER = 100000


def spectral_radius(W, tol: float = 1e-12,
                    start: tuple[np.ndarray, np.ndarray] | None = None) -> SpectralResult:
    """Perron data by shifted power iteration. The diagonal shift by the max
    row sum makes the iteration matrix primitive regardless of the cycle
    structure, so convergence needs no aperiodicity assumption. Accepts a
    WeightMatrix, whose products are range sums over its runs, or any
    square nonnegative array. `start` is an optional positive (u, v) pair
    to iterate from, such as the Perron pair of a nearby matrix; the
    default is the uniform vector."""
    if isinstance(W, WeightMatrix):
        n = W.size
        dot, tdot = W.dot, W.tdot
        rowsum = dot(np.ones(n))
    else:
        m = np.asarray(W, dtype=np.float64)
        n = m.shape[0]
        if n and m.min() < 0:
            raise InvalidParams("weight matrix must be nonnegative")
        dot, tdot = m.__matmul__, m.T.__matmul__
        rowsum = m.sum(axis=1)
    if n == 0:
        raise EmptySCC("empty matrix")
    shift = max(float(rowsum.max()), 1e-30)
    if start is None:
        u = np.full(n, 1.0 / n)
        v = np.full(n, 1.0 / n)
    else:
        u = start[0] / start[0].sum()
        v = start[1] / start[1].sum()
    lam = 0.0
    res = math.inf
    it = 0
    scale = max(shift, 1.0)
    # W v and W^T u of the current iterates serve both the residual and
    # the next step: two products per iteration.
    mv = dot(v)
    mu = tdot(u)
    for it in range(1, _MAX_ITER + 1):
        nv = mv + shift * v
        nu = mu + shift * u
        sv = nv.sum()
        su = nu.sum()
        if sv <= 0 or su <= 0:
            break
        v = nv / sv
        u = nu / su
        mv = dot(v)
        mu = tdot(u)
        lam = float(v @ mv) / float(v @ v)
        res = max(float(np.abs(mv - lam * v).max()),
                  float(np.abs(mu - lam * u).max()))
        if res < tol * scale:
            break
    converged = res < tol * scale
    v = v / v.sum()
    uv = float(u @ v)
    if uv > 0:
        u = u / uv
    return SpectralResult(lam=lam, u=u, v=v, residual=res, iterations=it,
                          converged=converged, scc_size=n)


@dataclass
class EntropyEstimate:
    h: float
    cutoff: float
    bracket: tuple[float, float]
    tail_estimate: float
    per_cutoff: list = field(default_factory=list)
    converged: bool = True

    def report(self) -> dict:
        return {
            "h": self.h,
            "cutoff": self.cutoff,
            "bracket": list(self.bracket),
            "tail_estimate": self.tail_estimate,
            "converged": self.converged,
            "per_cutoff": self.per_cutoff,
        }


# The root search stops once lambda(lo) > 1 > lambda(hi) with hi - lo at
# most this many times max(1, sigma); below that the eigensolve's own error
# decides the side of the root.
_SIGMA_TOL = 1e-13
# Roots below this count as no growth at all.
_SIGMA_MIN = 1e-12
_MAX_STEPS = 100
# A rung counts as converged only if its last eigensolve has
# |lambda - 1| below this.
_LAM_TOL = 1e-10


def _solve_lambda_one(pattern: WeightMatrix,
                      sigma0: float) -> tuple[float, tuple, list, bool]:
    """Safeguarded Newton for lambda(sigma) = 1 from sigma0.

    log(lambda) is convex and decreasing in sigma, with derivative
    -sum(l * u * v) from the normalised Perron pair (u, v), so Newton steps
    from a point with lambda > 1 approach the root from below. Every
    eigensolve narrows the bracket lambda(lo) > 1 > lambda(hi); a step that
    would leave it bisects instead, and a step shorter than the tolerance is
    lengthened to it so that it lands past the root and closes the bracket.
    Until some point has lambda > 1 the lower end is the uncertified
    _SIGMA_MIN, so leaving the bracket about halves sigma. Each eigensolve
    after the first starts from the previous Perron pair. Returns h, the
    final bracket, the sampled (sigma, lambda) pairs, and a convergence
    flag: every eigensolve converged and the last has |lambda - 1| <
    _LAM_TOL."""
    samples = []
    all_converged = True
    lo, hi = _SIGMA_MIN, math.inf
    have_lo = False
    sig = float(sigma0)
    start = None
    for _ in range(_MAX_STEPS):
        r = spectral_radius(pattern.at(sig), start=start)
        start = (r.u, r.v)
        all_converged = all_converged and r.converged
        samples.append((sig, r.lam))
        if r.lam == 1.0:
            lo = hi = sig
            have_lo = True
            break
        if r.lam > 1.0:
            lo, have_lo = sig, True
        else:
            hi = sig
        tol = _SIGMA_TOL * max(1.0, sig)
        if have_lo and hi - lo <= tol:
            break
        if not have_lo and hi <= 2 * _SIGMA_MIN:
            raise BracketFailure(f"lambda(sigma) <= 1 down to sigma = {hi:.3g}; "
                                 "the truncated component has no growth")
        step = math.log(r.lam) / float((pattern.lengths * r.u * r.v).sum())
        if abs(step) < tol:
            step = math.copysign(tol, step)
        sig = sig + step
        if not lo < sig < hi:
            if math.isinf(hi):
                raise BracketFailure(f"Newton step {step} from sigma = {lo} "
                                     f"leaves the bracket [{lo}, inf)")
            sig = 0.5 * (lo + hi)
    else:
        all_converged = False
    # Monotonicity audit over everything the solver evaluated.
    samples.sort(key=lambda p: p[0])
    for (s1, l1), (s2, l2) in zip(samples, samples[1:]):
        if s2 > s1 and not (l2 < l1 + 1e-12):
            raise BracketFailure(
                f"lambda not decreasing: lambda({s1})={l1}, lambda({s2})={l2}")
    converged = all_converged and abs(r.lam - 1.0) < _LAM_TOL
    return 0.5 * (lo + hi), (lo, hi), samples, converged


def _tail_estimate(G: ConcatGraph, cutoff: float, h: float) -> float:
    """Heuristic mass of the dropped columns: fit #{l(s) <= R} ~ c R^2 at the
    cutoff and integrate the induced density against exp(-h l)."""
    if G.max_length_sq is None:
        return 0.0
    k = _prefix_count(G, cutoff)
    if k == 0 or cutoff <= 0 or h <= 0:
        return math.inf
    c = k / cutoff ** 2
    return 2.0 * c * math.exp(-h * cutoff) * (cutoff / h + 1.0 / h ** 2)


_LADDER_RUNGS = 5


def default_cutoffs(G: ConcatGraph) -> list[float]:
    """A short increasing ladder of cutoffs ending at the full graph, spaced
    over the distinct saddle lengths (ids are sorted by length, so those
    are the run starts)."""
    first = np.ones(G.n, dtype=bool)
    first[1:] = G.lengths[1:] != G.lengths[:-1]
    uniq = G.lengths[first]
    if len(uniq) <= _LADDER_RUNGS:
        return [float(x) for x in uniq]
    idx = np.linspace(0, len(uniq) - 1, _LADDER_RUNGS).round().astype(int)
    return [float(uniq[i]) for i in sorted(set(idx))]


def _require_saddles(G: ConcatGraph) -> None:
    if G.n == 0:
        raise EmptySCC("no saddle connections within the budget "
                       f"length^2 <= {G.max_length_sq}")


def solve_entropy(G: ConcatGraph, cutoffs=None) -> EntropyEstimate:
    """Entropy h_L at each cutoff of the ladder (the default ladder when
    None). Each rung solves lambda(sigma) = 1 by safeguarded Newton,
    starting from the previous rung's h (h_L grows with L, so that point
    usually has lambda >= 1 already); the first rung starts at
    sigma = 1e-3. A rung counts as converged when every eigensolve
    converged and the last one has |lambda - 1| < _LAM_TOL."""
    if cutoffs is None:
        _require_saddles(G)
        cutoffs = default_cutoffs(G)
    cutoffs = [parse_real(L, "cutoff") for L in parse_list(cutoffs, "cutoffs")]
    if not cutoffs:
        raise InvalidParams("need at least one cutoff")
    per = []
    est = None
    sigma0 = 1e-3
    for L in cutoffs:
        pattern = weight_matrix(G, 1.0, cutoff=L)
        h, bracket, samples, conv = _solve_lambda_one(pattern, sigma0)
        tail = _tail_estimate(G, L, h)
        per.append({
            "cutoff": L,
            "num_saddles": _prefix_count(G, L),
            "scc_size": pattern.size,
            "h": h,
            "bracket": list(bracket),
            "lambda_samples": len(samples),
            "tail_estimate": tail,
            "converged": conv,
        })
        est = EntropyEstimate(h=h, cutoff=L, bracket=bracket, tail_estimate=tail,
                              per_cutoff=per, converged=all(p["converged"] for p in per))
        sigma0 = h
    return est


def single_rung_entropy(G: ConcatGraph, cutoff: float | None = None) -> float:
    """h of the one rung at `cutoff`, the whole graph when None."""
    if cutoff is None:
        _require_saddles(G)
        cutoff = G.lengths.max()
    return solve_entropy(G, cutoffs=[cutoff]).h


def v_weights(G: ConcatGraph, cutoff: float | None = None,
              h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All weights on the cutoff SCC from one eigensolve (no per-saddle
    audit); returns (saddle ids, weights). Weights sum to 1 exactly by
    construction. h defaults to the single-rung entropy at the cutoff."""
    h = single_rung_entropy(G, cutoff) if h is None else parse_real(h, "h")
    pattern = weight_matrix(G, h, cutoff=cutoff)
    r = spectral_radius(pattern)
    w = pattern.lengths * r.u * r.v
    return pattern.ids, w / w.sum()
