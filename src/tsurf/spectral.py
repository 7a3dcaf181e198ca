"""Transfer-matrix spectra over the concatenation graph.

The volume entropy h is the unique sigma where the leading eigenvalue of the
weight matrix W_sigma(s,s') = exp(-sigma*l(s')) [on allowed pairs] equals 1.
Truncating to saddles below a length cutoff gives certified-monotone lower
approximations h_L that stabilize quickly; the tail estimate attached to each
cutoff is a heuristic size for what the truncation dropped, not a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import BracketFailure, DerivativeMismatch, EmptySCC, InvalidParams
from .paths import ConcatGraph


def _prefix_count(G: ConcatGraph, cutoff: float | None) -> int:
    """Canonical ids are sorted by length first, so a length cutoff selects a
    prefix of the id range."""
    if cutoff is None:
        return G.n
    return int(np.searchsorted(G.lengths, cutoff, side="right"))


def _truncated_scc(G: ConcatGraph, cutoff: float | None) -> tuple[csr_matrix, np.ndarray]:
    """0/1 matrix of the subgraph on saddles with length <= cutoff, and the
    ids of its largest strongly connected component that carries an edge.
    Ids are sorted by length, so the subgraph is a leading block of the
    whole graph's matrix."""
    k = _prefix_count(G, cutoff)
    if k == 0:
        raise EmptySCC(f"no saddles within cutoff {cutoff}")
    m = csr_matrix((np.ones(len(G.succ), dtype=np.int8), G.succ, G.indptr),
                   shape=(G.n, G.n))[:k, :k]
    if m.nnz == 0:
        raise EmptySCC(f"no concatenations within cutoff {cutoff}")
    m.sort_indices()
    ncomp, labels = connected_components(m, directed=True, connection="strong")
    rows = np.repeat(labels, np.diff(m.indptr))
    has_cycle = np.zeros(ncomp, dtype=bool)
    has_cycle[rows[rows == labels[m.indices]]] = True
    sizes = np.bincount(labels, minlength=ncomp)
    sizes[~has_cycle] = 0
    if sizes.max() == 0:
        raise EmptySCC(f"no cycles within cutoff {cutoff}")
    return m, np.flatnonzero(labels == int(sizes.argmax())).astype(np.int32)


def truncated_scc(G: ConcatGraph, cutoff: float | None = None) -> np.ndarray:
    """Saddle ids of the largest strongly connected component of the subgraph
    spanned by saddles with length <= cutoff. Components without a cycle
    (no internal edge) are discarded; raises EmptySCC if nothing survives."""
    return _truncated_scc(G, cutoff)[1]


@dataclass
class WeightMatrix:
    """Sparse weight matrix on an SCC index set. Entries depend on sigma (and
    the optional tilt t concentrated on the column of saddle s0) only through
    the data vector, so the sparsity pattern is built once."""

    ids: np.ndarray
    lengths: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    sigma: float
    t: float = 0.0
    s0: int | None = None

    @property
    def size(self) -> int:
        return len(self.ids)

    def _data(self) -> np.ndarray:
        collen = self.lengths[self.indices]
        expo = -self.sigma * collen
        if self.t != 0.0:
            if self.s0 is None:
                raise InvalidParams("tilt t without a marked saddle s0")
            pos = np.flatnonzero(self.ids == self.s0)
            if len(pos) == 0:
                raise InvalidParams(f"saddle {self.s0} not in the index set")
            expo = expo + self.t * self.lengths[pos[0]] * (self.indices == pos[0])
        return np.exp(expo)

    def matrix(self) -> csr_matrix:
        return csr_matrix((self._data(), self.indices, self.indptr),
                          shape=(self.size, self.size))

    def at(self, sigma: float, t: float | None = None) -> "WeightMatrix":
        return WeightMatrix(self.ids, self.lengths, self.indptr, self.indices,
                            sigma, self.t if t is None else t, self.s0)


def weight_matrix(G: ConcatGraph, sigma: float, cutoff: float | None = None,
                  t: float = 0.0, s0: int | None = None) -> WeightMatrix:
    m, ids = _truncated_scc(G, cutoff)
    sub = m[ids][:, ids]
    sub.sort_indices()
    return WeightMatrix(
        ids=ids,
        lengths=G.lengths[ids],
        indptr=sub.indptr.astype(np.int32),
        indices=sub.indices.astype(np.int32),
        sigma=float(sigma),
        t=float(t),
        s0=s0,
    )


@dataclass
class SpectralResult:
    lam: float
    u: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int
    converged: bool
    scc_size: int


def spectral_radius(W, tol: float = 1e-12, max_iter: int = 100000,
                    start: tuple[np.ndarray, np.ndarray] | None = None) -> SpectralResult:
    """Perron data by shifted power iteration. The diagonal shift by the max
    row sum makes the iteration matrix primitive regardless of the cycle
    structure, so convergence needs no aperiodicity assumption. Accepts a
    WeightMatrix or any square nonnegative array/sparse matrix. `start`
    is an optional positive (u, v) pair to iterate from, such as the Perron
    pair of a nearby matrix; the default is the uniform vector."""
    m = W.matrix() if hasattr(W, "matrix") else csr_matrix(W)
    n = m.shape[0]
    if n == 0:
        raise EmptySCC("empty matrix")
    if m.nnz and m.data.min() < 0:
        raise InvalidParams("weight matrix must be nonnegative")
    rowsum = np.asarray(m.sum(axis=1)).ravel()
    shift = max(float(rowsum.max()), 1e-30)
    mt = m.T.tocsr()
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
    # m @ v and mt @ u of the current iterates serve both the residual and
    # the next step: two products per iteration.
    mv = m @ v
    mu = mt @ u
    for it in range(1, max_iter + 1):
        nv = mv + shift * v
        nu = mu + shift * u
        sv = nv.sum()
        su = nu.sum()
        if sv <= 0 or su <= 0:
            break
        v = nv / sv
        u = nu / su
        mv = m @ v
        mu = mt @ u
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


def _solve_lambda_one(pattern: WeightMatrix, sigma0: float,
                      lam_tol: float) -> tuple[float, tuple, list, bool]:
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
    lam_tol."""
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
    converged = all_converged and abs(r.lam - 1.0) < lam_tol
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


def default_cutoffs(G: ConcatGraph, count: int = 5) -> list[float]:
    """A short increasing ladder of cutoffs ending at the full graph, spaced
    over the distinct saddle lengths."""
    uniq = np.unique(G.lengths)
    if len(uniq) <= count:
        return [float(x) for x in uniq]
    idx = np.linspace(0, len(uniq) - 1, count).round().astype(int)
    return [float(uniq[i]) for i in sorted(set(idx))]


def solve_entropy(G: ConcatGraph, cutoffs=None, lam_tol: float = 1e-10) -> EntropyEstimate:
    """Entropy h_L at each cutoff of the ladder (the default ladder when
    None). Each rung solves lambda(sigma) = 1 by safeguarded Newton,
    starting from the previous rung's h (h_L grows with L, so that point
    usually has lambda >= 1 already); the first rung starts at
    sigma = 1e-3. A rung counts as converged when every eigensolve
    converged and the last one has |lambda - 1| < lam_tol."""
    if cutoffs is None:
        cutoffs = default_cutoffs(G)
    if not len(cutoffs):
        raise InvalidParams("need at least one cutoff")
    per = []
    est = None
    sigma0 = 1e-3
    for L in cutoffs:
        L = float(L)
        pattern = weight_matrix(G, 1.0, cutoff=L)
        h, bracket, samples, conv = _solve_lambda_one(pattern, sigma0, lam_tol)
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
        if G.n == 0:
            raise EmptySCC("no saddle connections within the budget "
                           f"length^2 <= {G.max_length_sq}")
        cutoff = G.lengths.max()
    return solve_entropy(G, cutoffs=[float(cutoff)]).h


def v_weight(G: ConcatGraph, s0: int, cutoff: float | None = None,
             h: float | None = None, fd_step: float = 1e-5,
             fd_tol: float = 1e-6) -> float:
    """Relative weight of saddle s0: minus the ratio of the tilt derivative to
    the sigma derivative of the leading eigenvalue at sigma = h, computed from
    the eigenvector identity d(lambda) = u (dW) v and cross-checked against
    central finite differences. h defaults to the single-rung entropy at the
    cutoff."""
    if h is None:
        h = single_rung_entropy(G, cutoff)
    pattern = weight_matrix(G, h, cutoff=cutoff, t=0.0, s0=s0)
    pos = np.flatnonzero(pattern.ids == s0)
    if len(pos) == 0:
        raise InvalidParams(f"saddle {s0} is outside the strongly connected "
                            f"component at cutoff {cutoff}")
    p0 = int(pos[0])
    r = spectral_radius(pattern)
    lam, u, v = r.lam, r.u, r.v
    luv = float((pattern.lengths * u * v).sum())
    dt = lam * float(pattern.lengths[p0]) * float(u[p0]) * float(v[p0])
    dsig = -lam * luv
    val = -dt / dsig
    # Finite-difference audit of both partials.
    lam_tp = spectral_radius(pattern.at(h, t=fd_step)).lam
    lam_tm = spectral_radius(pattern.at(h, t=-fd_step)).lam
    lam_sp = spectral_radius(pattern.at(h + fd_step, t=0.0)).lam
    lam_sm = spectral_radius(pattern.at(h - fd_step, t=0.0)).lam
    dt_fd = (lam_tp - lam_tm) / (2 * fd_step)
    dsig_fd = (lam_sp - lam_sm) / (2 * fd_step)
    if abs(dt_fd - dt) > fd_tol or abs(dsig_fd - dsig) > fd_tol:
        raise DerivativeMismatch(
            f"eigenvector vs finite-difference derivatives disagree: "
            f"dt {dt} vs {dt_fd}, dsigma {dsig} vs {dsig_fd}")
    return val


def v_weights(G: ConcatGraph, cutoff: float | None = None,
              h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All weights on the cutoff SCC from one eigensolve (no per-saddle
    audit); returns (saddle ids, weights). Weights sum to 1 exactly by
    construction. h defaults to the single-rung entropy at the cutoff."""
    if h is None:
        h = single_rung_entropy(G, cutoff)
    pattern = weight_matrix(G, h, cutoff=cutoff)
    r = spectral_radius(pattern)
    w = pattern.lengths * r.u * r.v
    return pattern.ids, w / w.sum()
