"""Geometric entanglement via best product-state overlap.

A manifold state lives in the three-fold tensor power of the per-cavity
level space (dimension ``manifold.qudit_dim``), but only on its basis
states: the rows of ``manifold.coords``, one level position per cavity.
The figure of merit is the squared overlap with the closest unentangled
state,

    P_max = max |<u (x) v (x) w | psi>|^2   over unit vectors u, v, w,

and the geometric entanglement is -log2(P_max).

At N = 2 every basis state has exactly one cavity off g0 (level position
0), so psi = sum_c |x_c>_c (x) |g0 g0> is a W-type state and P_max has a
closed form (Wei & Goldbart, PRA 68, 042307 (2003); Tamaryan, Park &
Tamaryan, PRA 77, 022325 (2008)).  With squared sides s_c = |x_c|^2, s_a
the largest: when s_a >= s_b + s_c the maximizer is x_a/|x_a| on cavity a
and g0 on the other two, and P_max = s_a.  Otherwise, with p_c = S - s_c,
S = (s_a + s_b + s_c)/2 and q = p_a p_b + p_b p_c + p_c p_a, each factor
is cos t_c g0 + sin t_c x_c/|x_c| with cos^2 t_c = s_c p_c / q and
sin^2 t_c = p_c' p_c'' / q (c', c'' the other two cavities), the solution
of the stationarity conditions, and P_max = s_a s_b s_c / q: 4R^2, R the
circumradius of the triangle of sides |x_a|, |x_b|, |x_c|.

On larger manifolds P_max is maximized by alternating power sweeps: each
cavity factor in turn is set to the exact optimum given the other two,
which never decreases the overlap.  That optimum is the half-step's vector
normalized, so the norm of a sweep's last half-step is the sweep's
overlap.  Every half-step gathers the factors at the basis states' levels,
so it touches the state's ``dim`` amplitudes and none of the d**3 tensor
entries off the manifold.  Sweeps run from every product-basis start
(deterministic) plus a batch of seeded complex-normal starts, and the best
squared overlap wins; ties go to the lowest start index.  A sweep's first
step overwrites u, so basis starts (i, j, k) that differ only in i follow
one trajectory: duplicate basis starts are collapsed to one swept row
each, while every start keeps its own initial overlap, its w against the
half-step from its (u, v), for the stop test and the tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Manifold, StateVector, _is_int

MAX_SWEEPS = 10_000
SETTLE_TOL = 1e-12        # a start settles once a sweep moves its overlap by at most this
MAX_RESTARTS = 1 << 16    # most seeded random starts one call may draw


@dataclass(frozen=True, eq=False)
class ProductState:
    """Unentangled three-cavity state: one unit vector per cavity in the
    per-cavity level basis of `manifold`."""

    manifold: Manifold
    vectors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        vecs = tuple(np.ascontiguousarray(v, dtype=complex) for v in self.vectors)
        d = self.manifold.qudit_dim
        for v in vecs:
            if v.shape != (d,):
                raise ValueError(f"factor shape {v.shape}, expected ({d},)")
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
                raise ValueError("factors must be unit vectors")
        object.__setattr__(self, "vectors", vecs)


@dataclass(frozen=True, eq=False)
class OverlapResult:
    """Outcome of the product-overlap maximization.

    The sweep fields report the sweep that found `maximizer`: `converged`
    whether the winning start settled, `sweeps` the state's sweep count,
    `start_index` the winning start (basis starts first, then the seeded
    ones), `n_starts` the starts drawn, `row_sweeps` the (row, sweep) pairs
    computed and `unconverged_starts` the starts not settled when the sweep
    stopped.  An N = 2 result is the exact closed form and sweeps nothing:
    it reads `converged=True` and 0 in each of the other five.
    """

    overlap: float
    entanglement: float
    maximizer: ProductState
    converged: bool
    sweeps: int
    start_index: int
    n_starts: int
    row_sweeps: int
    unconverged_starts: int


def _normalize_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row scaled to unit norm (a zero row stays zero), and the norms."""
    norms = np.linalg.norm(mat, axis=1)
    return mat / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def _starts(d: int, restarts: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # one-hot starts for every product-basis triple, then seeded random rows;
    # random draws are blocked per start so a longer run extends a shorter one
    eye = np.eye(d, dtype=complex)
    grid = np.indices((d, d, d)).reshape(3, -1)
    u = eye[grid[0]]
    v = eye[grid[1]]
    w = eye[grid[2]]
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((restarts, 3, d, 2))
    rand = draw[..., 0] + 1j * draw[..., 1]
    ru, rv, rw = (_normalize_rows(rand[:, i])[0] for i in range(3))
    return (np.concatenate([u, ru]), np.concatenate([v, rv]),
            np.concatenate([w, rw]))


def _cavity_runs(coords: np.ndarray, d: int) -> tuple[list[np.ndarray], ...]:
    """Per cavity c, in three lists: `orders[c]` sorts the basis states by
    their level in c (stably), `others[c]` (2, dim) holds, in that order, the
    levels they put in the other two cavities, and `starts[c]` where each
    level's run begins.  Every level occurs in every cavity, so no run is
    empty."""
    orders = [np.argsort(coords[:, cav], kind="stable") for cav in range(3)]
    others = [np.delete(coords[order], cav, axis=1).T
              for cav, order in enumerate(orders)]
    starts = [np.searchsorted(coords[order, cav], np.arange(d))
              for cav, order in enumerate(orders)]
    return orders, others, starts


def _half_step(a: np.ndarray, others: np.ndarray, starts: np.ndarray,
               x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Best factor for one cavity given the other two, x and y, per row, not
    yet normalized: its norm is |<x (x) y (x) z|psi>| for z its unit form.

    `a` holds the amplitudes in the cavity's run order, per row or as one
    row broadcast over all of them; `others` and `starts` are the cavity's
    entries of `_cavity_runs`.  Each run is summed by numpy's reduceat, so
    a row's bits do not depend on how many rows share the call (a BLAS
    product with a one-hot scatter matrix rounds a lone row differently:
    gemv, not gemm).
    """
    prod = a * x.conj()[:, others[0]] * y.conj()[:, others[1]]
    return np.add.reduceat(prod, starts, axis=1)


def max_product_overlap(state: StateVector, restarts: int = 64, *,
                        seed) -> OverlapResult:
    """Best squared overlap of `state` with any product state.

    At N = 2 the result is the exact W-type closed form of the module
    docstring; `restarts` and `seed` are checked but unused there.  On
    larger manifolds the state is swept until all its starts settle (or for
    MAX_SWEEPS sweeps).  A row stops earlier only when a sweep returns its
    (u, v, w) unchanged bit for bit: the next sweep is a function of (v, w)
    alone, so the row could only repeat itself, and its starts keep their
    overlaps.  The result is never below the state's largest squared basis
    amplitude, never above 1, and is monotone in `restarts` at fixed seed.
    `restarts` must be an integer, not a bool, in 1 to MAX_RESTARTS, checked
    before any start is drawn.  `seed` is required, and may not be None, so
    repeated calls are reproducible.
    """
    if seed is None:
        raise ValueError("seed must be given; None would draw fresh starts every call")
    if not (_is_int(restarts) and 1 <= restarts <= MAX_RESTARTS):
        raise ValueError(f"restarts must be an integer in 1-{MAX_RESTARTS}, "
                         f"got {restarts!r}")
    norm = state.norm
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"state norm is {norm!r}, expected 1")
    if state.manifold.n_total == 2:
        return _w_type_overlap(state)
    return _sweep_overlap(state, restarts, seed)


def _result(state: StateVector, overlap: float, vectors, **diagnostics) -> OverlapResult:
    """The result for `state` from its squared overlap (clamped to 1)."""
    overlap = min(float(overlap), 1.0)
    # abs, not negation: a product state's 0.0 stays 0.0 rather than -0.0
    ent = abs(math.log2(overlap)) if overlap > 0 else math.inf
    return OverlapResult(overlap=overlap, entanglement=ent,
                         maximizer=ProductState(state.manifold, vectors),
                         **diagnostics)


def _w_type_overlap(state: StateVector) -> OverlapResult:
    """The exact result for a state on the N = 2 manifold, from the W-type
    closed form of the module docstring."""
    man = state.manifold
    d = man.qudit_dim
    # each basis state's one cavity off g0 and its level there
    cav = np.argmax(man.coords != 0, axis=1)
    x = np.zeros((3, d), dtype=complex)
    x[cav, man.coords[np.arange(man.dim), cav]] = state.amplitudes
    directions, norms = _normalize_rows(x)
    s = (norms ** 2).tolist()
    half = sum(s) / 2.0
    p = [half - side for side in s]
    if min(p) <= 0.0:
        # obtuse or right: the largest side's direction alone
        big = p.index(min(p))
        cos = np.arange(3) != big
        sin = ~cos
        overlap = s[big]
    else:
        q = p[0] * p[1] + p[1] * p[2] + p[2] * p[0]
        cos = np.sqrt([s[c] * p[c] / q for c in range(3)])
        sin = np.sqrt([p[c - 2] * p[c - 1] / q for c in range(3)])
        overlap = s[0] * s[1] * s[2] / q
    vectors = cos[:, None] * np.eye(d)[0] + sin[:, None] * directions
    return _result(state, overlap, tuple(vectors), converged=True, sweeps=0,
                   start_index=0, n_starts=0, row_sweeps=0, unconverged_starts=0)


def _sweep_overlap(state: StateVector, restarts: int, seed) -> OverlapResult:
    """Alternating power sweeps from every product-basis start plus
    `restarts` seeded ones, for a state already checked by
    `max_product_overlap`."""
    man = state.manifold
    d = man.qudit_dim
    orders, others, starts = _cavity_runs(man.coords, d)
    u0, v0, w0 = _starts(d, restarts, seed)
    # swept row of each start: basis start (i, j, k) shares the row of
    # (0, j, k), since the first half-sweep reads only v and w; `first` is
    # the first start of each row
    row_of = np.concatenate([np.arange(d ** 3) % d ** 2,
                             d ** 2 + np.arange(restarts)])
    first = np.concatenate([np.arange(d ** 2), d ** 3 + np.arange(restarts)])
    # the amplitudes in each cavity's run order, one row that broadcasts
    # over the swept rows
    ai, aj, ak = (state.amplitudes[order][None] for order in orders)
    # each start's w against the w half-step from its (u, v)
    raw = _half_step(ak, others[2], starts[2], u0, v0)
    sigma = np.abs((w0.conj() * raw).sum(axis=1))
    u, v, w = (x[first] for x in (u0, v0, w0))
    row_sigma = np.empty(first.size)
    sweeps = row_sweeps = 0
    live = np.arange(first.size)
    lu, lv, lw = u, v, w
    while live.size:
        nu = _normalize_rows(_half_step(ai, others[0], starts[0], lv, lw))[0]
        nv = _normalize_rows(_half_step(aj, others[1], starts[1], nu, lw))[0]
        nw, row_sigma[live] = _normalize_rows(_half_step(ak, others[2], starts[2], nu, nv))
        fixed = ((nu == lu) & (nv == lv) & (nw == lw)).all(axis=1)
        lu, lv, lw = nu, nv, nw
        row_sweeps += live.size
        sweeps += 1
        new = row_sigma[row_of]
        settled = np.abs(new - sigma) <= SETTLE_TOL
        sigma = new
        keep = ~fixed & (sweeps < MAX_SWEEPS and not settled.all())
        if not keep.all():
            gone = ~keep
            u[live[gone]], v[live[gone]], w[live[gone]] = lu[gone], lv[gone], lw[gone]
            live, lu, lv, lw = (x[keep] for x in (live, lu, lv, lw))
    best = int(np.argmax(sigma))
    row = row_of[best]
    return _result(
        state, sigma[best] ** 2, (u[row], v[row], w[row]),
        converged=bool(settled[best]), sweeps=sweeps, start_index=best,
        n_starts=row_of.size, row_sweeps=row_sweeps,
        unconverged_starts=int(np.count_nonzero(~settled)))


def closed_form_overlap_n2(a: complex, b: complex, xi: float, t) -> float | np.ndarray:
    """Reference best-overlap curve for the total-2 seeded family:
    (1/9)(5 + 4 cos(6 xi t))|a|^2 + |b|^2.

    Tracks the product combination aligned with the seeded cavity.  The
    exact best overlap (the W-type closed form of the module docstring)
    equals it where cos(6 xi t) >= -1/8 and exceeds it elsewhere, where
    rotated product states do better (see the verification suite), so treat
    it as a component curve, not a bound.
    """
    phase = 6.0 * xi * np.asarray(t, dtype=float)
    out = (5.0 + 4.0 * np.cos(phase)) / 9.0 * abs(a) ** 2 + abs(b) ** 2
    return float(out) if np.ndim(t) == 0 else out
