"""Extremum scans, dwell averages, and periodicity of amplitude curves.

Objectives are weighted sums of squared amplitude moduli over a family's
labels, evaluated from the exponential-sum representation.  Extrema come
from a uniform bracketing grid refined by golden-section search.  Time
averages come from one closed form over the mode cross-terms,
`_time_averages`; `dwell_times` computes Gauss-Legendre quadrature in the
same call, exact up to rounding for these trigonometric polynomials, from
one (nodes, modes) exp(-i f phase) table shared by its labels, so the two
routes can be checked against each other.  Periods come from
rational-commensuration analysis of the mode frequencies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .analytic import Family

GOLDEN_TOL = 1e-10
GRID_PER_PI = 4096
MAX_SAMPLES = 1 << 20    # most points a scan grid or a CLI time grid may hold
PERIOD_TOL = 1e-9         # relative tolerance of a commensuration ratio
MAX_DENOMINATOR = 1000    # largest denominator a commensuration ratio may have
SUPPORT_TOL = 1e-12       # a smaller mode coefficient feeds no label
MAX_NODES = 1024          # most Gauss-Legendre nodes of a dwell route (leggauss is O(n^3))
EXTRA_NODES = 24          # nodes beyond the half-bandwidth, for exactness up to rounding
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

Representation = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Extremum:
    """One local extremum of a scanned objective, at phase xi*t."""

    phase: float
    value: float
    kind: str               # "min" | "max"
    at_endpoint: bool


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coef>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\s*\*\s*)?"
    r"\|\s*(?P<label>[A-Za-z][A-Za-z0-9_]*)\s*\|\s*\^\s*2\s*$"
)


def parse_objective(expr: str) -> dict[str, float]:
    """Parse 'k*|X|^2 + |Y|^2 + ...' into label weights.

    Coefficients default to 1; repeated labels accumulate.
    """
    weights: dict[str, float] = {}
    for term in expr.split("+"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ValueError(f"cannot parse objective term {term.strip()!r}")
        label = m.group("label")
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        weights[label] = weights.get(label, 0.0) + coef
    return weights


def family_objective(family: Family, weights: Mapping[str, float] | str,
                     **params) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized phase -> sum_l w_l |X_l|^2 for one family."""
    if isinstance(weights, str):
        weights = parse_objective(weights)
    unknown = set(weights) - set(family.labels)
    if unknown:
        raise ValueError(f"{family.name} has no label(s) {sorted(unknown)}")
    freqs, coeffs = family.representation(**params)
    cols = np.array([family.labels.index(lab) for lab in weights])
    w = np.array([weights[lab] for lab in weights], dtype=float)
    sub = coeffs[:, cols]

    def objective(phases):
        ph = np.atleast_1d(np.asarray(phases, dtype=float))
        table = np.exp(-1j * np.multiply.outer(ph, freqs)) @ sub
        out = (np.abs(table) ** 2) @ w
        return out if np.ndim(phases) else float(out[0])

    return objective


def _golden(fn: Callable[[float], float], a: float, b: float,
            tol: float) -> float:
    """Golden-section minimum of fn on [a, b] to absolute phase tolerance."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def default_grid(lo: float, hi: float) -> int:
    """Bracketing grid for a scan of [lo, hi]: GRID_PER_PI points per pi of
    window, at least 16; ValueError when that count is not finite or is
    above MAX_SAMPLES."""
    count = GRID_PER_PI * (hi - lo) / math.pi
    if not math.isfinite(count):
        raise ValueError(f"grid count for the window [{lo}, {hi}] is not finite")
    count = max(16, round(count))
    if count > MAX_SAMPLES:
        raise ValueError(f"the window [{lo}, {hi}] needs {count} grid points, "
                         f"more than {MAX_SAMPLES}")
    return count


def scan_extrema(objective: Callable, lo: float, hi: float, *,
                 grid: int | None = None) -> list[Extremum]:
    """All local extrema of `objective` on [lo, hi].

    A uniform `grid`-point pass, `default_grid(lo, hi)` points unless given
    (16 to MAX_SAMPLES), brackets every slope sign change; each
    bracket is refined by golden-section search to phase tolerance
    GOLDEN_TOL.
    A run of equal samples counts as one point: it is an extremum when it
    sits below (or above) the samples on both sides of it, bracketed by
    those two samples, and none when it is a shoulder on a slope.  Endpoint
    runs that locally dominate their neighbor are reported with
    `at_endpoint` set and no refinement.  Results are sorted by phase.
    A window that is empty or not finite raises ValueError before anything
    is sampled; a non-finite grid sample raises ValueError rather than
    hiding extrema.
    """
    if grid is None:
        grid = default_grid(lo, hi)
    if not isinstance(grid, (int, np.integer)) or not 16 <= grid <= MAX_SAMPLES:
        raise ValueError(f"grid must be an integer of 16 to {MAX_SAMPLES} points, "
                         f"got {grid!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"the window [{lo}, {hi}] must be finite with hi > lo")
    xs = np.linspace(lo, hi, grid)
    ys = np.asarray(objective(xs), dtype=float)
    if not np.isfinite(ys).all():
        raise ValueError(f"objective is not finite at phase {xs[~np.isfinite(ys)][0]!r}")
    found: list[Extremum] = []

    def scalar(x: float) -> float:
        return float(np.asarray(objective(np.array([x])))[0])

    # runs of equal samples: run r covers samples starts[r] .. starts[r+1]-1
    starts = np.concatenate([[0], np.flatnonzero(ys[1:] != ys[:-1]) + 1, [grid]])
    for a, b in zip(starts[1:-2], starts[2:-1]):
        left, mid, right = ys[a - 1], ys[a], ys[b]
        if mid < left and mid < right:
            kind, sgn = "min", 1.0
        elif mid > left and mid > right:
            kind, sgn = "max", -1.0
        else:
            continue
        x_star = _golden(lambda x: sgn * scalar(x), xs[a - 1], xs[b], GOLDEN_TOL)
        found.append(Extremum(phase=x_star, value=scalar(x_star), kind=kind,
                              at_endpoint=False))
    if starts.size > 2:
        for end, beside in ((0, starts[1]), (grid - 1, starts[-2] - 1)):
            found.append(Extremum(phase=float(xs[end]), value=float(ys[end]),
                                  kind="max" if ys[end] > ys[beside] else "min",
                                  at_endpoint=True))
    found.sort(key=lambda e: e.phase)
    return found


def _time_averages(freqs: np.ndarray, coeffs: np.ndarray, span: float) -> np.ndarray:
    """Exact mean of |sum_f c_f exp(-i f phase)|^2 over phases [0, span], one
    per (mode, column) coefficient column, from the mode cross-terms:
        sum_fg c_f conj(c_g) * E((f - g) * span),  E(z) = (exp(-iz) - 1)/(-iz).
    """
    delta = np.subtract.outer(freqs, freqs) * span
    safe = np.where(delta == 0.0, 1.0, delta)
    kernel = np.where(delta == 0.0, 1.0,
                      (np.exp(-1j * safe) - 1.0) / (-1j * safe))
    return np.array([np.real(col @ kernel @ col.conj()) for col in coeffs.T])


@dataclass(frozen=True)
class DwellTime:
    """Time-averaged squared modulus of one amplitude over a phase span, by
    two routes: the `closed_form` of the mode cross-terms and Gauss-Legendre
    `quadrature`."""

    closed_form: float
    quadrature: float

    @property
    def value(self) -> float:
        return self.closed_form

    @property
    def route_gap(self) -> float:
        return abs(self.closed_form - self.quadrature)


def dwell_times(family: Family, labels: Sequence[str], span: float = math.pi, *,
                quadrature_points: int | None = None, **params) -> list[DwellTime]:
    """Average of |X_label(phase)|^2 over phases [0, span], both ways, for
    each of `labels` (in order), from one read of the representation.

    The closed form is `_time_averages`.  The quadrature route is
    Gauss-Legendre on `quadrature_points` nodes, 1 to MAX_NODES, by default
    the count exact up to rounding (34 for n2_general over pi); a span whose
    default count is above MAX_NODES raises ValueError.  A route gap above
    ~1e-12 signals a representation bug.
    """
    labels = tuple(labels)
    if not labels:
        raise ValueError("need at least one label")
    for label in labels:
        if label not in family.labels:
            raise ValueError(f"{family.name} has no label {label!r}")
    if not (span > 0 and math.isfinite(span)):
        raise ValueError(f"span must be positive and finite, got {span}")
    if quadrature_points is not None and not (
            isinstance(quadrature_points, (int, np.integer))
            and not isinstance(quadrature_points, bool)
            and 1 <= quadrature_points <= MAX_NODES):
        raise ValueError(f"quadrature_points must be an integer of 1 to {MAX_NODES} "
                         f"nodes, got {quadrature_points!r}")
    freqs, coeffs = family.representation(**params)
    cols = coeffs[:, [family.labels.index(lab) for lab in labels]]
    if quadrature_points is None:
        # the integrand's highest frequency is max f - min f, so mapped onto
        # [-1, 1] it turns `half` radians per unit; EXTRA_NODES more nodes
        # than that make the rule exact up to rounding
        half = (freqs.max() - freqs.min()) * span / 2.0
        if half > MAX_NODES - EXTRA_NODES:
            raise ValueError(f"a span of {span} needs more than MAX_NODES = "
                             f"{MAX_NODES} Gauss-Legendre nodes")
        quadrature_points = math.ceil(half) + EXTRA_NODES
    # numpy.polynomial costs ~10 ms to import; only the quadrature needs it
    from numpy.polynomial.legendre import leggauss
    x, weights = leggauss(int(quadrature_points))
    table = np.exp(-1j * np.multiply.outer(0.5 * span * (x + 1.0), freqs))
    # the mean over [0, span] is (1/span) * (span/2) * sum_k w_k y_k; each
    # label is its own matrix-vector product, so its bits do not depend on
    # the others
    return [DwellTime(closed_form=float(closed),
                      quadrature=float(0.5 * (weights @ (np.abs(table @ col) ** 2))))
            for closed, col in zip(_time_averages(freqs, cols, span),
                                   np.ascontiguousarray(cols.T))]


def dwell_time(family: Family, label: str, span: float = math.pi, *,
               quadrature_points: int | None = None, **params) -> DwellTime:
    """Average of |X_label(phase)|^2 over phases [0, span]: the one-label
    call of `dwell_times`."""
    return dwell_times(family, [label], span,
                       quadrature_points=quadrature_points, **params)[0]


@dataclass(frozen=True)
class PeriodInfo:
    """Recurrence structure of an exponential-sum solution.

    `state_period`: smallest T > 0 with x(t + T) = x(t) up to a global
    phase; `modulus_period`: smallest T > 0 with |x_l(t + T)| = |x_l(t)|
    for every label.  Either is None when the relevant frequency gaps are
    not rationally related, and 0.0 when nothing oscillates at all.
    """

    state_period: float | None
    modulus_period: float | None
    commensurate: bool


def _rational_gcd(gaps: Sequence[float]) -> float | None:
    """Positive generator g with every gap an integer multiple of g.

    Returns None when the gaps are not rationally related within PERIOD_TOL
    (relative, with denominators up to MAX_DENOMINATOR), and 0.0 for an
    empty set.
    """
    vals = sorted({abs(float(g)) for g in gaps if abs(g) > PERIOD_TOL})
    if not vals:
        return 0.0
    ref = vals[0]
    fracs = []
    for v in vals:
        ratio = v / ref
        fr = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
        if abs(ratio - float(fr)) > PERIOD_TOL * max(1.0, ratio):
            return None
        fracs.append(fr)
    den_lcm = math.lcm(*(fr.denominator for fr in fracs))
    g = math.gcd(*(fr.numerator * (den_lcm // fr.denominator) for fr in fracs))
    return ref * g / den_lcm


def detect_period(source: Family | Representation, *, xi: float = 1.0,
                  **params) -> PeriodInfo:
    """Period analysis of a family (or a raw (freqs, coeffs) representation).

    Frequency gaps are tested for rational commensuration by continued
    fractions with denominators up to MAX_DENOMINATOR at relative tolerance
    PERIOD_TOL.  Modes with no coefficient above SUPPORT_TOL are dropped.
    The state period uses every gap between contributing modes; the modulus
    period only gaps within each label's support (a label fed by a single
    mode has constant modulus).  Periods are returned in time units
    (phase / |xi|), positive for either sign of xi.  A non-finite frequency
    or coefficient raises ValueError.
    """
    if not (math.isfinite(xi) and xi != 0):
        raise ValueError(f"xi must be finite and nonzero, got {xi!r}")
    if isinstance(source, Family):
        freqs, coeffs = source.representation(**params)
    else:
        freqs, coeffs = source
        freqs = np.asarray(freqs, dtype=float)
        coeffs = np.asarray(coeffs, dtype=complex)
        if params:
            raise ValueError("family parameters require a Family source")
    if not (np.isfinite(freqs).all() and np.isfinite(coeffs).all()):
        raise ValueError("frequencies and coefficients must be finite")
    active = np.abs(coeffs).max(axis=1) > SUPPORT_TOL
    freqs, coeffs = freqs[active], coeffs[active]
    state_gaps = [f - freqs[0] for f in freqs[1:]] if freqs.size else []
    modulus_gaps: list[float] = []
    for col in range(coeffs.shape[1]):
        live = freqs[np.abs(coeffs[:, col]) > SUPPORT_TOL]
        modulus_gaps.extend(f - live[0] for f in live[1:])
    g_state = _rational_gcd(state_gaps)
    g_mod = _rational_gcd(modulus_gaps)

    def period(g: float | None) -> float | None:
        if g is None:
            return None
        return 0.0 if g == 0.0 else 2.0 * math.pi / abs(g * xi)

    return PeriodInfo(state_period=period(g_state),
                      modulus_period=period(g_mod),
                      commensurate=g_state is not None)
