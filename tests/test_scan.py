"""Objective parsing, extremum scans, dwell averages, and recurrence analysis.

Properties run under the derandomized hypothesis profile loaded in
conftest.py, so every run draws the same examples.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimodal.analytic import FAMILIES
from trimodal import scan
from trimodal.scan import (
    MAX_NODES,
    default_grid,
    detect_period,
    dwell_time,
    dwell_times,
    family_objective,
    parse_objective,
    scan_extrema,
)


# ------------------------------------------------------------------ parsing

def test_parse_objective_basic_forms():
    assert parse_objective("|C|^2+|F|^2") == {"C": 1.0, "F": 1.0}
    assert parse_objective("2*|A|^2 + 0.5*|B|^2") == {"A": 2.0, "B": 0.5}
    assert parse_objective(" |A|^2 ") == {"A": 1.0}


def test_parse_objective_accumulates_repeats():
    assert parse_objective("|A|^2+|A|^2") == {"A": 2.0}


@pytest.mark.parametrize("bad", ["", "A", "|A|", "|A|^3", "|A|^2 - |B|^2 +", "2|A|^2 x"])
def test_parse_objective_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_objective(bad)


def test_family_objective_string_and_weights_agree():
    fam = FAMILIES["n2_general"]
    from_str = family_objective(fam, "2*|A|^2+|B|^2")
    from_map = family_objective(fam, {"A": 2.0, "B": 1.0})
    phases = np.linspace(0.0, 1.0, 7)
    assert np.allclose(from_str(phases), from_map(phases))


def test_family_objective_rejects_unknown_labels():
    with pytest.raises(ValueError):
        family_objective(FAMILIES["n2_general"], {"Z": 1.0})


# ------------------------------------------------------------------- scans

def test_scan_finds_interior_extrema_of_a_cosine():
    found = scan_extrema(lambda p: np.cos(np.asarray(p)), 0.0, 2.0 * math.pi,
                         grid=512)
    interior = [e for e in found if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    # value comparisons go flat within ~sqrt(eps) of a quadratic minimum,
    # so the refined phase is only good to ~1e-8 regardless of GOLDEN_TOL
    assert interior[0].phase == pytest.approx(math.pi, abs=1e-6)
    assert interior[0].value == pytest.approx(-1.0, abs=1e-12)
    ends = [e for e in found if e.at_endpoint]
    assert {e.kind for e in ends} == {"max"}
    assert sorted(e.phase for e in ends) == pytest.approx([0.0, 2.0 * math.pi])


@settings(max_examples=5)
@given(st.integers(0, 2**32 - 1))
def test_scan_finds_every_extremum_of_a_dense_grid_and_nothing_else(seed):
    # a seeded |sum_k c_k exp(-i f_k phase)|^2, the form of a one-label objective
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(-8.0, 8.0, 4)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def objective(phases):
        return np.abs(np.exp(-1j * np.outer(phases, freqs)) @ coeffs) ** 2

    window = 2.0 * math.pi
    xs = np.linspace(0.0, window, 100_000)
    ys = objective(xs)
    step = xs[1] - xs[0]
    found = [e for e in scan_extrema(objective, 0.0, window,
                                     grid=default_grid(0.0, window))
             if not e.at_endpoint]
    for kind, sign in (("min", 1.0), ("max", -1.0)):
        inner = sign * ys[1:-1]
        at = 1 + np.flatnonzero((inner < sign * ys[:-2]) & (inner < sign * ys[2:]))
        got = [e for e in found if e.kind == kind]
        assert len(got) == at.size, kind
        for e, k in zip(got, at):
            # the vertex of the parabola through the three dense samples;
            # value comparisons resolve a quadratic extremum's phase only to
            # ~sqrt(eps), hence 1e-6 here rather than tol
            y0, y1, y2 = ys[k - 1:k + 2]
            vertex = xs[k] + 0.5 * step * (y0 - y2) / (y0 - 2.0 * y1 + y2)
            assert abs(e.phase - vertex) <= 1e-6, (kind, vertex)
            assert sign * e.value <= sign * y1 + 1e-12


def test_scan_reproduces_exchange_family_landmarks():
    fam = FAMILIES["n2_general"]
    found = scan_extrema(family_objective(fam, "|A|^2"), 0.0, math.pi)
    minima = [e for e in found if e.kind == "min" and not e.at_endpoint]
    maxima = [e for e in found if e.kind == "max" and not e.at_endpoint]
    assert [e.phase for e in minima] == pytest.approx(
        [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0], abs=1e-6)
    assert all(e.value == pytest.approx(1.0 / 9.0) for e in minima)
    assert [e.phase for e in maxima] == pytest.approx(
        [math.pi / 3.0, 2.0 * math.pi / 3.0], abs=1e-6)


def test_scan_reports_a_grid_tie_once():
    # samples 7 and 8 tie on a plateau wider than one grid step; their two
    # brackets refine to different plateau points, 0.1 apart
    plateau = scan_extrema(lambda p: np.maximum(np.abs(np.asarray(p) - 7.5), 0.6),
                           0.0, 15.0, grid=16)
    assert [e.kind for e in plateau] == ["max", "min", "max"]
    # the same tie in a family objective: two refinements 4.4e-9 apart
    fam = FAMILIES["n4_single_cavity"]
    found = scan_extrema(family_objective(fam, "|C|^2+|F|^2"), 0.0, math.pi, grid=4096)
    near = [e for e in found if abs(e.phase - math.pi / 2.0) < 1e-3]
    assert len(near) == 1 and near[0].kind == "min"


def _sampled(values):
    """Piecewise-linear objective through samples at phases 0, 1, 2, ..."""
    xs = np.arange(len(values), dtype=float)
    return lambda p: np.interp(np.asarray(p, dtype=float), xs, values)


def test_scan_reports_one_extremum_per_flat_run():
    # max(|x - 7|, 1): samples 6, 7 and 8 tie at the minimum
    found = scan_extrema(lambda p: np.maximum(np.abs(np.asarray(p) - 7.0), 1.0),
                         0.0, 15.0, grid=16)
    interior = [e for e in found if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    assert interior[0].value == 1.0
    assert 6.0 <= interior[0].phase <= 8.0


def test_scan_skips_a_flat_shoulder_on_a_slope():
    values = [5.0, 1.0, 1.0, 0.8, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1,
              0.08, 0.06, 0.04, 0.02, 0.0]
    found = scan_extrema(_sampled(values), 0.0, 15.0, grid=16)
    assert [e for e in found if not e.at_endpoint] == []
    assert [(e.kind, e.phase) for e in found] == [("max", 0.0), ("min", 15.0)]


def test_scan_reports_a_flat_endpoint_run_at_the_endpoint():
    values = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
              11.0, 12.0, 13.0, 13.0, 13.0]
    found = scan_extrema(_sampled(values), 0.0, 15.0, grid=16)
    assert [(e.kind, e.phase, e.at_endpoint) for e in found] == \
        [("min", 0.0, True), ("max", 15.0, True)]


def test_scan_window_validation():
    with pytest.raises(ValueError):
        scan_extrema(lambda p: np.asarray(p), 1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0), (0.0, math.nan)])
def test_scan_refuses_a_non_finite_window_before_sampling(monkeypatch, lo, hi):
    # with an explicit grid no grid count is taken from the window, so
    # linspace would have sampled NaN phases
    monkeypatch.setattr(scan.np, "linspace", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=r"the window \[.*\] must be finite"):
        scan_extrema(lambda p: np.asarray(p), lo, hi, grid=64)


@pytest.mark.parametrize("grid", [8, 15, 16.0, 256.5, "256"])
def test_scan_rejects_a_grid_that_is_not_an_integer_of_at_least_16(grid):
    with pytest.raises(ValueError, match="grid must be an integer"):
        scan_extrema(lambda p: np.asarray(p), 0.0, 1.0, grid=grid)


def test_default_grid_is_4096_points_per_pi_and_at_least_16():
    assert default_grid(0.0, math.pi) == 4096
    assert default_grid(0.0, 2 * math.pi) == 8192
    assert default_grid(math.pi, 1.5 * math.pi) == 2048
    assert default_grid(0.0, 1e-3) == 16


def test_scan_grid_defaults_to_the_window_rule(monkeypatch):
    sizes = []
    monkeypatch.setattr(scan.np, "linspace",
                        lambda lo, hi, num: sizes.append(num) or np.zeros(num))
    scan_extrema(lambda p: np.asarray(p), 0.0, 2.0)
    assert sizes == [default_grid(0.0, 2.0)]


def test_grids_above_max_samples_are_refused_before_sampling(monkeypatch):
    # the 1e9 window would have asked for 1 303 797 293 809 samples
    assert default_grid(0.0, scan.MAX_SAMPLES * math.pi / scan.GRID_PER_PI) == \
        scan.MAX_SAMPLES
    with pytest.raises(ValueError, match="more than 1048576"):
        default_grid(0.0, 1e9)
    monkeypatch.setattr(scan.np, "linspace", lambda *args: pytest.fail("sampled"))
    for window, grid in (((0.0, 1e9), None), ((0.0, 1.0), scan.MAX_SAMPLES + 1)):
        with pytest.raises(ValueError):
            scan_extrema(lambda p: p, *window, grid=grid)


def test_default_grid_rejects_a_window_too_wide_to_count():
    # 4096 points per pi of [0, 1e308] overflow to inf, which int() refused
    # with OverflowError
    with pytest.raises(ValueError, match="not finite"):
        default_grid(0.0, 1e308)


def test_scan_rejects_non_finite_samples():
    # NaN samples used to pass silently: this came back as two endpoint
    # rows, the one at 2.0 with value NaN
    def objective(p):
        p = np.asarray(p)
        return np.where(p > 1.0, np.nan, np.cos(3.0 * p))

    with pytest.raises(ValueError, match="not finite"):
        scan_extrema(objective, 0.0, 2.0, grid=64)


# ------------------------------------------------------------------- dwell

def test_dwell_averages_of_the_exchange_family():
    fam = FAMILIES["n2_general"]
    stay = dwell_time(fam, "A")
    assert stay.value == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert stay.route_gap < 1e-12
    for label in ("B", "C"):
        moved = dwell_time(fam, label)
        assert moved.value == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_dwell_span_controls_the_average():
    fam = FAMILIES["n2_general"]
    # over a twelfth of a turn the cosine has not yet averaged out:
    # mean of (5 + 4 cos 6phi)/9 on [0, pi/12] is 5/9 + 8/(9 pi)
    short = dwell_time(fam, "A", span=math.pi / 12.0)
    assert short.value == pytest.approx(5.0 / 9.0 + 8.0 / (9.0 * math.pi), abs=1e-10)
    assert short.route_gap < 1e-12


@pytest.mark.parametrize("span", [math.pi / 12.0, math.pi, 2.0 * math.pi],
                         ids=["pi/12", "pi", "2pi"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_dwell_quadrature_matches_the_closed_form(name, span):
    # the integrand is a trigonometric polynomial, so the default node
    # count makes Gauss-Legendre exact up to rounding, for every label
    fam = FAMILIES[name]
    for label, got in zip(fam.labels, dwell_times(fam, fam.labels, span)):
        assert got.route_gap <= 1e-12, label


def test_too_few_nodes_miss_the_closed_form():
    # the property above can fail: n2_general over pi oscillates ~9.4
    # radians per unit of the Legendre interval, which 8 nodes cannot follow
    fam = FAMILIES["n2_general"]
    batch = dwell_times(fam, fam.labels, quadrature_points=8, a=1.0, b=0.0)
    assert max(d.route_gap for d in batch) > 1e-6


def test_dwell_quadrature_equals_the_all_mode_sum():
    # the Gauss-Legendre sum written out node by node and mode by mode,
    # modes with an exact zero coefficient included: with an excited
    # admixture the photon labels carry one on the frozen excited-sector
    # mode.  At 8 nodes the rule is not exact, so the count is the one used.
    from numpy.polynomial.legendre import leggauss

    fam = FAMILIES["n2_general"]
    freqs, coeffs = fam.representation(a=0.6, b=0.8)
    for (k, label), nodes in itertools.product(enumerate(fam.labels[:3]), (8, 34)):
        col = coeffs[:, k]
        assert (col == 0).any()
        x, w = leggauss(nodes)
        ref = 0.0
        for xk, wk in zip(x, w):
            phase = 0.5 * math.pi * (xk + 1.0)
            amp = sum(c * np.exp(-1j * f * phase) for c, f in zip(col, freqs))
            ref += 0.5 * wk * abs(amp) ** 2
        got = dwell_time(fam, label, quadrature_points=nodes, a=0.6, b=0.8)
        assert got.quadrature == pytest.approx(ref, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("params", [dict(a=1.0, b=0.0), dict(a=0.6, b=0.8)])
@pytest.mark.parametrize("points", [None, 8])
def test_dwell_times_equal_the_one_label_calls(params, points):
    fam = FAMILIES["n2_general"]
    batch = dwell_times(fam, fam.labels, math.pi / 5.0,
                        quadrature_points=points, **params)
    assert len(batch) == len(fam.labels)
    for label, got in zip(fam.labels, batch):
        one = dwell_time(fam, label, math.pi / 5.0,
                         quadrature_points=points, **params)
        assert (got.closed_form, got.quadrature) == (one.closed_form, one.quadrature)


def test_a_dwell_call_builds_its_nodes_once_for_every_label(monkeypatch):
    import numpy.polynomial.legendre as legendre

    calls = []
    leggauss = legendre.leggauss

    def counting_leggauss(nodes):
        calls.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(legendre, "leggauss", counting_leggauss)
    fam = FAMILIES["n2_general"]
    # one node set for the three labels, on the exact count: max f - min f
    # = 6 over pi, so ceil(3 pi) + 24 nodes
    batch = dwell_times(fam, ("A", "B", "C"), a=0.6, b=0.8)
    assert calls == [34]
    assert [d.value for d in batch] == [d.closed_form for d in batch]
    assert max(d.route_gap for d in batch) < 1e-12


def test_dwell_validation():
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError):
        dwell_time(fam, "Z")
    with pytest.raises(ValueError, match="no label 'Z'"):
        dwell_times(fam, ["A", "Z"])
    with pytest.raises(ValueError, match="at least one label"):
        dwell_times(fam, [])
    with pytest.raises(ValueError):
        dwell_time(fam, "A", span=0.0)


@pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf, 0.0])
def test_dwell_rejects_a_non_finite_or_empty_span(span):
    with pytest.raises(ValueError, match="span must be positive and finite"):
        dwell_time(FAMILIES["n2_general"], "A", span=span)


@pytest.mark.parametrize("points", [0, -2, MAX_NODES + 1, 4097, 4096.0, True, "34"])
def test_dwell_rejects_a_bad_node_count(points):
    with pytest.raises(ValueError, match=f"integer of 1 to {MAX_NODES} nodes"):
        dwell_time(FAMILIES["n2_general"], "A", quadrature_points=points)


@pytest.mark.parametrize("points", [1, np.int64(MAX_NODES)], ids=["1", "int64-1024"])
def test_dwell_accepts_node_counts_at_the_bounds(points):
    d = dwell_time(FAMILIES["n2_general"], "A", quadrature_points=points)
    assert math.isfinite(d.quadrature)


def test_a_span_past_the_node_cap_keeps_its_closed_form():
    # n2_general spreads its frequencies over 6, so a span of 400 needs
    # 1224 nodes: dwell_times refuses it, the closed form still serves it
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError, match=f"more than MAX_NODES = {MAX_NODES}"):
        dwell_time(fam, "A", span=400.0)
    freqs, coeffs = fam.representation()
    [stay] = scan._time_averages(freqs, coeffs[:, [fam.labels.index("A")]], 400.0)
    assert stay == pytest.approx(5.0 / 9.0, abs=1e-3)


def test_import_pulls_in_no_scipy():
    code = "import sys, trimodal; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_import_pulls_in_no_numpy_polynomial():
    # numpy.polynomial costs ~10 ms to import; only a dwell_times call needs it
    code = "import sys, trimodal; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ periods

# n6_symmetric at its default b = 0 starts in the photon triplet alone,
# which oscillates with period pi/sqrt(66); a = 0.6, b = 0.8 populates every
# block and shows the family's aperiodic spectrum
PERIOD_PARAMS = {"n6_symmetric": {"a": 0.6, "b": 0.8}}


def test_detected_periods_of_the_registered_families():
    for name, fam in FAMILIES.items():
        info = detect_period(fam, **PERIOD_PARAMS.get(name, {}))
        if fam.modulus_period is None:
            assert not info.commensurate, name
            assert info.state_period is None and info.modulus_period is None
        else:
            assert info.commensurate, name
            assert info.modulus_period == pytest.approx(fam.modulus_period)
            assert info.state_period == pytest.approx(fam.modulus_period)


def test_detected_period_matches_the_orbit():
    fam = FAMILIES["n4_two_cavity"]
    T = detect_period(fam).modulus_period
    for phi in (0.13, 0.71, 2.2):
        now = np.abs(fam.evaluate(1.0, phi).values)
        later = np.abs(fam.evaluate(1.0, phi + T).values)
        assert now == pytest.approx(later, abs=1e-9)


def test_incommensurate_spectrum_has_no_period():
    info = detect_period(FAMILIES["n6_concentrated"])
    assert not info.commensurate
    assert info.state_period is None and info.modulus_period is None


def test_raw_representation_periods():
    freqs = np.array([0.0, 2.0, 6.0])
    coeffs = np.eye(3, dtype=complex)
    info = detect_period((freqs, coeffs))
    assert info.state_period == pytest.approx(math.pi)
    # each label rides a single mode: nothing beats, the modulus is constant
    assert info.modulus_period == 0.0
    assert info.commensurate
    mixed = detect_period((freqs, np.ones((3, 2), dtype=complex) / math.sqrt(3)))
    assert mixed.modulus_period == pytest.approx(math.pi)
    irrational = detect_period((np.array([0.0, 1.0, math.sqrt(2.0)]),
                                np.ones((3, 1), dtype=complex) / math.sqrt(3)))
    assert irrational.state_period is None
    assert not irrational.commensurate


@pytest.mark.parametrize("freqs, coeffs", [
    ([0.0, 4.0], [[math.nan], [0.5]]),
    ([math.nan, 4.0], [[0.5], [0.5]]),
])
def test_detect_period_fails_closed_on_non_finite_modes(freqs, coeffs):
    with pytest.raises(ValueError, match="finite"):
        detect_period((np.array(freqs), np.array(coeffs, dtype=complex)))


def test_period_units_scale_with_the_rate():
    half = detect_period(FAMILIES["n2_general"], xi=2.0)
    assert half.modulus_period == pytest.approx(math.pi / 6.0)


@pytest.mark.parametrize("xi", [-1.0, -3.1])
def test_periods_are_positive_for_a_negative_rate(xi):
    # a period is the smallest T > 0: the sign of xi reverses the motion,
    # not the time it takes to recur
    fam = FAMILIES["n2_general"]
    assert detect_period(fam, xi=xi) == detect_period(fam, xi=-xi)
    assert detect_period(fam, xi=xi).modulus_period == pytest.approx(math.pi / (3.0 * -xi))


@pytest.mark.parametrize("kwargs", [
    dict(xi=0.0), dict(xi=math.nan), dict(xi=math.inf), dict(xi=-math.inf),
])
def test_detect_period_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        detect_period(FAMILIES["n2_general"], **kwargs)


def test_raw_representation_rejects_family_parameters():
    freqs = np.array([0.0, 2.0])
    coeffs = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        detect_period((freqs, coeffs), a=1.0)
