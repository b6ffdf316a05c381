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

from references import bisect_root, objective_slope
from trimodal.analytic import FAMILIES
from trimodal import scan
from trimodal.scan import (
    MAX_NODES,
    Objective,
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


def test_family_objective_holds_its_exponential_sum():
    fam = FAMILIES["n4_single_cavity"]
    obj = family_objective(fam, "2*|C|^2+|F|^2", a=0.6, b=0.8)
    freqs, coeffs = fam.representation(a=0.6, b=0.8)
    cols = coeffs[:, [fam.labels.index("C"), fam.labels.index("F")]]
    assert np.array_equal(obj.freqs, freqs)
    assert np.array_equal(obj.coeffs, cols)
    assert obj.label_weights.tolist() == [2.0, 1.0]
    phases = np.linspace(0.0, 3.0, 50)
    table = np.exp(-1j * np.multiply.outer(phases, freqs)) @ cols
    assert np.array_equal(obj(phases), (np.abs(table) ** 2) @ np.array([2.0, 1.0]))
    assert obj(0.7) == obj(np.array([0.7]))[0]


def test_objective_slopes_match_the_mode_pair_sum():
    # g' against the mode-pair expansion, g'' against a central difference of it
    fam = FAMILIES["n6_concentrated"]
    obj = family_objective(fam, "|A|^2+2*|F|^2")
    phases = np.linspace(0.0, 2.0 * math.pi, 41)
    d1, d2 = scan._slopes(obj.freqs, obj.coeffs, obj.label_weights, phases)
    args = (obj.freqs, obj.coeffs, obj.label_weights)
    assert np.allclose(d1, objective_slope(*args, phases), rtol=0.0, atol=1e-12)
    h = 1e-5
    diff = (objective_slope(*args, phases + h) - objective_slope(*args, phases - h)) / (2 * h)
    assert np.abs(d2 - diff).max() <= 1e-7 * np.abs(d2).max()


# ------------------------------------------------------------------- scans

def _sum(freqs, cols, weights=(1.0,)):
    """An Objective over raw exponential-sum data, one column per weight."""
    return Objective(freqs=np.array(freqs, dtype=float),
                     coeffs=np.array(cols, dtype=complex).reshape(len(freqs), -1),
                     label_weights=np.array(weights, dtype=float))


def test_scan_finds_interior_extrema_of_a_cosine():
    # |1 + exp(-i phase)|^2 / 2 = 1 + cos(phase)
    found = scan_extrema(_sum([0.0, 1.0], [1.0, 1.0], [0.5]), 0.0, 2.0 * math.pi)
    interior = [e for e in found if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    # a root of g' is placed to rounding, where values alone go flat
    # within ~sqrt(eps) of a quadratic minimum
    assert interior[0].phase == pytest.approx(math.pi, abs=1e-15)
    assert interior[0].value == pytest.approx(0.0, abs=1e-15)
    ends = [e for e in found if e.at_endpoint]
    assert {e.kind for e in ends} == {"max"}
    assert sorted(e.phase for e in ends) == [0.0, 2.0 * math.pi]


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_scan_finds_every_extremum_of_a_dense_grid_and_nothing_else(seed):
    # a seeded |sum_k c_k exp(-i f_k phase)|^2, the form of a one-label
    # objective: every sign change of its g' on a dense grid, bisected on
    # the mode-pair sum, is one extremum of the scan
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(-8.0, 8.0, 4)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    args = (freqs, coeffs[:, None], np.ones(1))
    window = 2.0 * math.pi
    xs = np.linspace(0.0, window, 100_000)
    slope = objective_slope(*args, xs)
    at = np.flatnonzero(np.sign(slope[:-1]) * np.sign(slope[1:]) < 0.0)
    roots = [bisect_root(lambda p: float(objective_slope(*args, p)), xs[k], xs[k + 1])
             for k in at]
    found = [e for e in scan_extrema(_sum(freqs, coeffs), 0.0, window)
             if not e.at_endpoint]
    assert [e.kind for e in found] == ["min" if slope[k] < 0.0 else "max" for k in at]
    for e, root in zip(found, roots):
        assert abs(e.phase - root) <= 1e-12, (e.kind, root)


def test_scan_reproduces_exchange_family_landmarks():
    fam = FAMILIES["n2_general"]
    found = scan_extrema(family_objective(fam, "|A|^2"), 0.0, math.pi)
    minima = [e for e in found if e.kind == "min" and not e.at_endpoint]
    maxima = [e for e in found if e.kind == "max" and not e.at_endpoint]
    assert [e.phase for e in minima] == pytest.approx(
        [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0], abs=1e-12)
    assert all(e.value == pytest.approx(1.0 / 9.0) for e in minima)
    assert [e.phase for e in maxima] == pytest.approx(
        [math.pi / 3.0, 2.0 * math.pi / 3.0], abs=1e-12)


@pytest.mark.parametrize("name, expr, params, window, interior, ends", [
    ("n4_single_cavity", "|C|^2+|F|^2", dict(a=1.0, b=0.0), math.pi, 17, ("max", "max")),
    ("n4_two_cavity", "|A|^2+|P|^2", dict(a=1.0, b=0.0), math.pi, 17, ("max", "max")),
    ("n6_concentrated", "|A|^2+|F|^2", {}, 2.0 * math.pi, 44, ("max", "min")),
], ids=["single_cavity", "two_cavity", "concentrated"])
def test_landmark_scans_keep_their_extrema(name, expr, params, window, interior, ends):
    # the suite's three landmark scans: their interior counts and endpoint
    # kinds as the bracketing grid found them, with kinds alternating
    found = scan_extrema(family_objective(FAMILIES[name], expr, **params), 0.0, window)
    assert [e.at_endpoint for e in found] == [True] + [False] * interior + [True]
    assert (found[0].kind, found[-1].kind) == ends
    assert all(a.kind != b.kind for a, b in zip(found[:-2], found[1:-1]))


def test_scan_reports_a_grid_tie_once():
    # the minimum at pi/2 tied two samples of the old bracketing grid; over
    # pi, g' turns 10 pi radians, so it now sits on the boundary of the
    # middle two of four proxy pieces, and both find it
    fam = FAMILIES["n4_single_cavity"]
    found = scan_extrema(family_objective(fam, "|C|^2+|F|^2"), 0.0, math.pi)
    near = [e for e in found if abs(e.phase - math.pi / 2.0) < 1e-3]
    assert len(near) == 1 and near[0].kind == "min"
    assert near[0].phase == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_scan_reports_one_extremum_per_flat_run():
    # -4 cos(phase) + cos(2 phase) - 3 = 8 sin(phase/2)^4 - 6 is flat at 0:
    # g' has a triple root there, which the proxy may split into a run of
    # three roots, and Newton steps close in on it only linearly
    flat = _sum([0.0, 1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [-2.0, 0.5])
    interior = [e for e in scan_extrema(flat, -1.0, 2.0) if not e.at_endpoint]
    assert len(interior) == 1
    assert interior[0].kind == "min"
    assert interior[0].value == pytest.approx(-6.0, abs=1e-14)
    assert abs(interior[0].phase) <= 1e-4


# 0.5 + sin(phase) - sin(2 phase)/2: g' = cos(phase) - cos(2 phase) keeps
# its sign across its double root at 0
SHOULDER = _sum([0.0, 1.0, 2.0], [[1.0, 1.0], [1j, 0.0], [0.0, 1j]], [0.5, -0.25])


def test_scan_skips_a_flat_shoulder_on_a_slope():
    phases = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(SHOULDER(phases), 0.5 + np.sin(phases) - np.sin(2.0 * phases) / 2.0)
    found = scan_extrema(SHOULDER, -1.0, 1.0)
    assert [(e.kind, e.phase) for e in found] == [("min", -1.0), ("max", 1.0)]
    wide = scan_extrema(SHOULDER, -3.0, 3.0)
    assert [e.kind for e in wide] == ["max", "min", "max", "min"]
    assert [e.phase for e in wide[1:3]] == pytest.approx(
        [-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0], abs=1e-12)


def test_scan_reports_a_flat_endpoint_run_at_the_endpoint():
    # the stay probability of n2_general is even in the phase: it is flat
    # (g' = 0) at both ends of [0, pi/3], and each end is reported only as
    # an endpoint, a maximum beside the minimum
    found = scan_extrema(family_objective(FAMILIES["n2_general"], "|A|^2"),
                         0.0, math.pi / 3.0)
    assert [(e.kind, e.at_endpoint) for e in found] == \
        [("max", True), ("min", False), ("max", True)]
    assert found[1].phase == pytest.approx(math.pi / 6.0, abs=1e-12)


def test_a_constant_objective_has_no_extrema():
    # each label rides one mode, so each modulus is constant up to rounding
    assert scan_extrema(_sum([0.0, 3.0], [[0.6, 0.0], [0.0, 0.8j]], [1.0, 2.0]),
                        0.0, 10.0) == []
    assert scan_extrema(_sum([2.0], [0.6 + 0.8j]), 0.0, 10.0) == []


def test_scan_window_validation():
    with pytest.raises(ValueError):
        scan_extrema(_sum([0.0, 1.0], [1.0, 1.0]), 1.0, 1.0)


def _refuse_sampling(monkeypatch):
    monkeypatch.setattr(scan, "_slopes", lambda *args: pytest.fail("sampled"))


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0), (0.0, math.nan)])
def test_scan_refuses_a_non_finite_window_before_sampling(monkeypatch, lo, hi):
    _refuse_sampling(monkeypatch)
    with pytest.raises(ValueError, match=r"the window \[.*\] must be finite"):
        scan_extrema(_sum([0.0, 1.0], [1.0, 1.0]), lo, hi)


def test_grids_above_max_samples_are_refused_before_sampling(monkeypatch):
    # n2_general spreads its frequencies over 6: over [0, 1e9] g' turns
    # 3e9 radians, some 375 000 000 pieces of 33 Chebyshev samples
    _refuse_sampling(monkeypatch)
    objective = family_objective(FAMILIES["n2_general"], "|A|^2")
    with pytest.raises(ValueError, match=r"needs 12375\d{6} samples, more than 1048576"):
        scan_extrema(objective, 0.0, 1e9)


def test_scan_rejects_a_window_too_wide_to_count(monkeypatch):
    # 6 * 1e308 overflows to inf
    _refuse_sampling(monkeypatch)
    with pytest.raises(ValueError, match="not finite"):
        scan_extrema(family_objective(FAMILIES["n2_general"], "|A|^2"), 0.0, 1e308)


def test_scan_rejects_non_finite_samples(monkeypatch):
    # a NaN frequency, coefficient or weight would sample a non-finite g':
    # refused before sampling
    _refuse_sampling(monkeypatch)
    for data in (([math.nan, 3.0], [1.0, 0.5j], [1.0]),
                 ([0.0, 3.0], [math.nan, 0.5j], [1.0]),
                 ([0.0, 3.0], [1.0, 0.5j], [math.inf])):
        with pytest.raises(ValueError, match="must be finite"):
            scan_extrema(_sum(*data), 0.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_objective_refuses_non_finite_weights_when_built(bad):
    # refused where scan_extrema would refuse it, before any evaluation
    with pytest.raises(ValueError, match="must be finite"):
        family_objective(FAMILIES["n2_general"], {"A": bad})


@pytest.mark.parametrize("phases", [math.nan, [0.0, math.inf], [-math.inf]])
def test_objective_refuses_non_finite_phases(phases):
    # the exponential would turn them into nan values; refused as
    # Family.evaluate_phases refuses them
    objective = family_objective(FAMILIES["n2_general"], "|A|^2")
    with pytest.raises(ValueError, match="phases must be finite"):
        objective(phases)
    assert objective(0.0) == pytest.approx(1.0, abs=1e-15)


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


@pytest.mark.parametrize("z", [1e-4, 1e-6, 1e-8])
def test_time_averages_keep_a_small_mode_gap(z):
    # |1 + i exp(-i z phase)|^2 = 2 + 2 sin(z phase) averages to
    # 2 + 4 sin(z/2)^2 / z over [0, 1]; (exp(-iz) - 1)/(-iz) cancels in
    # cos(z) - 1 and missed it by 5.2e-13 at z = 1e-4 and 1e-8 at z = 1e-8
    [got] = scan._time_averages(np.array([0.0, z]), np.array([[1.0], [1j]]), 1.0)
    assert got == pytest.approx(2.0 + 4.0 * math.sin(z / 2.0) ** 2 / z, rel=1e-15, abs=0.0)


def test_import_pulls_in_no_scipy():
    code = "import sys, trimodal; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_import_pulls_in_no_numpy_polynomial():
    # numpy.polynomial costs ~10 ms to import; only a scan or a dwell_times
    # call needs it
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
