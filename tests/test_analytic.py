"""Closed-form amplitude families against the exact propagator."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from trimodal.analytic import (
    FAMILIES,
    AmplitudeSet,
    _exp_sum,
    matrix_representation,
    n2_exchange_symmetric,
    pattern_compression,
)
from trimodal.basis import StateVector, enumerate_manifold, parse_level, product_state
from trimodal.dynamics import build_large_xi_generator
from trimodal.evolve import _merge_modes, propagate
from trimodal.verification import (
    _N6_CONC_MATRIX,
    _N6_CONC_SCALE,
    PAPER_FORMS,
    n6_concentrated_AF,
    n6_symmetric_printed,
)

SOLVING = [name for name, fam in FAMILIES.items() if fam.solves_hopping]


def test_registry_contents():
    assert set(FAMILIES) == {
        "n2_general", "n4_single_cavity", "n4_two_cavity",
        "n6_concentrated", "n6_symmetric", "n6_asymmetric",
    }
    assert SOLVING == [n for n in FAMILIES if n != "n6_symmetric"]
    for name, fam in FAMILIES.items():
        assert fam.name == name
        assert set(fam.patterns) == set(fam.labels)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_time_zero_matches_initial_state(name):
    fam = FAMILIES[name]
    state = fam.state_vector(fam.evaluate(1.0, 0.0))
    assert np.allclose(state.amplitudes, fam.initial_state().amplitudes,
                       atol=1e-12)
    assert state.norm == pytest.approx(1.0)


@pytest.mark.parametrize("name", SOLVING)
def test_closed_forms_solve_the_exchange_dynamics(name):
    fam = FAMILIES[name]
    gen = build_large_xi_generator(fam.manifold)
    phases = np.linspace(0.0, math.pi, 211)
    traj = propagate(gen, fam.initial_state(), phases, times_are_phase=True)
    worst = 0.0
    for k, phi in enumerate(phases):
        predicted = fam.state_vector(fam.evaluate(1.0, phi))
        worst = max(worst, float(np.max(np.abs(
            predicted.amplitudes - traj.amplitudes[k]))))
    assert worst < 1e-9


@pytest.mark.parametrize("name", list(FAMILIES))
def test_conserved_sums_hold_along_the_orbit(name):
    fam = FAMILIES[name]
    for params in _parameter_draws(fam, n_draws=3):
        for phi in (0.0, 0.37, 1.91, 3.1):
            ampset = fam.evaluate(1.0, phi, **params)
            assert fam.conservation_residual(ampset, **params) < 1e-9


# The paper's typed data per family, kept as a test-side reference for what
# the registry derives from its records: labels, parameters, the initial
# per-cavity factors (level, coefficient) and each conserved sum's value.
_TYPED = {
    "n2_general": dict(
        labels=("A", "B", "C", "D", "E", "F"),
        parameters=("a", "b"),
        factors=lambda p: [[("g0", 1.0)], [("g0", 1.0)],
                           [("g2", p["a"]), ("e0", p["b"])]],
        conserved={"photon sector": lambda p: abs(p["a"]) ** 2,
                   "excited sector": lambda p: abs(p["b"]) ** 2}),
    "n4_single_cavity": dict(
        labels=("A", "B", "C", "E", "F", "K"),
        parameters=("a", "b"),
        factors=lambda p: [[("g0", 1.0)], [("g0", 1.0)],
                           [("g4", p["a"]), ("e2", p["b"])]],
        conserved={"photon sector": lambda p: abs(p["a"]) ** 2,
                   "excited sector": lambda p: abs(p["b"]) ** 2}),
    "n4_two_cavity": dict(
        labels=("A", "B", "D", "E", "F", "L", "M", "N", "P"),
        parameters=("a", "b", "c", "d"),
        factors=lambda p: [[("g0", 1.0)], [("g2", p["a"]), ("e0", p["b"])],
                           [("g2", p["c"]), ("e0", p["d"])]],
        conserved={"photon sector": lambda p: abs(p["a"] * p["c"]) ** 2,
                   "both excited": lambda p: abs(p["b"] * p["d"]) ** 2,
                   "cavity 2 excited": lambda p: abs(p["b"] * p["c"]) ** 2,
                   "cavity 3 excited": lambda p: abs(p["a"] * p["d"]) ** 2}),
    "n6_concentrated": dict(
        labels=("A", "B", "E", "G", "K", "F"),
        parameters=(),
        factors=lambda p: [[("g6", 1.0)], [("g0", 1.0)], [("g0", 1.0)]],
        conserved={"norm": lambda p: 1.0}),
    "n6_symmetric": dict(
        labels=("A", "B", "C", "D", "E", "F", "G", "H", "K", "J"),
        parameters=("a", "b"),
        factors=lambda p: [[("g2", p["a"]), ("e0", p["b"])]] * 3,
        conserved={"photon sector": lambda p: abs(p["a"]) ** 6,
                   "one excited": lambda p: 3 * abs(p["a"]) ** 4 * abs(p["b"]) ** 2,
                   "two excited": lambda p: 3 * abs(p["a"]) ** 2 * abs(p["b"]) ** 4,
                   "three excited": lambda p: abs(p["b"]) ** 6}),
    "n6_asymmetric": dict(
        labels=("A", "B", "C", "D", "E", "F"),
        parameters=(),
        factors=lambda p: [[("e2", 1.0)], [("g2", 1.0)], [("g0", 1.0)]],
        conserved={"norm": lambda p: 1.0}),
}


def _parameter_draws(fam, n_draws=20, seed=17):
    """The defaults, then seeded draws with every (a, b) and (c, d) pair of
    complex parameters normalized to one."""
    yield dict(fam.defaults)
    if not fam.parameters:
        return
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        draw = rng.standard_normal((len(fam.parameters) // 2, 2, 2))
        pairs = draw[..., 0] + 1j * draw[..., 1]
        pairs /= np.linalg.norm(pairs, axis=1, keepdims=True)
        yield dict(zip(fam.parameters, pairs.ravel().tolist()))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_labels_and_parameters_equal_the_typed_tuples(name):
    fam = FAMILIES[name]
    assert fam.labels == _TYPED[name]["labels"]
    assert fam.parameters == _TYPED[name]["parameters"]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_initial_state_equals_the_typed_factor_table(name):
    fam = FAMILIES[name]
    for params in _parameter_draws(fam):
        typed = _TYPED[name]["factors"](params)
        # the factor order fixes the product's cross-term order
        assert [list(cavity) for cavity in fam.initial] == \
            [[lv for lv, _ in cavity] for cavity in typed]
        factors = [[(parse_level(lv), c) for lv, c in cavity] for cavity in typed]
        assert np.array_equal(fam.initial_state(**params).amplitudes,
                              product_state(fam.manifold, factors).amplitudes)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_conserved_sums_start_at_the_typed_values(name):
    fam = FAMILIES[name]
    typed = _TYPED[name]["conserved"]
    assert len(fam.conserved) == len(typed)
    for params in _parameter_draws(fam):
        start = fam.read_patterns([fam.initial_state(**params).amplitudes])[0]
        # the registry lists its sums in the typed order
        for cons, value in zip(fam.conserved, typed.values()):
            derived = sum(w * abs(start[fam.labels.index(lab)]) ** 2
                          for lab, w in cons.weights.items())
            assert abs(derived - value(params)) <= 1e-12


@pytest.mark.parametrize("name", SOLVING)
def test_derived_representation_equals_the_paper_forms(name):
    # the solve of the derived compression against the typed reference
    # tables the acceptance suite checks against exact evolution
    assert set(PAPER_FORMS) == set(SOLVING)
    fam = FAMILIES[name]
    phases = np.linspace(0.0, 2.0 * math.pi, 1000)
    for params in ({}, dict(a=0.6, b=0.8)) if fam.parameters else ({},):
        derived = fam.evaluate_phases(phases, **params)
        typed = _exp_sum(phases, *PAPER_FORMS[name](**params))
        assert np.max(np.abs(derived - typed)) <= 1e-12


def _compression_reference(fam, gen):
    """The per-entry loop the batched compression replaces."""
    man = gen.manifold
    out = np.zeros((len(fam.labels), len(fam.labels)))
    for i, lab_i in enumerate(fam.labels):
        rep, w_rep = fam.patterns[lab_i][0]
        row = man.index_of(rep)
        for j, lab_j in enumerate(fam.labels):
            acc = 0.0
            for bstate, w in fam.patterns[lab_j]:
                acc += w * gen.matrix.real[row, man.index_of(bstate)]
            out[i, j] = acc / (w_rep * gen.xi)
    return out


@pytest.mark.parametrize("name", list(FAMILIES))
def test_pattern_compression_equals_the_per_entry_loop(name):
    fam = FAMILIES[name]
    for xi in (1.0, 0.7):
        gen = build_large_xi_generator(fam.manifold, xi=xi)
        assert np.array_equal(pattern_compression(fam, gen),
                              _compression_reference(fam, gen))


@pytest.mark.parametrize("name", SOLVING)
def test_pattern_norms_symmetrize_the_derived_matrix(name):
    fam = FAMILIES[name]
    d = np.diag(fam.pattern_norms)
    sym = d @ fam.system_matrix @ np.linalg.inv(d)
    assert np.max(np.abs(sym - sym.T)) <= 1e-12


def test_pattern_compression_rejects_zero_xi():
    fam = FAMILIES["n4_single_cavity"]
    with pytest.raises(ValueError, match="xi"):
        pattern_compression(fam, build_large_xi_generator(fam.manifold, xi=0.0))


def test_symmetric_family_compression_gap_is_diagonal():
    # the recorded system drops the couplings inside each orbit; the true
    # compression differs by a diagonal correction on three labels
    fam = FAMILIES["n6_symmetric"]
    comp = pattern_compression(fam, build_large_xi_generator(fam.manifold))
    gap = comp - fam.system_matrix
    assert np.allclose(gap, np.diag(np.diag(gap)), atol=1e-12)
    expected = {lab: 0.0 for lab in fam.labels}
    expected.update({"F": 14.0, "G": 2.0, "H": 2.0})
    assert np.real(np.diag(gap)) == pytest.approx(
        [expected[lab] for lab in fam.labels])


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.6, 0.8)])
def test_symmetric_family_matches_its_printed_closed_forms(a, b):
    # A, F, K (the all-photon block), C, H (the pair doublet) and D (the
    # stationary state) have exact printed forms; B, E, G, J are rounded
    fam = FAMILIES["n6_symmetric"]
    phases = np.linspace(0.0, math.pi, 401)
    table = fam.evaluate_phases(phases, a=a, b=b)
    printed = n6_symmetric_printed(a, b, 1.0, phases)
    for label in ("A", "F", "K", "C", "H", "D"):
        got = table[:, fam.labels.index(label)]
        assert np.abs(got - printed[label]).max() <= 1e-12, label


@pytest.mark.parametrize("name", SOLVING)
def test_amplitudes_round_trip_through_the_state(name):
    fam = FAMILIES[name]
    aset = fam.evaluate(1.0, 0.83)
    back = fam.amplitudes_from_state(fam.state_vector(aset))
    assert np.allclose(back.values, aset.values, atol=1e-12)


def test_amplitudes_from_state_rejects_off_pattern_states():
    fam = FAMILIES["n4_single_cavity"]
    man = fam.manifold
    orbit = next(p for p in fam.patterns.values() if len(p) > 1)
    lopsided = np.zeros(man.dim, dtype=complex)
    lopsided[man.index_of(orbit[0][0])] = 1.0  # one orbit member only
    with pytest.raises(ValueError, match="pattern symmetry"):
        fam.amplitudes_from_state(StateVector(man, lopsided))
    covered = {man.index_of(b) for p in fam.patterns.values() for b, _ in p}
    outside = next(i for i in range(man.dim) if i not in covered)
    stray = np.zeros(man.dim, dtype=complex)
    stray[outside] = 1.0
    with pytest.raises(ValueError, match="outside"):
        fam.amplitudes_from_state(StateVector(man, stray))


# the per-state pattern read and fill the batched forms replace, kept as
# the bit-for-bit reference

def _read_reference(fam, amplitudes, tol):
    man = fam.manifold
    values = np.zeros(len(fam.labels), dtype=complex)
    covered = np.zeros(man.dim, dtype=bool)
    for k, lab in enumerate(fam.labels):
        reads = []
        for bstate, w in fam.patterns[lab]:
            idx = man.index_of(bstate)
            covered[idx] = True
            reads.append(amplitudes[idx] / w)
        values[k] = reads[0]
        spread = max(abs(r - reads[0]) for r in reads)
        if not spread <= tol:
            raise ValueError(f"state breaks the {fam.name}/{lab} pattern "
                             f"symmetry (spread {spread:.3e})")
    stray = np.abs(amplitudes[~covered]) if not covered.all() else np.zeros(1)
    if not stray.max() <= tol:
        raise ValueError(f"state has weight {stray.max():.3e} outside the "
                         f"{fam.name} patterns")
    return values


def _fill_reference(fam, values):
    man = fam.manifold
    out = np.zeros(man.dim, dtype=complex)
    for lab, value in zip(fam.labels, values):
        for bstate, w in fam.patterns[lab]:
            out[man.index_of(bstate)] += w * value
    return out


PARAMS = {"n2_general": dict(a=0.6, b=0.8j), "n4_single_cavity": dict(a=0.6, b=0.8),
          "n4_two_cavity": dict(a=0.6, b=0.8, c=0.8, d=-0.6j),
          "n6_symmetric": dict(a=0.6, b=0.8)}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_evaluate_phases_rows_equal_evaluate(name):
    fam = FAMILIES[name]
    params = PARAMS.get(name, {})
    phases = np.linspace(0.0, 2.0 * math.pi, 97)
    table = fam.evaluate_phases(phases, **params)
    assert table.shape == (97, len(fam.labels))
    for k, phi in enumerate(phases):
        assert np.array_equal(table[k], fam.evaluate(1.0, phi, **params).values)


def test_evaluate_phases_refuses_a_2d_phase_array():
    # numpy alone fails with a broadcast error that does not name the phases
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError, match="phases must be a scalar or a 1-D sequence"):
        fam.evaluate_phases(np.zeros((3, 2)))
    rows = fam.evaluate_phases([0.0, 0.7])
    assert np.array_equal(fam.evaluate_phases(0.7), rows[1:])


@pytest.mark.parametrize("name", list(FAMILIES))
def test_batched_pattern_read_and_fill_equal_the_per_state_loops(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, len(fam.labels))) \
        + 1j * rng.normal(size=(40, len(fam.labels)))
    states = fam.fill_patterns(values)
    assert states.shape == (40, fam.manifold.dim)
    for k in range(40):
        assert np.array_equal(states[k], _fill_reference(fam, values[k]))
    # small noise inside tol, so the reads carry the division's rounding
    noisy = states + 1e-12 * rng.normal(size=states.shape)
    got = fam.read_patterns(noisy, tol=1e-9)
    for k in range(40):
        assert np.array_equal(got[k], _read_reference(fam, noisy[k], 1e-9))


def _first_loop_error(fam, table, tol):
    for row in table:
        try:
            _read_reference(fam, row, tol)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("name", ["n4_single_cavity", "n6_symmetric", "n4_two_cavity"])
def test_batched_pattern_read_raises_what_the_loop_raises(name):
    fam = FAMILIES[name]
    man = fam.manifold
    states = fam.fill_patterns(np.ones((6, len(fam.labels))))
    orbit = next(lab for lab in fam.labels if len(fam.patterns[lab]) > 1)
    member = man.index_of(fam.patterns[orbit][-1][0])
    broken = states.copy()
    broken[4, member] += 1e-3            # a broken pattern in row 4
    cases = [broken]
    covered = {man.index_of(b) for p in fam.patterns.values() for b, _ in p}
    outside = [i for i in range(man.dim) if i not in covered]
    if outside:
        stray = states.copy()
        stray[2, outside[0]] = 1e-3      # stray weight in row 2 ...
        stray[3, member] += 1e-3         # ... before a broken row
        cases.append(stray)
    for table in cases:
        expected = _first_loop_error(fam, table, 1e-9)
        assert expected is not None
        with pytest.raises(ValueError) as exc:
            fam.read_patterns(table, tol=1e-9)
        assert str(exc.value) == expected


def test_pattern_read_fails_closed_on_nan():
    fam = FAMILIES["n4_single_cavity"]
    man = fam.manifold
    orbit = next(p for p in fam.patterns.values() if len(p) > 1)
    amps = np.zeros(man.dim, dtype=complex)
    amps[man.index_of(orbit[0][0])] = np.nan
    with pytest.raises(ValueError, match="pattern symmetry"):
        fam.amplitudes_from_state(StateVector(man, amps))
    covered = {man.index_of(b) for p in fam.patterns.values() for b, _ in p}
    amps = np.zeros(man.dim, dtype=complex)
    amps[next(i for i in range(man.dim) if i not in covered)] = np.nan
    with pytest.raises(ValueError, match="outside"):
        fam.amplitudes_from_state(StateVector(man, amps))


def test_families_need_disjoint_patterns():
    fam = FAMILIES["n2_general"]
    shared = dict(fam.patterns, B=fam.patterns["A"])
    broken = dataclasses.replace(fam, patterns=shared)
    with pytest.raises(ValueError, match="basis state"):
        broken.fill_patterns(np.ones((1, len(fam.labels))))


def test_normalization_checks_fail_closed_on_nan():
    with pytest.raises(ValueError):
        FAMILIES["n2_general"].evaluate(1.0, 0.1, a=math.nan, b=0.0)
    with pytest.raises(ValueError):
        FAMILIES["n4_two_cavity"].evaluate(1.0, 0.1, c=math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exponential_sums_reject_non_finite_phases(bad):
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError, match="phases must be finite"):
        fam.evaluate(bad, 1.0)
    with pytest.raises(ValueError, match="phases must be finite"):
        fam.evaluate_phases([0.1, bad])


def test_parameter_validation():
    fam = FAMILIES["n2_general"]
    with pytest.raises(ValueError):
        fam.evaluate(1.0, 0.1, zz=3.0)
    with pytest.raises(ValueError):
        fam.evaluate(1.0, 0.1, a=1.0, b=1.0)
    ok = fam.evaluate(1.0, 0.1, a=0.6, b=0.8j)
    assert fam.conservation_residual(ok, a=0.6, b=0.8j) < 1e-12


# --------------------------------------------------------------- total 2

def test_pair_leaves_its_cavity_at_a_third_turn():
    folded = n2_exchange_symmetric(FAMILIES["n2_general"].evaluate(1.0, math.pi / 3.0))
    assert abs(folded["B"]) < 1e-12
    assert abs(folded["A"]) == pytest.approx(1.0)


def test_stay_probability_profile():
    ts = np.linspace(0.0, math.pi, 50)
    fam = FAMILIES["n2_general"]
    table = fam.evaluate_phases(ts)
    assert table.shape == (50, 6)
    assert np.abs(table[:, 0]) ** 2 == pytest.approx((5 + 4 * np.cos(6 * ts)) / 9)
    for k in (0, 7, 49):
        single = fam.evaluate(1.0, ts[k])
        assert np.array_equal(table[k], single.values)


def test_exchange_fold_fails_closed_on_nan():
    aset = FAMILIES["n2_general"].evaluate(1.0, 0.2)
    values = aset.values.copy()
    values[1] = math.nan
    broken = AmplitudeSet(aset.family, aset.labels, values)
    with pytest.raises(ValueError, match="exchange symmetry"):
        n2_exchange_symmetric(broken)


def test_exchange_fold_requires_the_symmetry():
    aset = FAMILIES["n2_general"].evaluate(1.0, 0.2)
    assert set(n2_exchange_symmetric(aset)) == {"A", "B", "C"}
    with pytest.raises(ValueError):
        n2_exchange_symmetric(FAMILIES["n4_single_cavity"].evaluate(1.0, 0.1))
    fam = FAMILIES["n2_general"]
    # the pair seeded in cavity 2 instead of cavity 3
    lopsided = fam.amplitudes_from_state(StateVector(fam.manifold, np.eye(6)[1]))
    with pytest.raises(ValueError):
        n2_exchange_symmetric(lopsided)


# --------------------------------------------------------------- total 4 / 6

def test_single_cavity_family_third_turn_split():
    aset = FAMILIES["n4_single_cavity"].evaluate(1.0, math.pi / 3.0)
    assert abs(aset["A"]) < 1e-12 and abs(aset["B"]) < 1e-12
    assert aset.probability("C") == pytest.approx(18.0 / 25.0)
    assert aset.probability("F") == pytest.approx(7.0 / 25.0)


def test_two_cavity_family_third_turn_split():
    aset = FAMILIES["n4_two_cavity"].evaluate(1.0, math.pi / 3.0)
    assert aset.probability("A") == pytest.approx(18.0 / 25.0)
    assert aset.probability("P") == pytest.approx(7.0 / 25.0)


def test_concentrated_pair_of_amplitudes_matches_family():
    fam = FAMILIES["n6_concentrated"]
    for phi in (0.0, 0.51, 2.7):
        a, f = n6_concentrated_AF(1.0, phi)
        aset = fam.evaluate(1.0, phi)
        assert a == pytest.approx(aset["A"], abs=1e-12)
        assert f == pytest.approx(aset["F"], abs=1e-12)
    a0, _ = n6_concentrated_AF(1.0, 0.0)
    assert a0 == pytest.approx(1.0)


def test_asymmetric_family_landmark_times():
    pi5 = FAMILIES["n6_asymmetric"].evaluate(1.0, math.pi / 5.0)
    assert pi5.probability("A") == pytest.approx(
        (4.0 / 9.0) * math.sin(math.pi / 5.0) ** 2)
    pi3 = FAMILIES["n6_asymmetric"].evaluate(1.0, math.pi / 3.0)
    assert pi3.probability("C") == pytest.approx(18.0 / 25.0)
    assert pi3.probability("D") == pytest.approx(7.0 / 25.0)


def test_asymmetric_family_half_window_reflection():
    # |X(phi)| = |X(pi - phi)| for every label in this family
    fam = FAMILIES["n6_asymmetric"]
    for phi in (0.21, 0.9, 1.44):
        front = np.abs(fam.evaluate(1.0, phi).values)
        back = np.abs(fam.evaluate(1.0, math.pi - phi).values)
        assert front == pytest.approx(back, abs=1e-12)


# --------------------------------------------------------------- rebuilders

def _dense_representation(matrix, initial, scale):
    """The dense route: D M D^-1 through an inverted diagonal, its own eigh."""
    d = np.diag(scale)
    d_inv = np.linalg.inv(d)
    vals, vecs = np.linalg.eigh(d @ matrix @ d_inv)
    weights = vecs * (vecs.T @ (d @ initial))[np.newaxis, :]
    return _merge_modes(vals, (d_inv @ weights).T)


def _family_solves():
    for name, fam in FAMILIES.items():
        params = [{}] + ([dict(a=0.6, b=0.8)] if "b" in fam.parameters else [])
        for p in params:
            initial = fam.read_patterns([fam.initial_state(**p).amplitudes])[0]
            yield fam.system_matrix, initial, fam.pattern_norms
    initial = np.zeros(6, dtype=complex)
    initial[0] = 1.0
    yield _N6_CONC_MATRIX, initial, _N6_CONC_SCALE


def test_matrix_representation_equals_the_dense_route():
    solves = list(_family_solves())
    assert len(solves) == 11
    for matrix, initial, scale in solves:
        freqs, coeffs = matrix_representation(matrix, initial, scale)
        ref_freqs, ref_coeffs = _dense_representation(matrix, initial, scale)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(coeffs, ref_coeffs)


def test_family_representation_reuses_its_spectrum_with_the_same_bits():
    # the family keeps one eigendecomposition of its symmetrized matrix;
    # every solve from it equals a fresh matrix_representation bit for bit
    for name, fam in FAMILIES.items():
        params = [{}] + ([dict(a=0.6, b=0.8)] if "b" in fam.parameters else [])
        for p in params:
            initial = fam.read_patterns([fam.initial_state(**p).amplitudes])[0]
            fresh = matrix_representation(fam.system_matrix, initial,
                                          fam.pattern_norms)
            for got, ref in zip(fam.representation(**p), fresh):
                assert np.array_equal(got, ref), name
        assert fam._spectrum is fam._spectrum
        assert not any(modes.flags.writeable for modes in fam._spectrum.modes)


def test_matrix_representation_fails_closed_on_nan():
    fam = FAMILIES["n2_general"]
    initial = np.array([math.nan, 0, 0, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        matrix_representation(fam.system_matrix, initial, fam.pattern_norms)


def test_matrix_representation_matches_matrix_exponential():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(5, 5))
    mat = (raw + raw.T) / 2.0
    x0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    x0 /= np.linalg.norm(x0)
    freqs, coeffs = matrix_representation(mat, x0, np.ones(5))
    for phi in (0.0, 0.7, 2.2):
        direct = expm(-1j * mat * phi) @ x0
        rebuilt = np.exp(-1j * freqs * phi) @ coeffs
        assert np.allclose(rebuilt, direct, atol=1e-12)
