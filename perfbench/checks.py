"""Output checks made apart from trimodal's own methods.

Each ``check_*`` function raises CheckError with a reason when the output it
is given is wrong and returns None otherwise.  The references are built here
from the documented formulas (level alphabet, pair-hopping element, Taylor
series of the propagator), never by calling the
library routine whose output is being judged.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with its independent reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# manifold and generator, from the level alphabet


def level_alphabet(n_total: int) -> list[str]:
    """Single-cavity levels 'g<photons>' and 'e<photons>' that fit in n_total,
    ground levels first, each kind by photon number (the canonical order)."""
    ground = [f"g{p}" for p in range(0, n_total + 1, 2)]
    excited = [f"e{p}" for p in range(0, n_total - 1, 2)]
    return ground + excited


def local_total(level: str) -> int:
    """Photons plus two for an excited atom."""
    return int(level[1:]) + (2 if level[0] == "e" else 0)


def level_triples(n_total: int) -> list[tuple[str, str, str]]:
    """Every triple of single-cavity levels whose local totals add to n_total."""
    alphabet = level_alphabet(n_total)
    return [(a, b, c) for a in alphabet for b in alphabet for c in alphabet
            if local_total(a) + local_total(b) + local_total(c) == n_total]


def manifold_dimension(n_total: int) -> int:
    """Dimension by direct counting of level triples."""
    return len(level_triples(n_total))


def check_dimension(n_total: int, dim: int) -> None:
    expected = manifold_dimension(n_total)
    _require(dim == expected,
             f"N={n_total}: dimension {dim}, direct count gives {expected}")


def hopping_matrix(basis: list[tuple[str, str, str]], xi: float) -> np.ndarray:
    """Pair-exchange matrix on `basis`, built from the documented element.

    A pair leaving a cavity with m photons for one with n photons (both read
    on the ket) has element xi * sqrt((n+1)(n+2)) * sqrt(m(m-1)); atomic
    flags never change.
    """
    index = {triple: i for i, triple in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for j, ket in enumerate(basis):
        for lose in range(3):
            m = int(ket[lose][1:])
            if m < 2:
                continue
            for gain in range(3):
                if gain == lose:
                    continue
                n = int(ket[gain][1:])
                bra = list(ket)
                bra[lose] = f"{ket[lose][0]}{m - 2}"
                bra[gain] = f"{ket[gain][0]}{n + 2}"
                i = index.get(tuple(bra))
                if i is not None:
                    mat[i, j] = xi * math.sqrt((n + 1) * (n + 2)) * math.sqrt(m * (m - 1))
    return mat


def check_hopping_matrix(basis, matrix: np.ndarray, xi: float = 1.0,
                         tol: float = 1e-12) -> None:
    ref = hopping_matrix(basis, xi)
    err = float(np.max(np.abs(np.asarray(matrix) - ref)))
    _require(err <= tol, f"hopping matrix differs from the element formula by {err:.3e}")


# ---------------------------------------------------------------------------
# propagation


def expm_taylor(a: np.ndarray, order: int = 24) -> np.ndarray:
    """exp(a) by scaling and squaring of a truncated Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    b = a / 2.0 ** squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = out
    for k in range(1, order + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def check_propagation(matrix: np.ndarray, initial: np.ndarray, t: float,
                      rows: np.ndarray, tol: float = 1e-9) -> None:
    """rows[k] equals exp(-i M t 2^k) initial; one Taylor exponential at t,
    squared once per further row."""
    step = expm_taylor(-1j * t * np.asarray(matrix))
    for k, row in enumerate(rows):
        if k:
            step = step @ step
        err = float(np.max(np.abs(row - step @ initial)))
        _require(err <= tol, f"propagated state at t={t * 2 ** k:.6g} is off by {err:.3e}")


def check_norms(amplitudes: np.ndarray, tol: float = 1e-10) -> None:
    drift = float(np.max(np.abs(np.linalg.norm(amplitudes, axis=1) - 1.0)))
    _require(drift <= tol, f"norm drift {drift:.3e} exceeds {tol:.0e}")


def check_sectors(sectors: dict, basis, initial: np.ndarray,
                  tol: float = 1e-10) -> None:
    """Excited-count sector weights stay at their initial values over time.

    `sectors` maps excited-atom count to a per-sample probability array; the
    reference weights are summed here from the initial amplitudes.
    """
    weights: dict[int, float] = {}
    for triple, amp in zip(basis, initial):
        k = sum(level[0] == "e" for level in triple)
        weights[k] = weights.get(k, 0.0) + abs(amp) ** 2
    for k, ref in weights.items():
        series = np.asarray(sectors.get(k, [0.0]), dtype=float)
        err = float(np.max(np.abs(series - ref)))
        _require(err <= tol, f"sector {k} weight moves by {err:.3e}")
    total = sum(np.asarray(s, dtype=float) for s in sectors.values())
    err = float(np.max(np.abs(total - 1.0)))
    _require(err <= tol, f"sector weights sum to 1 only within {err:.3e}")


def check_mode_expansion(expansion, phases, amplitudes: np.ndarray,
                         tol: float = 1e-9) -> None:
    """Re-sum every amplitude's exponential terms at the sampled phases."""
    phases = np.asarray(phases, dtype=float)
    _require(len(expansion) == amplitudes.shape[1],
             f"mode expansion has {len(expansion)} rows, state has {amplitudes.shape[1]}")
    for i, terms in enumerate(expansion):
        resum = np.zeros(phases.size, dtype=complex)
        for coef, mu in terms:
            resum += coef * np.exp(1j * mu * phases)
        err = float(np.max(np.abs(resum - amplitudes[:, i])))
        _require(err <= tol, f"mode expansion of row {i} is off by {err:.3e}")


# ---------------------------------------------------------------------------
# command-line outputs


def check_basis_csv(text: str, n_total: int) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0][:4] == ["index", "cavity1", "cavity2", "cavity3"],
             "basis CSV header is missing")
    body = rows[1:]
    check_dimension(n_total, len(body))
    seen = set()
    for k, row in enumerate(body):
        triple = tuple(row[1:4])
        _require(int(row[0]) == k, f"basis row {k} has index {row[0]}")
        _require(sum(local_total(lv) for lv in triple) == n_total,
                 f"basis row {k} {triple} does not hold N={n_total}")
        _require(int(row[4]) == sum(lv[0] == "e" for lv in triple),
                 f"basis row {k} miscounts excited atoms")
        seen.add(triple)
    _require(len(seen) == len(body), "basis CSV repeats a state")


def check_spectrum_text(text: str, n_total: int, xi: float, tol: float = 1e-9) -> None:
    """Large-hopping eigenvalues against the element formula's matrix."""
    got = np.sort(np.array([float(x) for x in text.split()]))
    ref = np.linalg.eigvalsh(hopping_matrix(level_triples(n_total), xi))
    _require(got.shape == ref.shape,
             f"spectrum has {got.size} values, expected {ref.size}")
    err = float(np.max(np.abs(got - ref)))
    _require(err <= tol * max(1.0, float(np.max(np.abs(ref)))),
             f"spectrum is off by {err:.3e}")


def check_n2_evolve_csv(text: str, start: str, tol: float = 1e-10) -> None:
    """N=2 pair-start rows: |A|^2 = (5 + 4 cos 6 phi) / 9 and unit norm."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    _require(header[0] == "xi_t", "evolve CSV must be in xi_t")
    re_col = header.index(f"re:{start}")
    im_col = header.index(f"im:{start}")
    _require(len(rows) > 1, "evolve CSV has no rows")
    for row in rows[1:]:
        phi = float(row[0])
        vals = np.array([float(x) for x in row[1:]])
        a2 = float(row[re_col]) ** 2 + float(row[im_col]) ** 2
        ref = (5.0 + 4.0 * math.cos(6.0 * phi)) / 9.0
        _require(abs(a2 - ref) <= tol, f"|A|^2 at phi={phi!r} is {a2!r}, expected {ref!r}")
        norm = float(np.sum(vals ** 2))
        _require(abs(norm - 1.0) <= tol, f"row at phi={phi!r} has norm^2 {norm!r}")


def parse_key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.split() if "=" in line)


def check_product_entangle_text(text: str, tol: float = 1e-9) -> None:
    """A product start has overlap 1 and zero entanglement."""
    kv = parse_key_values(text)
    _require("overlap" in kv, "entangle output has no overlap line")
    overlap = float(kv["overlap"])
    _require(abs(overlap - 1.0) <= tol, f"product state overlap {overlap!r}, expected 1")
    _require(abs(float(kv["entanglement_log2"])) <= tol / math.log(2.0),
             f"product state entanglement {kv['entanglement_log2']}")


SCAN_MINIMA = (0.2094, 0.8378)
SCAN_MIN_VALUE = 0.1960


def check_scan_csv(text: str, phase_tol: float = 1e-3, value_tol: float = 5e-5) -> None:
    """n4_single_cavity |C|^2+|F|^2 minima: 0.1960 at 0.2094 and 0.8378."""
    rows = list(csv.DictReader(io.StringIO(text)))
    minima = [(float(r["xi_t"]), float(r["value"])) for r in rows
              if r["kind"] == "min" and r["at_endpoint"] == "false"]
    for stated in SCAN_MINIMA:
        _require(minima, "scan reports no interior minimum")
        phase, value = min(minima, key=lambda m: abs(m[0] - stated))
        _require(abs(phase - stated) <= phase_tol and abs(value - SCAN_MIN_VALUE) <= value_tol,
                 f"minimum near {stated}: {value!r} at {phase!r}, "
                 f"expected {SCAN_MIN_VALUE} at {stated}")


# ---------------------------------------------------------------------------
# acceptance suite


# The paper suite as the library documents it (README, "Acceptance"): 69
# checks, of which these 11 record a documented value the exact computation
# does not reproduce.  A suite that ran fewer checks, or turned a pass row
# into a known divergence, would do less work and must not count as correct.
SUITE_CHECKS = 69
KNOWN_DIVERGENCES = frozenset({
    "c4.sym_pair_doublet", "c4.sym_photon_triplet", "c4.sym_single_quartet",
    "c5.two_cavity_comp_moved", "c7.concentrated_min", "c7.pair_antinode",
    "c7.random_agreement", "c7.single_cavity_min", "c7.sym_half_turn",
    "c7.sym_quarter_turn", "c7.two_cavity_min",
})


def check_suite(check_ids: list[str], statuses: list[str], table: str,
                first_table: str | None) -> None:
    """All 69 distinct checks ran, none is FAIL, exactly the documented ones
    are known divergences, and the rendered table repeats byte for byte."""
    _require(len(check_ids) == len(statuses), "check ids and statuses differ in length")
    _require(len(check_ids) == SUITE_CHECKS and len(set(check_ids)) == SUITE_CHECKS,
             f"suite ran {len(check_ids)} rows with {len(set(check_ids))} distinct ids, "
             f"expected {SUITE_CHECKS}")
    failed = sum(s == "FAIL" for s in statuses)
    _require(failed == 0, f"{failed} of {len(statuses)} suite rows FAIL")
    known = {i for i, s in zip(check_ids, statuses) if s == "known-divergence"}
    _require(known == KNOWN_DIVERGENCES,
             f"known divergences {sorted(known ^ KNOWN_DIVERGENCES)} differ from the "
             "documented set")
    _require(all(s in ("pass", "known-divergence") for s in statuses),
             f"unknown row status among {sorted(set(statuses))}")
    if first_table is not None:
        _require(table.encode() == first_table.encode(),
                 "render_table output changed between calls with the same seed")
