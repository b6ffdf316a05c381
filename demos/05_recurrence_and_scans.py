"""Extrema, dwell averages, and recurrence structure.

Every local extremum of a weighted-probability objective is a root of its
exact derivative, found from Chebyshev proxies and polished by Newton
steps.  Dwell averages come out both in closed form and by quadrature, and
the period detector tells apart families that recur exactly from the one
whose frequency gaps are irrational.
"""

import numpy as np

from trimodal.analytic import FAMILIES
from trimodal.scan import (
    detect_period,
    dwell_time,
    family_objective,
    parse_objective,
    scan_extrema,
)


def main():
    fam2 = FAMILIES["n2_general"]
    obj = family_objective(fam2, "|A|^2")
    print("extrema of the stay probability |A|^2 on [0, pi]:")
    print("  xi*t       value      kind  endpoint?")
    for e in scan_extrema(obj, 0.0, np.pi):
        print(f"  {e.phase:8.5f}  {e.value:9.6f}  {e.kind:4s}  {e.at_endpoint}")
    print(f"  interior minima sit at pi/6, pi/2, 5pi/6 = "
          f"{np.pi / 6:.5f}, {np.pi / 2:.5f}, {5 * np.pi / 6:.5f}, all at 1/9.")

    weights = parse_objective("2*|A|^2 + |B|^2 + |B|^2")
    print(f"\nobjectives parse from text; '2*|A|^2 + |B|^2 + |B|^2' -> {weights}")

    print("\ndwell averages of the stay probability over different windows:")
    for span, note in ((np.pi / 3, "one full period"),
                       (np.pi / 12, "first quarter period"),
                       (np.pi, "three periods")):
        d = dwell_time(fam2, "A", span=span, a=1.0, b=0.0)
        print(f"  span {span:7.5f} ({note:20s}): {d.value:.8f}"
              f"   route gap {d.route_gap:.1e}")
    print(f"  quarter-period value is 5/9 + 8/(9 pi) = {5 / 9 + 8 / (9 * np.pi):.8f};"
          f" whole periods give 5/9 = {5 / 9:.8f}.")

    print("\nrecurrence of the exactly solving families (xi = 1):")
    print("  family             state period   modulus period   commensurate")
    for name, fam in sorted(FAMILIES.items()):
        if not fam.solves_hopping:
            continue
        info = detect_period(fam, xi=1.0)
        sp = "none" if info.state_period is None else f"{info.state_period:.6f}"
        mp = "none" if info.modulus_period is None else f"{info.modulus_period:.6f}"
        print(f"  {name:18s} {sp:>12s}   {mp:>14s}   {info.commensurate}")
    print("  the concentrated six-quantum family never recurs: its frequency")
    print("  gaps involve surds with irrational ratios.")

    print("\nthe detector also takes raw (frequencies, coefficients) data:")
    cases = {
        "harmonics 0,2,6": (np.array([0.0, 2.0, 6.0]), np.eye(3, dtype=complex)),
        "gaps 1 and sqrt2": (np.array([0.0, 1.0, np.sqrt(2.0)]),
                             np.ones((3, 1), dtype=complex)),
    }
    for tag, rep in cases.items():
        info = detect_period(rep, xi=1.0)
        sp = "none" if info.state_period is None else f"{info.state_period:.6f}"
        mp = "none" if info.modulus_period is None else f"{info.modulus_period:.6f}"
        print(f"  {tag:18s} state {sp:>9s}  modulus {mp:>9s}"
              f"  commensurate {info.commensurate}")
    print("  (with one mode per label, every modulus is constant: period 0.)")

    print("\nfaster hopping compresses the clock: periods scale as 1/xi:")
    for xi in (1.0, 2.0):
        info = detect_period(fam2, xi=xi)
        print(f"  xi = {xi}: state period t = {info.state_period:.6f}")


if __name__ == "__main__":
    main()
