"""How entangled does the exchanging pair actually get?

The aligned-product curve (5 + 4 cos(6 xi t))/9 tracks the overlap with the
product state built on the seeded cavity.  A full optimization over ALL
product states follows that curve only while cos(6 xi t) >= -1/8; past the
crossover it finds a strictly better factorization, so the true geometric
entanglement peaks well below -log2(1/9).  A six-quantum probe at an odd
quarter turn shows the same effect on a richer manifold.
"""

import numpy as np

from trimodal.analytic import FAMILIES
from trimodal.basis import enumerate_manifold
from trimodal.dynamics import build_large_xi_generator
from trimodal.entanglement import closed_form_overlap_n2, max_product_overlap
from trimodal.evolve import propagate

SEED = 0


def main():
    man = enumerate_manifold(2)
    gen = build_large_xi_generator(man, xi=1.0)
    start = FAMILIES["n2_general"].initial_state()

    phases = np.array([k * np.pi / 18.0 for k in range(7)])
    traj = propagate(gen, start, phases, times_are_phase=True)
    curve = closed_form_overlap_n2(1.0, 0.0, 1.0, phases)

    print("best product overlap along the pair exchange (seed in cavity 3):")
    print("  xi*t      aligned curve   optimizer   entanglement [bits]")
    for k, ph in enumerate(phases):
        res = max_product_overlap(traj.state(k), restarts=16, seed=SEED)
        marker = "  <- beats the curve" if res.overlap > curve[k] + 1e-9 else ""
        ent = res.entanglement if abs(res.entanglement) > 1e-12 else 0.0
        print(f"  {ph:7.4f}   {curve[k]:11.6f}   {res.overlap:9.6f}"
              f"   {ent:8.4f}{marker}")
    cross = np.arccos(-1.0 / 8.0) / 6.0
    print(f"  crossover where cos(6 xi t) = -1/8: xi*t = {cross:.4f}")

    peak = max_product_overlap(traj.state(3), restarts=64, seed=SEED)
    print(f"\nat the dip xi*t = pi/6: optimizer {peak.overlap:.6f} = 64/135 = "
          f"{64 / 135:.6f}, entanglement {peak.entanglement:.4f} bits")
    print(f"  (the aligned curve alone would have claimed {-np.log2(1 / 9):.4f} bits)")
    print("  winning factors (amplitudes over g0, g2, e0):")
    for c, vec in enumerate(peak.maximizer.vectors, start=1):
        pretty = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in vec)
        print(f"    cavity {c}: [{pretty}]")

    print("\nsix-quantum symmetric probe at odd quarter turns, all photons (a = 1):")
    sym = FAMILIES["n6_symmetric"]
    for l in (0, 1):
        tau = (l + 0.5) * np.pi / (2.0 * np.sqrt(66.0))
        amps = sym.evaluate(1.0, tau, a=1.0, b=0.0)
        res = max_product_overlap(sym.state_vector(amps), seed=SEED)
        print(f"  l={l}: tau = {tau:.6f}, basis product overlap |A|^2 = "
              f"{abs(amps['A']) ** 2:.6f} (25/121), optimizer {res.overlap:.6f}")
    print("  the optimizer reproducibly beats the basis product state here too.")


if __name__ == "__main__":
    main()
