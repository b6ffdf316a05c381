"""Single-cavity dressed pairs (|e,n>, |g,n+2>) and the derived scales.

A two-photon transition mixes |e,n> with |g,n+2>.  The mixing angle and the
level splitting fix the weights of the slow, photon-number-dependent terms
that survive once every cavity is reduced to its dressed ladder; energies are
quoted in units of hbar*g2 and the coupling ratio r = g1/g2 enters through
the angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DressedParams:
    """Coupling ratio r = g1/g2 and detuning delta in units of hbar*g2."""

    r: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"coupling ratio must be positive, got {self.r}")
        if not math.isfinite(self.r) or not math.isfinite(self.delta):
            raise ValueError("parameters must be finite")


def mixing_angle(n: int, params: DressedParams) -> tuple[float, float]:
    """(cos, sin) of the dressed mixing angle for the pair (|e,n>, |g,n+2>).

    cos = r*sqrt(n+2) / sqrt(r^2*(n+2) + (n+1)) and sin carries sqrt(n+1),
    so that n = -1 is the closed boundary: cos = 1, sin = 0.
    """
    if n < -1:
        raise ValueError(f"pair label must be >= -1, got {n}")
    r = params.r
    denom = math.sqrt(r * r * (n + 2) + (n + 1))
    return r * math.sqrt(n + 2) / denom, math.sqrt(n + 1) / denom


def splitting(n: int, params: DressedParams) -> float:
    """Upper-branch shift (E_n+ - E_n-) in units of hbar*g2.

    Equals -delta/2 + sqrt(delta^2 + 4*(r^2*(n+2) + (n+1)))/2; always
    positive for r > 0.
    """
    if n < -1:
        raise ValueError(f"pair label must be >= -1, got {n}")
    r, delta = params.r, params.delta
    return 0.5 * (-delta + math.sqrt(delta * delta + 4 * (r * r * (n + 2) + (n + 1))))


def energy_scale(n_total: int, params: DressedParams) -> float:
    """Unit used to de-dimensionalize a manifold's slow dynamics.

    The reference pair is n_ref = n_total - 2 (the pair reachable from the
    manifold's one-cavity configurations); the scale is its splitting times
    cos^2 of its mixing angle.
    """
    n_ref = n_total - 2
    cos, _ = mixing_angle(n_ref, params)
    return splitting(n_ref, params) * cos * cos

