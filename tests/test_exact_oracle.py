"""Exact oracle: spectra derived in exact arithmetic against the float solves.

Every matrix here has entries of the form +-sqrt(integer), so it lifts to an
exact sympy matrix; its characteristic polynomial is then checked to factor
over the documented closed-form roots, and those roots are compared with the
floating-point eigenvalues.
"""

import math

import numpy as np
import pytest
import sympy
from sympy import sqrt

from trimodal.analytic import _N6_SYM_BLOCKS
from trimodal.basis import enumerate_manifold
from trimodal.dynamics import build_large_xi_generator, sector_block
from trimodal.evolve import spectrum
from trimodal.verification import _N6_CONC_MATRIX

LAM = sympy.Symbol("lam")


def _exact(matrix):
    """The sympy matrix of a real float matrix whose entries are
    +-sqrt(integer), read entry by entry."""
    entries = []
    for x in np.asarray(matrix, dtype=float).ravel():
        n = round(x * x)
        assert abs(x * x - n) <= 1e-9 * max(n, 1), f"{x!r} is not +-sqrt(integer)"
        entries.append(int(math.copysign(1, x)) * sqrt(n))
    return sympy.Matrix(*matrix.shape, entries)


def _exchange_triangle():
    block = sector_block(build_large_xi_generator(enumerate_manifold(2)), 0)
    assert block.matrix.shape == (3, 3) and not np.any(block.matrix.imag)
    return block.matrix.real


CASES = {
    # the N = 2 photon sector: one pair hopping around three cavities
    "exchange_triangle": (_exchange_triangle, [4, -2, -2], True),
    # the concentrated family's reduced matrix, not symmetric in its labels
    "n6_concentrated": (lambda: _N6_CONC_MATRIX,
                        [0, 2, -1 + sqrt(241), -1 - sqrt(241),
                         7 + sqrt(313), 7 - sqrt(313)], False),
    # the documented photon-pattern block of the symmetric family
    "n6_sym_photon_triplet": (lambda: _N6_SYM_BLOCKS[("A", "F", "K")],
                              [0, 2 * sqrt(66), -2 * sqrt(66)], True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_exact_spectrum_matches_the_float_solve(name):
    build, documented, symmetric = CASES[name]
    matrix = build()
    exact = _exact(matrix)
    charpoly = exact.charpoly(LAM).as_expr()
    # the characteristic polynomial is exactly the product over the
    # documented roots, so they are all its roots, with multiplicity
    assert sympy.expand(charpoly - sympy.prod([LAM - r for r in documented])) == 0
    roots = sympy.roots(charpoly, LAM, multiple=True)
    assert len(roots) == len(documented)
    exact_values = np.sort([float(r) for r in roots])
    if symmetric:
        [floats] = spectrum(matrix).frequencies
    else:
        eig = np.linalg.eigvals(matrix)
        assert np.max(np.abs(eig.imag)) <= 1e-12
        floats = np.sort(eig.real)
    assert np.max(np.abs(floats - exact_values)) <= 1e-12
