"""Generators of the restricted three-cavity dynamics.

Two modes are built over a manifold's canonical basis.  The large-hopping
generator keeps only the pair-exchange coupling xi*(a_i^dag^2 a_j^2 + h.c.),
which freezes each atomic configuration and is block diagonal across the
excitation patterns (`Manifold.patterns`, 8 of them from N = 6 on).  The
full generator adds, per cavity, the dressed two-by-two
[[tan^2, tan], [tan, 1]] acting on (|e,n>, |g,n+2>), weighted so
the reference pair n_total - 2 has weight one; this is the complete slow
dynamics in units of the manifold's energy scale.

Both are filled by index arithmetic on the manifold's coordinate table: a
pair hop or an atom flip shifts a state's level positions, and
`Manifold.index_at` looks the shifted triples up.

Symmetry reductions (two-cavity exchange blocks, the fully symmetric block,
sector restrictions) are provided as Block objects: real orthonormal columns
over the manifold basis, read from the manifold's tables, and the
generator compressed onto them once by `project_onto`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Manifold, _is_int
from .dressed import DressedParams, energy_scale, mixing_angle, splitting

HERMITICITY_TOL = 1e-12
# row c shifts cavity c's level position by one, leaving the others
_CAVITY_STEP = np.eye(3, dtype=np.intp)


def _require_hermitian(mat: np.ndarray) -> None:
    """Raise ValueError unless `mat` is a finite square matrix equal to its
    conjugate transpose within HERMITICITY_TOL, relative to its largest entry
    (or to 1, whichever is larger)."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, np.max(np.abs(mat), initial=0.0))
    if not np.max(np.abs(mat - mat.conj().T), initial=0.0) <= HERMITICITY_TOL * scale:
        raise ValueError("matrix must be Hermitian")


@dataclass(frozen=True, eq=False)
class Generator:
    """Real symmetric matrix generating i d/dt psi = M psi on a manifold,
    stored as a read-only float64 copy of the matrix it is given.

    `blocks` are the basis rows of its invariant blocks, derived from the
    matrix: the manifold's excitation patterns (`Manifold.patterns`) when no
    nonzero entry couples two of them, as for the large-hopping generator,
    and otherwise the whole basis, `slice(0, dim)`, as one block.
    """

    manifold: Manifold
    matrix: np.ndarray
    xi: float
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if np.iscomplexobj(mat):
            raise ValueError("generator matrix must be real symmetric, got a complex one")
        if mat.shape != (self.manifold.dim, self.manifold.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.manifold.dim}")
        _require_hermitian(mat)
        mat = np.array(mat, dtype=np.float64)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        # the pattern index arrays are the manifold's own: built once per
        # manifold, not once per generator
        patterns = tuple(self.manifold.patterns.values())
        inside = sum(np.count_nonzero(mat[rows][:, rows]) for rows in patterns)
        blocks = patterns if inside == np.count_nonzero(mat) else (slice(0, len(mat)),)
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True, eq=False)
class Block:
    """A generator compressed onto a real orthonormal family of vectors.

    The columns of `embedding` (manifold.dim x block size, float64) are the
    orthonormal vectors written in the basis of `manifold`, and `matrix` is
    the real symmetric compression emb^T M emb.  When the family spans an
    invariant subspace the block evolves autonomously.
    """

    matrix: np.ndarray
    embedding: np.ndarray
    manifold: Manifold


def _hopping_matrix(manifold: Manifold, xi: float) -> np.ndarray:
    """Pair-exchange matrix, filled by index arithmetic on `manifold.coords`.

    A pair moving from cavity src to dst takes src's level one position down
    and dst's one up its ladder in `levels`; atomic flags stay.  Each coupled
    pair (i, j), i < j, is filled once with the value for bra i and ket j:
    xi * (sqrt((n+1)*(n+2)) * sqrt(m*(m-1))), where the ket holds n photons in
    the cavity the pair lands on and m in the one it leaves.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    photons = np.array([lv.photons for lv in manifold.levels])
    mat = np.zeros((manifold.dim, manifold.dim))
    for src, dst in itertools.permutations(range(3), 2):
        i = np.flatnonzero(photons[manifold.coords[:, src]] > 0)
        moved = manifold.coords[i] - _CAVITY_STEP[src] + _CAVITY_STEP[dst]
        j = manifold.index_at(moved)
        up = j > i
        n, m = photons[moved[up][:, [src, dst]]].T
        # the two roots swap places when a relabeling swaps bra and ket;
        # their product is the same either way
        mat[i[up], j[up]] = mat[j[up], i[up]] = \
            xi * (np.sqrt((n + 1) * (n + 2)) * np.sqrt(m * (m - 1)))
    return mat


def build_large_xi_generator(manifold: Manifold, xi: float = 1.0) -> Generator:
    """Pair-exchange-only generator; exact when the hopping dominates."""
    return Generator(manifold=manifold, matrix=_hopping_matrix(manifold, xi), xi=xi)


def build_full_generator(manifold: Manifold, params: DressedParams, xi: float = 1.0) -> Generator:
    """Hopping plus the per-cavity dressed terms, in reference-pair units.

    For each cavity sitting on a dressed pair (|e,n>, |g,n+2>) the projector
    onto the upper dressed vector contributes
    w_n * [[tan^2, tan], [tan, 1]] with w_n the splitting-times-cos^2 ratio
    to the reference pair n_total - 2; |g,0> contributes nothing.
    """
    mat = _hopping_matrix(manifold, xi)
    scale = energy_scale(manifold.n_total, params)
    # entry k belongs to the pair n = 2k, k < n_total / 2
    split, cos, sin = np.array([(splitting(n, params), *mixing_angle(n, params))
                                for n in range(0, manifold.n_total - 1, 2)]).T
    weight = split * cos * cos / scale
    tan = sin / cos
    # diagonal term of each level, in `levels` order |g,0>..|g,N>, |e,0>..|e,N-2>
    level_diag = np.concatenate(([0.0], weight, weight * tan * tan))
    # |e,n> sits n_total / 2 positions after its partner |g,n+2>
    shift = manifold.n_total // 2
    # each state's three per-cavity terms summed in ascending order, so a
    # relabeling of the cavities leaves the sum's rounding unchanged
    terms = np.sort(level_diag[manifold.coords], axis=1)
    mat[np.diag_indices(manifold.dim)] += terms[:, 0] + terms[:, 1] + terms[:, 2]
    for cav in range(3):
        level = manifold.coords[:, cav]
        i = np.flatnonzero(level > shift)
        j = manifold.index_at(manifold.coords[i] - shift * _CAVITY_STEP[cav])
        # the hopping never links a state to its atom-flipped partner
        mat[i, j] = mat[j, i] = (weight * tan)[level[i] - shift - 1]
    return Generator(manifold=manifold, matrix=mat, xi=xi)


def _require_generator(generator) -> None:
    """Blocks are columns over a manifold basis, so only a Generator is split."""
    if not isinstance(generator, Generator):
        raise ValueError(f"expected a Generator, got {type(generator).__name__}")


def project_onto(generator: Generator, states: np.ndarray) -> Block:
    """Compress a generator onto real orthonormal states, the columns of
    `states`, written as manifold basis amplitudes.

    The compression is the real emb^T M emb of the generator's matrix M.
    A Block in place of the generator, or complex states, raise ValueError.
    The states must be orthonormal within 1e-9 (NaN entries are not); they
    need not span an invariant subspace (the compression is then only the
    top-left corner of the dynamics in an adapted basis).  An empty
    (dim x 0) array gives a 0 x 0 block.
    """
    _require_generator(generator)
    if np.iscomplexobj(states):
        raise ValueError("projection states must be real")
    emb = np.ascontiguousarray(states, dtype=np.float64)
    gram = emb.T @ emb
    if not np.abs(gram - np.eye(emb.shape[1])).max(initial=0.0) <= 1e-9:
        raise ValueError("projection states must be orthonormal")
    mat = emb.T @ generator.matrix @ emb
    return Block(matrix=mat, embedding=emb, manifold=generator.manifold)


def sector_block(generator: Generator, excited_count: int) -> Block:
    """Restriction of a generator to one excited-count sector.

    Exactly invariant for the large-hopping mode, which cannot change any
    atomic flag.  `excited_count` must be an int (not a bool) in 0-3.
    """
    if not (_is_int(excited_count) and 0 <= excited_count <= 3):
        raise ValueError(f"excited_count must be an int in 0-3, got {excited_count!r}")
    manifold = generator.manifold
    idx = manifold.sectors[excited_count]
    if not idx:
        raise ValueError(f"sector {excited_count} is empty for total {manifold.n_total}")
    return project_onto(generator, np.eye(manifold.dim)[:, list(idx)])


def symmetry_blocks(generator: Generator,
                    exchange: tuple[int, int]) -> tuple[Block, Block]:
    """Split a generator by a two-cavity exchange into (symmetric, antisymmetric).

    `exchange` names two distinct cavities by ints (not bools) in 1-3.  The
    exchange, read from the manifold's relabeling table, maps basis row c to
    row d_c.  A fixed row goes to the symmetric block, a pair (c, d) to
    (e_c + e_d)/sqrt(2) and (e_c - e_d)/sqrt(2); columns follow c.  The
    exchange must commute with the generator (checked to 1e-9 relative).
    """
    _require_generator(generator)
    i, j = exchange
    if not (_is_int(i) and _is_int(j) and sorted((i, j)) in ([1, 2], [1, 3], [2, 3])):
        raise ValueError(f"exchange must name two distinct cavities, got {exchange}")
    perm = [1, 2, 3]
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    rows = generator.manifold.images(tuple(perm))
    mat = generator.matrix
    if not np.max(np.abs(mat[np.ix_(rows, rows)] - mat)) <= \
            1e-9 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"exchange {exchange} does not commute with this generator")
    c = np.arange(len(rows))
    # each fixed row and each pair's lower row leads a symmetric column
    lead, pair = c[rows >= c], c[rows > c]
    rt = 1.0 / math.sqrt(2.0)
    sym = np.zeros((len(rows), lead.size))
    col = np.arange(lead.size)
    sym[lead, col] = sym[rows[lead], col] = np.where(rows[lead] == lead, 1.0, rt)
    asym = np.zeros((len(rows), pair.size))
    col = np.arange(pair.size)
    asym[pair, col], asym[rows[pair], col] = rt, -rt
    return project_onto(generator, sym), project_onto(generator, asym)


def permutation_symmetric_block(generator: Generator) -> Block:
    """Compression onto the subspace symmetric under all cavity relabelings.

    Spanned by the normalized orbit sums of basis states, one column per
    orbit of `Manifold.orbits` in its numbering; invariant for both modes
    because relabeling cavities is a symmetry of the dynamics.
    """
    manifold = generator.manifold
    states = np.zeros((manifold.dim, manifold.orbits.max() + 1))
    states[np.arange(manifold.dim), manifold.orbits] = 1.0
    states /= np.linalg.norm(states, axis=0)
    return project_onto(generator, states)
