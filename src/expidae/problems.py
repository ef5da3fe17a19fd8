"""Benchmark problem builders.

Three semidiscrete constrained systems are provided:

``dynbc``
    Heat equation on the unit square with a nonlinear dynamic boundary
    condition on the bottom edge, written as a coupled bulk/boundary
    system with the trace constraint u|_edge = p.  Bilinear (Q1)
    elements on a uniform N x N grid, whose mass and stiffness matrices
    are Kronecker products of the 1-d P1 matrices (exact on a tensor
    grid); homogeneous Dirichlet data on the remaining boundary
    (corners included).

``nonsym``
    Two coupled 1-d diffusion equations whose spatial operator is
    non-symmetric, with a time-dependent coupling constraint
    u(t,1) - v(t,1) = e^{2t} - 1 and cubic damping.  Linear elements,
    Dirichlet condition at x = 0 only.

``toy``
    Small random system with a manufactured exact solution
    (polynomial plus exponential in time); the forcing and constraint
    data are defined by substitution, so the builder returns the exact
    trajectory for oracle tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .integrators import ConstrainedSystem
from .linalg import canonical_csr, spmv

__all__ = [
    "MeshConfig",
    "ToyConfig",
    "Problem",
    "build_dynbc",
    "build_nonsym",
    "build_toy",
    "PROBLEMS",
    "build_problem",
    "parse_config_file",
]


# dynbc coefficients: bulk diffusivity and boundary reaction.
KAPPA = 0.02
ALPHA = 1.0


@dataclass(frozen=True)
class MeshConfig:
    n_cells: int = 32          # mesh parameter N, h = 1/N

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("n_cells must be at least 4")


@dataclass(frozen=True)
class ToyConfig:
    n: int = 40
    m: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.m < self.n <= 200:
            raise ValueError("toy problem requires m < n <= 200")


@dataclass
class Problem:
    """A built system together with its initial value."""

    system: ConstrainedSystem
    u0: np.ndarray
    name: str
    config: object
    exact: object = None       # callable t -> exact state, toy only
    mesh_h: float | None = None


def mass_matrix_1d(n_cells: int) -> sp.csr_matrix:
    """P1 mass matrix on [0, 1] over all n_cells + 1 nodes."""
    h = 1.0 / n_cells
    main = np.full(n_cells + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n_cells, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def stiffness_matrix_1d(n_cells: int) -> sp.csr_matrix:
    """P1 stiffness matrix on [0, 1] over all n_cells + 1 nodes."""
    h = 1.0 / n_cells
    main = np.full(n_cells + 1, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n_cells, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def build_dynbc(cfg: MeshConfig = MeshConfig()) -> Problem:
    """Heat equation with a nonlinear dynamic boundary condition.

    Unknowns are the bulk values on the interior plus bottom-edge nodes
    and the boundary variable p on the bottom-edge nodes; the corner
    nodes belong to the Dirichlet part.  The constraint couples the
    trace of u to p row by row, so g vanishes identically.

    On the tensor grid the Q1 matrices are exactly Kronecker products
    of the 1-d P1 matrices: M = M_y (x) M_x and K = M_y (x) K_x +
    K_y (x) M_x.
    """
    n = cfg.n_cells
    h = 1.0 / n

    # Free bulk nodes: 1 <= i <= n-1 in x, 0 <= j <= n-1 in y (bottom
    # edge included, top edge Dirichlet), x running fastest, so the
    # bottom-edge dofs come first.  The x blocks are the edge blocks.
    M_1d = mass_matrix_1d(n)
    K_1d = stiffness_matrix_1d(n)
    M_edge, K_edge = M_1d[1:n, 1:n], K_1d[1:n, 1:n]
    M_y, K_y = M_1d[:n, :n], K_1d[:n, :n]
    M_bulk = sp.kron(M_y, M_edge, format="csr")
    K_bulk = sp.kron(M_y, K_edge, format="csr") + sp.kron(K_y, M_edge, format="csr")
    n_edge = n - 1
    n_bulk = n * n_edge

    mass = sp.block_diag([M_bulk, M_edge], format="csr")
    stiffness = sp.block_diag([KAPPA * K_bulk, ALPHA * M_edge], format="csr")
    h1_form = sp.block_diag([K_bulk + M_bulk, K_edge + M_edge], format="csr")

    # Trace rows: bottom-edge bulk dofs are exactly the first n-1.
    rows = np.concatenate([np.arange(n_edge), np.arange(n_edge)])
    cols = np.concatenate([np.arange(n_edge), n_bulk + np.arange(n_edge)])
    vals = np.concatenate([np.ones(n_edge), -np.ones(n_edge)])
    constraint = sp.coo_matrix(
        (vals, (rows, cols)), shape=(n_edge, n_bulk + n_edge)
    ).tocsr()

    edge_x = h * np.arange(1, n)
    sin_edge = np.sin(2.0 * np.pi * edge_x)
    zeros_bulk = np.zeros(n_bulk)
    zeros_edge = np.zeros(n_edge)

    def forcing(t, x):
        p = x[n_bulk:]
        nodal = 3.0 * np.cos(2.0 * np.pi * t) - sin_edge - p**3
        return np.concatenate([zeros_bulk, spmv(M_edge, nodal)])

    g = lambda t: zeros_edge
    gdot = lambda t: zeros_edge

    system = ConstrainedSystem(
        mass, stiffness, constraint, forcing, g, gdot, h1_form=h1_form
    )

    xs = np.tile(edge_x, n)
    ys = np.repeat(h * np.arange(n), n_edge)
    u_bulk0 = np.sin(np.pi * xs) * np.cos(2.5 * np.pi * ys)
    p0 = u_bulk0[:n_edge].copy()  # trace of the bulk field, consistent by construction
    u0 = np.concatenate([u_bulk0, p0])
    return Problem(system, u0, "dynbc", cfg, mesh_h=h)


# Terms of the nonsym initial series summed at once: a block is one
# len(x) x SERIES_BLOCK array, so memory stays O(len(x)) for any length.
SERIES_BLOCK = 128


def nonsym_initial_profile(x: np.ndarray, terms: int, first: int = 1) -> np.ndarray:
    """The terms k = first..terms of the series sum_k sin(k pi x) / k^1.55, summed at x."""
    total = np.zeros(len(x))
    for start in range(first, terms + 1, SERIES_BLOCK):
        k = np.arange(start, min(start + SERIES_BLOCK, terms + 1))
        total += np.sin(np.outer(x, k * np.pi)) @ (k**-1.55)
    return total


# The largest x whose np.exp(x) is finite.
_EXP_ARG_MAX = math.log(sys.float_info.max)


def _exp(x: float) -> float:
    """np.exp(x) as a float; inf above ``_EXP_ARG_MAX``, without numpy's overflow warning.

    A float, not a numpy scalar, so that a product that overflows is inf
    without a warning too.  ``ConstrainedSystem.g`` and ``gdot`` reject
    the inf by name.
    """
    return math.inf if x > _EXP_ARG_MAX else float(np.exp(x))


def build_nonsym(cfg: MeshConfig = MeshConfig()) -> Problem:
    """Coupled non-symmetric diffusion system on (0, 1)."""
    n = cfg.n_cells
    h = 1.0 / n

    M_full = mass_matrix_1d(n)
    K_full = stiffness_matrix_1d(n)
    free = slice(1, n + 1)  # Dirichlet node at x = 0 only
    M1 = M_full[free, free]
    K1 = K_full[free, free]

    mass = canonical_csr(sp.block_diag([M1, M1], format="csr"))
    stiffness = sp.bmat([[K1, K1], [M1, K1]], format="csr")
    h1_block = K1 + M1
    h1_form = sp.block_diag([h1_block, h1_block], format="csr")

    constraint = sp.coo_matrix(
        ([1.0, -1.0], ([0, 0], [n - 1, 2 * n - 1])), shape=(1, 2 * n)
    ).tocsr()

    def forcing(t, x):
        return -spmv(mass, x**3)

    g = lambda t: np.array([_exp(2.0 * t) - 1.0])
    gdot = lambda t: np.array([2.0 * _exp(2.0 * t)])

    system = ConstrainedSystem(
        mass, stiffness, constraint, forcing, g, gdot, h1_form=h1_form
    )

    xs = h * np.arange(1, n + 1)
    # Truncation: from 1000 terms, double the series length until doubling
    # it again moves the nodal values by at most 5e-3, well inside the
    # worst-case tail sum_{k>K} k^-1.55 ~ 0.040 at K = 1000.  Meshes up
    # to h = 1/512 stop at 1000 terms (drift 2.8e-4 at h = 1/64).  The
    # move is the sum of the added terms, so each doubling sums only those.
    terms = 1000
    profile = nonsym_initial_profile(xs, terms)
    while True:
        added = nonsym_initial_profile(xs, 2 * terms, first=terms + 1)
        if np.abs(added).max() <= 5e-3:
            break
        profile += added
        terms *= 2
    u0 = np.concatenate([profile, profile])
    return Problem(system, u0, "nonsym", cfg, mesh_h=h)


def _random_spd(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def build_toy(cfg: ToyConfig = ToyConfig()) -> Problem:
    """Random constrained system with a manufactured exact solution.

    The trajectory x*(t) = p0 + p1 t + p2 t^2 + q e^{-t/2} together
    with a linear-in-time multiplier defines the forcing and the
    constraint data by substitution, so x* solves the system exactly
    and consistently at t = 0.
    """
    rng = np.random.default_rng(cfg.seed)
    n, m = cfg.n, cfg.m

    mass_d = _random_spd(rng, n, 0.5, 2.0)
    stiff_d = _random_spd(rng, n, 0.5, 3.0)

    bmat = rng.standard_normal((m, n)) if m else np.zeros((0, n))
    if m and np.linalg.svd(bmat, compute_uv=False)[-1] < 1e-8:
        raise RuntimeError("sampled constraint matrix is rank deficient")

    rate = -0.5
    p0 = rng.uniform(-1.0, 1.0, n)
    p1 = rng.uniform(-1.0, 1.0, n)
    p2 = rng.uniform(-1.0, 1.0, n)
    q = rng.uniform(-1.0, 1.0, n)
    lam0 = rng.uniform(-1.0, 1.0, m)
    lam1 = rng.uniform(-1.0, 1.0, m)

    def exact(t):
        return p0 + p1 * t + p2 * t * t + q * np.exp(rate * t)

    def exact_rate(t):
        return p1 + 2.0 * p2 * t + rate * q * np.exp(rate * t)

    def forcing(t, x):
        lam = lam0 + lam1 * t
        return mass_d @ exact_rate(t) + stiff_d @ exact(t) + bmat.T @ lam

    g = lambda t: bmat @ exact(t)
    gdot = lambda t: bmat @ exact_rate(t)

    system = ConstrainedSystem(
        sp.csr_matrix(mass_d),
        sp.csr_matrix(stiff_d),
        sp.csr_matrix(bmat),
        forcing,
        g,
        gdot,
        h1_form=sp.csr_matrix(0.5 * (stiff_d + stiff_d.T) + mass_d),
    )
    return Problem(system, exact(0.0), "toy", cfg, exact=exact)


PROBLEMS = {
    "dynbc": (MeshConfig, build_dynbc),
    "nonsym": (MeshConfig, build_nonsym),
    "toy": (ToyConfig, build_toy),
}


def build_problem(name: str, **overrides) -> Problem:
    """Build a registered problem, overriding default config fields."""
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    cfg_cls, builder = PROBLEMS[name]
    known = {f.name: f.type for f in fields(cfg_cls)}
    bad = set(overrides) - set(known)
    if bad:
        raise ValueError(f"unknown config keys for {name}: {sorted(bad)}")
    return builder(cfg_cls(**overrides))


def parse_config_file(path) -> dict:
    """Read a plain key=value file; '#' starts a comment, blanks ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
