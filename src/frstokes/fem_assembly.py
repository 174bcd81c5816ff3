"""P1 finite element assembly on the unit square.

Assembles stiffness, consistent mass and lumped (vertex-quadrature) mass
matrices as ``scipy.sparse`` CSR matrices (the lumped mass is a diagonal
one), load vectors by one degree-4 triangle quadrature rule, and the L2
projection onto the space V_h of continuous piecewise linears vanishing on
the boundary.  Every L2 measure checks that its nodal vector has one value
per node.  :func:`mesh_operator` memoizes the assembled operators on
the mesh, so the runs on one mesh assemble once.  The default realization
of initial data is memoized there too, under the data instance: runs that
share one :class:`InitialData` object project it once per mesh, while two
equal instances project twice (the harness holds one instance per case).
Also defines the problem description consumed by the time steppers:
fractional order alpha, damping gamma, a Lipschitz nonlinearity and an
initial-data descriptor.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .mesh import TriMesh, _nodal_values, _real, evaluate_p1
from .sparse_linalg import cg_solve

__all__ = [
    "NodalField",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_lumped_mass",
    "mesh_operator",
    "load_vector",
    "l2_project",
    "l2_norm",
    "l2_error_vs_reference",
    "l2_error_vs_function",
    "Nonlinearity",
    "sqrt_one_plus_u2",
    "zero_source",
    "InitialData",
    "CaseAInitialData",
    "CaseBInitialData",
    "SingleModeInitialData",
    "initial_data_for_case",
    "ProblemSpec",
]

FloatArray = npt.NDArray[np.float64]

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

# The 6-point rule of Dunavant (IJNME 21, 1985), exact for polynomials of
# degree 4: barycentric coordinates and weights summing to one (scaled by
# the triangle area on use).  All points are interior, so an integrand that
# jumps along a mesh line, such as the case-b indicator, is integrated exactly.
_B1, _A1, _W1 = 0.091576213509771, 0.816847572980459, 0.109951743655322
_B2, _A2, _W2 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_QUAD_BARY = np.array([[_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
                       [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2]])
_QUAD_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


@dataclass(frozen=True)
class NodalField:
    """Nodal values of a P1 function over all mesh nodes."""

    mesh: TriMesh
    values: FloatArray

    def __post_init__(self):
        object.__setattr__(self, "values", _nodal_values(self.mesh, self.values))

    @classmethod
    def zeros(cls, mesh: TriMesh) -> "NodalField":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_interior(cls, mesh: TriMesh, interior_values) -> "NodalField":
        """Embed interior coefficients into a full vector, zero trace."""
        inner = np.asarray(interior_values, dtype=float)
        if inner.shape != (mesh.n_interior,):
            raise ValueError(f"{inner.shape[0] if inner.ndim else 0} values for "
                             f"{mesh.n_interior} interior nodes")
        vals = np.zeros(mesh.n_nodes)
        vals[mesh.interior_nodes] = inner
        return cls(mesh, vals)

    @classmethod
    def interpolate(cls, mesh: TriMesh, fn) -> "NodalField":
        return cls(mesh, np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float))

    def interior(self) -> FloatArray:
        return self.values[self.mesh.interior_nodes]


def _triangle_geometry(mesh: TriMesh):
    """Areas and P1 shape-function gradients, vectorized over triangles."""
    p = mesh.nodes[mesh.triangles]  # (m, 3, 2)
    x = p[..., 0]
    y = p[..., 1]
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    if np.any(area2 <= 0):
        raise ValueError("degenerate or misoriented triangle in assembly")
    grad = np.empty((len(x), 3, 2))
    grad[:, :, 0] = (y[:, nxt] - y[:, prv]) / area2[:, None]
    grad[:, :, 1] = (x[:, prv] - x[:, nxt]) / area2[:, None]
    return 0.5 * area2, grad


def _interior_block(full: sp.csr_matrix, mesh: TriMesh) -> sp.csr_matrix:
    idx = mesh.interior_nodes
    return full[idx][:, idx]


def _scatter_symmetric(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum the (m, 3, 3) element matrices into one CSR matrix over all nodes."""
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def assemble_stiffness(mesh: TriMesh, full: bool = False) -> sp.csr_matrix:
    """Stiffness matrix (grad v, grad w); interior DOFs unless ``full``.

    Entries that sum to exactly zero (the couplings across the diagonals of
    the right triangles) are not stored, so products with A skip them.
    """
    areas, grad = _triangle_geometry(mesh)
    local = areas[:, None, None] * np.einsum("tid,tjd->tij", grad, grad)
    mat = _scatter_symmetric(mesh, local)
    mat.eliminate_zeros()
    return mat if full else _interior_block(mat, mesh)


def assemble_mass(mesh: TriMesh, full: bool = False) -> sp.csr_matrix:
    """Consistent mass matrix (v, w); interior DOFs unless ``full``."""
    areas = mesh.triangle_areas()
    local = areas[:, None, None] * _LOCAL_MASS[None, :, :]
    mat = _scatter_symmetric(mesh, local)
    return mat if full else _interior_block(mat, mesh)


def assemble_lumped_mass(mesh: TriMesh, full: bool = False) -> sp.csr_matrix:
    """Diagonal mass from vertex quadrature: D_ii = sum of |K|/3 over K at i.

    Row-for-row this equals the row sums of the consistent mass matrix.
    """
    areas = mesh.triangle_areas()
    diag = np.zeros(mesh.n_nodes)
    np.add.at(diag, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
    return sp.diags(diag if full else diag[mesh.interior_nodes], format="csr")


def _read_only(op: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (op.data, op.indices, op.indptr):
        arr.setflags(write=False)
    return op


def mesh_operator(mesh: TriMesh, kind: str, full: bool = False):
    """The operator ``assemble_<kind>(mesh, full)`` returns, memoized on the mesh.

    ``kind`` is ``"stiffness"``, ``"mass"`` or ``"lumped_mass"``.  The first
    request assembles it (an interior block is cut from the memoized full
    matrix, as ``assemble_*`` does); later requests return the same object,
    whose arrays are read-only.  The memo lives and dies with the mesh.
    """
    key = (kind, bool(full))
    memo = mesh._memo
    if key not in memo:
        if kind == "lumped_mass":
            op = assemble_lumped_mass(mesh, full=full)
        elif kind not in ("stiffness", "mass"):
            raise ValueError(f"unknown operator kind {kind!r}")
        elif full:
            assemble = assemble_stiffness if kind == "stiffness" else assemble_mass
            op = assemble(mesh, full=True)
        else:
            op = _interior_block(mesh_operator(mesh, kind, full=True), mesh)
        memo[key] = _read_only(op)
    return memo[key]


def _quadrature(mesh: TriMesh, fn):
    """Yield (barycentric row, weight, fn at that point of every triangle)
    for each point of the quadrature rule; ``fn`` is vectorized."""
    p = mesh.nodes[mesh.triangles]  # (m, 3, 2)
    for bary, weight in zip(_QUAD_BARY, _QUAD_WEIGHTS):
        pts = np.einsum("j,mjd->md", bary, p)
        yield bary, weight, np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)


def load_vector(mesh: TriMesh, g) -> FloatArray:
    """Full-node load b_i ~ integral of g * phi_i, by triangle quadrature.

    ``g`` must be vectorized over coordinate arrays.
    """
    areas = mesh.triangle_areas()
    b = np.zeros(mesh.n_nodes)
    for bary, weight, gvals in _quadrature(mesh, g):
        contrib = (weight * areas * gvals)[:, None] * bary[None, :]
        np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return b


def l2_project(mesh: TriMesh, g) -> NodalField:
    """L2 projection of g onto V_h (boundary values zero)."""
    if mesh.n_interior == 0:
        return NodalField.zeros(mesh)
    b = load_vector(mesh, g)[mesh.interior_nodes]
    M = mesh_operator(mesh, "mass")
    return NodalField.from_interior(mesh, cg_solve(M, b))


def l2_norm(mesh: TriMesh, fld) -> float:
    """L2(Omega) norm of a P1 field, via the full-node consistent mass."""
    vals = _nodal_values(mesh, fld)
    M = mesh_operator(mesh, "mass", full=True)
    return float(np.sqrt(max(vals.dot(M @ vals), 0.0)))


def l2_error_vs_reference(coarse: tuple[TriMesh, NodalField],
                          fine: tuple[TriMesh, NodalField]) -> float:
    """L2 distance between a coarse-mesh field and a finer reference.

    The coarse P1 function is evaluated at the fine nodes (for the same
    mesh this degenerates to a direct nodal difference) and the difference
    is measured in the fine mesh's consistent mass norm.
    """
    cmesh, cfield = coarse
    fmesh, ffield = fine
    fvals = _nodal_values(fmesh, ffield)
    cvals = _nodal_values(cmesh, cfield)
    if cmesh is fmesh or (
        cmesh.n_nodes == fmesh.n_nodes and np.array_equal(cmesh.nodes, fmesh.nodes)
    ):
        diff = cvals - fvals
    else:
        diff = evaluate_p1(cmesh, cvals, fmesh.nodes) - fvals
    return l2_norm(fmesh, diff)


def l2_error_vs_function(mesh: TriMesh, fld, fn) -> float:
    """L2 distance between a P1 field and a smooth function, by quadrature."""
    v = _nodal_values(mesh, fld)[mesh.triangles]  # (m, 3)
    areas = mesh.triangle_areas()
    acc = 0.0
    for bary, weight, fvals in _quadrature(mesh, fn):
        diff = v.dot(bary) - fvals
        acc += weight * np.sum(areas * diff**2)
    return float(np.sqrt(max(acc, 0.0)))


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise source f(u) with a known Lipschitz constant."""

    fn: callable
    lipschitz: float
    name: str = "custom"

    def __call__(self, u):
        return self.fn(u)


def sqrt_one_plus_u2() -> Nonlinearity:
    return Nonlinearity(lambda u: np.sqrt(1.0 + u * u), 1.0, "sqrt(1+u^2)")


def zero_source() -> Nonlinearity:
    return Nonlinearity(lambda u: np.zeros_like(np.asarray(u, dtype=float)), 0.0, "zero")


class InitialData:
    """Initial condition descriptor: a sampler plus its V_h realization.

    An instance stands for one fixed function.  Its default realization is
    memoized on each mesh under the instance itself, so two instances never
    share an entry.
    """

    def sample(self, x, y):
        raise NotImplementedError

    def field(self, mesh: TriMesh) -> NodalField:
        """Default realization: L2 projection onto V_h, once per mesh."""
        realized = mesh._memo.setdefault("initial_data", weakref.WeakKeyDictionary())
        values = realized.get(self)
        if values is None:
            values = realized[self] = l2_project(mesh, self.sample).values
        return NodalField(mesh, values.copy())


class CaseAInitialData(InitialData):
    """u0(x, y) = x y (1-x) (1-y), a smooth bump vanishing on the boundary."""

    def sample(self, x, y):
        return x * y * (1.0 - x) * (1.0 - y)


class CaseBInitialData(InitialData):
    """u0 = indicator of (0, 1/2] x (0, 1); discontinuity along x = 1/2."""

    def sample(self, x, y):
        return np.where(np.asarray(x, dtype=float) <= 0.5, 1.0, 0.0)


class SingleModeInitialData(InitialData):
    """u0 = sin(k pi x) sin(l pi y), realized as its nodal interpolant.

    Interpolation (rather than projection) keeps the discrete data exactly
    proportional to a discrete eigenvector on the symmetric family, which
    is what the scalar mode-reduction checks rely on.
    """

    def __init__(self, k: int = 1, l: int = 1):
        self.k = int(k)
        self.l = int(l)

    def sample(self, x, y):
        return np.sin(self.k * np.pi * x) * np.sin(self.l * np.pi * y)

    def field(self, mesh: TriMesh) -> NodalField:
        fld = NodalField.interpolate(mesh, self.sample)
        vals = fld.values.copy()
        vals[mesh.boundary_mask] = 0.0
        return NodalField(mesh, vals)


def initial_data_for_case(case: str) -> InitialData:
    if case == "a":
        return CaseAInitialData()
    if case == "b":
        return CaseBInitialData()
    if case == "mode":
        return SingleModeInitialData(1, 1)
    raise ValueError(f"unknown problem case {case!r}")


# The range of each number of a ProblemSpec, as a bound of ``mesh._real``.
_PROBLEM_BOUNDS = {"alpha": "in (0, 1)", "gamma": "> 0", "T": "> 0"}


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data for d_t u - (1 + gamma d_t^alpha) Lap u = f(u).

    alpha lies in (0, 1), gamma and T are > 0 (all three stored as floats),
    and the Lipschitz constant of f is a finite number >= 0.
    """

    alpha: float
    gamma: float
    T: float
    nonlinearity: Nonlinearity = field(default_factory=sqrt_one_plus_u2)
    initial_data: InitialData = field(default_factory=CaseAInitialData)

    def __post_init__(self):
        for name, bound in _PROBLEM_BOUNDS.items():
            object.__setattr__(self, name, _real(name, getattr(self, name), bound))
        _real("Lipschitz constant", self.nonlinearity.lipschitz, ">= 0")
