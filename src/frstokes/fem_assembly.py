"""P1 finite element assembly on the unit square.

Assembles stiffness, consistent mass and lumped (vertex-quadrature) mass
matrices over all mesh nodes as ``scipy.sparse`` CSR matrices (the lumped
mass is a diagonal one), load vectors by one degree-4 triangle quadrature
rule, and the L2 projection onto the space V_h of continuous piecewise
linears vanishing on the boundary.  A P1 field is the float array of its
values at the mesh nodes, and every reader of one checks that it has one
value per node.  :func:`mesh_operator` memoizes the assembled operators on
the mesh, so the runs on one mesh assemble once, and it alone cuts the
interior block, the operator on V_h.  The realization of initial data is
memoized there too, keyed by the :class:`InitialData` value, so equal
data are projected once per mesh.  Also defines the problem description
consumed by the time steppers: fractional order alpha, damping gamma, a
Lipschitz nonlinearity and the initial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .mesh import (TriMesh, _count, _flag, _nodal_values, _real, _signed_areas,
                   evaluate_p1)
from .sparse_linalg import cg_solve

__all__ = [
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


def _triangle_geometry(mesh: TriMesh):
    """Areas and P1 shape-function gradients, vectorized over triangles."""
    p = np.take(mesh.nodes, mesh.triangles, axis=0)  # (m, 3, 2)
    areas = _signed_areas(p)
    if np.any(areas <= 0):
        raise ValueError("degenerate or misoriented triangle in assembly")
    x = p[..., 0]
    y = p[..., 1]
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    area2 = 2 * areas[:, None]
    grad = np.empty((len(x), 3, 2))
    grad[:, :, 0] = (y[:, nxt] - y[:, prv]) / area2
    grad[:, :, 1] = (x[:, prv] - x[:, nxt]) / area2
    return areas, grad


def _scatter_symmetric(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum the (m, 3, 3) element matrices into one CSR matrix over all nodes."""
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Stiffness matrix (grad v, grad w) over all nodes, as every builder
    here: :func:`mesh_operator` cuts the interior block.

    Entries that sum to exactly zero (the couplings across the diagonals of
    the right triangles) are not stored, so products with A skip them.
    """
    areas, grad = _triangle_geometry(mesh)
    local = areas[:, None, None] * np.einsum("tid,tjd->tij", grad, grad)
    mat = _scatter_symmetric(mesh, local)
    mat.eliminate_zeros()
    return mat


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent mass matrix (v, w) over all nodes."""
    local = mesh.triangle_areas()[:, None, None] * _LOCAL_MASS[None, :, :]
    return _scatter_symmetric(mesh, local)


def assemble_lumped_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Diagonal mass from vertex quadrature: D_ii = sum of |K|/3 over K at i,
    for every node i; row for row, the row sums of the consistent mass matrix.
    """
    diag = np.zeros(mesh.n_nodes)
    np.add.at(diag, mesh.triangles.ravel(), np.repeat(mesh.triangle_areas() / 3.0, 3))
    return sp.diags(diag, format="csr")


def mesh_operator(mesh: TriMesh, kind: str, full: bool = False):
    """Operator ``kind`` on V_h, or over all nodes if ``full``, memoized on the mesh.

    ``kind`` is ``"stiffness"``, ``"mass"`` or ``"lumped_mass"``.  A full
    request calls ``assemble_<kind>(mesh)``; an interior one cuts the block
    of the interior nodes from the memoized full matrix, the one place an
    operator is restricted to V_h.  Later requests return the same object,
    whose arrays are read-only.  The memo lives and dies with the mesh.
    """
    full = _flag("full", full)
    memo = mesh._memo
    if (kind, full) not in memo:
        if full:
            assemble = {"stiffness": assemble_stiffness, "mass": assemble_mass,
                        "lumped_mass": assemble_lumped_mass}.get(kind)
            if assemble is None:
                raise ValueError(f"unknown operator kind {kind!r}")
            op = assemble(mesh)
        else:
            idx = mesh.interior_nodes
            op = mesh_operator(mesh, kind, full=True)[idx][:, idx]
        for arr in (op.data, op.indices, op.indptr):
            arr.setflags(write=False)
        memo[kind, full] = op
    return memo[kind, full]


def _quadrature(mesh: TriMesh, fn):
    """Yield (barycentric row, weight, fn at that point of every triangle)
    for each point of the quadrature rule; ``fn`` is vectorized."""
    p = np.take(mesh.nodes, mesh.triangles, axis=0)  # (m, 3, 2)
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


def l2_project(mesh: TriMesh, g) -> FloatArray:
    """Nodal values of the L2 projection of g onto V_h (boundary values zero)."""
    values = np.zeros(mesh.n_nodes)
    if mesh.n_interior:
        b = load_vector(mesh, g)[mesh.interior_nodes]
        values[mesh.interior_nodes] = cg_solve(mesh_operator(mesh, "mass"), b)
    return values


def l2_norm(mesh: TriMesh, fld) -> float:
    """L2(Omega) norm of a P1 field, via the full-node consistent mass."""
    vals = _nodal_values(mesh, fld)
    M = mesh_operator(mesh, "mass", full=True)
    return float(np.sqrt(max(vals.dot(M @ vals), 0.0)))


def l2_error_vs_reference(coarse: tuple[TriMesh, FloatArray],
                          fine: tuple[TriMesh, FloatArray]) -> float:
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


def _zero(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def zero_source() -> Nonlinearity:
    return Nonlinearity(_zero, 0.0, "zero")


@dataclass(frozen=True)
class InitialData:
    """The initial datum u0 of a run, as a value: ``case`` picks the function.

    * ``"a"``: u0(x, y) = x y (1-x) (1-y), a smooth bump vanishing on the
      boundary;
    * ``"b"``: the indicator of (0, 1/2] x (0, 1), discontinuous along x = 1/2;
    * ``"mode"``: sin(k pi x) sin(l pi y), the only case that reads the
      positive integers ``k`` and ``l``.

    Construction rejects any other case, any k or l that is not a
    positive integer, and k or l other than 1 outside ``"mode"``, so that
    equal functions are equal values.
    """

    case: str = "a"
    k: int = 1
    l: int = 1

    def __post_init__(self):
        if self.case not in ("a", "b", "mode"):
            raise ValueError(f"unknown case {self.case!r}")
        object.__setattr__(self, "k", _count("k", self.k))
        object.__setattr__(self, "l", _count("l", self.l))
        if self.case != "mode" and (self.k, self.l) != (1, 1):
            raise ValueError(f"k and l apply to case 'mode' only, got k={self.k}, "
                             f"l={self.l} for case {self.case!r}")

    def sample(self, x, y):
        if self.case == "a":
            return x * y * (1.0 - x) * (1.0 - y)
        if self.case == "b":
            return np.where(np.asarray(x, dtype=float) <= 0.5, 1.0, 0.0)
        return np.sin(self.k * np.pi * x) * np.sin(self.l * np.pi * y)

    def field(self, mesh: TriMesh) -> FloatArray:
        """Nodal values of u0 in V_h, a fresh copy of the realization memoized
        on the mesh under the value, so equal data are realized once per mesh.

        Cases "a" and "b" are L2-projected.  A mode is interpolated at the
        nodes with its boundary values set to zero, which keeps it exactly
        proportional to a discrete eigenvector on the symmetric family, as
        the scalar mode-reduction checks rely on.
        """
        values = mesh._memo.get(self)
        if values is None:
            if self.case == "mode":
                values = np.where(mesh.boundary_mask, 0.0, self.sample(*mesh.nodes.T))
            else:
                values = l2_project(mesh, self.sample)
            mesh._memo[self] = values
        return values.copy()


# The range of each number of a ProblemSpec, as a bound of ``mesh._real``.
_PROBLEM_BOUNDS = {"alpha": "in (0, 1)", "gamma": "> 0", "T": "> 0"}


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data for d_t u - (1 + gamma d_t^alpha) Lap u = f(u).

    alpha lies in (0, 1), gamma and T are > 0 (all three stored as floats),
    the source is a :class:`Nonlinearity` whose Lipschitz constant is a
    finite number >= 0, and the initial data are an :class:`InitialData`,
    by default the smooth bump ``InitialData("a")``.
    """

    alpha: float
    gamma: float
    T: float
    nonlinearity: Nonlinearity = field(default_factory=sqrt_one_plus_u2)
    initial_data: InitialData = InitialData()

    def __post_init__(self):
        for name, bound in _PROBLEM_BOUNDS.items():
            object.__setattr__(self, name, _real(name, getattr(self, name), bound))
        for name, kind in (("nonlinearity", Nonlinearity), ("initial_data", InitialData)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        _real("Lipschitz constant", self.nonlinearity.lipschitz, ">= 0")
