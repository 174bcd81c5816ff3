"""Structured P1 triangulations of the unit square.

Two mesh families over Omega = (0,1)^2 are provided:

* ``symmetric(M)``: M x M uniform squares, each split along the diagonal
  from its lower-left to its upper-right corner.
* ``nonsymmetric(M)``: column widths alternate 4/(3M) and 2/(3M) starting
  with the wide one, 3M/4 uniform rows, same diagonal split.  Requires
  M divisible by 4.

Nodes are ordered lexicographically by (y, x), triangles are oriented
counterclockwise, and meshes are immutable once built.  Operators that
depend only on the mesh are memoized on it (see ``fem_assembly``), so they
are built once and live exactly as long as the mesh.

Needing numpy alone, this module also holds the package's input rules, a
count, a finite real in a range and a flag (``_count``, ``_real`` and
``_flag``), so every entry point accepts the same numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

__all__ = [
    "TriMesh",
    "build_symmetric_mesh",
    "build_nonsymmetric_mesh",
    "evaluate_p1",
    "format_mesh_text",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

# Points this far outside [0,1] are still accepted by evaluate_p1 and
# clamped onto the boundary; anything farther is a hard error.
_DOMAIN_TOL = 1e-12


class OutOfDomainError(ValueError):
    """Raised when a query point lies outside the meshed domain."""


@dataclass(frozen=True)
class TriMesh:
    """A conforming triangulation of the unit square.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array of vertex coordinates.
    triangles : (n_tris, 3) int array of CCW vertex indices.
    boundary_mask : (n_nodes,) bool array, True on the boundary.
    family : human-readable family tag, e.g. ``"symmetric(8)"``.
    h : maximum triangle diameter.
    x_breaks, y_breaks : grid lines of the underlying tensor layout.

    The private ``_memo`` dict holds read-only operators and data derived
    from the mesh alone; it is filled on first use by ``fem_assembly``.
    """

    nodes: FloatArray
    triangles: IntArray
    boundary_mask: npt.NDArray[np.bool_]
    family: str
    h: float
    x_breaks: FloatArray
    y_breaks: FloatArray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        # the memo only caches derived data, and may hold weak references,
        # which cannot be pickled: a copy starts without it
        return {**self.__dict__, "_memo": {}}

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(~self.boundary_mask))

    @property
    def interior_nodes(self) -> IntArray:
        """Indices of interior nodes in lexicographic order."""
        return np.flatnonzero(~self.boundary_mask)

    def triangle_areas(self) -> FloatArray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _build_tensor_mesh(x_breaks: FloatArray, y_breaks: FloatArray, family: str) -> TriMesh:
    nx = len(x_breaks) - 1
    ny = len(y_breaks) - 1
    xs, ys = np.meshgrid(x_breaks, y_breaks)  # row index = y, col index = x
    nodes = np.column_stack([xs.ravel(), ys.ravel()])

    def nid(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return iy * (nx + 1) + ix

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix = ix.ravel()
    iy = iy.ravel()
    ll = nid(ix, iy)
    lr = nid(ix + 1, iy)
    ul = nid(ix, iy + 1)
    ur = nid(ix + 1, iy + 1)
    # Each cell is split along the lower-left -> upper-right diagonal.
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    gx, gy = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    boundary = (gx == 0) | (gx == nx) | (gy == 0) | (gy == ny)
    boundary_mask = boundary.ravel()

    dx = np.diff(x_breaks)
    dy = np.diff(y_breaks)
    h = float(np.sqrt(dx.max() ** 2 + dy.max() ** 2))

    mesh = TriMesh(
        nodes=_freeze(nodes),
        triangles=_freeze(triangles),
        boundary_mask=_freeze(boundary_mask),
        family=family,
        h=h,
        x_breaks=_freeze(np.asarray(x_breaks, dtype=float)),
        y_breaks=_freeze(np.asarray(y_breaks, dtype=float)),
    )
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        raise ValueError(f"{family}: non-positive triangle area")
    if abs(areas.sum() - 1.0) > 1e-12:
        raise ValueError(f"{family}: triangle areas do not tile the unit square")
    return mesh


# The input rules, one wording each: numpy integers and reals pass as
# Python's do, and a bool is never a number.

def _is_count(value, least: int = 1) -> bool:
    """True for an integer >= ``least`` that is not a bool."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer >= ``least``, such as 2.5, 4.0, True or "4"."""
    if not _is_count(value, least):
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


# The ranges a real input is held to, keyed by the words that state them.
_BOUNDS = {"": lambda x: True, "> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0,
           "in (0, 1)": lambda x: 0 < x < 1}


def _real(name: str, value, bound: str = "") -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    real number in ``bound`` (a key of ``_BOUNDS``), such as not nan, inf,
    True or "1"."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and _BOUNDS[bound](value)):
        raise ValueError(f"{name} must be a finite number {bound}".rstrip()
                         + f", got {value!r}")
    return float(value)


def _flag(name: str, value) -> bool:
    """``value`` as a bool; ValueError naming ``name`` unless it is a Python
    or numpy bool, such as the string "false" or the number 0."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def build_symmetric_mesh(M: int) -> TriMesh:
    """Uniform mesh of 2*M^2 right triangles with legs of length 1/M."""
    M = _count("M", M)
    breaks = np.arange(M + 1) / M
    return _build_tensor_mesh(breaks, breaks, f"symmetric({M})")


def build_nonsymmetric_mesh(M: int) -> TriMesh:
    """Mesh with alternating wide/narrow columns and 3M/4 uniform rows.

    Column widths alternate 4/(3M), 2/(3M) starting with the wide one, so
    pairs of columns span 2/M and the line x = 1/2 is a grid line for every
    M divisible by 4 (which is required).
    """
    if not _is_count(M, least=4) or M % 4 != 0:
        raise ValueError("M must be a positive multiple of 4 on the nonsymmetric "
                         f"family, got {M!r}")
    k = np.arange(M + 1)
    # Break k = (wide count)*4/(3M) + (narrow count)*2/(3M); computed
    # directly per index so that the midpoint break is exactly 0.5.
    x_breaks = (k // 2) * (2.0 / M) + (k % 2) * (4.0 / (3.0 * M))
    x_breaks[-1] = 1.0
    ny = 3 * M // 4
    y_breaks = np.arange(ny + 1) / ny
    return _build_tensor_mesh(x_breaks, y_breaks, f"nonsymmetric({M})")


def _cell_of(breaks: FloatArray, coord: FloatArray) -> IntArray:
    idx = np.searchsorted(breaks, coord, side="right") - 1
    return np.clip(idx, 0, len(breaks) - 2)


def _nodal_values(mesh: TriMesh, field) -> FloatArray:
    """The nodal vector of ``field`` (an array, or an object with a
    ``values`` attribute holding one) as floats; ValueError unless it has
    one value per mesh node."""
    values = np.asarray(getattr(field, "values", field), dtype=float)
    if values.shape != (mesh.n_nodes,):
        raise ValueError(f"{values.shape[0] if values.ndim else 0} values for "
                         f"{mesh.n_nodes} nodes")
    return values


def evaluate_p1(mesh: TriMesh, field, points) -> np.ndarray | float:
    """Evaluate a P1 nodal field at arbitrary points of the closed square.

    ``field`` may be a full-length nodal value array or any object with a
    ``values`` attribute holding one.  ``points`` is an (n, 2) array or a
    single (x, y) pair.  Points on shared edges are resolved to either
    neighbor; the interpolant is continuous so the value is the same.  A
    point farther than ``_DOMAIN_TOL`` outside the square, or with a NaN
    coordinate, raises :class:`OutOfDomainError`.
    """
    values = _nodal_values(mesh, field)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x = pts[:, 0]
    y = pts[:, 1]
    # stated as "inside", so that NaN, which fails every comparison, is out
    lo, hi = -_DOMAIN_TOL, 1 + _DOMAIN_TOL
    if not np.all((lo <= x) & (x <= hi) & (lo <= y) & (y <= hi)):
        raise OutOfDomainError("query point outside the unit square")
    x = np.clip(x, 0.0, 1.0)
    y = np.clip(y, 0.0, 1.0)

    xb = mesh.x_breaks
    yb = mesh.y_breaks
    nxp1 = len(xb)
    ix = _cell_of(xb, x)
    iy = _cell_of(yb, y)
    sx = (x - xb[ix]) / (xb[ix + 1] - xb[ix])
    sy = (y - yb[iy]) / (yb[iy + 1] - yb[iy])

    base = iy * nxp1 + ix
    v00 = values[base]
    v10 = values[base + 1]
    v01 = values[base + nxp1]
    v11 = values[base + nxp1 + 1]
    # Lower triangle (ll, lr, ur) where sy <= sx, upper (ll, ur, ul) above.
    lower = v00 + (v10 - v00) * sx + (v11 - v10) * sy
    upper = v00 + (v11 - v01) * sx + (v01 - v00) * sy
    out = np.where(sy <= sx, lower, upper)
    return float(out[0]) if single else out


def format_mesh_text(mesh: TriMesh) -> str:
    """Plain-text export: header, node lines ``x y flag``, triangle lines."""
    lines = [f"nodes {mesh.n_nodes} triangles {mesh.n_triangles}"]
    for (x, y), flag in zip(mesh.nodes, mesh.boundary_mask):
        lines.append(f"{x:.17g} {y:.17g} {int(flag)}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"
