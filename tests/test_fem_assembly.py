import dataclasses
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from frstokes.fem_assembly import (
    _QUAD_BARY,
    _QUAD_WEIGHTS,
    InitialData,
    Nonlinearity,
    ProblemSpec,
    assemble_lumped_mass,
    assemble_mass,
    assemble_stiffness,
    l2_error_vs_function,
    l2_error_vs_reference,
    l2_norm,
    l2_project,
    load_vector,
    mesh_operator,
    sqrt_one_plus_u2,
    zero_source,
)
from frstokes.mesh import build_nonsymmetric_mesh, build_symmetric_mesh, evaluate_p1
from frstokes.sparse_linalg import CompositeOperator


def bary_moment(area, powers):
    """Exact integral of a barycentric monomial over a triangle."""
    num = 1
    for a in powers:
        num *= factorial(a)
    return 2.0 * area * num / factorial(sum(powers) + 2)


def dense_fem_matrices(mesh):
    """Reference assembly: plane coefficients by linear solve per triangle."""
    n = mesh.n_nodes
    M = np.zeros((n, n))
    A = np.zeros((n, n))
    mass_local = np.array(
        [[bary_moment(1.0, (2, 0, 0)), bary_moment(1.0, (1, 1, 0)), bary_moment(1.0, (1, 0, 1))],
         [bary_moment(1.0, (1, 1, 0)), bary_moment(1.0, (0, 2, 0)), bary_moment(1.0, (0, 1, 1))],
         [bary_moment(1.0, (1, 0, 1)), bary_moment(1.0, (0, 1, 1)), bary_moment(1.0, (0, 0, 2))]]
    )
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        vand = np.column_stack([np.ones(3), p])
        coef = np.linalg.inv(vand)  # coef[:, i] = (a, bx, by) of basis i
        area = 0.5 * abs(np.linalg.det(p[1:] - p[0]))
        grads = coef[1:, :]
        A[np.ix_(tri, tri)] += area * grads.T @ grads
        M[np.ix_(tri, tri)] += area * mass_local
    return M, A


@pytest.mark.parametrize("mesh", [build_symmetric_mesh(3), build_nonsymmetric_mesh(4)],
                         ids=["symmetric3", "nonsymmetric4"])
def test_assembly_matches_dense_reference(mesh):
    Md, Ad = dense_fem_matrices(mesh)
    assert np.allclose(assemble_mass(mesh).toarray(), Md, atol=1e-14)
    assert np.allclose(assemble_stiffness(mesh).toarray(), Ad, atol=1e-12)
    idx = mesh.interior_nodes
    assert np.allclose(mesh_operator(mesh, "mass").toarray(), Md[np.ix_(idx, idx)],
                       atol=1e-14)
    assert np.allclose(mesh_operator(mesh, "stiffness").toarray(), Ad[np.ix_(idx, idx)],
                       atol=1e-12)


def test_assembled_operators_are_symmetric_and_positive():
    # what the SPD step matrix W + cA needs: symmetric A and M, positive D
    for mesh in (build_symmetric_mesh(8), build_nonsymmetric_mesh(8)):
        for full in (False, True):
            for kind in ("stiffness", "mass"):
                op = mesh_operator(mesh, kind, full)
                assert abs(op - op.T).max() <= 1e-14 * abs(op.data).max()
            D = mesh_operator(mesh, "lumped_mass", full).tocoo()
            assert D.nnz == D.shape[0] and np.array_equal(D.row, D.col)
            assert D.data.min() > 0


def test_mass_total_and_constant_kernel():
    mesh = build_nonsymmetric_mesh(8)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    assert ones.dot(M @ ones) == pytest.approx(1.0, abs=1e-13)
    A = assemble_stiffness(mesh)
    assert np.allclose(A @ ones, 0.0, atol=1e-12)


def test_stiffness_energy_of_linear_field():
    # grad(x + 2y) = (1, 2), so the Dirichlet energy over the unit square is 5
    mesh = build_nonsymmetric_mesh(8)
    v = mesh.nodes[:, 0] + 2.0 * mesh.nodes[:, 1]
    A = assemble_stiffness(mesh)
    assert v.dot(A @ v) == pytest.approx(5.0, rel=1e-13)


def test_mass_bilinear_of_coordinates():
    # (x, y)_{L2} = 1/4 and P1 interpolation of x, y is exact
    mesh = build_symmetric_mesh(7)
    vx = mesh.nodes[:, 0].copy()
    vy = mesh.nodes[:, 1].copy()
    M = assemble_mass(mesh)
    assert vx.dot(M @ vy) == pytest.approx(0.25, rel=1e-13)


def test_lumped_mass_equals_consistent_row_sums():
    for mesh in (build_symmetric_mesh(6), build_nonsymmetric_mesh(8)):
        M = assemble_mass(mesh)
        D = assemble_lumped_mass(mesh)
        rowsums = M @ np.ones(mesh.n_nodes)
        assert np.allclose(D.diagonal(), rowsums, atol=1e-15)
        Di = mesh_operator(mesh, "lumped_mass")
        assert np.allclose(Di.diagonal(), rowsums[mesh.interior_nodes], atol=1e-15)


def test_lumped_mass_uniform_value_on_symmetric_interior():
    M = 8
    mesh = build_symmetric_mesh(M)
    D = mesh_operator(mesh, "lumped_mass")
    assert np.allclose(D.diagonal(), 1.0 / M**2, atol=1e-16)


def test_symmetric_interior_stiffness_is_five_point_stencil():
    M = 4
    mesh = build_symmetric_mesh(M)
    A = mesh_operator(mesh, "stiffness").toarray()
    # interior nodes form a 3x3 grid, ordered row by row
    k = mesh.n_interior
    assert k == 9
    assert np.allclose(np.diag(A), 4.0, atol=1e-13)
    center = 4  # node at (0.5, 0.5)
    row = A[center]
    neighbors = [1, 3, 5, 7]
    assert np.allclose(row[neighbors], -1.0, atol=1e-13)
    others = [i for i in range(k) if i != center and i not in neighbors]
    assert np.allclose(row[others], 0.0, atol=1e-13)


@pytest.mark.parametrize("build", [build_symmetric_mesh, build_nonsymmetric_mesh])
@pytest.mark.parametrize("full", [False, True])
def test_stiffness_stores_no_zeros(build, full):
    # the element pattern (that of the mass matrix) holds exact zeros for the
    # diagonal couplings; dropping them changes no product and no LU fill
    mesh = build(16)
    A = mesh_operator(mesh, "stiffness", full)
    M = mesh_operator(mesh, "mass", full)
    assert A.data.size and np.count_nonzero(A.data == 0.0) == 0
    pattern = M.tocoo()
    vals = np.asarray(A[pattern.row, pattern.col]).ravel()
    old = sp.csr_matrix((vals, (pattern.row, pattern.col)), shape=pattern.shape)
    assert old.nnz == M.nnz > A.nnz
    x = np.random.default_rng(5).standard_normal(A.shape[0])
    assert np.array_equal(A @ x, old @ x)
    if not full:
        for W in (M, mesh_operator(mesh, "lumped_mass")):
            new_lu = CompositeOperator(W, 0.05, A).factorize()
            old_lu = CompositeOperator(W, 0.05, old).factorize()
            assert new_lu.L.nnz + new_lu.U.nnz == old_lu.L.nnz + old_lu.U.nnz


def test_quadrature_rule_tables():
    assert _QUAD_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(_QUAD_BARY.sum(axis=1), 1.0, atol=1e-15)
    assert np.all(_QUAD_BARY >= 0)
    # the degree-4 rule keeps every node strictly inside the triangle
    assert np.all(_QUAD_BARY > 1e-3)


def test_quadrature_degrees_via_load_partition_of_unity():
    # summing the load over all hat functions applies the rule to g itself
    mesh = build_nonsymmetric_mesh(4)
    b = load_vector(mesh, lambda x, y: (x + y) ** 4)
    assert b.sum() == pytest.approx(31.0 / 15.0, rel=1e-13)


def test_indicator_load_center_node_exact():
    # hat at (1/2, 1/2) on the 2x2 mesh: three support triangles lie in
    # {x <= 1/2}, each contributing |K|/3 = 1/24, so the load is 1/8.
    # x = 1/2 is a mesh line, hence the interior-point rule is exact.
    mesh = build_symmetric_mesh(2)
    chi = InitialData("b")
    b = load_vector(mesh, chi.sample)
    center = mesh.interior_nodes[0]
    assert b[center] == pytest.approx(1.0 / 8.0, abs=1e-16)


def test_projection_reproduces_mesh_functions():
    mesh = build_nonsymmetric_mesh(8)
    rng = np.random.default_rng(21)
    target = np.zeros(mesh.n_nodes)
    target[mesh.interior_nodes] = rng.standard_normal(mesh.n_interior)

    def g(x, y):
        return evaluate_p1(mesh, target, np.column_stack([x, y]))

    proj = l2_project(mesh, g)
    assert np.allclose(proj, target, atol=1e-11)


def test_projection_on_boundary_only_mesh_is_zero():
    mesh = build_symmetric_mesh(1)
    proj = l2_project(mesh, lambda x, y: np.ones_like(x))
    assert np.array_equal(proj, np.zeros(4))


def test_l2_norm_against_per_triangle_exact_integral():
    mesh = build_nonsymmetric_mesh(4)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal(mesh.n_nodes)
    acc = 0.0
    for tri, area in zip(mesh.triangles, mesh.triangle_areas()):
        v = vals[tri]
        for i in range(3):
            for j in range(3):
                powers = [0, 0, 0]
                powers[i] += 1
                powers[j] += 1
                acc += v[i] * v[j] * bary_moment(area, tuple(powers))
    assert l2_norm(mesh, vals) == pytest.approx(np.sqrt(acc), rel=1e-13)


def test_l2_error_same_mesh_and_nested_mesh():
    coarse = build_symmetric_mesh(4)
    fine = build_symmetric_mesh(8)
    rng = np.random.default_rng(23)
    cf = rng.standard_normal(coarse.n_nodes)
    same = l2_error_vs_reference((coarse, cf), (coarse, cf))
    assert same == 0.0
    # coarse P1 functions belong to the nested fine space
    ff = evaluate_p1(coarse, cf, fine.nodes)
    assert l2_error_vs_reference((coarse, cf), (fine, ff)) < 1e-13


def test_l2_error_vs_function_linear_exact():
    mesh = build_nonsymmetric_mesh(8)
    fld = mesh.nodes[:, 0] + 2.0 * mesh.nodes[:, 1]
    assert l2_error_vs_function(mesh, fld, lambda x, y: x + 2.0 * y) < 1e-14
    zero = np.zeros(mesh.n_nodes)
    assert l2_error_vs_function(mesh, zero, lambda x, y: np.ones_like(x)) == pytest.approx(
        1.0, rel=1e-13
    )


@pytest.mark.parametrize("vals", [np.zeros(32), np.zeros(24), np.zeros((25, 1)), 0.0])
def test_l2_error_vs_function_rejects_wrong_length(vals):
    # it read vals[mesh.triangles], so 32 values on 25 nodes measured 1.0
    mesh = build_symmetric_mesh(4)
    with pytest.raises(ValueError, match="for 25 nodes"):
        l2_error_vs_function(mesh, vals, lambda x, y: x * 0 + 1.0)


_COARSE, _FINE = build_symmetric_mesh(2), build_symmetric_mesh(8)
_NODAL_READERS = {
    "l2_norm": l2_norm,
    "reference-coarse-same": lambda mesh, v: l2_error_vs_reference(
        (mesh, v), (mesh, np.zeros(mesh.n_nodes))),
    "reference-fine-same": lambda mesh, v: l2_error_vs_reference(
        (mesh, np.zeros(mesh.n_nodes)), (mesh, v)),
    "reference-coarse-across": lambda mesh, v: l2_error_vs_reference(
        (mesh, v), (_FINE, np.zeros(_FINE.n_nodes))),
    "reference-fine-across": lambda mesh, v: l2_error_vs_reference(
        (_COARSE, np.zeros(_COARSE.n_nodes)), (mesh, v)),
    "l2_error_vs_function": lambda mesh, v: l2_error_vs_function(
        mesh, v, lambda x, y: x * 0 + 1.0),
    "evaluate_p1": lambda mesh, v: evaluate_p1(mesh, v, (0.5, 0.5)),
}


@pytest.mark.parametrize("k", [0, 1, 24, 26])
@pytest.mark.parametrize("reader", sorted(_NODAL_READERS))
def test_every_nodal_reader_checks_length(reader, k):
    # the same-mesh error with one value measured 1.0 by broadcasting, and
    # l2_norm failed inside the matrix product
    mesh = build_symmetric_mesh(4)
    v = 1.0 if k == 0 else np.ones(k)
    with pytest.raises(ValueError, match=f"^{k} values for 25 nodes$"):
        _NODAL_READERS[reader](mesh, v)


def test_sqrt_nonlinearity_properties():
    f = sqrt_one_plus_u2()
    assert f(0.0) == 1.0
    assert f.lipschitz == 1.0
    u = np.linspace(-50, 50, 101)
    assert np.allclose(f(u), np.sqrt(1.0 + u * u))
    slopes = np.diff(f(u)) / np.diff(u)
    assert np.all(np.abs(slopes) < 1.0)
    z = zero_source()
    assert np.all(z(u) == 0.0)
    assert z.lipschitz == 0.0


def test_initial_data_samples():
    a = InitialData()
    assert a.sample(0.5, 0.5) == pytest.approx(1.0 / 16.0)
    assert a.sample(0.0, 0.7) == 0.0
    b = InitialData("b")
    x = np.array([0.1, 0.5, 0.500001, 0.9])
    assert np.array_equal(b.sample(x, x), [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^unknown case 'c'$"):
        InitialData("c")
    # a fractional or boolean mode number is not rounded into another mode,
    # and mode (0, 1) is not the zero function
    for k, l in ((2.7, 1), (1, True), (0, 1), (1, -2), ("2", 1)):
        with pytest.raises(ValueError, match="^[kl] must be a positive integer"):
            InitialData("mode", k, l)
    data = InitialData("mode", np.int64(2), 3)
    assert data == InitialData("mode", 2, 3) and type(data.k) is int


@pytest.mark.parametrize("case,k,l", [("a", 2, 1), ("b", 1, 3), ("a", 1, np.int64(2))])
def test_initial_data_reads_k_and_l_only_for_a_mode(case, k, l):
    # InitialData("a", 2, 1) was a second value for the bump, projected again
    with pytest.raises(ValueError, match=f"^k and l apply to case 'mode' only, "
                                         f"got k={k}, l={l} for case '{case}'$"):
        InitialData(case, k, l)
    assert InitialData(case, np.int64(1), 1) == InitialData(case)


def test_projection_close_to_smooth_initial_data():
    mesh = build_symmetric_mesh(16)
    a = InitialData()
    fld = a.field(mesh)
    # projection error of a smooth function is O(h^2); crude ceiling
    assert l2_error_vs_function(mesh, fld, a.sample) < 5e-4


def test_single_mode_field_is_nodal_interpolant():
    mesh = build_symmetric_mesh(8)
    data = InitialData("mode", 2, 3)
    fld = data.field(mesh)
    assert np.all(fld[mesh.boundary_mask] == 0.0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    want = np.sin(2 * np.pi * x) * np.sin(3 * np.pi * y)
    inter = ~mesh.boundary_mask
    assert np.allclose(fld[inter], want[inter], atol=1e-15)


@pytest.mark.parametrize("kind,full", [(k, f) for k in ("stiffness", "mass", "lumped_mass")
                                       for f in (False, True)])
def test_mesh_operator_is_memoized_fresh_assembly(kind, full):
    mesh = build_nonsymmetric_mesh(8)
    op = mesh_operator(mesh, kind, full=full)
    assert mesh_operator(mesh, kind, full=full) is op
    fresh = {"stiffness": assemble_stiffness, "mass": assemble_mass,
             "lumped_mass": assemble_lumped_mass}[kind](mesh)
    if not full:
        idx = mesh.interior_nodes
        fresh = fresh[idx][:, idx]
    arrays = [op.data, op.indices, op.indptr]
    want = [fresh.data, fresh.indices, fresh.indptr]
    for got, expected in zip(arrays, want):
        assert np.array_equal(got, expected) and got.dtype == expected.dtype
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[0]
    assert mesh_operator(build_nonsymmetric_mesh(8), kind, full=full) is not op
    with pytest.raises(ValueError, match="unknown operator"):
        mesh_operator(mesh, "advection", full=full)


@pytest.mark.parametrize("mesh", [build_symmetric_mesh(1), build_symmetric_mesh(2),
                                  build_symmetric_mesh(32), build_nonsymmetric_mesh(16)],
                         ids=["symmetric1", "symmetric2", "symmetric32", "nonsymmetric16"])
def test_interior_lumped_mass_is_the_diagonal_of_the_interior_entries(mesh):
    # the block cut from the full diagonal stores what a diagonal matrix
    # built from the interior entries alone stores, array for array
    want = sp.diags(assemble_lumped_mass(mesh).diagonal()[mesh.interior_nodes],
                    format="csr")
    got = mesh_operator(mesh, "lumped_mass")
    for a, b in zip((got.data, got.indices, got.indptr),
                    (want.data, want.indices, want.indptr)):
        assert np.array_equal(a, b) and a.dtype == b.dtype


def test_assembly_rejects_a_misoriented_triangle():
    mesh = build_symmetric_mesh(2)
    triangles = mesh.triangles.copy()
    triangles[0] = triangles[0, ::-1]
    with pytest.raises(ValueError, match="^degenerate or misoriented triangle in assembly$"):
        assemble_stiffness(dataclasses.replace(mesh, triangles=triangles))


@pytest.mark.parametrize("call", [
    lambda mesh, full: mesh_operator(mesh, "stiffness", full=full),
    lambda mesh, full: mesh_operator(mesh, "lumped_mass", full),
    lambda mesh, full: mesh_operator(mesh, "stiffness", full),
    lambda mesh, full: mesh_operator(mesh, "mass", full),
    lambda mesh, full: mesh_operator(mesh, "lumped_mass", full=full),
], ids=["mesh_operator", "mesh_operator-positional", "assemble_stiffness",
        "assemble_mass", "assemble_lumped_mass"])
@pytest.mark.parametrize("full", ["yes", "false", 1, None])
def test_operators_take_full_as_a_flag(call, full):
    # full was read by truth value: "yes", "false" and 1 gave the full
    # matrix, None the interior block.  Only mesh_operator takes the flag,
    # so each assemble_* case requests the kind that builder assembles
    mesh = build_symmetric_mesh(4)
    with pytest.raises(ValueError, match=f"^full must be a bool, got {full!r}$"):
        call(mesh, full)
    assert call(mesh, np.bool_(True)).shape == (25, 25)


def test_initial_data_projected_once_per_value_and_mesh(monkeypatch):
    from frstokes import fem_assembly

    project = fem_assembly.l2_project
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return project(*args, **kwargs)

    monkeypatch.setattr(fem_assembly, "l2_project", counting)
    mesh = build_symmetric_mesh(8)
    a = InitialData()
    first = a.field(mesh)
    first[:] = 7.0  # a caller's copy; the memo is untouched
    second = a.field(mesh)
    assert len(calls) == 1
    assert np.array_equal(second, project(mesh, a.sample))
    # equal data share one entry: three default problems project once
    for _ in range(3):
        ProblemSpec(0.5, 1.0, 1.0).initial_data.field(mesh)
    assert len(calls) == 1
    InitialData("mode").field(mesh)  # interpolated, never projected
    assert len(calls) == 1

    # two functions: two entries, two projections
    class XY(InitialData):
        def sample(self, x, y):
            return x * y

    class XXY(InitialData):
        def sample(self, x, y):
            return x * x * y

    xy, xxy = XY(), XXY()
    assert not np.array_equal(xy.field(mesh), xxy.field(mesh))
    assert len(calls) == 3
    # another mesh is another entry
    a.field(build_symmetric_mesh(8))
    assert len(calls) == 4


def test_problem_spec_validation():
    ok = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                     nonlinearity=sqrt_one_plus_u2(),
                     initial_data=InitialData())
    assert ok.alpha == 0.5
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(gamma=-0.1), dict(T=0.0)):
        kw = dict(alpha=0.5, gamma=1.0, T=1.0,
                  nonlinearity=sqrt_one_plus_u2(),
                  initial_data=InitialData())
        kw.update(bad)
        with pytest.raises(ValueError):
            ProblemSpec(**kw)
    # a nan constant also silenced the implicit stepper's tau * L >= 1 warning
    for lipschitz in (float("nan"), float("inf"), -1.0, "1", True):
        with pytest.raises(ValueError, match="Lipschitz constant must be a finite number >= 0"):
            ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                        nonlinearity=Nonlinearity(lambda u: u, lipschitz))


@pytest.mark.parametrize("name,value,kind", [
    ("initial_data", "a", "InitialData"), ("initial_data", None, "InitialData"),
    ("nonlinearity", np.sin, "Nonlinearity"),
    ("nonlinearity", lambda u: u, "Nonlinearity"),
])
def test_problem_spec_checks_the_type_of_its_data(name, value, kind):
    # initial_data="a" constructed and the solve died in the stepper with an
    # AttributeError; nonlinearity=np.sin raised one at construction
    with pytest.raises(ValueError, match=f"^{name} must be of type {kind}, got "):
        ProblemSpec(0.5, 1.0, 1.0, **{name: value})


@pytest.mark.parametrize("name", ["gamma", "T"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_problem_spec_rejects_non_finite_or_non_positive(name, value):
    # nan and inf used to reach the solve and fail there as a singular factor
    kw = dict(alpha=0.5, gamma=1.0, T=1.0)
    kw[name] = value
    with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
        ProblemSpec(**kw)


@pytest.mark.parametrize("name", ["alpha", "gamma", "T"])
@pytest.mark.parametrize("value", [True, False, "0.5", [0.5]])
def test_problem_spec_rejects_non_numbers(name, value):
    # gamma=True and T=True were accepted as 1, and alpha="0.5" was a TypeError
    kw = dict(alpha=0.5, gamma=1.0, T=1.0)
    kw[name] = value
    with pytest.raises(ValueError, match=f"^{name} must "):
        ProblemSpec(**kw)
