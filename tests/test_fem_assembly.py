import gc
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from frstokes.fem_assembly import (
    _QUAD_BARY,
    _QUAD_WEIGHTS,
    CaseAInitialData,
    CaseBInitialData,
    InitialData,
    NodalField,
    Nonlinearity,
    ProblemSpec,
    SingleModeInitialData,
    assemble_lumped_mass,
    assemble_mass,
    assemble_stiffness,
    initial_data_for_case,
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
    assert np.allclose(assemble_mass(mesh, full=True).toarray(), Md, atol=1e-14)
    assert np.allclose(assemble_stiffness(mesh, full=True).toarray(), Ad, atol=1e-12)
    idx = mesh.interior_nodes
    assert np.allclose(assemble_mass(mesh).toarray(), Md[np.ix_(idx, idx)], atol=1e-14)
    assert np.allclose(assemble_stiffness(mesh).toarray(), Ad[np.ix_(idx, idx)], atol=1e-12)


def test_assembled_operators_are_symmetric_and_positive():
    # what the SPD step matrix W + cA needs: symmetric A and M, positive D
    for mesh in (build_symmetric_mesh(8), build_nonsymmetric_mesh(8)):
        for full in (False, True):
            for op in (assemble_stiffness(mesh, full=full), assemble_mass(mesh, full=full)):
                assert abs(op - op.T).max() <= 1e-14 * abs(op.data).max()
            D = assemble_lumped_mass(mesh, full=full).tocoo()
            assert D.nnz == D.shape[0] and np.array_equal(D.row, D.col)
            assert D.data.min() > 0


def test_mass_total_and_constant_kernel():
    mesh = build_nonsymmetric_mesh(8)
    M = assemble_mass(mesh, full=True)
    ones = np.ones(mesh.n_nodes)
    assert ones.dot(M @ ones) == pytest.approx(1.0, abs=1e-13)
    A = assemble_stiffness(mesh, full=True)
    assert np.allclose(A @ ones, 0.0, atol=1e-12)


def test_stiffness_energy_of_linear_field():
    # grad(x + 2y) = (1, 2), so the Dirichlet energy over the unit square is 5
    mesh = build_nonsymmetric_mesh(8)
    v = mesh.nodes[:, 0] + 2.0 * mesh.nodes[:, 1]
    A = assemble_stiffness(mesh, full=True)
    assert v.dot(A @ v) == pytest.approx(5.0, rel=1e-13)


def test_mass_bilinear_of_coordinates():
    # (x, y)_{L2} = 1/4 and P1 interpolation of x, y is exact
    mesh = build_symmetric_mesh(7)
    vx = mesh.nodes[:, 0].copy()
    vy = mesh.nodes[:, 1].copy()
    M = assemble_mass(mesh, full=True)
    assert vx.dot(M @ vy) == pytest.approx(0.25, rel=1e-13)


def test_lumped_mass_equals_consistent_row_sums():
    for mesh in (build_symmetric_mesh(6), build_nonsymmetric_mesh(8)):
        M = assemble_mass(mesh, full=True)
        D = assemble_lumped_mass(mesh, full=True)
        rowsums = M @ np.ones(mesh.n_nodes)
        assert np.allclose(D.diagonal(), rowsums, atol=1e-15)
        Di = assemble_lumped_mass(mesh)
        assert np.allclose(Di.diagonal(), rowsums[mesh.interior_nodes], atol=1e-15)


def test_lumped_mass_uniform_value_on_symmetric_interior():
    M = 8
    mesh = build_symmetric_mesh(M)
    D = assemble_lumped_mass(mesh)
    assert np.allclose(D.diagonal(), 1.0 / M**2, atol=1e-16)


def test_symmetric_interior_stiffness_is_five_point_stencil():
    M = 4
    mesh = build_symmetric_mesh(M)
    A = assemble_stiffness(mesh).toarray()
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
    A = assemble_stiffness(mesh, full=full)
    M = assemble_mass(mesh, full=full)
    assert A.data.size and np.count_nonzero(A.data == 0.0) == 0
    pattern = M.tocoo()
    vals = np.asarray(A[pattern.row, pattern.col]).ravel()
    old = sp.csr_matrix((vals, (pattern.row, pattern.col)), shape=pattern.shape)
    assert old.nnz == M.nnz > A.nnz
    x = np.random.default_rng(5).standard_normal(A.shape[0])
    assert np.array_equal(A @ x, old @ x)
    if not full:
        for W in (M, assemble_lumped_mass(mesh)):
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
    chi = CaseBInitialData()
    b = load_vector(mesh, chi.sample)
    center = mesh.interior_nodes[0]
    assert b[center] == pytest.approx(1.0 / 8.0, abs=1e-16)


def test_projection_reproduces_mesh_functions():
    mesh = build_nonsymmetric_mesh(8)
    rng = np.random.default_rng(21)
    target = NodalField.from_interior(mesh, rng.standard_normal(mesh.n_interior))

    def g(x, y):
        return evaluate_p1(mesh, target.values, np.column_stack([x, y]))

    proj = l2_project(mesh, g)
    assert np.allclose(proj.values, target.values, atol=1e-11)


def test_projection_on_boundary_only_mesh_is_zero():
    mesh = build_symmetric_mesh(1)
    proj = l2_project(mesh, lambda x, y: np.ones_like(x))
    assert np.array_equal(proj.values, np.zeros(4))


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
    cf = NodalField(coarse, rng.standard_normal(coarse.n_nodes))
    same = l2_error_vs_reference((coarse, cf), (coarse, cf))
    assert same == 0.0
    # coarse P1 functions belong to the nested fine space
    ff = NodalField(fine, evaluate_p1(coarse, cf.values, fine.nodes))
    assert l2_error_vs_reference((coarse, cf), (fine, ff)) < 1e-13


def test_l2_error_vs_function_linear_exact():
    mesh = build_nonsymmetric_mesh(8)
    fld = NodalField.interpolate(mesh, lambda x, y: x + 2.0 * y)
    assert l2_error_vs_function(mesh, fld, lambda x, y: x + 2.0 * y) < 1e-14
    zero = NodalField.zeros(mesh)
    assert l2_error_vs_function(mesh, zero, lambda x, y: np.ones_like(x)) == pytest.approx(
        1.0, rel=1e-13
    )


@pytest.mark.parametrize("vals", [np.zeros(32), np.zeros(24), np.zeros((25, 1)), 0.0])
def test_l2_error_vs_function_rejects_wrong_length(vals):
    # it read vals[mesh.triangles], so 32 values on 25 nodes measured 1.0
    mesh = build_symmetric_mesh(4)
    with pytest.raises(ValueError, match="for 25 nodes"):
        l2_error_vs_function(mesh, vals, lambda x, y: x * 0 + 1.0)


def test_nodal_field_roundtrip_and_validation():
    mesh = build_symmetric_mesh(3)
    inter = np.arange(float(mesh.n_interior))
    fld = NodalField.from_interior(mesh, inter)
    assert np.array_equal(fld.interior(), inter)
    assert np.all(fld.values[mesh.boundary_mask] == 0.0)
    with pytest.raises(ValueError):
        NodalField(mesh, np.zeros(mesh.n_nodes + 1))


@pytest.mark.parametrize("k", [1, 8, 10])
def test_from_interior_checks_length(k):
    # 1 value filled all 9 interior nodes; 10 raised a numpy broadcast error
    mesh = build_symmetric_mesh(4)
    with pytest.raises(ValueError, match=f"^{k} values for 9 interior nodes$"):
        NodalField.from_interior(mesh, np.full(k, 2.0))


_COARSE, _FINE = build_symmetric_mesh(2), build_symmetric_mesh(8)
_NODAL_READERS = {
    "NodalField": NodalField,
    "l2_norm": l2_norm,
    "reference-coarse-same": lambda mesh, v: l2_error_vs_reference(
        (mesh, v), (mesh, NodalField.zeros(mesh))),
    "reference-fine-same": lambda mesh, v: l2_error_vs_reference(
        (mesh, NodalField.zeros(mesh)), (mesh, v)),
    "reference-coarse-across": lambda mesh, v: l2_error_vs_reference(
        (mesh, v), (_FINE, NodalField.zeros(_FINE))),
    "reference-fine-across": lambda mesh, v: l2_error_vs_reference(
        (_COARSE, NodalField.zeros(_COARSE)), (mesh, v)),
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
    a = CaseAInitialData()
    assert a.sample(0.5, 0.5) == pytest.approx(1.0 / 16.0)
    assert a.sample(0.0, 0.7) == 0.0
    b = CaseBInitialData()
    x = np.array([0.1, 0.5, 0.500001, 0.9])
    assert np.array_equal(b.sample(x, x), [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        initial_data_for_case("c")


def test_projection_close_to_smooth_initial_data():
    mesh = build_symmetric_mesh(16)
    a = CaseAInitialData()
    fld = a.field(mesh)
    # projection error of a smooth function is O(h^2); crude ceiling
    assert l2_error_vs_function(mesh, fld, a.sample) < 5e-4


def test_single_mode_field_is_nodal_interpolant():
    mesh = build_symmetric_mesh(8)
    data = SingleModeInitialData(2, 3)
    fld = data.field(mesh)
    assert np.all(fld.values[mesh.boundary_mask] == 0.0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    want = np.sin(2 * np.pi * x) * np.sin(3 * np.pi * y)
    inter = ~mesh.boundary_mask
    assert np.allclose(fld.values[inter], want[inter], atol=1e-15)


@pytest.mark.parametrize("kind,full", [(k, f) for k in ("stiffness", "mass", "lumped_mass")
                                       for f in (False, True)])
def test_mesh_operator_is_memoized_fresh_assembly(kind, full):
    mesh = build_nonsymmetric_mesh(8)
    op = mesh_operator(mesh, kind, full=full)
    assert mesh_operator(mesh, kind, full=full) is op
    fresh = {"stiffness": assemble_stiffness, "mass": assemble_mass,
             "lumped_mass": assemble_lumped_mass}[kind](mesh, full=full)
    arrays = [op.data, op.indices, op.indptr]
    want = [fresh.data, fresh.indices, fresh.indptr]
    for got, expected in zip(arrays, want):
        assert np.array_equal(got, expected) and got.dtype == expected.dtype
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[0]
    assert mesh_operator(build_nonsymmetric_mesh(8), kind, full=full) is not op
    with pytest.raises(ValueError, match="unknown operator"):
        mesh_operator(mesh, "advection")


def test_initial_data_projected_once_per_object_and_mesh(monkeypatch):
    from frstokes import fem_assembly

    project = fem_assembly.l2_project
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return project(*args, **kwargs)

    monkeypatch.setattr(fem_assembly, "l2_project", counting)
    mesh = build_symmetric_mesh(8)
    a = CaseAInitialData()
    first = a.field(mesh)
    first.values[:] = 7.0  # a caller's copy; the memo is untouched
    second = a.field(mesh)
    assert len(calls) == 1
    assert np.array_equal(second.values, project(mesh, a.sample).values)

    # two functions: two entries, two projections
    class XY(InitialData):
        def sample(self, x, y):
            return x * y

    class XXY(InitialData):
        def sample(self, x, y):
            return x * x * y

    xy, xxy = XY(), XXY()
    assert not np.array_equal(xy.field(mesh).values, xxy.field(mesh).values)
    assert len(calls) == 3
    # another mesh is another entry; an entry goes with its data object
    CaseAInitialData().field(mesh)
    a.field(build_symmetric_mesh(8))
    assert len(calls) == 5
    held = len(mesh._memo["initial_data"])
    del xxy
    gc.collect()
    assert len(mesh._memo["initial_data"]) == held - 1


def test_problem_spec_validation():
    ok = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                     nonlinearity=sqrt_one_plus_u2(),
                     initial_data=CaseAInitialData())
    assert ok.alpha == 0.5
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(gamma=-0.1), dict(T=0.0)):
        kw = dict(alpha=0.5, gamma=1.0, T=1.0,
                  nonlinearity=sqrt_one_plus_u2(),
                  initial_data=CaseAInitialData())
        kw.update(bad)
        with pytest.raises(ValueError):
            ProblemSpec(**kw)
    # a nan constant also silenced the implicit stepper's tau * L >= 1 warning
    for lipschitz in (float("nan"), float("inf"), -1.0, "1", True):
        with pytest.raises(ValueError, match="Lipschitz constant must be a finite number >= 0"):
            ProblemSpec(alpha=0.5, gamma=1.0, T=1.0,
                        nonlinearity=Nonlinearity(lambda u: u, lipschitz))


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
