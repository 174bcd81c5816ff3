import math
import pickle

import numpy as np
import pytest

from frstokes.cq_time_stepper import SchemeConfig, cq_weights
from frstokes.experiment_harness import StudyConfig
from frstokes.fem_assembly import CaseAInitialData, Nonlinearity, ProblemSpec
from frstokes.mesh import (
    OutOfDomainError,
    build_nonsymmetric_mesh,
    build_symmetric_mesh,
    evaluate_p1,
    format_mesh_text,
)
from frstokes.spectral_oracle import contour_nodes, scalar_cq_response


def brute_force_eval(mesh, values, x, y):
    """Scan all triangles, solve for barycentric coordinates exactly."""
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        T = np.array(
            [[p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
             [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]]]
        )
        st = np.linalg.solve(T, np.array([x - p[0, 0], y - p[0, 1]]))
        bary = np.array([1.0 - st[0] - st[1], st[0], st[1]])
        if np.all(bary >= -1e-13):
            return bary.dot(values[tri])
    raise AssertionError("point not located by brute force")


def test_symmetric_counts_minimal():
    m1 = build_symmetric_mesh(1)
    assert m1.n_nodes == 4 and m1.n_triangles == 2 and m1.n_interior == 0
    m2 = build_symmetric_mesh(2)
    assert m2.n_nodes == 9 and m2.n_triangles == 8 and m2.n_interior == 1
    assert np.allclose(m2.nodes[m2.interior_nodes[0]], [0.5, 0.5])


def test_symmetric_counts_m8():
    m = build_symmetric_mesh(8)
    assert m.n_nodes == 81
    assert m.n_triangles == 128
    assert m.n_interior == 49
    assert m.h == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-15)


def test_node_ordering_lexicographic_by_y_then_x():
    m = build_symmetric_mesh(3)
    nodes = m.nodes
    keys = nodes[:, 1] * 10 + nodes[:, 0]
    assert np.all(np.diff(keys) > 0)


def test_triangles_positive_area_and_tile_unit_square():
    for mesh in (build_symmetric_mesh(5), build_nonsymmetric_mesh(8)):
        areas = mesh.triangle_areas()
        assert np.all(areas > 0)
        assert abs(areas.sum() - 1.0) < 1e-12


def test_boundary_flags_match_geometry():
    for mesh in (build_symmetric_mesh(6), build_nonsymmetric_mesh(4)):
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        on_edge = (x == 0) | (x == 1) | (y == 0) | (y == 1)
        assert np.array_equal(mesh.boundary_mask, on_edge)
        assert np.array_equal(mesh.interior_nodes, np.flatnonzero(~on_edge))
        assert mesh.interior_nodes.size == mesh.n_interior


def test_symmetric_nested_refinement():
    coarse = build_symmetric_mesh(4)
    fine = build_symmetric_mesh(8)
    fine_set = {(x, y) for x, y in fine.nodes}
    assert all((x, y) in fine_set for x, y in coarse.nodes)


def test_nonsymmetric_m4_layout():
    m = build_nonsymmetric_mesh(4)
    assert m.n_nodes == 20  # (4+1) * (3+1)
    assert m.n_triangles == 24
    widths = np.diff(m.x_breaks)
    assert widths == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6], abs=1e-15)
    assert len(m.y_breaks) == 4  # 3M/4 = 3 rows of cells


def test_nonsymmetric_breakpoint_at_half():
    for M in (4, 8, 16):
        m = build_nonsymmetric_mesh(M)
        # x = 1/2 is hit exactly after M/2 subintervals
        assert m.x_breaks[M // 2] == 0.5
    m8 = build_nonsymmetric_mesh(8)
    assert np.diff(m8.x_breaks)[:2] == pytest.approx([1 / 6, 1 / 12], abs=1e-15)


def test_invalid_mesh_parameters():
    with pytest.raises(ValueError):
        build_symmetric_mesh(0)
    with pytest.raises(ValueError):
        build_nonsymmetric_mesh(6)
    with pytest.raises(ValueError):
        build_nonsymmetric_mesh(0)
    # M is an integer, not a bool, float or string: True used to build
    # symmetric(True), 4.0 symmetric(4.0), and "4" raised a TypeError
    for M in (True, 4.0, "4", None, 2.5):
        with pytest.raises(ValueError, match="^M must be a positive integer"):
            build_symmetric_mesh(M)
    for M in (True, 8.0, "8", None):
        with pytest.raises(ValueError, match="^M must be a positive multiple of 4"):
            build_nonsymmetric_mesh(M)
    assert build_symmetric_mesh(np.int64(2)).n_nodes == 9


def test_evaluate_p1_at_nodes_and_centroids():
    mesh = build_symmetric_mesh(3)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(mesh.n_nodes)
    got = evaluate_p1(mesh, values, mesh.nodes)
    assert np.allclose(got, values, atol=1e-14)
    # at a centroid, the value is the mean of the three vertex values
    tri = mesh.triangles[5]
    centroid = mesh.nodes[tri].mean(axis=0)
    assert evaluate_p1(mesh, values, centroid) == pytest.approx(
        values[tri].mean(), abs=1e-14
    )


@pytest.mark.parametrize("builder,M", [(build_symmetric_mesh, 5),
                                       (build_nonsymmetric_mesh, 8)])
def test_evaluate_p1_matches_brute_force(builder, M):
    mesh = builder(M)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(mesh.n_nodes)
    pts = rng.uniform(0, 1, size=(40, 2))
    fast = evaluate_p1(mesh, values, pts)
    slow = [brute_force_eval(mesh, values, x, y) for x, y in pts]
    assert np.allclose(fast, slow, atol=1e-12)


def test_evaluate_p1_partition_of_unity():
    mesh = build_nonsymmetric_mesh(4)
    ones = np.ones(mesh.n_nodes)
    pts = np.random.default_rng(3).uniform(0, 1, size=(25, 2))
    assert np.allclose(evaluate_p1(mesh, ones, pts), 1.0, atol=1e-14)


def test_evaluate_p1_rejects_outside_points():
    mesh = build_symmetric_mesh(2)
    values = np.zeros(mesh.n_nodes)
    with pytest.raises(OutOfDomainError):
        evaluate_p1(mesh, values, (1.5, 0.5))
    # corner and boundary points are fine
    assert evaluate_p1(mesh, values, (1.0, 1.0)) == 0.0


@pytest.mark.parametrize("point", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5)])
def test_evaluate_p1_rejects_non_finite_points(point):
    # a NaN coordinate failed every "outside" comparison and evaluated to nan
    mesh = build_symmetric_mesh(2)
    with pytest.raises(OutOfDomainError):
        evaluate_p1(mesh, np.zeros(mesh.n_nodes), point)


def test_mesh_text_format():
    mesh = build_symmetric_mesh(1)
    text = format_mesh_text(mesh)
    lines = text.strip().splitlines()
    assert lines[0] == "nodes 4 triangles 2"
    assert lines[1].split() == ["0", "0", "1"]
    assert len(lines) == 1 + 4 + 2
    # deterministic output
    assert text == format_mesh_text(build_symmetric_mesh(1))


def test_mesh_arrays_are_immutable():
    mesh = build_symmetric_mesh(2)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 7.0


def test_mesh_pickles_without_its_memo():
    from frstokes.fem_assembly import CaseAInitialData, mesh_operator

    mesh = build_symmetric_mesh(4)
    mass = mesh_operator(mesh, "mass")
    CaseAInitialData().field(mesh)  # the memo now holds weak references
    copy = pickle.loads(pickle.dumps(mesh))
    assert np.array_equal(copy.nodes, mesh.nodes) and copy.family == mesh.family
    assert copy._memo == {}
    assert np.array_equal(mesh_operator(copy, "mass").toarray(), mass.toarray())
    assert mesh_operator(mesh, "mass") is mass


# One numeric parameter of each public entry point: the call, the name its
# messages give, a Python number and a numpy scalar of the same kind and value.
ENTRY_POINTS = {
    "build_symmetric_mesh": (build_symmetric_mesh, "M", 4, np.int64(4)),
    "SchemeConfig": (lambda N: SchemeConfig("lumped-linearized", N), "N", 8, np.int64(8)),
    "ProblemSpec": (lambda gamma: ProblemSpec(0.5, gamma, 1.0, Nonlinearity(np.sin, 1.0),
                                              CaseAInitialData()),
                    "gamma", 2.0, np.float64(2.0)),
    "StudyConfig": (lambda T: StudyConfig(T=T), "T", 0.5, np.float32(0.5)),
    "cq_weights": (lambda beta: cq_weights(beta, 6), "beta", 0.25, np.float32(0.25)),
    "scalar_cq_response": (lambda T: scalar_cq_response(20.0, 0.5, 1.0, T, 8), "T",
                           0.5, np.float64(0.5)),
    "contour_nodes": (contour_nodes, "t", 0.5, np.float32(0.5)),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_takes_the_same_numbers(entry):
    # each boundary checks its numbers with the rules of mesh.py: a numpy
    # scalar gives what the Python number gives, down to the stored types,
    # and a bool, a string or nan is rejected with a message naming it
    call, name, plain, scalar = ENTRY_POINTS[entry]
    assert pickle.dumps(call(scalar)) == pickle.dumps(call(plain))
    for bad in (True, "1", math.nan):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)
