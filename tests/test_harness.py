import dataclasses
import gc
import json
import math
import os
import re
import weakref

import numpy as np
import pytest

from frstokes import experiment_harness as harness
from frstokes.experiment_harness import (
    ExperimentReport,
    Run,
    StudyConfig,
    build_mesh,
    fit_rate,
    run_nonsymmetric_study,
    run_prefactor_study,
    run_spatial_study,
    run_temporal_study,
    solve_final,
)
from frstokes.cq_time_stepper import SchemeConfig, step_linearized
from frstokes.fem_assembly import (
    InitialData,
    ProblemSpec,
    assemble_mass,
    assemble_stiffness,
    l2_norm,
)
from frstokes.mesh import build_symmetric_mesh


def test_fit_rate_recovers_exact_power_law():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    for r in (0.5, 1.0, 2.0):
        errors = 3.7 * h**r
        assert fit_rate(h, errors) == pytest.approx(r, abs=1e-12)
    assert fit_rate([0.1], [1e-3]) is None
    for params, errors in (([0.1, 0.2], [1e-3]), ([1, 2], [[1], [2]]), ([[1, 2]], [1, 2])):
        # the two 2-d inputs raised numpy's TypeError
        with pytest.raises(ValueError, match="^params and errors must be 1-d arrays of "
                                             "equal length$"):
            fit_rate(params, errors)
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [1e-3, -1e-4])


@pytest.mark.parametrize("params,errors", [
    ([1, 2], [float("nan"), 1]), ([1, 2], [float("inf"), 1]),
    ([float("nan"), 2], [1, 2]), ([1, float("inf")], [1, 2]),
])
def test_fit_rate_rejects_non_finite_values(params, errors):
    # a nan or inf error returned nan as the rate, and a nan or inf param
    # failed inside the fit with numpy's LinAlgError
    with pytest.raises(ValueError, match="^params and errors must be finite and strictly "
                                         "positive$"):
        fit_rate(params, errors)


def test_report_serialization_roundtrip():
    rep = ExperimentReport(
        kind="spatial", case="a", alpha=0.5, param_name="h",
        params=(0.5, 0.25), errors=(4e-2, 1e-2), pairwise=(None, 2.0),
        fitted_rate=2.0, theoretical_rate=2.0)
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "param,error_l2,rate_pairwise"
    assert lines[1].startswith("5.000000000000e-01,4.000000000000e-02,")
    assert lines[1].endswith(",")  # first row has no pairwise rate
    assert lines[2].endswith(",2.000000")
    assert lines[3] == "fitted_rate,2.000000"
    assert lines[4] == "theoretical_rate,2.000000"
    assert csv.endswith("\n")
    md = rep.to_markdown()
    assert "spatial study, case a, alpha = 0.5" in md
    assert "| h | error_l2 | rate |" in md
    assert "fitted rate: 2.00" in md
    # no theory line when the slope has no prediction
    bare = ExperimentReport(kind="temporal", case="mode", alpha=0.5,
                            param_name="tau", params=(0.1,), errors=(1e-3,),
                            pairwise=(None,), fitted_rate=None)
    assert "theoretical_rate" not in bare.to_csv()


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(case="c")
    with pytest.raises(ValueError):
        StudyConfig(family="hexagonal")
    with pytest.raises(ValueError):
        StudyConfig(axis="sideways")
    with pytest.raises(ValueError):
        StudyConfig(alpha=())
    # every (alpha, gamma, T) a study runs is checked as the ProblemSpec it builds
    for kwargs, field in [
            (dict(gamma=-1.0), "gamma"), (dict(gamma=math.nan), "gamma"),
            (dict(gamma=math.inf), "gamma"), (dict(case="mode", gamma=0.0), "gamma"),
            (dict(T=-1.0), "T"), (dict(T=math.nan), "T"),
            (dict(t_list=(1e-3, -1.0)), "t_list"), (dict(t_list=(math.inf,)), "t_list"),
            (dict(alpha=(0.5, 1.5)), "alpha"), (dict(alpha=(math.nan,)), "alpha"),
            (dict(scheme="crank-nicolson"), "scheme")]:
        with pytest.raises(ValueError, match=field):
            StudyConfig(**kwargs)


def test_build_mesh_dispatch():
    assert build_mesh("symmetric", 4).family == "symmetric(4)"
    assert build_mesh("nonsymmetric", 4).family == "nonsymmetric(4)"
    with pytest.raises(ValueError):
        build_mesh("kagome", 4)


RUN = Run(case="a", alpha=0.5, gamma=1.0, T=1.0, family="symmetric", M=4, N=4)


def test_solve_final_cache_hit(tmp_path):
    cache = str(tmp_path / "runs")
    mesh1, f1 = solve_final(RUN, cache)
    files = list((tmp_path / "runs").glob("run-*.npz"))
    assert len(files) == 1
    mesh2, f2 = solve_final(RUN, cache)
    assert np.array_equal(f1, f2)
    assert len(list((tmp_path / "runs").glob("run-*.npz"))) == 1

    # prove the second call reads the file: poison it and call again
    with np.load(files[0]) as data:
        key = data["key"]
    np.savez(files[0], values=np.full(mesh1.n_nodes, 7.0), key=key)
    _, f3 = solve_final(RUN, cache)
    assert np.all(f3 == 7.0)

    # a different parameter produces a second artifact
    solve_final(dataclasses.replace(RUN, alpha=0.25), cache)
    assert len(list((tmp_path / "runs").glob("run-*.npz"))) == 2


def test_run_key_covers_every_scheme_setting():
    # a SchemeConfig field that changes the field but not the key would let
    # solve_final serve a stale run; snapshot_stride only picks what is kept
    run_fields = {f.name for f in dataclasses.fields(Run)}
    assert run_fields <= json.loads(harness._run_key(RUN)).keys()
    names = {f.name for f in dataclasses.fields(SchemeConfig)} - {"snapshot_stride"}
    assert {"scheme" if n == "variant" else n for n in names} <= run_fields


def test_run_key_bytes_are_pinned():
    # the key of RUN as the key function of format splu-soe-6 wrote it before
    # Run existed, so a cache directory filled then is still served
    want = ('{"M": 4, "N": 4, "T": "1.0", "alpha": "0.5", "case": "a", '
            '"family": "symmetric", "format": "splu-soe-6", "gamma": "1.0", '
            '"scheme": "lumped-linearized", "source_lumping": false}')
    want = want.replace('"splu-soe-6"', json.dumps(harness.CACHE_FORMAT))
    assert harness._run_key(RUN) == want
    # numpy scalars and an integer gamma give the same key, not a new one
    same = dataclasses.replace(RUN, M=np.int64(4), N=np.int64(4), gamma=1,
                               alpha=np.float64(0.5))
    assert harness._run_key(same) == want


def test_solve_final_recomputes_on_key_mismatch(tmp_path):
    cache = str(tmp_path / "runs")
    mesh, fresh = solve_final(RUN, cache)
    (path,) = (tmp_path / "runs").glob("run-*.npz")
    with np.load(path) as data:
        key = str(data["key"])
    # a file at the digest path written by another solver or format
    np.savez(path, values=np.full(mesh.n_nodes, 7.0), key=np.array("stale"))
    _, again = solve_final(RUN, cache)
    assert np.array_equal(again, fresh)
    with np.load(path) as data:
        assert str(data["key"]) == key
        assert np.array_equal(data["values"], fresh)


def _one_run_file(tmp_path):
    args = (RUN, str(tmp_path / "runs"))
    mesh, fresh = solve_final(*args)
    (path,) = (tmp_path / "runs").glob("run-*.npz")
    return args, mesh, fresh, path


def _assert_replaced(path, fresh):
    with np.load(path) as data:
        assert np.array_equal(data["values"], fresh)
    assert [p.name for p in path.parent.iterdir()] == [path.name]


@pytest.mark.parametrize("keep", [0.5, 0.0, "npy"])
def test_solve_final_recomputes_unreadable_file(tmp_path, keep):
    args, _, fresh, path = _one_run_file(tmp_path)
    if keep == "npy":  # a bare array, not an npz archive, at the run's path
        with open(path, "wb") as fh:
            np.save(fh, fresh)
    else:  # an interrupted write
        whole = path.read_bytes()
        path.write_bytes(whole[: int(keep * len(whole))])
    _, again = solve_final(*args)
    assert np.array_equal(again, fresh)
    _assert_replaced(path, fresh)


def test_solve_final_recomputes_wrong_shape(tmp_path):
    args, mesh, fresh, path = _one_run_file(tmp_path)
    with np.load(path) as data:
        key = data["key"]
    np.savez(path, values=np.full(mesh.n_nodes + 3, 7.0), key=key)
    _, again = solve_final(*args)
    assert np.array_equal(again, fresh)
    _assert_replaced(path, fresh)


def test_solve_final_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(fh, **arrays):
        fh.write(b"PK\x03\x04")
        raise RuntimeError("interrupted")

    monkeypatch.setattr(np, "savez", interrupted)
    cache = tmp_path / "runs"
    with pytest.raises(RuntimeError, match="interrupted"):
        solve_final(RUN, str(cache))
    assert list(cache.iterdir()) == []


def test_cache_file_that_cannot_be_written_is_a_value_error(tmp_path):
    # a directory in the way of the cache file ended the solve in an
    # IsADirectoryError traceback from os.replace
    cache = tmp_path / "runs"
    solve_final(RUN, str(cache))
    (path,) = cache.iterdir()
    path.unlink()
    path.mkdir()
    with pytest.raises(ValueError, match=f"^cannot write cache file "
                                         f"{re.escape(str(path))}: Is a directory$"):
        solve_final(RUN, str(cache))
    assert list(cache.iterdir()) == [path] and not list(path.iterdir())


def test_cache_file_records_blas_configuration(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    harness._blas_config.cache_clear()  # read once per process
    try:
        _, _, _, path = _one_run_file(tmp_path)
    finally:
        harness._blas_config.cache_clear()
    with np.load(path) as data:
        assert sorted(data.files) == ["blas", "key", "threads", "values"]
        blas, key = str(data["blas"]), json.loads(str(data["key"]))
        threads = json.loads(str(data["threads"]))
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert blas == f"{info['name']} {info['version']}"
    assert threads["OPENBLAS_NUM_THREADS"] == "3"
    assert threads["MKL_NUM_THREADS"] is None
    assert threads["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
    assert threads["affinity_cpus"] >= 1
    # recorded beside the key, not in it
    assert not {"blas", "threads"} & set(key)


@pytest.mark.parametrize("dtype", [int, np.float32, str])
def test_solve_final_recomputes_non_float_values(tmp_path, dtype):
    # a file of the right length but not float64 was served converted, or
    # raised "could not convert string to float"
    args, mesh, fresh, path = _one_run_file(tmp_path)
    with np.load(path) as data:
        key = data["key"]
    np.savez(path, values=np.full(mesh.n_nodes, 7).astype(dtype), key=key)
    _, again = solve_final(*args)
    assert again.dtype == np.float64 and np.array_equal(again, fresh)
    _assert_replaced(path, fresh)


def test_cache_file_without_blas_entries_is_served(tmp_path, monkeypatch):
    # the layout written before the BLAS entries: values and key only
    args, mesh, fresh, path = _one_run_file(tmp_path)
    with np.load(path) as data:
        key = data["key"]
    np.savez(path, values=fresh, key=key)

    def no_solve(*args, **kwargs):
        raise AssertionError("a cached field was solved again")

    monkeypatch.setattr(harness, "step_linearized", no_solve)
    _, served = solve_final(*args)
    assert np.array_equal(served, fresh)


def test_build_mesh_shared_while_held():
    mesh = build_mesh("symmetric", 7)
    assert build_mesh("symmetric", 7) is mesh
    assert build_mesh("nonsymmetric", 8) is not build_mesh("symmetric", 8)
    gone = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert gone() is None  # the registry does not keep meshes alive
    assert build_mesh("symmetric", 7).family == "symmetric(7)"


def test_temporal_study_builds_mesh_and_operators_once(monkeypatch):
    from frstokes import experiment_harness, fem_assembly

    gc.collect()
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(experiment_harness, "build_symmetric_mesh")
    for name in ("assemble_stiffness", "assemble_mass", "assemble_lumped_mass",
                 "l2_project"):
        counted(fem_assembly, name)

    steps = (2, 3, 4, 5, 6)
    cfg = StudyConfig(case="a", alpha=(0.5,), M=12, N=steps, N_ref=24,
                      scheme="galerkin-linearized")
    (report,) = run_temporal_study(cfg)
    assert sorted(calls) == ["assemble_mass", "assemble_stiffness",
                             "build_symmetric_mesh", "l2_project"]

    # while a caller holds the mesh, a second study builds nothing new
    mesh = build_mesh("symmetric", 12)
    (first,) = run_temporal_study(cfg)
    (again,) = run_temporal_study(cfg)
    assert again.errors == first.errors == report.errors
    assert len(calls) == 8
    stiffness = fem_assembly.mesh_operator(mesh, "stiffness")
    assert len(calls) == 8
    with pytest.raises(ValueError, match="read-only"):
        stiffness.data[0] = 0.0

    # every field and error is bitwise that of fresh meshes and operators
    fresh = build_symmetric_mesh(12)
    problem = ProblemSpec(alpha=0.5, gamma=1.0, T=1.0, initial_data=InitialData())

    def fresh_final(N):
        config = SchemeConfig(variant="galerkin-linearized", N=N, snapshot_stride=N)
        return step_linearized(config, problem, fresh).final()

    mass = assemble_mass(fresh)
    ref = fresh_final(24)
    _, ref_again = solve_final(Run("a", 0.5, 1.0, 1.0, "symmetric", 12, 24,
                                   scheme="galerkin-linearized"))
    assert np.array_equal(ref_again, ref)
    for N, err in zip(steps, report.errors):
        diff = fresh_final(N) - ref
        assert err == np.sqrt(max(diff.dot(mass @ diff), 0.0))


def test_solve_final_deterministic_without_cache():
    run = dataclasses.replace(RUN, case="b")
    _, f1 = solve_final(run)
    _, f2 = solve_final(run)
    assert np.array_equal(f1, f2)


def test_spatial_study_single_mode_against_oracle(tmp_path):
    cfg = StudyConfig(case="mode", alpha=(0.5,), M=(2, 4, 8), N=128,
                      cache_dir=str(tmp_path))
    (rep,) = run_spatial_study(cfg)
    assert rep.kind == "spatial" and rep.param_name == "h"
    assert len(rep.params) == 3
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    assert 1.6 < rep.fitted_rate < 2.4
    assert rep.theoretical_rate == 2.0
    # byte-identical on reruns (cache plus deterministic pipeline)
    (rep2,) = run_spatial_study(cfg)
    assert rep2.to_csv() == rep.to_csv()


def test_spatial_study_requires_finer_reference(monkeypatch):
    # Every table kind checks its reference, equal or coarser, before its
    # first solve: a prefactor study with M_ref = M used to run every solve
    # and end in a ZeroDivisionError, and the other unchecked kinds printed
    # a table measured against a coarser mesh.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the reference")

    monkeypatch.setattr(harness, "solve_final", no_solve)
    tables = [
        (run_spatial_study, dict(M=(4, 8), N=8), "M_ref", "spatial"),
        (run_nonsymmetric_study, dict(M=(4, 8), N=8), "M_ref", "nonsymmetric"),
        (run_temporal_study, dict(M=4, N=(4, 8)), "N_ref", "temporal"),
        (run_prefactor_study, dict(M=8, N=8, axis="temporal"), "N_ref",
         "prefactor-temporal"),
        (run_prefactor_study, dict(M=8, N=8, axis="spatial"), "M_ref",
         "prefactor-spatial"),
    ]
    for run, fields, ref_name, kind in tables:
        for ref in (8, 4):  # equal to the finest row, then coarser
            cfg = StudyConfig(case="a", **fields, **{ref_name: ref})
            with pytest.raises(ValueError, match=f"^{ref_name} must exceed every "
                               f"tested {ref_name[0]} .* in a {kind} study, got {ref}$"):
                run(cfg)
    # the spatial mode table is measured against the exact kernel instead
    with pytest.raises(AssertionError, match="solved before"):
        run_spatial_study(StudyConfig(case="mode", M=(4, 8), M_ref=4, N=8))


@pytest.mark.parametrize("run,fields,message", [
    (run_temporal_study, dict(M=(4, 8), N=(2, 4), N_ref=8),
     "M takes one value in a temporal study, got [4, 8]"),
    (run_spatial_study, dict(M=(4, 8), N=(2, 4), M_ref=16),
     "N takes one value in a spatial study, got [2, 4]"),
    # an axis a study holds fixed and does not state keeps its default ladder
    (run_nonsymmetric_study, dict(M=(4, 8), M_ref=16),
     "N takes one value in a nonsymmetric study, got [5, 10, 20, 40, 80]"),
    (run_prefactor_study, dict(N=4),
     "M takes one value in a prefactor study, got [8, 16, 32, 64]"),
], ids=["temporal-M", "spatial-N", "nonsymmetric-default-N", "prefactor-default-M"])
def test_library_study_rejects_a_ladder_on_a_fixed_axis(tmp_path, monkeypatch, run,
                                                        fields, message):
    # with M and N given as M_list/N_list, a temporal study solved at the
    # default M = 128 and a spatial one at the default N = 200
    def no_work(*args, **kwargs):
        raise AssertionError("meshed or solved a study with a dropped ladder")

    monkeypatch.setattr(harness, "solve_final", no_work)
    monkeypatch.setattr(harness, "build_mesh", no_work)
    cfg = StudyConfig(case="a", cache_dir=str(tmp_path / "cache"), **fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(cfg)
    assert not (tmp_path / "cache").exists()


def test_study_config_stores_each_ladder_as_a_tuple_of_its_type():
    cfg = StudyConfig(alpha=0.5, M=[4, 8], N=16, t_list=[1, 2], gamma=2, T=3)
    assert (cfg.alpha, cfg.M, cfg.N, cfg.t_list) == ((0.5,), (4, 8), (16,), (1.0, 2.0))
    assert all(type(t) is float for t in (*cfg.t_list, cfg.gamma, cfg.T))
    assert len(dataclasses.fields(StudyConfig)) == 14
    for kwargs, message in [(dict(M_ref=[8, 16]), "M_ref takes one value, got [8, 16]"),
                            (dict(case=("a",)), "case takes one value, got ('a',)"),
                            (dict(N=()), "N must not be empty"),
                            (dict(M=(4, 4)), "M must not repeat an entry, got (4, 4)"),
                            (dict(t_list=(1e-3, "x")),
                             "t_list must be a finite number > 0, got 'x'"),
                            (dict(T=True), "T must be a finite number > 0, got True")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StudyConfig(**kwargs)


def test_study_config_takes_numpy_numbers_arrays_and_paths(tmp_path):
    # gamma=np.int64(1) and alpha=np.array([...]) were rejected as not
    # numbers, and a pathlib.Path cache_dir as not a string, though
    # solve_final takes one
    plain = StudyConfig(gamma=1, alpha=[0.25, 0.5], M=[4, 8], N_ref=16,
                        cache_dir=str(tmp_path))
    numpy = StudyConfig(gamma=np.int64(1), alpha=np.array([0.25, 0.5]),
                        M=np.array([4, 8]), N_ref=np.int64(16), cache_dir=tmp_path)
    # the repr shows each stored value with its type
    assert repr(numpy) == repr(plain)

    def key(cfg):
        return harness._run_key(Run(cfg.case, cfg.alpha[1], cfg.gamma, cfg.T,
                                    cfg.family, cfg.M[1], cfg.N_ref))

    assert key(numpy) == key(plain)
    for bad in (2024, True, "", b"cache"):
        with pytest.raises(ValueError, match="^cache_dir must be a non-empty path string"):
            StudyConfig(cache_dir=bad)


def test_nonsymmetric_M_is_checked_before_any_solve(monkeypatch):
    # M = 6 used to fail only when its mesh was built, after the M_ref
    # reference (and, in a spatial study, the M = 8 row) had been solved
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return solve_final(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_final", recorded)
    rows = dict(M=(8, 6), M_ref=16, N=4)
    nonsym = dict(case="a", family="nonsymmetric", N=4, N_ref=8,
                  t_list=(1e-2,))
    # the reference M_ref and the fixed M of temporal and prefactor tables
    # were meshed unchecked, after the first solve
    for run, cfg, bad in (
            (run_nonsymmetric_study, StudyConfig(case="a", **rows), 6),
            (run_spatial_study, StudyConfig(case="a", family="nonsymmetric", **rows), 6),
            (run_spatial_study, StudyConfig(M=(8,), M_ref=18, **nonsym), 18),
            (run_prefactor_study, StudyConfig(axis="spatial", M=8, M_ref=30, **nonsym), 30),
            (run_prefactor_study, StudyConfig(axis="temporal", M=6, **nonsym), 6),
            (run_temporal_study, StudyConfig(M=6, **nonsym), 6)):
        with pytest.raises(ValueError, match="^M must be a positive multiple of 4 "
                           f"on the nonsymmetric family, got {bad}$"):
            run(cfg)
    assert calls == []


@pytest.mark.parametrize("run,fields,per_alpha", [
    (run_temporal_study, dict(M=4, N=(2, 4, 8), N_ref=16), 4),
    (run_spatial_study, dict(M=(2, 4), M_ref=8, N=4), 3),
    (run_nonsymmetric_study, dict(M=(4, 8), M_ref=16, N=4), 3),
    (run_spatial_study, dict(case="mode", M=(2, 4, 8), N=4), 3),
    (run_prefactor_study, dict(M=4, N=4, N_ref=8, t_list=(1e-2, 1e-3)), 4),
])
def test_each_run_of_a_table_is_solved_once_per_alpha(monkeypatch, run, fields, per_alpha):
    # without a cache_dir, a reference shared by every row is still solved
    # once per alpha, and no row is solved twice
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_final(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_final", counted)
    cfg = StudyConfig(**{"case": "a", **fields, "alpha": (0.25, 0.5)})
    assert len(run(cfg)) == 2
    assert len(calls) == 2 * per_alpha
    assert len(set(calls)) == len(calls)


def test_temporal_study_first_order(tmp_path):
    cfg = StudyConfig(case="a", alpha=(0.5,), M=8, N=(4, 8, 16),
                      N_ref=128, cache_dir=str(tmp_path))
    (rep,) = run_temporal_study(cfg)
    assert rep.param_name == "tau"
    assert rep.params == (0.25, 0.125, 0.0625)
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    # coarse steps sit above the asymptotic range; accept a generous band
    assert 0.6 < rep.fitted_rate < 1.6
    assert rep.theoretical_rate == 1.0


def test_prefactor_study_reports_theory(tmp_path):
    cfg = StudyConfig(case="a", alpha=(0.5,), M=4, N=4, N_ref=16,
                      t_list=(1e-2, 1e-3), axis="temporal",
                      cache_dir=str(tmp_path))
    (rep,) = run_prefactor_study(cfg)
    assert rep.kind == "prefactor-temporal"
    assert rep.param_name == "t_N"
    assert rep.theoretical_rate == pytest.approx(0.5)
    assert "theoretical_rate,0.500000" in rep.to_csv()

    cfg_b = StudyConfig(case="b", alpha=(0.5,), M=4, M_ref=8, N=4,
                        t_list=(1e-2, 1e-3), axis="spatial",
                        cache_dir=str(tmp_path))
    (rep_b,) = run_prefactor_study(cfg_b)
    assert rep_b.kind == "prefactor-spatial"
    assert rep_b.theoretical_rate == pytest.approx(-0.375)


def test_nonsymmetric_study_converges(tmp_path):
    cfg = StudyConfig(case="a", alpha=(0.5,), family="nonsymmetric",
                      M=(4, 8), M_ref=32, N=32, cache_dir=str(tmp_path))
    (rep,) = run_nonsymmetric_study(cfg)
    assert rep.kind == "nonsymmetric"
    assert rep.theoretical_rate == 2.0
    assert rep.errors[0] > rep.errors[1]
    assert rep.pairwise[1] > 1.2

    cfg_b = StudyConfig(case="b", alpha=(0.5,), family="nonsymmetric",
                        M=(4,), M_ref=32, N=32, cache_dir=str(tmp_path))
    (rep_b,) = run_nonsymmetric_study(cfg_b)
    assert rep_b.theoretical_rate == 1.5
    assert rep_b.fitted_rate is None  # one row cannot be fitted


def test_lumping_gap_shrinks_at_second_order():
    gaps = []
    for M in (8, 16, 32):
        mesh, g = solve_final(Run("a", 0.5, 1.0, 1.0, "symmetric", M, 16,
                                  scheme="galerkin-linearized"))
        _, l = solve_final(Run("a", 0.5, 1.0, 1.0, "symmetric", M, 16,
                               scheme="lumped-linearized"))
        gaps.append(l2_norm(mesh, g - l))
    assert gaps[0] > gaps[1] > gaps[2]
    rate = fit_rate([1.0 / 8, 1.0 / 16, 1.0 / 32], gaps)
    assert 1.6 < rate < 2.4


def test_mode_case_skips_spatial_reference_guard(tmp_path):
    # the oracle-referenced study has no M_ref constraint
    cfg = StudyConfig(case="mode", alpha=(0.5,), M=(2, 4), M_ref=2,
                      N=32, cache_dir=str(tmp_path))
    (rep,) = run_spatial_study(cfg)
    assert len(rep.errors) == 2
