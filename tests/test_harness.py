import numpy as np
import pytest

from frstokes.experiment_harness import (
    ExperimentReport,
    StudyConfig,
    build_mesh,
    fit_rate,
    run_nonsymmetric_study,
    run_prefactor_study,
    run_spatial_study,
    run_temporal_study,
    solve_final,
)
from frstokes.fem_assembly import l2_norm


def test_fit_rate_recovers_exact_power_law():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    for r in (0.5, 1.0, 2.0):
        errors = 3.7 * h**r
        assert fit_rate(h, errors) == pytest.approx(r, abs=1e-12)
    assert fit_rate([0.1], [1e-3]) is None
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [1e-3])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [1e-3, -1e-4])


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
        StudyConfig(alphas=())


def test_build_mesh_dispatch():
    assert build_mesh("symmetric", 4).family == "symmetric(4)"
    assert build_mesh("nonsymmetric", 4).family == "nonsymmetric(4)"
    with pytest.raises(ValueError):
        build_mesh("kagome", 4)


def test_solve_final_cache_hit(tmp_path):
    cache = str(tmp_path / "runs")
    kw = dict(case="a", alpha=0.5, gamma=1.0, T=1.0, family="symmetric",
              M=4, N=4, cache_dir=cache)
    mesh1, f1 = solve_final(**kw)
    files = list((tmp_path / "runs").glob("run-*.npz"))
    assert len(files) == 1
    mesh2, f2 = solve_final(**kw)
    assert np.array_equal(f1.values, f2.values)
    assert len(list((tmp_path / "runs").glob("run-*.npz"))) == 1

    # prove the second call reads the file: poison it and call again
    with np.load(files[0]) as data:
        key = data["key"]
    np.savez(files[0], values=np.full(mesh1.n_nodes, 7.0), key=key)
    _, f3 = solve_final(**kw)
    assert np.all(f3.values == 7.0)

    # a different parameter produces a second artifact
    solve_final(**{**kw, "alpha": 0.25})
    assert len(list((tmp_path / "runs").glob("run-*.npz"))) == 2


def test_solve_final_recomputes_on_key_mismatch(tmp_path):
    cache = str(tmp_path / "runs")
    kw = dict(case="a", alpha=0.5, gamma=1.0, T=1.0, family="symmetric",
              M=4, N=4, cache_dir=cache)
    mesh, fresh = solve_final(**kw)
    (path,) = (tmp_path / "runs").glob("run-*.npz")
    with np.load(path) as data:
        key = str(data["key"])
    # a file at the digest path written by another solver or format
    np.savez(path, values=np.full(mesh.n_nodes, 7.0), key=np.array("stale"))
    _, again = solve_final(**kw)
    assert np.array_equal(again.values, fresh.values)
    with np.load(path) as data:
        assert str(data["key"]) == key
        assert np.array_equal(data["values"], fresh.values)


def test_solve_final_cache_key_ignores_tol(tmp_path, monkeypatch):
    from frstokes import experiment_harness

    runs = []
    stepper = experiment_harness.step_linearized

    def counting_stepper(*args, **kwargs):
        runs.append(1)
        return stepper(*args, **kwargs)

    monkeypatch.setattr(experiment_harness, "step_linearized", counting_stepper)
    kw = dict(case="a", alpha=0.5, gamma=1.0, T=1.0, family="symmetric",
              M=4, N=4, cache_dir=str(tmp_path / "runs"))
    _, f1 = solve_final(**kw, tol=1e-12)
    _, f2 = solve_final(**kw, tol=1e-6)
    assert len(list((tmp_path / "runs").glob("run-*.npz"))) == 1
    assert len(runs) == 1  # the second call is served from the cache
    assert np.array_equal(f1.values, f2.values)


def test_solve_final_deterministic_without_cache():
    kw = dict(case="b", alpha=0.5, gamma=1.0, T=1.0, family="symmetric",
              M=4, N=4)
    _, f1 = solve_final(**kw)
    _, f2 = solve_final(**kw)
    assert np.array_equal(f1.values, f2.values)


def test_spatial_study_single_mode_against_oracle(tmp_path):
    cfg = StudyConfig(case="mode", alphas=(0.5,), M_list=(2, 4, 8), N=128,
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


def test_spatial_study_requires_finer_reference():
    cfg = StudyConfig(case="a", M_list=(4, 8), M_ref=8, N=4)
    with pytest.raises(ValueError):
        run_spatial_study(cfg)
    cfg = StudyConfig(case="a", N_list=(4, 8), N_ref=8, M=4)
    with pytest.raises(ValueError):
        run_temporal_study(cfg)


def test_temporal_study_first_order(tmp_path):
    cfg = StudyConfig(case="a", alphas=(0.5,), M=8, N_list=(4, 8, 16),
                      N_ref=128, cache_dir=str(tmp_path))
    (rep,) = run_temporal_study(cfg)
    assert rep.param_name == "tau"
    assert rep.params == (0.25, 0.125, 0.0625)
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    # coarse steps sit above the asymptotic range; accept a generous band
    assert 0.6 < rep.fitted_rate < 1.6
    assert rep.theoretical_rate == 1.0


def test_prefactor_study_reports_theory(tmp_path):
    cfg = StudyConfig(case="a", alphas=(0.5,), M=4, N=4, N_ref=16,
                      t_list=(1e-2, 1e-3), axis="temporal",
                      cache_dir=str(tmp_path))
    (rep,) = run_prefactor_study(cfg)
    assert rep.kind == "prefactor-temporal"
    assert rep.param_name == "t_N"
    assert rep.theoretical_rate == pytest.approx(0.5)
    assert "theoretical_rate,0.500000" in rep.to_csv()

    cfg_b = StudyConfig(case="b", alphas=(0.5,), M=4, M_ref=8, N=4,
                        t_list=(1e-2, 1e-3), axis="spatial",
                        cache_dir=str(tmp_path))
    (rep_b,) = run_prefactor_study(cfg_b)
    assert rep_b.kind == "prefactor-spatial"
    assert rep_b.theoretical_rate == pytest.approx(-0.375)


def test_nonsymmetric_study_converges(tmp_path):
    cfg = StudyConfig(case="a", alphas=(0.5,), family="nonsymmetric",
                      M_list=(4, 8), M_ref=32, N=32, cache_dir=str(tmp_path))
    (rep,) = run_nonsymmetric_study(cfg)
    assert rep.kind == "nonsymmetric"
    assert rep.theoretical_rate == 2.0
    assert rep.errors[0] > rep.errors[1]
    assert rep.pairwise[1] > 1.2

    cfg_b = StudyConfig(case="b", alphas=(0.5,), family="nonsymmetric",
                        M_list=(4,), M_ref=32, N=32, cache_dir=str(tmp_path))
    (rep_b,) = run_nonsymmetric_study(cfg_b)
    assert rep_b.theoretical_rate == 1.5
    assert rep_b.fitted_rate is None  # one row cannot be fitted


def test_lumping_gap_shrinks_at_second_order():
    gaps = []
    for M in (8, 16, 32):
        mesh, g = solve_final("a", 0.5, 1.0, 1.0, "symmetric", M, 16,
                              scheme="galerkin-linearized")
        _, l = solve_final("a", 0.5, 1.0, 1.0, "symmetric", M, 16,
                           scheme="lumped-linearized")
        gaps.append(l2_norm(mesh, g.values - l.values))
    assert gaps[0] > gaps[1] > gaps[2]
    rate = fit_rate([1.0 / 8, 1.0 / 16, 1.0 / 32], gaps)
    assert 1.6 < rate < 2.4


def test_mode_case_skips_spatial_reference_guard(tmp_path):
    # the oracle-referenced study has no M_ref constraint
    cfg = StudyConfig(case="mode", alphas=(0.5,), M_list=(2, 4), M_ref=2,
                      N=32, cache_dir=str(tmp_path))
    (rep,) = run_spatial_study(cfg)
    assert len(rep.errors) == 2
