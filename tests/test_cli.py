import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import frstokes
from frstokes.cli import main, parse_config, study_config_from_dict
from frstokes.cq_time_stepper import SchemeConfig, step_linearized
from frstokes.experiment_harness import build_mesh, _problem
from frstokes.fem_assembly import l2_norm
from frstokes.mesh import format_mesh_text
from frstokes.spectral_oracle import mode_response


def test_parse_config_key_value(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study setup\n"
        "case = a\n"
        "alpha = 0.25,0.5\n"
        "M = 8,16\n"
        "N = 200\n"
        "source_lumping = true\n"
        "tol = 1e-10\n"
        "\n"
    )
    raw = parse_config(str(cfg))
    assert raw == {"case": "a", "alpha": [0.25, 0.5], "M": [8, 16],
                   "N": 200, "source_lumping": True, "tol": 1e-10}


def test_parse_config_json(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text('{"case": "b", "alpha": [0.5], "M": 8}\n')
    assert parse_config(str(cfg)) == {"case": "b", "alpha": [0.5], "M": 8}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config(str(cfg))


def test_study_config_from_dict_mappings():
    cfg = study_config_from_dict(
        {"alpha": [0.25, 0.75], "M": [8, 16], "N": 100, "case": "b",
         "M_ref": 32, "T": 2, "gamma": 2})
    assert cfg.alphas == (0.25, 0.75)
    assert cfg.M_list == (8, 16)
    assert cfg.N == 100 and cfg.N_list == (100,)
    assert cfg.case == "b" and cfg.M_ref == 32
    assert cfg.T == 2.0 and cfg.gamma == 2.0

    scalar = study_config_from_dict({"alpha": 0.5, "M": 64})
    assert scalar.alphas == (0.5,)
    assert scalar.M == 64 and scalar.M_list == (64,)

    with pytest.raises(ValueError, match="unknown config keys"):
        study_config_from_dict({"beta": 1})


def test_mesh_subcommand(tmp_path, capsys):
    assert main(["mesh", "--family", "symmetric", "--M", "2"]) == 0
    out = capsys.readouterr().out
    assert out == format_mesh_text(build_mesh("symmetric", 2))
    assert out.startswith("nodes 9 triangles 8\n")

    target = tmp_path / "mesh.txt"
    main(["mesh", "--family", "nonsymmetric", "--M", "4", "--out", str(target)])
    assert target.read_text() == format_mesh_text(build_mesh("nonsymmetric", 4))


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--lambda", "0", "--alpha", "0.5", "--t", "1.0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-13)

    lam = 2.0 * np.pi**2
    main(["oracle", "--lambda", str(lam), "--alpha", "0.5",
          "--gamma", "1.0", "--t", "1.0"])
    got = float(capsys.readouterr().out)
    assert got == pytest.approx(mode_response(lam, 1.0, 0.5, 1.0), rel=1e-14)


def run_config_text():
    return ("case = a\nfamily = symmetric\nM = 4\nN = 4\n"
            "alpha = 0.5\ngamma = 1.0\nT = 1.0\n")


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_config_text())
    field_file = tmp_path / "field.txt"
    assert main(["run", "--config", str(cfg), "--out", str(field_file)]) == 0
    out = capsys.readouterr().out
    assert "family=symmetric(4) N=4 alpha=0.5 case=a scheme=lumped-linearized" in out

    mesh = build_mesh("symmetric", 4)
    problem = _problem("a", 0.5, 1.0, 1.0)
    traj = step_linearized(SchemeConfig(variant="lumped-linearized", N=4),
                           problem, mesh)
    want = traj.final()
    norm_line = [l for l in out.splitlines() if l.startswith("final_l2_norm=")][0]
    assert float(norm_line.split("=")[1]) == pytest.approx(
        l2_norm(mesh, want), rel=1e-12)

    lines = field_file.read_text().strip().splitlines()
    assert len(lines) == mesh.n_nodes
    values = np.array([float(l.split()[1]) for l in lines])
    assert np.allclose(values, want.values, atol=1e-15)


def test_run_subcommand_json_equivalent(tmp_path, capsys):
    kv = tmp_path / "run.cfg"
    kv.write_text(run_config_text())
    js = tmp_path / "run.json"
    js.write_text('{"case": "a", "family": "symmetric", "M": 4, "N": 4,'
                  ' "alpha": 0.5, "gamma": 1.0, "T": 1.0}')
    main(["run", "--config", str(kv)])
    out_kv = capsys.readouterr().out
    main(["run", "--config", str(js)])
    out_js = capsys.readouterr().out
    assert out_kv == out_js


@pytest.mark.parametrize("key,value", [("source_lumping", '"false"'),
                                       ("snapshot_stride", "-3"),
                                       ("snapshot_stride", "2.5")])
def test_run_subcommand_rejects_bad_scheme_options(tmp_path, capsys, key, value):
    js = tmp_path / "run.json"
    js.write_text('{"case": "a", "family": "symmetric", "M": 4, "N": 4,'
                  f' "alpha": 0.5, "{key}": {value}}}')
    with pytest.raises(ValueError, match=key):
        main(["run", "--config", str(js)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key,value", [("N", "2.5"), ("N", "4.0"), ("N", "0"),
                                       ("M", "2.5"), ("M", '"abc"'), ("M", "true")])
def test_run_subcommand_rejects_non_integer_counts(tmp_path, capsys, key, value):
    js = tmp_path / "run.json"
    counts = {"M": "4", "N": "4", key: value}
    js.write_text(f'{{"case": "a", "M": {counts["M"]}, "N": {counts["N"]}}}')
    with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
        main(["run", "--config", str(js)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("raw", [{"N": [5, 7.5]}, {"N": 2.5}, {"M": [8, 0]},
                                 {"M": "16"}, {"M_ref": "abc"}, {"N_ref": 640.0},
                                 {"N_ref": True}])
def test_study_config_rejects_non_integer_counts(raw):
    with pytest.raises(ValueError, match="must be a positive integer"):
        study_config_from_dict(raw)


def test_convergence_subcommand_rejects_non_integer_counts(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = mode\nalpha = 0.5\nM = 8\nN = 5,7.5\nN_ref = 40\n"
                   f"cache_dir = {tmp_path / 'cache'}\n")
    with pytest.raises(ValueError, match="N_list must be a positive integer"):
        main(["convergence", "temporal", "--config", str(cfg)])
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "cache").exists()


def test_study_config_has_no_snapshot_stride_key():
    with pytest.raises(ValueError, match="unknown config keys: \\['snapshot_stride'\\]"):
        study_config_from_dict({"snapshot_stride": -3})
    with pytest.raises(ValueError, match="unknown config keys"):
        study_config_from_dict({"M": 8, "snapshot_stride": 4})


def test_study_config_rejects_string_source_lumping():
    with pytest.raises(ValueError, match="source_lumping"):
        study_config_from_dict({"source_lumping": "false"})
    assert study_config_from_dict({"source_lumping": False}).source_lumping is False


def test_convergence_subcommand_stdout(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = mode\nalpha = 0.5\nM = 2,4\nN = 32\n"
                   f"cache_dir = {tmp_path / 'cache'}\n")
    assert main(["convergence", "spatial", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("param,error_l2,rate_pairwise\n")
    assert "fitted_rate," in out
    assert "theoretical_rate,2.000000" in out


def test_convergence_subcommand_files_and_markdown(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = mode\nalpha = 0.5\nM = 2,4\nN = 32\n"
                   f"cache_dir = {tmp_path / 'cache'}\n")
    base = tmp_path / "out" / "report"
    (tmp_path / "out").mkdir()
    assert main(["convergence", "spatial", "--config", str(cfg),
                 "--out", str(base)]) == 0
    msg = capsys.readouterr().out
    path = f"{base}-spatial-mode-alpha0.5.csv"
    assert f"wrote {path}" in msg
    text = open(path).read()
    assert text.startswith("param,error_l2,rate_pairwise\n")

    assert main(["convergence", "spatial", "--config", str(cfg), "--md"]) == 0
    md = capsys.readouterr().out
    assert "| h | error_l2 | rate |" in md


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.skipif(shutil.which("frs") is None,
                    reason="the frs console script is not installed on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["frs", "oracle", "--lambda", "0", "--alpha", "0.5", "--t", "2.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-13)
    helper = subprocess.run(["frs", "--help"], capture_output=True, text=True)
    assert helper.returncode == 0
    assert "convergence" in helper.stdout


def _tree_env():
    """Environment whose PYTHONPATH leads with the tree under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(frstokes.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_module_entry_point():
    # The same frstokes.cli:main that [project.scripts] installs as frs,
    # run without an install from the tree under test.
    env = _tree_env()
    frs = [sys.executable, "-m", "frstokes.cli"]
    proc = subprocess.run(
        frs + ["oracle", "--lambda", "0", "--alpha", "0.5", "--t", "2.0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-13)
    helper = subprocess.run(frs + ["--help"], capture_output=True, text=True, env=env)
    assert helper.returncode == 0
    assert "convergence" in helper.stdout


def test_package_import_defers_heavy_scipy_modules():
    # scipy.sparse.linalg (the factorization) and scipy.special (the
    # oracle's binomials) are imported where they are used, so starting
    # any frs command does not pay for them.
    probe = ("import sys, frstokes; "
             "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.special') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_entry_point():
    # python -m frstokes runs the same main through frstokes/__main__.py
    proc = subprocess.run(
        [sys.executable, "-m", "frstokes",
         "oracle", "--lambda", "0", "--alpha", "0.5", "--t", "2.0"],
        capture_output=True, text=True, env=_tree_env())
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-13)
