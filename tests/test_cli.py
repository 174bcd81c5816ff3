import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import tree_env, use_hand_built_contour
from frstokes import cli
from frstokes.cli import main, parse_config, study_config_from_dict
from frstokes.cq_time_stepper import (DivergedError, PicardConvergenceError,
                                      SchemeConfig, step_linearized)
from frstokes.experiment_harness import (Run, StudyConfig, build_mesh, _problem,
                                         run_temporal_study)
from frstokes.fem_assembly import l2_norm
from frstokes.mesh import format_mesh_text
from frstokes.spectral_oracle import ContourResolutionError, mode_response


def assert_rejected(capsys, argv, message):
    """``main(argv)`` returns 2 and prints nothing but one stderr line,
    ``frs: <text>``, with ``message`` searched in the text as
    ``pytest.raises(match=)`` searches an exception message."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("frs: ")
    assert re.search(message, line[len("frs: "):]), line


def with_line(base: str, line: str) -> str:
    """The key=value lines ``base`` with ``line`` in place of the line that
    sets its key: a config may set a key once."""
    key = line.split("=", 1)[0].strip()
    kept = [l for l in base.splitlines() if l.split("=", 1)[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


def test_parse_config_key_value(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study setup\n"
        "case = a\n"
        "alpha = 0.25,0.5\n"
        "M = 8,16\n"
        "N = 200\n"
        "source_lumping = true\n"
        "T = 1e-10\n"
        "\n"
    )
    raw = parse_config(str(cfg))
    assert raw == {"case": "a", "alpha": [0.25, 0.5], "M": [8, 16],
                   "N": 200, "source_lumping": True, "T": 1e-10}


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
    assert cfg.alpha == (0.25, 0.75)
    assert cfg.M == (8, 16)
    assert cfg.N == (100,)
    assert cfg.case == "b" and cfg.M_ref == 32
    assert cfg.T == 2.0 and cfg.gamma == 2.0

    scalar = study_config_from_dict({"alpha": 0.5, "M": 64})
    assert scalar.alpha == (0.5,)
    assert scalar.M == (64,)

    with pytest.raises(ValueError, match="unknown config keys"):
        study_config_from_dict({"beta": 1})


def test_study_config_from_dict_accepts_every_field_key():
    defaults = StudyConfig()
    for field in dataclasses.fields(StudyConfig):
        value = getattr(defaults, field.name)
        assert study_config_from_dict({field.name: value}) == defaults, field.name


def test_config_keys_are_exactly_the_field_names(tmp_path, capsys, monkeypatch):
    # the field "alphas" was read from the key "alpha", so an error named a
    # key that the config never held
    study_keys = [f.name for f in dataclasses.fields(StudyConfig)]
    run_keys = [f.name for f in dataclasses.fields(Run)]
    studies, runs = [], []

    def study(cfg):
        studies.append(cfg)
        return []

    def solve_final(run):
        runs.append(run)
        mesh = build_mesh(run.family, run.M)
        return mesh, np.zeros(mesh.n_nodes)

    monkeypatch.setitem(cli._STUDY_RUNNERS, "temporal", study)
    monkeypatch.setattr(cli.harness, "solve_final", solve_final)
    cfg = tmp_path / "config.json"
    # every StudyConfig field under its own name, at its default
    cfg.write_text(json.dumps(dataclasses.asdict(StudyConfig())))
    assert main(["convergence", "temporal", "--config", str(cfg)]) == 0
    assert studies == [StudyConfig()]
    # every Run field under its own name
    run = Run("b", 0.3, 2.0, 0.5, "nonsymmetric", 4, 3, "galerkin-implicit", True)
    cfg.write_text(json.dumps(dataclasses.asdict(run)))
    assert main(["run", "--config", str(cfg)]) == 0
    assert runs == [run]
    capsys.readouterr()
    for key in set(study_keys) - set(run_keys):
        cfg.write_text(json.dumps({**dataclasses.asdict(run), key: None}))
        assert_rejected(capsys, ["run", "--config", str(cfg)],
                        rf"^unknown config keys: \['{key}'\]$")
    for argv in (["convergence", "temporal"], ["run"]):
        cfg.write_text('{"alphas": 0.5}')
        assert_rejected(capsys, [*argv, "--config", str(cfg)],
                        r"^unknown config keys: \['alphas'\]$")


@pytest.mark.parametrize("name,text,message", [
    ("study.cfg", "case = a\nM = 4\n# again\nM = 8\n", ":4: M given twice"),
    ("study.json", '{"case": "a", "M": 4, "M": 8}', ": M given twice"),
], ids=["key-value", "json"])
def test_parse_config_rejects_a_repeated_key(tmp_path, capsys, name, text, message):
    # the last value won, so M = 4 followed by M = 8 silently ran at M = 8
    cfg = tmp_path / name
    cfg.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg) + message)}$"):
        parse_config(str(cfg))
    assert_rejected(capsys, ["run", "--config", str(cfg)],
                    f"^{re.escape(str(cfg) + message)}$")


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

    # t > 1: the heat kernel e^-30; an arc of radius 1, not 1/t, gives -877
    main(["oracle", "--lambda", "1", "--alpha", "0.5", "--gamma", "0", "--t", "30"])
    assert float(capsys.readouterr().out) == pytest.approx(np.exp(-30.0), rel=1e-9)


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
    assert np.allclose(values, want, atol=1e-15)


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


def test_run_subcommand_rejects_unknown_config_keys(tmp_path, capsys):
    # misspelled alpha and scheme must not fall back to the defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = a\nM = 4\nN = 3\nalpah = 0.3\nschem = galerkin-implicit\n")
    assert_rejected(capsys, ["run", "--config", str(cfg)],
                    r"unknown config keys: \['alpah', 'schem'\]")


def test_run_subcommand_accepts_every_key_it_reads(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = a\nfamily = symmetric\nM = 4\nN = 3\nalpha = 0.3\n"
                   "gamma = 1.0\nT = 1.0\nscheme = galerkin-implicit\n"
                   "source_lumping = false\n")
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "N=3 alpha=0.3 case=a scheme=galerkin-implicit" in out


def test_run_subcommand_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = b\n")
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family=symmetric(16) N=100 alpha=0.5 case=b "
                          "scheme=lumped-linearized\n")


def test_run_fields_agree_across_blas_thread_counts(tmp_path):
    # N = 128 >= 2 * 32 runs the block history products and the fold, whose
    # BLAS calls change with the thread count; the README's contract is
    # bitwise equality at a fixed thread count and 1e-12 relative across
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = a\nscheme = lumped-linearized\nM = 16\nN = 128\n")
    fields = {}
    for name, threads in (("one", "1"), ("two", "2"), ("two-again", "2")):
        env = tree_env()
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        out = tmp_path / f"{name}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "frstokes", "run", "--config", str(cfg),
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        fields[name] = np.loadtxt(out)[:, 1]
    assert np.array_equal(fields["two"], fields["two-again"])
    scale = np.max(np.abs(fields["one"]))
    assert np.max(np.abs(fields["one"] - fields["two"])) <= 1e-12 * scale


@pytest.mark.parametrize("line,message", [
    # one run takes one value per key
    ("alpha = 0.25,0.5", "^alpha takes one value"), ("M = 4,8", "^M takes one value"),
    ("N = 4,8", "^N takes one value"), ("gamma = 1,2", "^gamma takes one value"),
    # study-only keys and the removed solver tolerance
    ("N_ref = 8", r"unknown config keys: \['N_ref'\]"),
    ("M_ref = 8", r"unknown config keys: \['M_ref'\]"),
    ("t_list = 0.001", r"unknown config keys: \['t_list'\]"),
    ("axis = spatial", r"unknown config keys: \['axis'\]"),
    ("cache_dir = runs", r"unknown config keys: \['cache_dir'\]"),
    ("tol = 1e-12", r"unknown config keys: \['tol'\]"),
    # problem data is checked before the solve
    ("gamma = nan", "gamma must be a finite number > 0"),
    ("gamma = 0", "gamma must be a finite number > 0"),
    ("T = inf", "T must be a finite number > 0"),
    ("T = -1", "T must be a finite number > 0"),
])
def test_run_subcommand_rejects_bad_values(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_line("case = a\nM = 4\nN = 4", line))
    assert_rejected(capsys, ["run", "--config", str(cfg)], message)


@pytest.mark.parametrize("key,value", [("source_lumping", '"false"'),
                                       ("snapshot_stride", "-3"),
                                       ("snapshot_stride", "2.5")])
def test_run_subcommand_rejects_bad_scheme_options(tmp_path, capsys, key, value):
    js = tmp_path / "run.json"
    js.write_text('{"case": "a", "family": "symmetric", "M": 4, "N": 4,'
                  f' "alpha": 0.5, "{key}": {value}}}')
    assert_rejected(capsys, ["run", "--config", str(js)], key)


@pytest.mark.parametrize("key,value", [("N", "2.5"), ("N", "4.0"), ("N", "0"),
                                       ("M", "2.5"), ("M", '"abc"'), ("M", "true")])
def test_run_subcommand_rejects_non_integer_counts(tmp_path, capsys, key, value):
    js = tmp_path / "run.json"
    counts = {"M": "4", "N": "4", key: value}
    js.write_text(f'{{"case": "a", "M": {counts["M"]}, "N": {counts["N"]}}}')
    assert_rejected(capsys, ["run", "--config", str(js)],
                    f"{key} must be a positive integer")


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
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg)],
                    "^every entry of N must be a positive integer, got 7.5$")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("line,message", [
    # one value per scalar key; a list is not silently taken or cast
    ("gamma = 1,2", r"^gamma takes one value, got \[1, 2\]"),
    ("T = 1,2", r"^T takes one value, got \[1, 2\]"),
    ("cache_dir = a,b", r"^cache_dir takes one value, got \['a', 'b'\]"),
    # these two ids keep the messages' wording before the rules were shared
    pytest.param("gamma = abc", "^gamma must be a finite number > 0, got 'abc'",
                 id="gamma = abc-^gamma must be a number, got 'abc'"),
    pytest.param("T = true", "^T must be a finite number > 0, got True",
                 id="T = true-^T must be a number, got True"),
    ("alpha = 0.5,abc", r"^alpha must be a finite number in \(0, 1\), got 'abc'"),
    ("t_list = 1e-3,abc", "^t_list must be a finite number > 0, got 'abc'"),
    ("axis = foo", "^prefactor axis must be spatial or temporal, got 'foo'$"),
    # a repeated alpha solved and wrote the whole table twice; the message
    # named the field "alphas", as the id still does
    pytest.param("alpha = 0.5,0.5", r"^alpha must not repeat an entry, got \(0\.5, 0\.5\)$",
                 id=r"alpha = 0.5,0.5-^alphas must not repeat an entry, got \(0\.5, 0\.5\)$"),
    # the message named the "variant" of a SchemeConfig built only to check it
    ("scheme = foo", r"^unknown scheme 'foo'; choose from \('galerkin-linearized', "),
])
def test_convergence_subcommand_rejects_bad_scalar_values(tmp_path, capsys, line, message):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"case = mode\nM = 4\nN = 4,8\nN_ref = 16\n{line}\n")
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg)],
                    message)


def test_key_value_cache_dir_stays_a_string(tmp_path, capsys, monkeypatch):
    # "cache_dir = 2024" was parsed as the int 2024, which passed the config
    # and crashed the first solve with a TypeError traceback in os.path.join
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = a\nM = 4\nN = 4,8\nN_ref = 16\ncache_dir = 2024\n")
    assert parse_config(str(cfg))["cache_dir"] == "2024"
    assert main(["convergence", "temporal", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert len(list((tmp_path / "2024").glob("run-*.npz"))) == 3
    cfg.write_text("cache_dir = true\n")
    assert parse_config(str(cfg)) == {"cache_dir": "true"}


@pytest.mark.parametrize("value", ["true", "5", "2.5", '""'])
def test_json_cache_dir_must_be_a_path_string(tmp_path, capsys, value):
    js = tmp_path / "study.json"
    js.write_text('{"case": "a", "M": 4, "N": [4, 8], "N_ref": 16, '
                  f'"cache_dir": {value}}}')
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(js)],
                    "^cache_dir must be a non-empty path string, got ")
    assert list(tmp_path.iterdir()) == [js]


def test_cache_dir_that_is_a_file_is_one_line(tmp_path, capsys):
    # it passed the config and ended the first solve in a FileExistsError
    # (or, under the file, NotADirectoryError) traceback from os.makedirs
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = tmp_path / "study.cfg"
    for cache_dir, reason in ((afile, "File exists"), (afile / "runs", "Not a directory")):
        cfg.write_text(f"case = a\nM = 4\nN = 2,4\nN_ref = 8\ncache_dir = {cache_dir}\n")
        assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg)],
                        f"^cannot create cache_dir {re.escape(repr(str(cache_dir)))}: "
                        f"{reason}$")
    assert afile.read_text() == ""


def test_cache_file_that_cannot_be_written_is_one_line(tmp_path, capsys):
    # a directory at a cache file's name ended the study in an
    # IsADirectoryError traceback from os.replace
    cache = tmp_path / "runs"
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"case = a\nM = 4\nN = 2,4\nN_ref = 8\ncache_dir = {cache}\n")
    assert main(["convergence", "temporal", "--config", str(cfg),
                 "--out", str(tmp_path / "study")]) == 0
    for path in cache.iterdir():
        path.unlink()
        path.mkdir()
    capsys.readouterr()
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg),
                             "--out", str(tmp_path / "study")],
                    f"^cannot write cache file {re.escape(str(cache))}/run-[0-9a-f]+\\.npz: "
                    "Is a directory$")


def test_oracle_t_too_small_for_the_contour_is_one_line(capsys):
    # numpy overflow warnings came first, then a message blaming the
    # eigenvalue or gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected(capsys, ["oracle", "--lambda", "1", "--alpha", "0.5",
                                 "--t", "1e-307"],
                        "^t too small for the contour: .* got 1e-307$")


def test_zero_error_row_names_its_parameter(tmp_path, capsys):
    # at t_N = 1e-300 both fields equal the projected data; this exited 2
    # with "params and errors must be strictly positive", naming no row
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = a\nM = 4\nN = 4\nN_ref = 8\nt_list = 1e-300,1e-3\n")
    assert_rejected(capsys, ["convergence", "prefactor", "--config", str(cfg)],
                    r"^t_N = 1e-300: the run equals its reference \(L2 error 0\), "
                    "so it has no rate$")


def test_prefactor_reference_must_be_finer(tmp_path, capsys):
    # with M = M_ref = 128 this ran every solve of the table and then died
    # in a ZeroDivisionError traceback
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"case = a\naxis = spatial\nM = 128\nN = 200\n"
                   f"cache_dir = {tmp_path / 'cache'}\n")
    assert_rejected(capsys, ["convergence", "prefactor", "--config", str(cfg)],
                    r"^M_ref must exceed every tested M \(128\) in a "
                    r"prefactor-spatial study, got 128$")
    assert not (tmp_path / "cache").exists()


# Small valid configs, one per command.  Every count is at most 8, so the
# one key a draw replaces never leaves a count at its 128/640 default.
_BASE_CONFIGS = {
    "run": {"case": "a", "M": 4, "N": 4},
    "spatial": {"case": "a", "M": [2, 4], "N": 4, "M_ref": 8, "N_ref": 8},
    "temporal": {"case": "a", "M": 4, "N": [2, 4], "M_ref": 8, "N_ref": 8},
    "prefactor": {"case": "a", "M": 4, "N": 4, "M_ref": 8, "N_ref": 8,
                  "t_list": [1e-2, 1e-3]},
    "nonsymmetric": {"case": "a", "M": [4], "N": 4, "M_ref": 8, "N_ref": 8},
}
_SCALARS = st.one_of(
    st.booleans(), st.none(), st.integers(-2, 8),
    st.sampled_from([0.0, -1.0, 1e-3, 0.25, 0.5, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["a", "b", "mode", "symmetric", "nonsymmetric", "spatial",
                     "temporal", "lumped-linearized", "galerkin-linearized",
                     "galerkin-implicit", "runs", "abc", ""]))


def _key_value_text(value) -> str:
    if isinstance(value, list):  # a trailing comma keeps one entry a list
        return ",".join(map(str, value)) + ("," if len(value) == 1 else "")
    return str(value)


@settings(max_examples=300)
@example(command="prefactor", key="N_ref", value=4, as_json=False)
@example(command="temporal", key="cache_dir", value=5, as_json=False)
@example(command="temporal", key="cache_dir", value=True, as_json=True)
@example(command="temporal", key="M", value=[2, 4], as_json=False)
# key: every StudyConfig field, so a new field is fuzzed too
@given(command=st.sampled_from(sorted(_BASE_CONFIGS)),
       key=st.sampled_from([f.name for f in dataclasses.fields(StudyConfig)]),
       value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)), as_json=st.booleans())
def _config_runs_or_exits_2(command, key, value, as_json):
    raw = {**_BASE_CONFIGS[command], key: value}
    path = "case.json" if as_json else "case.cfg"
    with open(path, "w") as fh:
        fh.write(json.dumps(raw) if as_json else
                 "".join(f"{k} = {_key_value_text(v)}\n" for k, v in raw.items()))
    argv = ["run"] if command == "run" else ["convergence", command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--config", path])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("frs: ")


def test_cli_configs_run_or_exit_2_with_one_line(tmp_path, monkeypatch):
    # wrong types, lists, NaN/inf, bools, non-positive counts and references
    # that are not finer, one documented key at a time, through cli.main
    monkeypatch.chdir(tmp_path)
    _config_runs_or_exits_2()


@pytest.mark.parametrize("command", [["run"], ["convergence", "temporal"]])
def test_config_out_key_is_rejected(tmp_path, capsys, command):
    # the output path is the --out flag, never a config key
    cfg = tmp_path / "case.cfg"
    cfg.write_text(f"case = a\nM = 4\nN = 4\nout = {tmp_path / 'report'}\n")
    assert_rejected(capsys, command + ["--config", str(cfg)],
                    r"unknown config keys: \['out'\]")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("raw,name", [({"M": []}, "M"), ({"N": []}, "N"),
                                      ({"t_list": []}, "t_list"), ({"alpha": []}, "alpha")])
def test_study_config_rejects_empty_ladders(raw, name):
    with pytest.raises(ValueError, match=f"^{name} must not be empty"):
        study_config_from_dict(raw)


@pytest.mark.parametrize("line,name", [("M = ,", "M"), ("N = ,", "N"),
                                       ("t_list = ,", "t_list"), ("alpha = ,", "alpha")])
def test_convergence_subcommand_rejects_empty_ladders(tmp_path, capsys, line, name):
    # "N = ," used to reach the study and fail in max() of an empty sequence
    cfg = tmp_path / "study.cfg"
    cfg.write_text(with_line(f"case = a\nM = 4\nN = 4\nN_ref = 8\n"
                             f"cache_dir = {tmp_path / 'cache'}", line))
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg)],
                    f"^{name} must not be empty$")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("study,axes,message", [
    ("temporal", "M = 4,8\nN = 2,4", "M takes one value in a temporal study, got [4, 8]"),
    ("spatial", "M = 2,4\nN = 2,4", "N takes one value in a spatial study, got [2, 4]"),
    ("nonsymmetric", "M = 4\nN = 2,4",
     "N takes one value in a nonsymmetric study, got [2, 4]"),
    ("prefactor", "M = 4,8\nN = 4", "M takes one value in a prefactor study, got [4, 8]"),
    ("prefactor", "M = 4\nN = 4,8", "N takes one value in a prefactor study, got [4, 8]"),
], ids=["temporal-M", "spatial-N", "nonsymmetric-N", "prefactor-M", "prefactor-N"])
def test_study_rejects_a_ladder_on_a_fixed_axis(tmp_path, capsys, monkeypatch, study,
                                                axes, message):
    # a temporal study given M = 4,8 used to run its whole table at the
    # StudyConfig default M = 128, and a list N in a spatial study at N = 200
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a study with a dropped ladder")

    monkeypatch.setattr(cli.harness, "solve_final", no_solve)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"case = a\n{axes}\nM_ref = 16\nN_ref = 16\n"
                   f"cache_dir = {tmp_path / 'cache'}\n")
    assert_rejected(capsys, ["convergence", study, "--config", str(cfg)],
                    f"^{re.escape(message)}$")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("line,fields,message,run_message", [
    ("alpha = 0.5,abc", dict(alpha=(0.5, "abc")),
     "alpha must be a finite number in (0, 1), got 'abc'", None),
    ("gamma = 1,2", dict(gamma=[1, 2]), "gamma takes one value, got [1, 2]", None),
    ("M = 4,8", dict(M=[4, 8]), "M takes one value in a temporal study, got [4, 8]",
     "M takes one value in a run config, got [4, 8]"),
], ids=["ladder", "scalar", "fixed-axis"])
def test_library_and_cli_reject_a_value_with_one_message(tmp_path, capsys, monkeypatch,
                                                         line, fields, message,
                                                         run_message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a rejected config")

    monkeypatch.setattr(cli.harness, "solve_final", no_solve)
    base = dict(case="a", M=4, N=(2, 4), N_ref=8)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_temporal_study(StudyConfig(**{**base, **fields}))
    cfg = tmp_path / "case.cfg"
    cfg.write_text(with_line("case = a\nM = 4\nN = 2,4\nN_ref = 8", line))
    assert_rejected(capsys, ["convergence", "temporal", "--config", str(cfg)],
                    f"^{re.escape(message)}$")
    cfg.write_text(with_line("case = a\nM = 4\nN = 4", line))
    assert_rejected(capsys, ["run", "--config", str(cfg)],
                    f"^{re.escape(run_message or message)}$")


@pytest.mark.parametrize("argv,config", [
    (["mesh", "--family", "symmetric", "--M", "2"], None),
    (["run"], "case = a\nM = 4\nN = 4\n"),
    (["convergence", "spatial"], "case = mode\nM = 2,4\nN = 4\n"),
], ids=["mesh", "run", "convergence"])
def test_out_that_cannot_be_written_is_one_line(tmp_path, capsys, monkeypatch, argv,
                                                config):
    # each ended in a FileNotFoundError traceback; convergence only after
    # every solve of its study, and run after printing its summary
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with an --out that cannot be written")

    if config is not None:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "missing" / "x"
    with monkeypatch.context() as patched:
        patched.setattr(cli.harness, "solve_final", no_solve)
        assert_rejected(capsys, argv + ["--out", str(out)],
                        f"^cannot write {re.escape(str(out))}: ")
    if argv[0] != "convergence":  # a directory in the way fails the write itself
        assert_rejected(capsys, argv + ["--out", str(tmp_path)],
                        f"^cannot write {re.escape(str(tmp_path))}: Is a directory$")


@pytest.mark.parametrize("command", [["run"], ["convergence", "spatial"]])
def test_unreadable_config_is_one_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.cfg"
    assert_rejected(capsys, command + ["--config", str(missing)],
                    f"^cannot read config {re.escape(str(missing))}: ")
    assert_rejected(capsys, command + ["--config", str(tmp_path)],
                    "^cannot read config ")


@pytest.mark.parametrize("error", [DivergedError(3), PicardConvergenceError(3, 50, 1e-3),
                                   ContourResolutionError("contour too coarse")])
def test_solver_failures_exit_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.harness, "solve_final", fail)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_config_text())
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"frs: {error}\n"


def test_unresolved_contour_exits_1_with_one_line(capsys, monkeypatch):
    # the oracle's rounding guard, reached through a contour with an
    # oversized arc, ends `frs oracle` like a solver failure
    use_hand_built_contour(monkeypatch, 30.0)
    assert main(["oracle", "--lambda", "0", "--alpha", "0.5", "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert re.match(r"frs: rounding bound .* smaller arc$", line), line


def test_bad_oracle_argument_is_one_line_in_a_subprocess():
    # used to print a full traceback ending in the ValueError
    proc = subprocess.run(
        [sys.executable, "-m", "frstokes", "oracle", "--lambda", "1", "--t", "nan",
         "--alpha", "0.5"], capture_output=True, text=True, env=tree_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "frs: t must be a finite number > 0, got nan\n"


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


@pytest.mark.parametrize("md", [False, True], ids=["csv", "md"])
def test_convergence_out_dash_prints_like_no_out(tmp_path, capsys, monkeypatch, md):
    # `--out -` used to write a file named `--spatial-mode-alpha0.5.csv` in
    # the working directory; `frs run` and `frs mesh` read `-` as stdout
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = mode\nalpha = 0.25,0.5\nM = 2,4\nN = 32\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["convergence", "spatial", "--config", str(cfg)] + (["--md"] if md else [])
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.count("| h | error_l2 | rate |" if md else "param,error_l2,") == 2
    assert list(work.iterdir()) == []


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


def test_module_entry_point():
    # The same frstokes.cli:main that [project.scripts] installs as frs,
    # run without an install from the tree under test.
    env = tree_env()
    frs = [sys.executable, "-m", "frstokes.cli"]
    proc = subprocess.run(
        frs + ["oracle", "--lambda", "0", "--alpha", "0.5", "--t", "2.0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-13)
    helper = subprocess.run(frs + ["--help"], capture_output=True, text=True, env=env)
    assert helper.returncode == 0
    assert "convergence" in helper.stdout


def _probe(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=tree_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_defers_heavy_scipy_modules():
    # `import frstokes` loads no submodule, so neither numpy nor scipy; a
    # name loads only its own submodule.  The oracle and the mesh need
    # numpy alone and never pay for scipy.sparse (0.15-0.2 s to import).
    # The steppers import scipy.sparse at module level, but the
    # factorization (scipy.sparse.linalg) only where it is used, and
    # scipy.special is not imported at all.  The contour's Gauss-Legendre
    # rule is the mesh module's, so the oracle loads no numpy.polynomial.
    assert _probe("import sys, frstokes; "
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith(('numpy', 'scipy'))))") == "[]"
    assert _probe(
        "import sys, numpy as np\n"
        "from frstokes import (build_symmetric_mesh, laplacian_eigenvalue,\n"
        "                      mode_response_many, scalar_cq_response)\n"
        "mode_response_many(np.array([laplacian_eigenvalue(1, 1), 50.0]), 1.0, 0.5, 1.0)\n"
        "scalar_cq_response(20.0, 0.5, 1.0, 1.0, 10)\n"
        "build_symmetric_mesh(4)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))") == "[]"
    assert _probe("import sys; from frstokes import step_linearized; "
                  "print([m in sys.modules for m in "
                  "('scipy.sparse', 'scipy.sparse.linalg', 'scipy.special')])"
                  ) == "[True, False, False]"
    assert _probe("import sys; from frstokes.spectral_oracle import mode_response; "
                  "mode_response(1.0, 1.0, 0.5, 1.0); "
                  "print('numpy.polynomial' in sys.modules)") == "False"


def test_scalar_cq_oracle_does_not_import_scipy_special():
    # the oracle's weights come from numpy alone; loading scipy.special
    # costs about 0.06 s per process
    assert _probe("import sys; from frstokes.spectral_oracle import scalar_cq_response; "
                  "scalar_cq_response(20.0, 0.5, 1.0, 1.0, 10); "
                  "print('scipy.special' in sys.modules)") == "False"


def test_package_entry_point():
    # python -m frstokes runs the same main through frstokes/__main__.py
    proc = subprocess.run(
        [sys.executable, "-m", "frstokes",
         "oracle", "--lambda", "0", "--alpha", "0.5", "--t", "2.0"],
        capture_output=True, text=True, env=tree_env())
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-13)
