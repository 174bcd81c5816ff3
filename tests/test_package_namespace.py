import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree_env
import frstokes
from frstokes import cq_time_stepper

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "cq_time_stepper": (
        "DivergedError", "PicardConvergenceError", "SchemeConfig", "Trajectory",
        "cq_fractional_integral", "cq_weights", "step_implicit", "step_linearized",
    ),
    "experiment_harness": (
        "ExperimentReport", "Run", "StudyConfig", "fit_rate", "run_nonsymmetric_study",
        "run_prefactor_study", "run_spatial_study", "run_temporal_study",
        "solve_final",
    ),
    "fem_assembly": (
        "InitialData", "Nonlinearity", "ProblemSpec",
        "assemble_lumped_mass", "assemble_mass", "assemble_stiffness",
        "l2_error_vs_function", "l2_error_vs_reference",
        "l2_norm", "l2_project", "load_vector", "mesh_operator",
        "sqrt_one_plus_u2", "zero_source",
    ),
    "mesh": (
        "TriMesh", "build_nonsymmetric_mesh", "build_symmetric_mesh",
        "evaluate_p1", "format_mesh_text",
    ),
    "sparse_linalg": ("CGConvergenceError", "CompositeOperator", "cg_solve"),
    "spectral_oracle": (
        "ContourResolutionError", "laplacian_eigenvalue",
        "linear_exact_solution", "mode_response", "mode_response_many",
        "scalar_cq_response", "smoothing_probe",
    ),
}
NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])


def test_all_lists_the_public_names():
    assert len(NAMES) == 52
    assert frstokes.__all__ == NAMES


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_names_are_the_defining_modules_objects(module_name):
    module = importlib.import_module(f"frstokes.{module_name}")
    assert getattr(frstokes, module_name) is module
    for name in PUBLIC[module_name]:
        assert getattr(frstokes, name) is getattr(module, name), name


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_submodule_all_matches_the_package_exports(module_name):
    # `from frstokes import *` and `from frstokes.<module> import *` bind
    # the same names of each submodule
    module = importlib.import_module(f"frstokes.{module_name}")
    assert sorted(module.__all__) == sorted(frstokes._EXPORTS[module_name])


def test_dir_lists_every_public_name():
    listed = dir(frstokes)
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed and frstokes.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    probe = ("import frstokes; ns = {}; exec('from frstokes import *', ns); "
             "print(sorted(n for n in ns if n != '__builtins__') == frstokes.__all__)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'frstokes' has no attribute 'step_galerkin'"):
        frstokes.step_galerkin
    with pytest.raises(ImportError, match="step_galerkin"):
        from frstokes import step_galerkin  # noqa: F401


def test_names_are_looked_up_on_every_access(monkeypatch):
    # a tracer rebinds the name in its defining module and restores it; the
    # package must hand out whatever is bound there now
    original = cq_time_stepper.step_linearized

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(cq_time_stepper, "step_linearized", wrapper)
    assert frstokes.step_linearized is wrapper
    monkeypatch.undo()
    assert frstokes.step_linearized is original
    assert "step_linearized" not in vars(frstokes)


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import of ``path`` and never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items()
            if name not in read]


def test_no_unused_module_level_imports():
    # no linter is assumed; a dead import is a dead hook all the same
    modules = sorted(Path(frstokes.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def _private_definitions(path: Path) -> dict[str, int]:
    """Private (not dunder) functions, classes and constants that ``path``
    defines at module level, with their lines."""
    defined = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _names_read(path: Path) -> set[str]:
    """Every name ``path`` loads, as a bare name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_definitions():
    # a private helper that only tests call is a dead hook in the package
    modules = sorted(Path(frstokes.__file__).parent.glob("*.py"))
    read = set().union(*map(_names_read, modules))
    assert [f"{path.name}:{line}: {name}" for path in modules
            for name, line in _private_definitions(path).items()
            if name not in read] == []


def _imports_numbers(path: Path) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "numbers"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_only_mesh_states_the_input_rules():
    # a count, a finite real and a flag are checked by mesh.py alone; another
    # module reaching for numbers.Real would state a rule a second time
    modules = sorted(Path(frstokes.__file__).parent.glob("*.py"))
    assert [path.name for path in modules if _imports_numbers(path)] == ["mesh.py"]


def _lists_public_names(path: Path) -> bool:
    """Whether ``path`` assigns a list or tuple literal to a module-level
    ``__all__``."""
    return any(isinstance(node, (ast.Assign, ast.AnnAssign))
               and isinstance(node.value, (ast.List, ast.Tuple))
               and any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target]))
               for node in ast.parse(path.read_text(), filename=str(path)).body)


def test_only_the_package_lists_public_names():
    # `_EXPORTS` in __init__.py states the public names once; a submodule
    # spelling out its own `__all__` would be a second copy to keep equal
    modules = sorted(Path(frstokes.__file__).parent.glob("*.py"))
    assert [path.name for path in modules
            if path.name != "__init__.py" and _lists_public_names(path)] == []


def _imported_names(path: Path) -> set[str]:
    """Every dotted name ``path`` imports, relative ones without their dots:
    ``from .a import b`` gives a.b, ``from . import a`` gives a."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(".".join(filter(None, (node.module, alias.name)))
                         for alias in node.names)
    return found


def _splu_sites(path: Path) -> set[str]:
    """The top-level definitions of ``path`` that use the name ``splu``."""
    sites = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            if "splu" in names:
                sites.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    return sites


def test_the_stepper_alone_factors_its_step_matrix():
    # the step matrix is factored beside the loop that relies on its
    # symmetry, not behind an operator class in sparse_linalg
    package = Path(frstokes.__file__).parent
    assert [name for name in _imported_names(package / "cq_time_stepper.py")
            if "sparse_linalg" in name.split(".")] == []
    modules = sorted(package.glob("*.py"))
    assert set().union(*map(_splu_sites, modules)) == {"cq_time_stepper._factor"}
