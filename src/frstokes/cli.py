"""Command-line entry points.

Subcommands:

* ``frs mesh --family symmetric --M 8 [--out mesh.txt]``
* ``frs oracle --lambda 19.739 --alpha 0.5 --gamma 1.0 --t 1.0``
* ``frs run --config run.cfg [--out field.txt]``
* ``frs convergence {spatial,temporal,prefactor,nonsymmetric} --config study.cfg [--md] [--out base]``

Config files are either JSON objects or flat ``key=value`` lines (``#``
comments allowed).  List-valued keys take comma-separated values, e.g.
``alpha=0.25,0.5,0.75`` or ``M=8,16,32,64``.

Errors are one line on stderr, ``frs: <message>``: bad input, including a
config file that cannot be read, exits with 2, and a solve that diverges,
a Picard iteration that stalls or an unresolved contour exits with 1.
"""

from __future__ import annotations

import argparse
import json
import sys

# Imported eagerly even though `frs oracle` and `frs mesh` need no solver:
# the harness pulls in scipy.sparse (about 0.2 s), and a caller that imports
# this module before timing `main` should pay for it here, not in its first
# study.
from . import experiment_harness as harness
from .cq_time_stepper import DivergedError, PicardConvergenceError
from .fem_assembly import l2_norm
from .mesh import format_mesh_text
from .spectral_oracle import ContourResolutionError, mode_response

_STUDY_RUNNERS = {
    "spatial": harness.run_spatial_study,
    "temporal": harness.run_temporal_study,
    "prefactor": harness.run_prefactor_study,
    "nonsymmetric": harness.run_nonsymmetric_study,
}
# The axes each study holds fixed: a list there would build no ladder and
# leave the StudyConfig default in its place.
_FIXED_AXES = {"spatial": ("N",), "temporal": ("M",), "prefactor": ("M", "N"),
               "nonsymmetric": ("N",)}


def _coerce_scalar(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            continue
    return low


def _coerce(text: str, scalar=_coerce_scalar):
    if "," in text:
        return [scalar(part) for part in text.split(",") if part.strip()]
    return scalar(text)


def parse_config(path: str) -> dict:
    """Read a JSON or flat key=value configuration file."""
    try:
        with open(path) as fh:
            content = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    if content.lstrip().startswith("{"):
        return json.loads(content)
    out: dict = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        # a path stays a string: "cache_dir = 2024" names the directory 2024
        out[key] = _coerce(value, str.strip if key == "cache_dir" else _coerce_scalar)
    return out


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _real(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def study_config_from_dict(raw: dict) -> harness.StudyConfig:
    """Translate CLI config keys into a StudyConfig."""
    kwargs: dict = {}
    raw = dict(raw)
    if "alpha" in raw:
        kwargs["alphas"] = tuple(_real("alpha", a) for a in _as_tuple(raw.pop("alpha")))
    # counts pass through unconverted, so StudyConfig rejects 2.5 or "abc"
    for key in ("M", "N"):
        if key in raw:
            value = raw.pop(key)
            if isinstance(value, list):
                kwargs[f"{key}_list"] = tuple(value)
            else:
                kwargs[key] = value
                kwargs[f"{key}_list"] = (value,)
    if "t_list" in raw:
        kwargs["t_list"] = tuple(_real("t_list", t) for t in _as_tuple(raw.pop("t_list")))
    for key in ("case", "gamma", "T", "family", "M_ref", "N_ref", "axis",
                "scheme", "source_lumping", "cache_dir"):
        if key in raw:
            value = raw.pop(key)
            if isinstance(value, list):
                raise ValueError(f"{key} takes one value, got {value!r}")
            kwargs[key] = value
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    for key in ("gamma", "T"):
        if key in kwargs:
            kwargs[key] = _real(key, kwargs[key])
    return harness.StudyConfig(**kwargs)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_mesh(args) -> int:
    mesh = harness.build_mesh(args.family, args.M)
    _write(format_mesh_text(mesh), args.out)
    return 0


def _cmd_oracle(args) -> int:
    value = mode_response(args.lam, args.t, args.alpha, args.gamma)
    print(f"{value:.16e}")
    return 0


_RUN_KEYS = ("case", "scheme", "family", "M", "N", "alpha", "gamma", "T",
             "source_lumping")


def _cmd_run(args) -> int:
    raw = parse_config(args.config)
    unknown = sorted(set(raw) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in raw.items():
        if isinstance(value, list):
            raise ValueError(f"{key} takes one value in a run config, got {value!r}")
    cfg = study_config_from_dict({"M": 16, "N": 100, **raw})
    (alpha,) = cfg.alphas
    mesh, final = harness._solve_cfg(cfg, alpha, (cfg.family, cfg.M, cfg.N, cfg.T))
    print(f"family={mesh.family} N={cfg.N} alpha={alpha} "
          f"case={cfg.case} scheme={cfg.scheme}")
    print(f"final_l2_norm={l2_norm(mesh, final):.12e}")
    if args.out:
        lines = [f"{i} {v:.17g}" for i, v in enumerate(final.values)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_convergence(args) -> int:
    raw = parse_config(args.config)
    cfg = study_config_from_dict(raw)
    for key in _FIXED_AXES[args.study]:
        if isinstance(raw.get(key), list):
            raise ValueError(f"{key} takes one value in a {args.study} study, "
                             f"got {raw[key]!r}")
    reports = _STUDY_RUNNERS[args.study](cfg)
    for report in reports:
        text = report.to_markdown() if args.md else report.to_csv()
        if args.out:
            suffix = ".md" if args.md else ".csv"
            path = f"{args.out}-{report.kind}-{report.case}-alpha{report.alpha}{suffix}"
            _write(text, path)
            print(f"wrote {path}")
        else:
            sys.stdout.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frs",
        description="Fractional Rayleigh-Stokes finite element toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="emit a triangulation as text")
    p_mesh.add_argument("--family", choices=("symmetric", "nonsymmetric"),
                        required=True)
    p_mesh.add_argument("--M", type=int, required=True)
    p_mesh.add_argument("--out", default=None)
    p_mesh.set_defaults(fn=_cmd_mesh)

    p_oracle = sub.add_parser("oracle", help="evaluate the mode response e_lambda(t)")
    p_oracle.add_argument("--lambda", dest="lam", type=float, required=True)
    p_oracle.add_argument("--alpha", type=float, required=True)
    p_oracle.add_argument("--gamma", type=float, default=1.0)
    p_oracle.add_argument("--t", type=float, required=True)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_run = sub.add_parser("run", help="one fully discrete solve")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="write the final field as 'node_index value' lines")
    p_run.set_defaults(fn=_cmd_run)

    p_conv = sub.add_parser("convergence", help="run a convergence study")
    p_conv.add_argument("study", choices=tuple(_STUDY_RUNNERS))
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--md", action="store_true",
                        help="markdown table instead of CSV")
    p_conv.add_argument("--out", default=None,
                        help="base path; one file per (study, case, alpha)")
    p_conv.set_defaults(fn=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"frs: {exc}", file=sys.stderr)
        return 2
    except (DivergedError, PicardConvergenceError, ContourResolutionError) as exc:
        print(f"frs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
