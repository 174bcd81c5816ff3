"""Command-line entry points.

Subcommands:

* ``frs mesh --family symmetric --M 8 [--out mesh.txt]``
* ``frs oracle --lambda 19.739 --alpha 0.5 --gamma 1.0 --t 1.0``
* ``frs run --config run.cfg [--out field.txt]``
* ``frs convergence {spatial,temporal,prefactor,nonsymmetric} --config study.cfg [--md] [--out base]``

Config files are either JSON objects or flat ``key=value`` lines (``#``
comments allowed).  List-valued keys take comma-separated values, e.g.
``alpha=0.25,0.5,0.75`` or ``M=8,16,32,64``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiment_harness as harness
from .cq_time_stepper import SchemeConfig, _require_count, step_implicit, step_linearized
from .fem_assembly import l2_norm
from .mesh import format_mesh_text
from .spectral_oracle import mode_response

_STUDY_RUNNERS = {
    "spatial": harness.run_spatial_study,
    "temporal": harness.run_temporal_study,
    "prefactor": harness.run_prefactor_study,
    "nonsymmetric": harness.run_nonsymmetric_study,
}


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


def _coerce(text: str):
    if "," in text:
        return [_coerce_scalar(part) for part in text.split(",") if part.strip()]
    return _coerce_scalar(text)


def parse_config(path: str) -> dict:
    """Read a JSON or flat key=value configuration file."""
    with open(path) as fh:
        content = fh.read()
    if content.lstrip().startswith("{"):
        return json.loads(content)
    out: dict = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = _coerce(value.strip())
    return out


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def study_config_from_dict(raw: dict) -> harness.StudyConfig:
    """Translate CLI config keys into a StudyConfig."""
    kwargs: dict = {}
    raw = dict(raw)
    if "alpha" in raw:
        kwargs["alphas"] = tuple(float(a) for a in _as_tuple(raw.pop("alpha")))
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
        kwargs["t_list"] = tuple(float(t) for t in _as_tuple(raw.pop("t_list")))
    for key in ("case", "gamma", "T", "family", "M_ref", "N_ref", "axis",
                "scheme", "source_lumping", "tol", "cache_dir"):
        if key in raw:
            kwargs[key] = raw.pop(key)
    raw.pop("out", None)
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    if "T" in kwargs:
        kwargs["T"] = float(kwargs["T"])
    if "gamma" in kwargs:
        kwargs["gamma"] = float(kwargs["gamma"])
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


def _cmd_run(args) -> int:
    raw = parse_config(args.config)
    case = raw.get("case", "a")
    scheme = raw.get("scheme", "lumped-linearized")
    M = raw.get("M", 16)
    _require_count("M", M)
    config = SchemeConfig(
        variant=scheme,
        N=raw.get("N", 100),
        source_lumping=raw.get("source_lumping", False),
        cg_tol=float(raw.get("tol", 1e-12)),
        snapshot_stride=raw.get("snapshot_stride"),
    )
    mesh = harness.build_mesh(raw.get("family", "symmetric"), M)
    problem = harness._problem(case, float(raw.get("alpha", 0.5)),
                               float(raw.get("gamma", 1.0)),
                               float(raw.get("T", 1.0)))
    stepper = step_implicit if scheme == "galerkin-implicit" else step_linearized
    trajectory = stepper(config, problem, mesh)
    final = trajectory.final()
    print(f"family={mesh.family} N={config.N} alpha={problem.alpha} "
          f"case={case} scheme={scheme}")
    print(f"final_l2_norm={l2_norm(mesh, final):.12e}")
    if args.out:
        lines = [f"{i} {v:.17g}" for i, v in enumerate(final.values)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_convergence(args) -> int:
    cfg = study_config_from_dict(parse_config(args.config))
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
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
