"""Command-line entry points.

Subcommands:

* ``frs mesh --family symmetric --M 8 [--out mesh.txt]``
* ``frs oracle --lambda 19.739 --alpha 0.5 --gamma 1.0 --t 1.0``
* ``frs run --config run.cfg [--out field.txt]``
* ``frs convergence {spatial,temporal,prefactor,nonsymmetric} --config study.cfg [--md] [--out base|-]``

Config files are either JSON objects or flat ``key=value`` lines (``#``
comments allowed), each key given once.  The keys are :class:`StudyConfig`
field names (for ``frs run``, :class:`Run` ones), and it checks them.
List-valued keys take comma-separated values, e.g.
``alpha=0.25,0.5,0.75`` or ``M=8,16,32,64``.

Errors are one line on stderr, ``frs: <message>``: bad input, including a
config file that cannot be read or an ``--out`` that cannot be written,
exits with 2, and a solve that diverges, a Picard iteration that stalls
or an unresolved contour exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

# Imported eagerly even though `frs oracle` and `frs mesh` need no solver:
# the harness pulls in scipy.sparse (about 0.2 s), and a caller that imports
# this module before timing `main` pays for it here, not in its first study.
# The first factorization still imports scipy.sparse.linalg, a further
# 0.05-0.08 s, inside that study.
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
_CONFIG_KEYS = {f.name for f in fields(harness.StudyConfig)}


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
    """Read a JSON or flat key=value configuration file; a key given twice
    is rejected, not overwritten."""
    try:
        with open(path) as fh:
            content = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    if content.lstrip().startswith("{"):
        items = [(path, key, value)
                 for key, value in json.loads(content, object_pairs_hook=list)]
    else:
        items = []
        for lineno, raw in enumerate(content.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            # a path stays a string: "cache_dir = 2024" names the directory 2024
            scalar = str.strip if key == "cache_dir" else _coerce_scalar
            items.append((f"{path}:{lineno}", key, _coerce(value, scalar)))
    out: dict = {}
    for where, key, value in items:
        if key in out:
            raise ValueError(f"{where}: {key} given twice")
        out[key] = value
    return out


def study_config_from_dict(raw: dict, keys=_CONFIG_KEYS) -> harness.StudyConfig:
    """The checked StudyConfig of ``raw``, whose keys must be in ``keys``."""
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return harness.StudyConfig(**raw)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_mesh(args) -> int:
    mesh = harness.build_mesh(args.family, args.M)
    _write(format_mesh_text(mesh), args.out)
    return 0


def _cmd_oracle(args) -> int:
    value = mode_response(args.lam, args.t, args.alpha, args.gamma)
    print(f"{value:.16e}")
    return 0


_RUN_KEYS = tuple(f.name for f in fields(harness.Run))


def _cmd_run(args) -> int:
    cfg = study_config_from_dict({"M": 16, "N": 100, **parse_config(args.config)},
                                 _RUN_KEYS)
    alpha, M, N = harness._fixed(cfg, "a run config", "alpha", "M", "N")
    mesh, final = harness.solve_final(harness.Run(
        cfg.case, alpha, cfg.gamma, cfg.T, cfg.family, M, N, cfg.scheme, cfg.source_lumping))
    if args.out:  # before the summary, so a failed write prints nothing
        lines = [f"{i} {v:.17g}" for i, v in enumerate(final)]
        _write("\n".join(lines) + "\n", args.out)
    print(f"family={mesh.family} N={N} alpha={alpha} "
          f"case={cfg.case} scheme={cfg.scheme}")
    print(f"final_l2_norm={l2_norm(mesh, final):.12e}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = study_config_from_dict(parse_config(args.config))
    reports = _STUDY_RUNNERS[args.study](cfg)
    for report in reports:
        text = report.to_markdown() if args.md else report.to_csv()
        if args.out and args.out != "-":
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
    p_mesh.add_argument("--family", choices=harness.FAMILIES, required=True)
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
                        help="base path, one file per (study, case, alpha); - for stdout")
    p_conv.set_defaults(fn=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # before any work, so an --out in a missing directory costs no solve
        if out and out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"cannot write {out}: no such directory")
        return args.fn(args)
    except ValueError as exc:
        print(f"frs: {exc}", file=sys.stderr)
        return 2
    except (DivergedError, PicardConvergenceError, ContourResolutionError) as exc:
        print(f"frs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
