"""Command-line entry point.

Commands: ``pi-basis``, ``analyze``, ``ridge-check``, ``fd-convergence``,
``moody-data``, ``predict``. Options merge as defaults < config file <
flags. Exit codes: 0 success, 2 configuration error (``ConfigError``, or
an option or file the command cannot use), 3 numerical failure
(``ToolkitError``), 4 subprocess failure (``ExternalError``). Every
analysis writes a manifest next to its results; with a fixed seed and
config the result JSON is byte-identical across runs and worker counts.

A command imports the analysis modules it runs when it runs, so
``pi-basis`` loads neither the drivers nor the quadrature, subspace and
surrogate modules.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, jsonio
from .dimension import (
    QuantitySystem,
    build_dimension_matrix,
    nullspace_basis,
    pi_basis,
    solve_output_exponents,
)
from .errors import (
    EXTERNAL_DEFAULTS,
    ConfigError,
    ExternalError,
    ToolkitError,
    check_external_options,
)
from .pipeflow import (
    RE_CRITICAL,
    PipeFlowExperiment,
    moody_grid,
    pipe_quantity_system,
    regime_box,
    regime_names,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SUBPROCESS = 4


def entry() -> None:
    sys.exit(main())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ExternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUBPROCESS
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, KeyError, ValueError) as exc:  # ValueError covers bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pigroups",
        description="Unique, relevance-ranked dimensionless groups from computer experiments",
    )
    parser.add_argument("--version", action="version", version=f"pigroups {__version__}")
    sub = parser.add_subparsers(dest="command")
    # no prefix matching of long options, so "--experiment" is not "--experiment-cmd"
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("pi-basis", help="dimension matrix, output exponents and null-space basis")
    p.add_argument("system", help="quantity-system JSON file")
    p.add_argument("--json", dest="json_out", help="also write the result as JSON")
    p.set_defaults(func=_cmd_pi_basis)

    p = add_parser("analyze", help="run one of the two group-estimation algorithms")
    _common_experiment_args(p)
    p.add_argument("--algorithm", type=int, choices=(1, 2))
    p.add_argument("--h", type=float, help="finite-difference step in the group coordinates")
    p.add_argument("--degree", type=int, help="surrogate polynomial degree (algorithm 1)")
    p.add_argument("--design", type=int, help="design size for algorithm 1")
    p.add_argument("--holdout", type=int, help="fresh points for the hold-out error report")
    p.add_argument("--trace", action="store_true", help="write an evaluation-trace CSV")
    p.set_defaults(func=_cmd_analyze)

    p = add_parser("ridge-check", help="full-space eigenvalue decay against the step size")
    _common_experiment_args(p)
    p.add_argument("--h-sweep", default="1e-2,1e-3,1e-4,1e-5",
                   help="comma-separated step sizes")
    p.set_defaults(func=_cmd_ridge_check)

    p = add_parser("fd-convergence", help="group-exponent error against the step size")
    _common_experiment_args(p)
    p.add_argument("--h-sweep", default="1e-2,1e-3,1e-4,1e-5,1e-6,1e-7",
                   help="comma-separated step sizes; the smallest is the reference")
    p.set_defaults(func=_cmd_fd_convergence)

    p = add_parser("moody-data", help="friction-factor grid for external plotting")
    p.add_argument("--out", default="moody.csv")
    p.add_argument("--re-crit", type=float, default=RE_CRITICAL)
    p.set_defaults(func=_cmd_moody_data)

    p = add_parser("predict", help="evaluate a saved semi-empirical model at a point")
    p.add_argument("--surface", required=True, help="surface JSON written by analyze")
    p.add_argument("--point", required=True,
                   help="comma-separated values in independent-variable order")
    p.set_defaults(func=_cmd_predict)
    return parser


def _common_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment-cmd",
                   help="external experiment command speaking CSV on stdin/stdout "
                        "(default: the built-in pipe model)")
    p.add_argument("--system", help="quantity-system JSON (default: the pipe system)")
    p.add_argument("--regime", help=f"built-in pipe regime: {', '.join(regime_names())}")
    p.add_argument("--box", help="bounds JSON file")
    p.add_argument("--quad", help="integration rule, tensor:<p> or mc:<N>")
    p.add_argument("--seed", type=int)
    p.add_argument("--re-crit", dest="re_crit",
                   help="pipe branch switch Reynolds number, or 'none' for Colebrook everywhere")
    p.add_argument("--pressure-formula", choices=("fanning", "darcy"),
                   help="pipe pressure-gradient formula (default fanning)")
    p.add_argument("--timeout", type=float, help="per-batch timeout for external experiments")
    p.add_argument("--batch-size", type=int,
                   help="most rows per external batch; a larger call is split into "
                        "batches whose sizes differ by at most one row "
                        f"(default {EXTERNAL_DEFAULTS['batch_size']})")
    p.add_argument("--workers", type=int, help="concurrent external processes")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--out-dir", default=".", help="directory for result files")


def _defaults() -> dict:
    """Every analysis option's default, read from the fields that declare it."""
    from .algorithms import AlgorithmConfig

    return {
        "algorithm": 2,
        **{f.name: f.default for f in fields(AlgorithmConfig)},
        **{f.name: f.default for f in fields(PipeFlowExperiment)},
        **EXTERNAL_DEFAULTS,
    }


def _merge_config(args) -> dict:
    defaults = _defaults()
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = jsonio.load(args.config, dict)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    re_crit = cfg["re_crit"]
    if re_crit is not None:
        try:
            cfg["re_crit"] = None if str(re_crit).lower() == "none" else float(re_crit)
        except (TypeError, ValueError):
            raise ValueError(f"--re-crit must be a number or 'none', got {re_crit!r}") from None
    if cfg.get("quad") is None:
        cfg["quad"] = defaults["quad"]
    if not (type(cfg["algorithm"]) is int and cfg["algorithm"] in (1, 2)):
        raise ValueError(f"--algorithm must be 1 or 2, got {cfg['algorithm']!r}")
    if cfg["seed"] is None:  # a null seed in a config file draws one, for the manifest
        cfg["seed"] = int(np.random.default_rng().integers(2**32))
    return cfg


def _algorithm_config(cfg: dict) -> AlgorithmConfig:
    from .algorithms import AlgorithmConfig

    return AlgorithmConfig(**{f.name: cfg[f.name] for f in fields(AlgorithmConfig)})


def _load_system(args) -> QuantitySystem:
    if getattr(args, "system", None):
        return QuantitySystem.from_file(args.system)
    return pipe_quantity_system()


def _load_box(args, system: QuantitySystem) -> RegimeBox:
    if getattr(args, "box", None):
        from .quadrature import RegimeBox

        return RegimeBox.from_file(args.box, symbols=system.symbols)
    if getattr(args, "regime", None):
        return regime_box(args.regime)
    raise ValueError("either --box or --regime is required")


def _make_experiment(args, cfg, system: QuantitySystem):
    if getattr(args, "experiment_cmd", None):
        # imported here: a built-in run needs neither the module nor its
        # subprocess and thread-pool imports
        from .external import ExternalExperiment

        return ExternalExperiment(
            command=tuple(shlex.split(args.experiment_cmd)),
            symbols=system.symbols,
            timeout=cfg["timeout"],
            batch_size=cfg["batch_size"],
            n_workers=cfg["workers"],
        )
    try:
        return PipeFlowExperiment(**{f.name: cfg[f.name] for f in fields(PipeFlowExperiment)})
    except ToolkitError as exc:  # a value the flags' choices would have refused
        raise ValueError(str(exc)) from None


def _prepare(args):
    """Setup shared by the analysis commands: merged options, system, box,
    basis, a counting experiment and the output directory."""
    from .algorithms import CountingExperiment

    cfg = _merge_config(args)
    # the built-in experiment ignores these, but an out-of-range value is an error
    check_external_options(cfg["timeout"], cfg["batch_size"], cfg["workers"])
    system = _load_system(args)
    box = _load_box(args, system)
    basis = pi_basis(system)
    experiment = CountingExperiment(_make_experiment(args, cfg, system))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, system, box, basis, experiment, out_dir


def _write_manifest(out_dir: Path, command: str, args, cfg: dict,
                    evaluations: int, started: float, **extra) -> None:
    # imported after the work, so that loading it (about 50 KB resident)
    # adds to neither a command's start-up nor its peak memory
    import resource

    doc = {
        "command": command,
        "config_paths": [p for p in (getattr(args, "config", None),
                                     getattr(args, "system", None),
                                     getattr(args, "box", None)) if p],
        "seed": cfg.get("seed"),
        "output_dir": str(out_dir),
        "toolkit_version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "duration_seconds": time.monotonic() - started,
        # this process's peak resident memory so far; Linux reports KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evaluations": evaluations,
        **extra,
    }
    jsonio.dump(doc, out_dir / "manifest.json")


def _cmd_pi_basis(args) -> int:
    system = QuantitySystem.from_file(args.system)
    D = build_dimension_matrix(system)
    w_min = solve_output_exponents(D, system.dependent.dims.as_array())
    W = nullspace_basis(D)

    print(f"base units: {', '.join(system.base_units)}")
    print(f"independents ({system.m}): {', '.join(system.symbols)}")
    print("dimension matrix D:")
    for unit, row in zip(system.base_units, D):
        print(f"  {unit:>6s}  " + "  ".join(f"{v:6.0f}" for v in row))
    print(f"rank(D) = {system.k}")
    print("output exponents w (minimum norm): "
          + " ".join(f"{v:.3f}" for v in w_min))
    if system.pinned_w is not None:
        print("output exponents w (pinned):       "
              + " ".join(f"{v:.3f}" for v in system.pinned_w))
    print(f"null-space basis W ({system.m} x {W.shape[1]}):")
    for sym, row in zip(system.symbols, W):
        print(f"  {sym:>6s}  " + "  ".join(f"{v:7.3f}" for v in row))
    if args.json_out:
        jsonio.dump({
            "D": D, "rank": system.k, "w_min_norm": w_min,
            "pinned_w": list(system.pinned_w) if system.pinned_w else None,
            "W": W,
        }, args.json_out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .algorithms import algorithm1, algorithm2
    from .subspace import result_to_csv

    started = time.monotonic()
    cfg, system, box, basis, experiment, out_dir = _prepare(args)
    config = _algorithm_config(cfg)
    trace_cb = _make_trace(out_dir, system, basis.n) if args.trace else None

    surface = None
    if cfg["algorithm"] == 1:
        result, surface = algorithm1(experiment, system, basis, box, config, trace=trace_cb)
    else:
        result = algorithm2(experiment, system, basis, box, config, trace=trace_cb)

    (out_dir / "result.json").write_text(result.to_json())
    result_to_csv(result, system.symbols, out_dir / "exponents.csv")
    if surface is not None:
        jsonio.dump(
            {"surface": surface.to_dict(), "w": basis.w, "W": basis.W},
            out_dir / "surface.json",
        )
    holdout = result.metadata.get("holdout_evaluations", 0)
    _write_manifest(
        out_dir, "analyze", args, cfg,
        evaluations=result.metadata["evaluations"], started=started,
        holdout_evaluations=holdout, total_experiment_calls=experiment.count,
    )
    _print_result(system, result)
    return EXIT_OK


def _print_result(system, result) -> None:
    from .subspace import rotation_angle

    n = result.Z.shape[1]
    header = "variable  " + "  ".join(f"{f'z_{j + 1}':>8s}" for j in range(n))
    print(header)
    for sym, row in zip(system.symbols, result.Z):
        print(f"{sym:<8s}  " + "  ".join(f"{v:8.3f}" for v in row))
    print("eigenvalue  " + "  ".join(f"{v:.2e}" for v in result.eigenvalues))
    if n == 2:
        print(f"rotation angle: {rotation_angle(result.U):.1f} degrees")
    if result.metadata.get("holdout_rmse") is not None:
        print(f"hold-out rmse: {result.metadata['holdout_rmse']:.3e}")
    if not result.metadata.get("unique", True):
        print(f"warning: {result.metadata['flag']}")


def _make_trace(out_dir: Path, system, n: int):
    path = out_dir / "trace.csv"

    def write(points, pi, grads):
        header = ",".join(list(system.symbols) + ["pi"] + [f"g_{j + 1}" for j in range(n)])
        data = np.column_stack([points, pi, grads])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")

    return write


def _parse_sweep(text: str) -> list[float]:
    """The steps of ``--h-sweep``, largest first: at least two, each finite,
    positive and given once. A zero step divides by zero, and a repeated
    one gives a zero error, to which no slope can be fitted."""
    hs = _numbers("--h-sweep", [tok for tok in text.split(",") if tok.strip()])
    if len(hs) < 2:
        raise ValueError("--h-sweep needs at least two values")
    for i, h in enumerate(hs):
        if not (np.isfinite(h) and h > 0.0):
            raise ValueError(f"--h-sweep values must be finite and positive, got {h!r}")
        if h in hs[:i]:
            raise ValueError(f"--h-sweep repeats the value {h!r}")
    return sorted(hs, reverse=True)


def _numbers(option: str, tokens) -> list[float]:
    """The tokens as floats; a token that is not a number names ``option``."""
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"{option} values must be numbers, got {tok!r}") from None
    return values


def fit_loglog_slope(hs, values) -> float:
    """Least-squares slope of log|value| against log h."""
    y = np.log(np.maximum(np.abs(np.asarray(values, dtype=float)), 1e-300))
    return float(np.polyfit(np.log(np.asarray(hs, dtype=float)), y, 1)[0])


def _cmd_ridge_check(args) -> int:
    from .algorithms import build_rule, full_space_C

    started = time.monotonic()
    hs = _parse_sweep(args.h_sweep)
    cfg, system, box, basis, experiment, out_dir = _prepare(args)
    rule = build_rule(box, _algorithm_config(cfg))
    m = system.m
    rows = []
    for h in hs:
        res = full_space_C(experiment, rule, h)
        rows.append([h] + list(res.eigenvalues))
    header = ",".join(["h"] + [f"lambda_{i + 1}" for i in range(m)])
    np.savetxt(out_dir / "ridge.csv", np.array(rows), delimiter=",",
               header=header, comments="", fmt="%.17g")
    table = np.array(rows)
    # eigenvalues at or below the eigensolver's backward error, m * eps *
    # lambda_1, are indistinguishable from zero; fit only the h values
    # above it so slopes describe the resolvable decay (second order for a
    # forward difference), and report None where fewer than two remain
    floor = m * np.finfo(float).eps * table[:, 1]
    n_keep = basis.n + 1
    slopes = {}
    for idx in range(n_keep, m):
        vals = table[:, idx + 1]
        above = vals > floor
        slopes[f"lambda_{idx + 1}"] = (
            fit_loglog_slope(table[above, 0], vals[above]) if above.sum() >= 2 else None
        )
    for name, slope in slopes.items():
        shown = "at round-off floor" if slope is None else f"{slope:.3f}"
        print(f"decay slope of {name}: {shown}")
    _write_manifest(out_dir, "ridge-check", args, cfg,
                    evaluations=experiment.count, started=started,
                    decay_slopes=slopes)
    return EXIT_OK


def _cmd_fd_convergence(args) -> int:
    from .algorithms import algorithm2

    started = time.monotonic()
    hs = _parse_sweep(args.h_sweep)
    cfg, system, box, basis, experiment, out_dir = _prepare(args)
    config = _algorithm_config(cfg)
    results = {}
    for h in hs:
        results[h] = algorithm2(experiment, system, basis, box, replace(config, h=h))
    reference = results[hs[-1]].Z
    rows = []
    for h in hs[:-1]:
        rows.append([h, signed_column_distance(results[h].Z, reference)])
    np.savetxt(out_dir / "fdconv.csv", np.array(rows), delimiter=",",
               header="h,max_abs_z_error", comments="", fmt="%.17g")
    table = np.array(rows)
    slope = fit_loglog_slope(table[:, 0], table[:, 1])
    print(f"exponent-error decay slope: {slope:.3f} "
          f"(reference h = {hs[-1]:.1e})")
    _write_manifest(out_dir, "fd-convergence", args, cfg,
                    evaluations=experiment.count, started=started,
                    error_slope=slope)
    return EXIT_OK


def signed_column_distance(Z: np.ndarray, reference: np.ndarray) -> float:
    """Max-abs column difference after aligning each column's sign."""
    worst = 0.0
    for j in range(Z.shape[1]):
        col, ref = Z[:, j], reference[:, j]
        if np.dot(col, ref) < 0:
            col = -col
        worst = max(worst, float(np.max(np.abs(col - ref))))
    return worst


def _cmd_moody_data(args) -> int:
    grid = moody_grid(re_crit=args.re_crit)
    np.savetxt(args.out, grid, delimiter=",",
               header="log10_re,log10_rel_rough,lambda", comments="", fmt="%.17g")
    print(f"wrote {grid.shape[0]} rows to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    from .algorithms import predict_dependent
    from .surrogate import ResponseSurface

    surface, w, W = jsonio.load(args.surface, lambda doc: (
        ResponseSurface.from_dict(doc["surface"]),
        np.asarray(doc["w"], dtype=float),
        np.asarray(doc["W"], dtype=float),
    ))
    point = np.array(_numbers("--point", args.point.split(",")))
    if point.shape[0] != W.shape[0]:
        raise ValueError(f"point has {point.shape[0]} entries, expected {W.shape[0]}")
    value = predict_dependent(surface, w, W, point)
    print("%.17g" % value)
    return EXIT_OK
