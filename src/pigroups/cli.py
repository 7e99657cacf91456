"""Command-line entry point.

Commands: ``pi-basis``, ``analyze``, ``ridge-check``, ``fd-convergence``,
``moody-data``, ``predict``. Options merge as defaults < config file <
flags. Exit codes: 0 success, else the ``exit_code`` of the failure's class
in ``pigroups.errors``; exit 2 is a ``ConfigError``, or an ``OSError`` from a
file the command cannot open or write. Any other exception is a bug and
ends in a traceback. An analysis command makes its output directory with the
first file it writes, so a refused value or a failed run writes nothing. Each
input is checked once, where it is read: the pipe options by
``PipeFlowExperiment``, whichever experiment runs, and the external ones by
``ExternalExperiment``, or by ``check_external_options`` on a built-in run; a
``--regime`` by ``pipeflow.regime_box``, which needs the pipe quantities in
any order. The built-in model needs them in the pipe system's order. Every
analysis writes a manifest next to its results; with a fixed seed and config
the result JSON is byte-identical across runs and worker counts.

A command imports the analysis modules it runs when it runs, so
``pi-basis`` loads neither the drivers nor the quadrature, subspace and
surrogate modules. The step-size sweeps of ``ridge-check`` and
``fd-convergence`` are ``ridge_sweep`` and ``fd_sweep``, which the
acceptance suite's criteria 7 and 8 call too.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

# OpenBLAS reads its thread count once, as numpy loads it, and an idle worker
# spins through the small products of a run, stalling some processes on their
# first lstsq. So numpy is loaded on one thread unless the caller set a count;
# the variable goes again at once, and an external experiment inherits the
# caller's environment. An interpreter that loaded numpy first keeps its threads.
_ONE_BLAS_THREAD = not any(name in os.environ for name in
                           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__, jsonio
from .dimension import QuantitySystem, build_dimension_matrix, pi_basis, solve_output_exponents
from .errors import (
    DEFAULT_QUAD,
    EXTERNAL_DEFAULTS,
    ConfigError,
    ToolkitError,
    check_count,
    check_external_options,
    check_positive,
)
from .pipeflow import (
    RE_CRITICAL,
    SYMBOLS,
    PipeFlowExperiment,
    moody_grid,
    pipe_quantity_system,
    regime_box,
    regime_names,
)


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
        return ConfigError.exit_code
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file the command cannot open or write
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


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
    p.add_argument("--re-crit", default=RE_CRITICAL,
                   help="pipe branch switch Reynolds number, or 'none' for Colebrook "
                        f"everywhere (default {RE_CRITICAL:g})")
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
    p.add_argument("--system", help="quantity-system JSON (default: the pipe system); "
                                    f"the built-in model needs {', '.join(SYMBOLS)} in order")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--regime",
                       help=f"built-in pipe regime: {', '.join(regime_names())}; "
                            "needs the pipe quantities, in any order")
    where.add_argument("--box", help="bounds JSON file")
    p.add_argument("--quad", help="integration rule, tensor:<p> or mc:<N> (default: for "
                                  "algorithm 1, --degree Gauss points per axis in log q, "
                                  f"exact for its surface; otherwise {DEFAULT_QUAD})")
    p.add_argument("--seed", type=int)
    p.add_argument("--re-crit", dest="re_crit",
                   help="pipe branch switch Reynolds number, or 'none' for Colebrook "
                        "everywhere; checked whichever experiment runs")
    p.add_argument("--pressure-formula", choices=("fanning", "darcy"),
                   help="pipe pressure-gradient formula "
                        f"(default {PipeFlowExperiment.pressure_formula})")
    p.add_argument("--timeout", type=float, help="per-batch timeout for external experiments")
    p.add_argument("--batch-size", type=int,
                   help="most rows per external batch; a larger call is split into "
                        "batches whose sizes differ by at most one row, and a "
                        "finite-difference call holds one batch per worker "
                        f"(default {EXTERNAL_DEFAULTS['batch_size']})")
    p.add_argument("--workers", type=int,
                   help="concurrent external processes; a finite-difference call "
                        "holds one batch per worker, all run at once")
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
    cfg = _defaults()
    if getattr(args, "config", None):
        file_cfg = jsonio.load(args.config, dict)
        jsonio.check_keys(file_cfg, cfg, "config")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    check_count("--algorithm", cfg["algorithm"], 1, 2)
    if cfg["seed"] is None:  # a null seed in a config file draws one, for the manifest
        cfg["seed"] = int(np.random.default_rng().integers(2**32))
    return cfg


def _make_experiment(args, cfg, system: QuantitySystem):
    # every option is checked, whichever experiment runs
    model = PipeFlowExperiment(**{f.name: cfg[f.name] for f in fields(PipeFlowExperiment)})
    if args.experiment_cmd is not None:
        # imported here: a built-in run needs neither the module nor its
        # subprocess and thread-pool imports
        from .external import ExternalExperiment

        try:
            command = tuple(shlex.split(args.experiment_cmd))
        except ValueError as exc:
            raise ConfigError(f"--experiment-cmd cannot be split into words: {exc}") from None
        return ExternalExperiment(
            command=command,
            symbols=system.symbols,
            timeout=cfg["timeout"],
            batch_size=cfg["batch_size"],
            n_workers=cfg["workers"],
        )
    check_external_options(cfg["timeout"], cfg["batch_size"], cfg["workers"])
    if system.symbols != SYMBOLS:  # evaluate_batch reads its columns by position
        raise ConfigError(f"the built-in pipe model needs --system to list {', '.join(SYMBOLS)}"
                          f" in this order, got {', '.join(system.symbols)}")
    return model


def _prepare(args):
    """Setup shared by the analysis commands: merged options, algorithm config, system,
    box, basis, a counting experiment and the output path, refused if it or a parent is
    a file. The rule and the design are refused where built, before the first call."""
    from .algorithms import AlgorithmConfig, CountingExperiment
    from .quadrature import RegimeBox

    cfg = _merge_config(args)
    config = AlgorithmConfig(**{f.name: cfg[f.name] for f in fields(AlgorithmConfig)})
    system = (QuantitySystem.from_file(args.system) if getattr(args, "system", None)
              else pipe_quantity_system())
    box = (regime_box(args.regime, system.symbols) if args.regime is not None
           else RegimeBox.from_file(args.box, symbols=system.symbols))
    basis = pi_basis(system)
    experiment = CountingExperiment(_make_experiment(args, cfg, system))
    out_dir = Path(args.out_dir)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {str(out_dir)!r} cannot be made: {str(existing)!r} is a file")
    return cfg, config, system, box, basis, experiment, out_dir


def _write_manifest(out_dir: Path, command: str, args, cfg: dict, experiment,
                    evaluations: int, started: float, **extra) -> None:
    """``manifest.json``: the run's inputs, versions, time and peak memory,
    ``evaluations`` and the counts of the ``CountingExperiment``, then ``extra``."""
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
        "total_experiment_calls": experiment.count,
        "evaluate_batch_calls": experiment.calls,
        "largest_call_rows": experiment.largest_call,
        **extra,
    }
    jsonio.dump(doc, out_dir / "manifest.json")


def _cmd_pi_basis(args) -> int:
    system = QuantitySystem.from_file(args.system)
    D = build_dimension_matrix(system)
    w_min = solve_output_exponents(D, np.array(system.dependent.dims))
    W = pi_basis(system).W

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
    return 0


def _cmd_analyze(args) -> int:
    from .algorithms import algorithm1, algorithm2
    from .subspace import result_to_csv

    started = time.monotonic()
    cfg, config, system, box, basis, experiment, out_dir = _prepare(args)
    trace_cb = _make_trace(out_dir, system, basis.n) if args.trace else None

    surface = None
    if cfg["algorithm"] == 1:
        result, surface = algorithm1(experiment, system, basis, box, config, trace=trace_cb)
    else:
        result = algorithm2(experiment, system, basis, box, config, trace=trace_cb)

    out_dir.mkdir(parents=True, exist_ok=True)
    jsonio.dump(result.to_dict(), out_dir / "result.json")
    result_to_csv(result, system.symbols, out_dir / "exponents.csv")
    if surface is not None:
        jsonio.dump(
            {"surface": surface.to_dict(), "w": basis.w, "W": basis.W},
            out_dir / "surface.json",
        )
    _write_manifest(out_dir, "analyze", args, cfg, experiment,
                    evaluations=result.metadata["evaluations"], started=started,
                    holdout_evaluations=result.metadata.get("holdout_evaluations", 0))
    _print_result(system, result)
    return 0


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
    """A trace callback: its first call makes ``out_dir`` and writes
    ``trace.csv`` with a header, and each later call (the next run of the
    finite-difference route) appends its rows."""
    path = out_dir / "trace.csv"
    header = ",".join(list(system.symbols) + ["pi"] + [f"g_{j + 1}" for j in range(n)])
    calls = 0

    def write(points, pi, grads):
        nonlocal calls
        data = np.column_stack([points, pi, grads])
        if not calls:
            out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "a" if calls else "w") as fh:
            np.savetxt(fh, data, delimiter=",", header="" if calls else header,
                       comments="", fmt="%.17g")
        calls += 1

    return write


def _parse_sweep(text: str, least: int) -> list[float]:
    """The steps of ``--h-sweep``, largest first: at least ``least``, each
    finite, positive and given once. A zero step divides by zero, and a
    repeated one gives a zero error, to which no slope can be fitted."""
    hs = [check_positive("--h-sweep", tok) for tok in text.split(",") if tok.strip()]
    for i, h in enumerate(hs):
        if h in hs[:i]:
            raise ConfigError(f"--h-sweep repeats the value {h!r}")
    if len(hs) < least:
        raise ConfigError(f"--h-sweep needs at least {least} values")
    return sorted(hs, reverse=True)


def fit_loglog_slope(hs, values) -> float:
    """Least-squares slope of log|value| against log h."""
    y = np.log(np.maximum(np.abs(np.asarray(values, dtype=float)), 1e-300))
    return float(np.polyfit(np.log(np.asarray(hs, dtype=float)), y, 1)[0])


def signed_column_distance(Z: np.ndarray, reference: np.ndarray) -> float:
    """Max-abs column difference after aligning each column's sign."""
    signs = np.where(np.sum(Z * reference, axis=0) < 0, -1.0, 1.0)
    return float(np.max(np.abs(Z * signs - reference)))


def ridge_sweep(experiment, rule, hs, n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The full-space eigenvalues of C at each step of ``hs``: the table of
    rows (h, lambda_1, ..., lambda_m), the round-off floor m * eps * lambda_1
    of each row, and the log-log decay slope of each trailing eigenvalue
    lambda_{n+2} ... lambda_m, by name. Eigenvalues at or below the floor,
    the eigensolver's backward error, are indistinguishable from zero, so a
    slope is fitted through the steps above it only (second order for a
    forward difference), and is None where fewer than two remain."""
    from .algorithms import full_space_C

    table = np.array([[h, *full_space_C(experiment, rule, h).eigenvalues] for h in hs])
    m = table.shape[1] - 1
    floor = m * np.finfo(float).eps * table[:, 1]
    slopes = {}
    for i in range(n + 2, m + 1):
        above = table[:, i] > floor
        slopes[f"lambda_{i}"] = (
            fit_loglog_slope(table[above, 0], table[above, i]) if above.sum() >= 2 else None
        )
    return table, floor, slopes


def fd_sweep(experiment, system, basis, box, config, hs) -> list[tuple[float, float]]:
    """Rows (h, error) of algorithm 2 run at each step of ``hs`` but the last,
    the error being the signed column distance of its Z from the Z at the
    last step, the reference."""
    from .algorithms import algorithm2

    Zs = [algorithm2(experiment, system, basis, box, replace(config, h=h)).Z for h in hs]
    return [(h, signed_column_distance(Z, Zs[-1])) for h, Z in zip(hs, Zs[:-1])]


def _cmd_ridge_check(args) -> int:
    from .algorithms import build_rule

    started = time.monotonic()
    hs = _parse_sweep(args.h_sweep, 2)
    cfg, config, system, box, basis, experiment, out_dir = _prepare(args)
    table, _, slopes = ridge_sweep(experiment, build_rule(box, config), hs, basis.n)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join(["h"] + [f"lambda_{i + 1}" for i in range(system.m)])
    np.savetxt(out_dir / "ridge.csv", table, delimiter=",",
               header=header, comments="", fmt="%.17g")
    for name, slope in slopes.items():
        shown = "at round-off floor" if slope is None else f"{slope:.3f}"
        print(f"decay slope of {name}: {shown}")
    _write_manifest(out_dir, "ridge-check", args, cfg, experiment,
                    evaluations=experiment.count, started=started,
                    decay_slopes=slopes)
    return 0


def _cmd_fd_convergence(args) -> int:
    started = time.monotonic()
    # the smallest step is the reference: a slope needs two errors besides
    hs = _parse_sweep(args.h_sweep, 3)
    cfg, config, system, box, basis, experiment, out_dir = _prepare(args)
    rows = fd_sweep(experiment, system, basis, box, config, hs)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "fdconv.csv", rows, delimiter=",",
               header="h,max_abs_z_error", comments="", fmt="%.17g")
    slope = fit_loglog_slope(*zip(*rows))
    print(f"exponent-error decay slope: {slope:.3f} "
          f"(reference h = {hs[-1]:.1e})")
    _write_manifest(out_dir, "fd-convergence", args, cfg, experiment,
                    evaluations=experiment.count, started=started,
                    error_slope=slope)
    return 0


def _cmd_moody_data(args) -> int:
    grid = moody_grid(re_crit=args.re_crit)
    np.savetxt(args.out, grid, delimiter=",",
               header="log10_re,log10_rel_rough,lambda", comments="", fmt="%.17g")
    print(f"wrote {grid.shape[0]} rows to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from .algorithms import predict_dependent

    surface, w, W = jsonio.load(args.surface, _read_model)
    point = np.array([check_positive("--point", tok) for tok in args.point.split(",")])
    if point.shape[0] != W.shape[0]:
        raise ConfigError(f"point has {point.shape[0]} entries, expected {W.shape[0]}")
    value = predict_dependent(surface, w, W, point)
    print("%.17g" % value)
    return 0


def _read_model(doc: dict):
    """The surface, w and W held by a ``surface.json`` that ``analyze`` wrote."""
    from .surrogate import ResponseSurface

    jsonio.check_keys(doc, ("surface", "w", "W"), "surface file")
    surface = ResponseSurface.from_dict(doc["surface"])
    w, W = (np.asarray(doc[key], dtype=float) for key in ("w", "W"))
    if W.ndim != 2 or W.shape[1] != surface.n or w.shape != W.shape[:1]:
        raise ConfigError(f"w and W have shapes {w.shape} and {W.shape}; W needs "
                          f"{surface.n} columns and w one entry per row of W")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(W))):
        raise ConfigError("w and W must be finite")
    return surface, w, W
