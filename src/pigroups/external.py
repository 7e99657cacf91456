"""Out-of-process experiments speaking CSV over standard streams.

Per batch, the toolkit writes a CSV of query points (header = quantity
symbols, values as ``%.17g``) to the child's stdin and expects one
dependent value per row on stdout. A nonzero exit, unparseable or
non-finite output, or a timeout aborts the run with the offending batch or
global row identified; output that is not valid UTF-8 is decoded with
replacement characters, so it fails the same way. Batching amortizes
process start-up across large designs; with several workers, disjoint
batches go to separate processes and land in preallocated slots, so the
result is identical for any worker count.

A tensor rule, and each forward-difference shift of it, has only a few
distinct values per column, so a batch formats each distinct value once
and fills the rows from those strings. The bytes on the wire are the same
as formatting every value on its own, which a batch of mostly distinct
values (a Monte Carlo rule, a Latin hypercube) still does.
"""

from __future__ import annotations

import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    ExperimentTimeout,
    ParseFailure,
    SubprocessFailure,
    check_external_options,
)


@dataclass(frozen=True)
class ExternalExperiment:
    command: tuple[str, ...]
    symbols: tuple[str, ...]
    timeout: float | None = None
    batch_size: int = 20000
    n_workers: int = 1

    def __post_init__(self):
        check_external_options(self.timeout, self.batch_size, self.n_workers)

    def evaluate_batch(self, points) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(points, dtype=float))
        starts = list(range(0, Q.shape[0], self.batch_size))
        out = np.empty(Q.shape[0])
        if self.n_workers <= 1 or len(starts) <= 1:
            for b, s in enumerate(starts):
                out[s:s + self.batch_size] = self._run_batch(Q[s:s + self.batch_size], b, s)
        else:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                futures = [
                    pool.submit(self._run_batch, Q[s:s + self.batch_size], b, s)
                    for b, s in enumerate(starts)
                ]
                for s, fut in zip(starts, futures):
                    out[s:s + self.batch_size] = fut.result()
        return out

    def _run_batch(self, Q: np.ndarray, batch_index: int, row_offset: int) -> np.ndarray:
        text = ",".join(self.symbols) + "\n" + _encode_rows(Q)
        try:
            proc = subprocess.run(
                list(self.command), input=text, capture_output=True,
                encoding="utf-8", errors="replace", timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ExperimentTimeout(
                f"batch {batch_index}: no reply within {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise SubprocessFailure(f"cannot launch {self.command[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise SubprocessFailure(
                f"batch {batch_index}: exit code {proc.returncode}; "
                f"stderr: {proc.stderr.strip()!r}"
            )
        lines = [ln for ln in proc.stdout.split("\n") if ln.strip()]
        if len(lines) != Q.shape[0]:
            raise ParseFailure(
                f"batch {batch_index}: expected {Q.shape[0]} values, got {len(lines)}"
            )
        try:
            values = np.array(list(map(float, lines)))
        except ValueError:
            values = np.array([_float_or_nan(ln) for ln in lines])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise ParseFailure(f"row {row_offset + i}: unparseable output {lines[i].strip()!r}")
        return values


# private, so that a tracer of the public functions counts it in the
# batch's own (codec) time
def _encode_rows(Q: np.ndarray) -> str:
    """CSV body of a batch: each row's values as ``%.17g``, one line per row.

    Values are told apart by their bit patterns, so ``-0.0`` and ``0.0``
    stay distinct. When at most half of the values are distinct, each
    distinct value is formatted once and the rows gather its string;
    otherwise (a Monte Carlo rule, a Latin hypercube) each value is
    formatted on its own, since there the gathering costs more than it
    saves. The half-way cut was set by timing this function alone on
    20,000 x 5 batches; no perfbench workload sends a batch on the
    per-value side.
    """
    rows, cols = Q.shape
    flat = Q.ravel()
    distinct, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    if distinct.size > flat.size // 2:
        return ((",".join(["%.17g"] * cols) + "\n") * rows) % tuple(flat.tolist())
    strings = ("%.17g\n" * distinct.size % tuple(distinct.view(np.float64).tolist())).split("\n")
    return (("%s," * (cols - 1) + "%s\n") * rows) % itemgetter(*inverse.tolist())(strings)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan
