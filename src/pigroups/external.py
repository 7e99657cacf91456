"""Out-of-process experiments speaking CSV over standard streams.

Per batch, the toolkit writes a CSV of query points (header = quantity
symbols, values as ``%.17g``) to the child's stdin and expects one
dependent value per row on stdout. A nonzero exit, unparseable or
non-finite output, or a timeout aborts the run with the offending batch or
global row identified; output that is not valid UTF-8 is decoded with
replacement characters, so it fails the same way. Batching amortizes
process start-up across large designs: a call of N rows goes out as
ceil(N / batch_size) batches whose sizes differ by at most one row. With
several workers, disjoint batches go to separate processes and land in
preallocated slots, so the result is identical for any worker count. A
finite-difference call holds one batch per worker, ``call_rows`` =
batch_size * n_workers rows, so all of its batches run at once. The
first failure, or an interrupt of the caller, stops the run: batches still
queued are not launched.

A request is encoded ``_CHUNK_ROWS`` rows at a time into one buffer, so
the encoder's temporaries are the size of a chunk and only the request
itself grows with the batch; it is dropped before the reply is parsed.
A tensor rule, and each forward-difference shift of it, has only a few
distinct values per column, so a chunk formats each distinct value once
and fills the rows from those strings. The bytes on the wire are the same
as formatting every value on its own, which a chunk of mostly distinct
values (a Monte Carlo rule, a Latin hypercube) still does.
"""

from __future__ import annotations

import mmap
import subprocess
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import EXTERNAL_DEFAULTS, ConfigError, ExternalError, check_external_options

# rows encoded at a time into a request
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ExternalExperiment:
    command: tuple[str, ...]
    symbols: tuple[str, ...]
    timeout: float | None = EXTERNAL_DEFAULTS["timeout"]
    batch_size: int = EXTERNAL_DEFAULTS["batch_size"]
    n_workers: int = EXTERNAL_DEFAULTS["workers"]

    def __post_init__(self):
        if not self.command:
            raise ConfigError("--experiment-cmd names no program")
        object.__setattr__(self, "timeout", check_external_options(
            self.timeout, self.batch_size, self.n_workers))

    @property
    def call_rows(self) -> int:
        """Rows of one finite-difference call: one batch per worker."""
        return self.batch_size * self.n_workers

    def evaluate_batch(self, points) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(points, dtype=float))
        n = Q.shape[0]
        # ceil(n / batch_size) batches whose sizes differ by at most one row
        count = -(-n // self.batch_size)
        edges = [n * b // max(count, 1) for b in range(count + 1)]
        batches = list(zip(edges, edges[1:]))
        out = np.empty(n)
        if self.n_workers <= 1 or len(batches) <= 1:
            for b, (s, e) in enumerate(batches):
                out[s:e] = self._run_batch(Q[s:e], b, s)
            return out
        failed = threading.Event()

        def run(b, s, e):
            # set by the failing worker itself, so a batch dequeued after the
            # first failure is never launched, however late the caller looks;
            # that failure comes earlier in batch order and is the one raised.
            # The caller sets it too, when it is interrupted while it waits
            if failed.is_set():
                raise CancelledError
            try:
                return self._run_batch(Q[s:e], b, s)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            try:
                futures = [pool.submit(run, b, s, e) for b, (s, e) in enumerate(batches)]
                for (s, e), fut in zip(batches, futures):
                    out[s:e] = fut.result()
            except BaseException:
                failed.set()
                raise
        return out

    def _run_batch(self, Q: np.ndarray, batch_index: int, row_offset: int) -> np.ndarray:
        request = _encode_request(self.symbols, Q)
        try:
            proc = subprocess.run(
                list(self.command), input=request, capture_output=True, timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ExternalError(
                f"batch {batch_index}: no reply within {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise ExternalError(f"cannot launch {self.command[0]!r}: {exc}") from exc
        del request
        if proc.returncode != 0:
            raise ExternalError(
                f"batch {batch_index}: exit code {proc.returncode}; "
                f"stderr: {_text(proc.stderr).strip()!r}"
            )
        lines = [ln for ln in _text(proc.stdout).split("\n") if ln.strip()]
        if len(lines) != Q.shape[0]:
            raise ExternalError(
                f"batch {batch_index}: expected {Q.shape[0]} values, got {len(lines)}"
            )
        try:
            # np.fromiter builds no list of floats (1.8 MB at 59,049 rows)
            values = np.fromiter(map(float, lines), float, len(lines))
        except ValueError:
            values = np.array([_float_or_nan(ln) for ln in lines])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise ExternalError(f"row {row_offset + i}: unparseable output {lines[i].strip()!r}")
        return values


# the helpers below are private, so that a tracer of the public functions
# counts them in the batch's own (codec) time

def _text(data: bytes) -> str:
    """``data`` as ``subprocess.run`` in text mode reads it: UTF-8 with
    replacement characters, and universal newlines."""
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def _encode_request(symbols, Q: np.ndarray) -> memoryview:
    """Request of one batch, UTF-8: a header line of the symbols, then the
    rows, encoded ``_CHUNK_ROWS`` at a time.

    The request is written into an anonymous memory map sized for the
    longest ``%.17g`` (24 characters) and a separator per value. Only the
    pages written become resident, and the map leaves the process as soon
    as the returned view is dropped. A growing heap buffer (a bytearray)
    left the CLI's peak RSS on perfbench's ``external_csv`` about 3 MB
    higher: the allocator kept the memory of earlier requests.
    """
    header = (",".join(symbols) + "\n").encode("utf-8")
    request = mmap.mmap(-1, len(header) + 25 * Q.size)
    request.write(header)
    for s in range(0, Q.shape[0], _CHUNK_ROWS):
        request.write(_encode_rows(Q[s:s + _CHUNK_ROWS]).encode("ascii"))
    return memoryview(request)[:request.tell()]


def _encode_rows(Q: np.ndarray) -> str:
    """CSV lines of a chunk of rows: each row's values as ``%.17g``, one
    line per row.

    Values are told apart by their bit patterns, so ``-0.0`` and ``0.0``
    stay distinct. When at most half of a chunk's values are distinct, each
    distinct value is formatted once and the rows gather its string;
    otherwise (a Monte Carlo rule, a Latin hypercube) each value is
    formatted on its own, since there the gathering costs more than it
    saves. The half-way cut was set by timing this function alone on
    20,000 x 5 batches, and re-timed on 4,096 x 5 chunks: there gathering
    is faster up to about 60% distinct values and slower from about 75%.
    No perfbench workload sends a chunk on the per-value side.
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
