import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pigroups
from helpers import PIPE_SYSTEM_DOC, csv_request, fd_copies, surface_file
from pigroups import jsonio
from pigroups.algorithms import AlgorithmConfig, algorithm2
from pigroups.cli import fit_loglog_slope, main, signed_column_distance
from pigroups.errors import ExternalError
from pigroups.external import _CHUNK_ROWS, ExternalExperiment, _encode_request, _encode_rows
from pigroups.pipeflow import (
    SYMBOLS,
    PipeFlowExperiment,
    friction_factor,
    regime_box,
)
from pigroups.quadrature import latin_hypercube, monte_carlo_rule, tensor_rule
from pigroups.surrogate import ResponseSurface, fit_polynomial, grad_surface


@pytest.fixture()
def pipe_system_file(tmp_path):
    path = tmp_path / "pipe.json"
    jsonio.dump(PIPE_SYSTEM_DOC, path)
    return str(path)


WRAPPER = """\
import sys
import numpy as np
from pigroups.pipeflow import PipeFlowExperiment

rows = sys.stdin.read().strip().splitlines()
data = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
for value in PipeFlowExperiment().evaluate_batch(data):
    print("%.17g" % value)
"""

# as WRAPPER, but reads the columns by the request's header, in any order
KEYED_WRAPPER = """\
import sys
import numpy as np
from pigroups.pipeflow import SYMBOLS, PipeFlowExperiment

rows = sys.stdin.read().strip().splitlines()
header = rows[0].split(",")
data = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
for value in PipeFlowExperiment().evaluate_batch(data[:, [header.index(s) for s in SYMBOLS]]):
    print("%.17g" % value)
"""

NAN_SCRIPT = """\
import sys
rows = sys.stdin.read().strip().splitlines()
for _ in rows[1:]:
    print("nan")
"""

FAIL_SCRIPT = """\
import sys
sys.stderr.write("boom: broken experiment\\n")
sys.exit(1)
"""

SLOW_SCRIPT = """\
import sys, time
time.sleep(30)
"""

# appends the exact request bytes to the file named by argv[1], answers 1 per row
ECHO_SCRIPT = """\
import sys
data = sys.stdin.buffer.read()
with open(sys.argv[1], "ab") as fh:
    fh.write(data)
for _ in data.splitlines()[1:]:
    print(1)
"""

# echoes each row's first value; the row whose first value is 9 gets the
# reply named by argv[1] ("nan", "oops"), bytes that are not UTF-8
# ("bytes"), or no line at all ("short")
BAD_ROW_SCRIPT = """\
import sys
reply = b"\\xff\\xfe" if sys.argv[1] == "bytes" else sys.argv[1].encode()
for line in sys.stdin.read().splitlines()[1:]:
    first = float(line.split(",")[0])
    if first != 9.0:
        sys.stdout.buffer.write(b"%r\\n" % first)
    elif sys.argv[1] != "short":
        sys.stdout.buffer.write(reply + b"\\n")
"""

# answers 1 per row, but only once the requests marked in the directory
# argv[1] number a multiple of argv[2] (3 if not given): each batch waits
# for the other batches of its call, and fails if they do not come while
# it waits
BARRIER_SCRIPT = """\
import os, sys, tempfile, time
data = sys.stdin.buffer.read()
tempfile.mkstemp(dir=sys.argv[1])
size = int(sys.argv[2]) if len(sys.argv) > 2 else 3
deadline = time.monotonic() + 30
while len(os.listdir(sys.argv[1])) % size:
    if time.monotonic() > deadline:
        sys.exit("the other batches of the call never came")
    time.sleep(0.01)
sys.stdout.write("1\\n" * (data.count(b"\\n") - 1))
"""

# appends the row count of each request to the file named by argv[1] and
# echoes each row's first value, except that the row whose first value is
# argv[2] gets "nan"
SIZE_SCRIPT = """\
import sys
rows = sys.stdin.read().splitlines()[1:]
with open(sys.argv[1], "a") as fh:
    fh.write("%d\\n" % len(rows))
for line in rows:
    first = line.split(",")[0]
    print("nan" if float(first) == float(sys.argv[2]) else first)
"""

# appends a line to the file named by argv[1], then fails
LOGGED_FAIL_SCRIPT = """\
import sys
with open(sys.argv[1], "a") as fh:
    fh.write("launched\\n")
sys.exit(1)
"""

# appends the row count of each request to the file named by argv[1] and
# answers 1 per row, without parsing the request
LOGGED_ONES_SCRIPT = """\
import sys
rows = sys.stdin.buffer.read().count(b"\\n") - 1
with open(sys.argv[1], "a") as fh:
    fh.write("%d\\n" % rows)
sys.stdout.write("1\\n" * rows)
"""

# answers 1 per row without parsing the request
ONES_SCRIPT = """\
import sys
data = sys.stdin.buffer.read()
sys.stdout.write("1\\n" * (data.count(b"\\n") - 1))
"""

# answers 0 per row without parsing the request
ZEROS_SCRIPT = """\
import sys
data = sys.stdin.buffer.read()
sys.stdout.write("0\\n" * (data.count(b"\\n") - 1))
"""

FORM_FEED_SCRIPT = """\
import sys
for i, _ in enumerate(sys.stdin.read().splitlines()[1:]):
    sys.stdout.write("1\\x0c5\\n" if i == 3 else "1\\n")
"""

NOT_UTF8_SCRIPT = """\
import sys
for _ in sys.stdin.read().splitlines()[1:]:
    sys.stdout.buffer.write(b"\\xff\\xfe\\n")
"""

BAD_STDERR_SCRIPT = """\
import sys
sys.stderr.buffer.write(b"boom \\xff\\xfe\\n")
sys.exit(1)
"""

# period T of a pendulum of length L under gravity g at amplitude A: one group, A / L
PENDULUM_SCRIPT = """\
import sys
import numpy as np
rows = sys.stdin.read().strip().splitlines()
L, g, A = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]]).T
for value in 2.0 * np.pi * np.sqrt(L / g) * (1.0 + (A / L) ** 2 / 16.0):
    print("%.17g" % value)
"""

PENDULUM_SYSTEM = {
    "base_units": ["m", "s"],
    "independents": [
        {"name": "length", "symbol": "L", "unit": "m"},
        {"name": "gravity", "symbol": "g", "unit": "m*s^-2"},
        {"name": "amplitude", "symbol": "A", "unit": "m"},
    ],
    "dependent": {"name": "period", "symbol": "T", "unit": "s"},
}


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return [sys.executable, str(path)]


class TestExternalExperiment:
    def test_wrapper_matches_builtin(self, tmp_path):
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS)
        pts = latin_hypercube(regime_box("turbulent"), 40, seed=2)
        got = external.evaluate_batch(pts)
        want = PipeFlowExperiment().evaluate_batch(pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mixed_regime_values_do_not_depend_on_the_batch_size(self, tmp_path):
        # rows of the three regimes, shuffled, need different Newton step
        # counts; each stops on its own residual, so any batching of the
        # rows gives the built-in model's values to the bit. One-row batches,
        # a child process each, run on six of the rows: the first two of
        # each regime, in their shuffled order
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        pts = np.vstack([latin_hypercube(regime_box(name), 20, seed=5)
                         for name in ("laminar", "turbulent", "high_re")])
        order = np.random.default_rng(6).permutation(len(pts))
        pts = pts[order]
        want = PipeFlowExperiment().evaluate_batch(pts)
        six = np.sort(np.concatenate([np.flatnonzero(order // 20 == r)[:2] for r in range(3)]))
        for batch_size, rows in ((1, six), (7, slice(None)), (60, slice(None))):
            got = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS,
                                     batch_size=batch_size).evaluate_batch(pts[rows])
            assert np.array_equal(got, want[rows]), batch_size

    def test_worker_count_does_not_change_results(self, tmp_path):
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        pts = latin_hypercube(regime_box("turbulent"), 60, seed=3)
        serial = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS,
                                    batch_size=7, n_workers=1).evaluate_batch(pts)
        threaded = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS,
                                      batch_size=7, n_workers=4).evaluate_batch(pts)
        assert np.array_equal(serial, threaded)

    def test_nan_output_names_the_row(self, tmp_path):
        cmd = write_script(tmp_path, "nan.py", NAN_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS)
        with pytest.raises(ExternalError, match="^row 0: unparseable output 'nan'$"):
            external.evaluate_batch(np.ones((3, 5)))

    def test_nonzero_exit_carries_stderr(self, tmp_path):
        cmd = write_script(tmp_path, "fail.py", FAIL_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS)
        with pytest.raises(ExternalError, match="^batch 0: exit code 1; stderr: .*boom"):
            external.evaluate_batch(np.ones((2, 5)))

    def test_timeout(self, tmp_path):
        cmd = write_script(tmp_path, "slow.py", SLOW_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, timeout=0.5)
        started = time.monotonic()
        with pytest.raises(ExternalError, match=r"^batch 0: no reply within 0\.5s$"):
            external.evaluate_batch(np.ones((2, 5)))
        # the child sleeps 30 s: returning early means it was killed and reaped
        assert time.monotonic() - started < 2.0

    def test_request_bytes_match_the_per_value_encoder(self, tmp_path):
        log = tmp_path / "requests.csv"
        cmd = write_script(tmp_path, "echo.py", ECHO_SCRIPT) + [str(log)]
        special = [5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2, 1.0 / 3.0,
                   2.0 / 3.0, 123456789.12345679, 1e-300, -2.5e-310, 1e22, 0.0]
        Q = np.concatenate([np.resize(special, (11, 5)),
                            np.random.default_rng(4).lognormal(0.0, 30.0, size=(9, 5))])
        # 20 rows in batches of at most 6: four batches of 5
        values = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS,
                                    batch_size=6).evaluate_batch(Q)
        assert np.array_equal(values, np.ones(20))
        want = "".join(csv_request(SYMBOLS, Q[s:s + 5]) for s in range(0, 20, 5))
        assert log.read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 15], ids=["1", "B-1", "B", "B+1", "2B+1"])
    def test_a_call_is_split_into_batches_of_equal_size(self, tmp_path, n):
        batch_size = 7
        log = tmp_path / "sizes.txt"
        Q = np.ones((n, 5))
        Q[:, 0] = np.arange(n)
        external = ExternalExperiment(command=tuple(write_script(tmp_path, "sizes.py", SIZE_SCRIPT)
                                                    + [str(log), "-1"]),
                                      symbols=SYMBOLS, batch_size=batch_size)
        assert np.array_equal(external.evaluate_batch(Q), Q[:, 0])
        sizes = [int(line) for line in log.read_text().split()]
        assert len(sizes) == -(-n // batch_size)
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
        # the last row fails under its index in the call, in the last batch
        failing = ExternalExperiment(command=external.command[:-1] + (str(n - 1),),
                                     symbols=SYMBOLS, batch_size=batch_size)
        with pytest.raises(ExternalError, match=f"^row {n - 1}: unparseable output 'nan'$"):
            failing.evaluate_batch(Q)

    def test_sending_a_batch_allocates_little_on_the_heap(self, tmp_path):
        # the whole turbulent tensor:9 rule, 59,049 rows, as one batch: a
        # request of 5.8 MB, written into a memory map that tracemalloc does
        # not trace. The chunks' temporaries, the reply and the result
        # measured 1.6 MB traced; encoding the batch in one piece measured
        # 12.7 MB (its text, the bytes and the temporaries)
        rule = tensor_rule(regime_box("turbulent"), 9)
        Q = rule.rows(0, len(rule))
        external = ExternalExperiment(command=tuple(write_script(tmp_path, "ones.py",
                                                                 ONES_SCRIPT)),
                                      symbols=SYMBOLS, batch_size=60000)
        assert len(_encode_request(SYMBOLS, Q)) > 5 * 2**20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = external.evaluate_batch(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, np.ones(Q.shape[0]))
        assert peak - before <= 3 * 2**20

    def test_request_is_utf8_whatever_the_locale(self, tmp_path):
        # the parent runs in the C locale with UTF-8 mode off, where the
        # locale's encoding is ASCII and cannot encode the symbol
        log = tmp_path / "request.csv"
        cmd = write_script(tmp_path, "echo.py", ECHO_SCRIPT) + [str(log)]
        code = ("import locale, sys; from pigroups.external import ExternalExperiment; "
                "print(locale.getpreferredencoding(False)); "
                "ExternalExperiment(command=tuple(sys.argv[1:]), symbols=('\\u03c1', 'b'))"
                ".evaluate_batch([[0.5, -0.0]])")
        src = str(Path(pigroups.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code] + cmd,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "utf" not in proc.stdout.lower().replace("-", "")
        assert log.read_bytes() == "ρ,b\n0.5,-0\n".encode("utf-8")

    @pytest.mark.parametrize("reply,message", [
        ("nan", "^row 9: unparseable output 'nan'$"),
        ("oops", "^row 9: unparseable output 'oops'$"),
        ("bytes", "^row 9: unparseable output '\ufffd\ufffd'$"),
        ("short", "^batch 1: expected 7 values, got 6$"),
    ])
    def test_bad_reply_names_its_global_row_or_batch(self, tmp_path, reply, message):
        cmd = write_script(tmp_path, "bad.py", BAD_ROW_SCRIPT) + [reply]
        Q = np.ones((20, 5))
        Q[:, 0] = np.arange(20)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=7)
        with pytest.raises(ExternalError, match=message):
            external.evaluate_batch(Q)

    def test_reply_is_split_at_newlines_only(self, tmp_path):
        # a form feed inside a value is not a line break: the row fails as itself
        cmd = write_script(tmp_path, "formfeed.py", FORM_FEED_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS)
        with pytest.raises(ExternalError, match=r"^row 3: unparseable output '1\\x0c5'$"):
            external.evaluate_batch(np.ones((6, 5)))

    def test_a_failure_launches_no_queued_batch(self, tmp_path):
        # ten batches on two workers, each failing: only the batches running
        # when the first one fails finish, and the queued ones never launch
        log = tmp_path / "launches.txt"
        cmd = write_script(tmp_path, "fail.py", LOGGED_FAIL_SCRIPT) + [str(log)]
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=10,
                                      n_workers=2)
        with pytest.raises(ExternalError, match="^batch 0: exit code 1"):
            external.evaluate_batch(np.ones((100, 5)))
        assert 1 <= len(log.read_text().split()) <= 2

    def test_an_interrupt_launches_no_queued_batch(self, tmp_path, monkeypatch):
        # ten batches on two workers, each launch 0.2 s late; the first one
        # sends SIGINT to the caller, which stops the batches still queued:
        # only those dequeued before the caller handles the interrupt launch.
        # A real signal wakes the caller's wait for the first batch, so the
        # interrupt is raised there, however loaded the host. The caller must
        # be one that an interrupt reaches: a background job of a
        # non-interactive shell starts with SIGINT ignored, so the test
        # installs Python's default handler for its own duration
        launches = []
        run = subprocess.run

        def interrupting_run(*args, **kwargs):
            launches.append(args)
            time.sleep(0.2)
            if launches[0] is args:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", interrupting_run)
        cmd = write_script(tmp_path, "ones.py", ONES_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=10,
                                      n_workers=2)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                external.evaluate_batch(np.ones((100, 5)))
        finally:
            signal.signal(signal.SIGINT, previous)
        assert 1 <= len(launches) <= 4

    def test_child_that_exits_without_reading_a_large_batch(self, tmp_path):
        # 50,000 rows are far more than a pipe buffer holds
        cmd = write_script(tmp_path, "fail.py", FAIL_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=50000)
        with pytest.raises(ExternalError, match="^batch 0: exit code 1; stderr: .*boom"):
            external.evaluate_batch(np.full((50000, 5), 1.0 / 3.0))


class TestFiniteDifferenceRuns:
    """Turbulent tensor:9, 59,049 points. A call holds one batch per worker,
    a run's points and their two shifted copies: at the default batch size,
    32,768 rows, one worker makes six runs of 9,841 or 9,842 points, each
    one call in one batch, and three workers make two runs of 29,524 and
    29,525 points, each one call in three batches of the run's size."""

    def test_the_child_gets_the_batches_of_a_call_per_copy(self, tmp_path, pipe_system,
                                                           pipe_basis):
        # six requests, each a run's points and then its two shifted copies
        log = tmp_path / "requests.csv"
        cmd = write_script(tmp_path, "echo.py", ECHO_SCRIPT) + [str(log)]
        config = AlgorithmConfig(quad="tensor:9")
        algorithm2(ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS), pipe_system,
                   pipe_basis, regime_box("turbulent"), config)
        header = (",".join(SYMBOLS) + "\n").encode()
        requests = [header + body for body in log.read_bytes().split(header)[1:]]
        rule = tensor_rule(regime_box("turbulent"), 9)
        points = rule.rows(0, len(rule))
        copies = fd_copies(points, pipe_basis.W, config.h)
        edges = [59049 * b // 6 for b in range(7)]
        want = [csv_request(SYMBOLS, np.concatenate([Q[s:e] for Q in copies])).encode()
                for s, e in zip(edges, edges[1:])]
        assert requests == want

    def test_workers_run_the_batches_of_a_run_at_once(self, tmp_path, pipe_system,
                                                      pipe_basis):
        marks = tmp_path / "marks"
        marks.mkdir()
        cmd = write_script(tmp_path, "barrier.py", BARRIER_SCRIPT) + [str(marks)]
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, n_workers=3,
                                      timeout=60)
        algorithm2(external, pipe_system, pipe_basis, regime_box("turbulent"),
                   AlgorithmConfig(quad="tensor:9"))
        assert len(list(marks.iterdir())) == 6

    def test_a_batch_that_holds_the_rule_is_one_child(self, tmp_path, capsys):
        # --batch-size 200000: one call of the rule and its two shifted
        # copies, 177,147 rows, in one batch
        log = tmp_path / "sizes.txt"
        cmd = write_script(tmp_path, "ones.py", LOGGED_ONES_SCRIPT) + [str(log)]
        out = tmp_path / "run"
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:9",
                     "--experiment-cmd", " ".join(cmd), "--batch-size", "200000",
                     "--out-dir", str(out)]) == 0
        assert log.read_text().split() == ["177147"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (1, 177147)

    def test_each_worker_runs_a_batch_of_the_call_at_once(self, tmp_path, pipe_system,
                                                          pipe_basis):
        # --workers 4 --batch-size 45000: one call of 177,147 rows in four
        # batches, all four in flight at once
        marks = tmp_path / "marks"
        marks.mkdir()
        cmd = write_script(tmp_path, "barrier.py", BARRIER_SCRIPT) + [str(marks), "4"]
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=45000,
                                      n_workers=4, timeout=60)
        algorithm2(external, pipe_system, pipe_basis, regime_box("turbulent"),
                   AlgorithmConfig(quad="tensor:9"))
        assert len(list(marks.iterdir())) == 4


class TestBatchEncoder:
    """The request matches the per-value encoder on both of the chunk
    encoder's paths: each distinct value formatted once (at most half the
    chunk's values distinct) and each value formatted on its own."""

    @staticmethod
    def assert_matches_per_value(Q):
        assert ",".join(SYMBOLS) + "\n" + _encode_rows(Q) == csv_request(SYMBOLS, Q)

    @staticmethod
    def distinct_share(Q):
        return np.unique(Q.view(np.uint64)).size / Q.size

    def test_tensor_batches_and_their_shifted_batches(self, pipe_basis):
        rule = tensor_rule(regime_box("turbulent"), 9)
        points = rule.rows(0, len(rule))
        for Q in fd_copies(points, pipe_basis.W, 1e-6):
            for s in range(0, Q.shape[0], _CHUNK_ROWS):
                chunk = Q[s:s + _CHUNK_ROWS]
                assert self.distinct_share(chunk) <= 0.5
                self.assert_matches_per_value(chunk)

    def test_monte_carlo_batch(self):
        Q = monte_carlo_rule(regime_box("turbulent"), 20000, seed=5).rows(0, 20000)
        assert self.distinct_share(Q) > 0.5
        self.assert_matches_per_value(Q)

    @pytest.mark.parametrize("Q", [
        np.array([[0.0, -0.0, 0.0, -0.0, 0.0]]),
        np.resize([0.0, -0.0, 1.5, -0.0, 0.0, 0.0, 2.5], (4, 5)),
    ], ids=["1x5", "4x5"])
    def test_zero_and_negative_zero_stay_apart(self, Q):
        assert self.distinct_share(Q) <= 0.5
        self.assert_matches_per_value(Q)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("distinct", ["few", "most"])
    def test_request_of_chunk_size_and_one_row_either_side(self, extra, distinct):
        rows = _CHUNK_ROWS + extra
        if distinct == "few":
            # each row holds two distinct values, so even a one-row chunk gathers
            Q = np.resize([0.0, -0.0, 0.0, -0.0, 0.0, 2.5, 1.0 / 3.0, 2.5, 2.5, 1.0 / 3.0],
                          (rows, 5))
        else:
            Q = np.random.default_rng(rows).lognormal(0.0, 30.0, size=(rows, 5))
            Q[::7, 2] = -0.0
        for s in range(0, rows, _CHUNK_ROWS):
            share = self.distinct_share(Q[s:s + _CHUNK_ROWS])
            assert share <= 0.5 if distinct == "few" else share > 0.5
        assert bytes(_encode_request(SYMBOLS, Q)) == csv_request(SYMBOLS, Q).encode()

    @pytest.mark.parametrize("Q", [
        np.array([[1.0 / 3.0]]),
        np.full((1, 5), 1.0 / 3.0),
        np.array([[0.1, 0.2, 0.1 + 0.2, 5e-324, 0.1]]),
    ], ids=["1x1", "1x5-one-value", "1x5"])
    def test_single_row(self, Q):
        self.assert_matches_per_value(Q)


TURBULENT_PAIRS = [list(pair) for pair in zip(regime_box("turbulent").lower.tolist(),
                                              regime_box("turbulent").upper.tolist())]


class TestInputFiles:
    @pytest.mark.parametrize("option,doc,message", [
        ("config", b"quad: tensor:3", "is not JSON: Expecting value: line 1 column 1"),
        ("config", [1, 2], "must hold a JSON object"),
        ("config", "abc", "must hold a JSON object"),
        ("system", [1, 2], "must hold a JSON object"),
        ("system", {**PIPE_SYSTEM_DOC, "independents": 3},
         "has a value of the wrong type: "),
        ("box", {"bounds": 5}, "has a value of the wrong type: "),
        ("surface", {"surface": 1}, "has a value of the wrong type: "),
        ("system", {"base_units": ["kg"]}, "lacks the key 'independents'"),
        ("system", {**PIPE_SYSTEM_DOC, "dependent": {"symbol": "dpdx", "dims": [1, -2, -2]}},
         "lacks the key 'name'"),
        ("box", {}, "lacks the key 'bounds'"),
        ("surface", {"surface": {"degree": 2}}, "lacks the key 'n'"),
        ("box", {"bounds": TURBULENT_PAIRS[:2]}, "is refused: bounds has 2 pairs for 5 symbols"),
        ("box-ridge-check", {"bounds": TURBULENT_PAIRS[:2]},
         "is refused: bounds has 2 pairs for 5 symbols"),
        ("box", {"bounds": {**dict(zip(SYMBOLS, TURBULENT_PAIRS)), "rho": []}},
         "is refused: bound 0 (rho) must be a [lower, upper] pair, got []"),
        ("box", {"bounds": [[0.1, 0.14, 0.2]] + TURBULENT_PAIRS[1:]},
         "is refused: bound 0 (rho) must be a [lower, upper] pair, got [0.1, 0.14, 0.2]"),
        ("system", {**PIPE_SYSTEM_DOC, "base_units": [None, "m", "s"]},
         "is refused: base units and quantity symbols must be strings"),
        ("system", {**PIPE_SYSTEM_DOC, "dependent": {
            "name": "pressure loss", "symbol": "dpdx", "dims": [1, -2, float("inf")]}},
         "is refused: quantity 'dpdx' has a non-finite exponent"),
        ("surface", surface_file(w=[1.0, 0.0]),
         "is refused: w and W have shapes (2,) and (5, 2); W needs 2 columns"),
        ("surface", surface_file(W=[[1.0]] * 5),
         "is refused: w and W have shapes (5,) and (5, 1); W needs 2 columns"),
        ("surface", surface_file(W=None), "is refused: w and W have shapes (5,) and ();"),
        ("surface", surface_file(w=[None, 0.0, -1.0, 0.0, 2.0]),
         "is refused: w and W must be finite"),
        ("surface", surface_file(surface={**surface_file()["surface"], "degree": 2.5}),
         "is refused: surface degree must be an integer, got 2.5"),
        ("system", {**{k: v for k, v in PIPE_SYSTEM_DOC.items() if k != "w"},
                    "pinned_w": PIPE_SYSTEM_DOC["w"]},
         "is refused: unknown system keys: pinned_w"),
        ("system", {**PIPE_SYSTEM_DOC, "dependent": {
            "name": "pressure loss", "symbol": "dpdx", "dims": [1, -2, -2], "units": "Pa/m"}},
         "is refused: unknown quantity 'dpdx' keys: units"),
        ("box", {"bounds": TURBULENT_PAIRS, "regime": "turbulent"},
         "is refused: unknown box keys: regime"),
        ("box", {"bounds": {**dict(zip(SYMBOLS, TURBULENT_PAIRS)), "Eps": TURBULENT_PAIRS[3]}},
         "is refused: unknown bounds keys: Eps"),
        ("surface", surface_file(Wt=[[1.0]] * 5), "is refused: unknown surface file keys: Wt"),
        ("surface", surface_file(surface={**surface_file()["surface"], "degre": 2}),
         "is refused: unknown surface keys: degre"),
        ("system", {**PIPE_SYSTEM_DOC, "base_units": ["kg", "m", "kg"]},
         "is refused: base-unit names must be unique"),
        ("system", {**PIPE_SYSTEM_DOC, "independents": [
            {**q, "name": "fluid density"} if q["symbol"] == "mu" else q
            for q in PIPE_SYSTEM_DOC["independents"]]},
         "is refused: quantity names must be unique"),
        ("config", b'{"quad": "tensor:2", "quad": "tensor:3"}', "repeats the key 'quad'"),
        ("box", b'{"bounds": [[1, 2]], "bounds": [[1, 2], [3, 4]]}',
         "repeats the key 'bounds'"),
        ("system", {**PIPE_SYSTEM_DOC, "base_units": "kms"},
         "has a value of the wrong type: system key 'base_units' must be a JSON array, "
         "got 'kms'"),
        ("system", {**PIPE_SYSTEM_DOC, "independents": "rho"},
         "has a value of the wrong type: system key 'independents' must be a JSON array, "
         "got 'rho'"),
        ("system", {**PIPE_SYSTEM_DOC, "dependent": {
            "name": "pressure loss", "symbol": "dpdx", "dims": "100"}},
         "has a value of the wrong type: quantity 'dpdx' key 'dims' must be a JSON array, "
         "got '100'"),
        ("system", {**PIPE_SYSTEM_DOC, "w": "10102"},
         "has a value of the wrong type: system key 'w' must be a JSON array, got '10102'"),
    ], ids=["config-not-json", "config-array", "config-string", "system-array",
            "system-independents", "box-bounds", "surface", "system-no-independents",
            "system-no-name", "box-no-bounds", "surface-no-n", "box-two-pairs",
            "ridge-check-box-two-pairs", "box-empty-pair", "box-three-bounds",
            "system-null-base-unit", "system-infinite-dim", "surface-short-w",
            "surface-one-W-column", "surface-null-W", "surface-null-in-w",
            "surface-fractional-degree", "system-unknown-key", "system-quantity-unknown-key",
            "box-unknown-key", "box-unknown-bound", "surface-unknown-key",
            "surface-unknown-field", "system-repeated-base-unit", "system-repeated-name",
            "config-repeated-key", "box-repeated-key", "system-string-base-units",
            "system-string-independents", "system-string-dims", "system-string-w"])
    def test_wrongly_shaped_json_is_config_error_naming_the_file(self, tmp_path, capsys,
                                                                 option, doc, message):
        path = tmp_path / "input.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))  # writes Infinity
        out = tmp_path / "x"
        argv = {
            "config": ["analyze", "--regime", "turbulent", "--config", str(path)],
            "system": ["pi-basis", str(path)],
            "box": ["analyze", "--box", str(path)],
            "box-ridge-check": ["ridge-check", "--box", str(path)],
            "surface": ["predict", "--surface", str(path), "--point", "1,2,3,4,5"],
        }[option]
        if argv[0] in ("analyze", "ridge-check"):
            argv += ["--quad", "tensor:3", "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} {message}")
        assert not out.exists()

    @pytest.mark.parametrize("symbol", ["rho,x", "", "rho\nx"], ids=["comma", "empty", "newline"])
    def test_a_symbol_that_cannot_name_a_csv_column_is_refused(self, tmp_path, capsys,
                                                               symbol):
        # symbols name the columns of exponents.csv, trace.csv and each request
        # to the child, which here reads its columns by position
        doc = json.loads(json.dumps(PIPE_SYSTEM_DOC))
        doc["independents"][0]["symbol"] = symbol
        system, box = tmp_path / "system.json", tmp_path / "box.json"
        system.write_text(json.dumps(doc))
        box.write_text(json.dumps({"bounds": TURBULENT_PAIRS}))
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        out = tmp_path / "x"
        assert main(["analyze", "--system", str(system), "--box", str(box),
                     "--experiment-cmd", " ".join(cmd), "--quad", "tensor:2", "--trace",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {system} is refused: quantity symbol {symbol!r} is empty or holds "
            "a comma or line break\n")
        assert not out.exists()

    def test_a_quantity_with_both_a_unit_and_dims_is_refused(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PIPE_SYSTEM_DOC))
        doc["independents"][2] = {"name": "pipe diameter", "symbol": "D", "unit": "m",
                                  "dims": [1, 0, 0]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(doc))
        assert main(["pi-basis", str(system)]) == 2
        assert capsys.readouterr().err == (
            f"error: {system} is refused: quantity 'D' needs exactly one of a 'unit' and "
            "a 'dims' field\n")


# the pipe system with gravity g as a sixth quantity, and no pinned w
SIX_QUANTITY_SYSTEM = {
    **{key: value for key, value in PIPE_SYSTEM_DOC.items() if key != "w"},
    "independents": [*PIPE_SYSTEM_DOC["independents"],
                     {"name": "gravity", "symbol": "g", "dims": [0, 1, -2]}],
}
# the pipe system with its quantities, and pinned w, listed as (V, rho, mu, D, eps)
V_FIRST = [4, 0, 1, 2, 3]
V_FIRST_SYSTEM = {**PIPE_SYSTEM_DOC, **{key: [PIPE_SYSTEM_DOC[key][i] for i in V_FIRST]
                                        for key in ("independents", "w")}}


class TestOneCheckPerInput:
    def test_pressure_formula_is_checked_for_an_external_experiment(
            self, tmp_path, pipe_system_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pressure_formula": "bogus"}))
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        assert main(["analyze", "--experiment-cmd", " ".join(cmd), "--system", pipe_system_file,
                     "--regime", "turbulent", "--quad", "tensor:2", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            "error: pressure_formula must be 'fanning' or 'darcy', got 'bogus'\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["analyze", "ridge-check", "fd-convergence"])
    def test_regime_refuses_other_quantities(self, tmp_path, capsys, command):
        system = tmp_path / "six.json"
        system.write_text(json.dumps(SIX_QUANTITY_SYSTEM))
        assert main([command, "--system", str(system), "--regime", "turbulent",
                     "--quad", "tensor:2", "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            "error: --regime turbulent needs the pipe quantities: bounds missing for: g\n"
        assert not (tmp_path / "x").exists()

    def test_regime_follows_the_order_of_the_system(self, tmp_path):
        # the same problem in other coordinates: Z's rows permuted, and Z and
        # the eigenvalues equal to the O(h) bound of TestFdRotationInvariance
        system = tmp_path / "v_first.json"
        system.write_text(json.dumps(V_FIRST_SYSTEM))
        cmd = write_script(tmp_path, "keyed.py", KEYED_WRAPPER)
        common = ["analyze", "--regime", "turbulent", "--quad", "tensor:5"]
        assert main([*common, "--system", str(system), "--experiment-cmd", " ".join(cmd),
                     "--out-dir", str(tmp_path / "v_first")]) == 0
        assert main([*common, "--out-dir", str(tmp_path / "pipe")]) == 0
        permuted, reference = (json.loads((tmp_path / name / "result.json").read_text())
                               for name in ("v_first", "pipe"))
        tol = 4.0 * reference["metadata"]["h"]
        lam = np.array(reference["eigenvalues"])
        Z = np.array(reference["Z"])[V_FIRST]
        assert signed_column_distance(np.array(permuted["Z"]), Z) <= tol
        assert np.max(np.abs(np.array(permuted["eigenvalues"]) - lam)) <= tol * lam[0]

    @pytest.mark.parametrize("external", [True, False], ids=["external", "built-in"])
    def test_external_options_are_checked_once_per_run(self, tmp_path, pipe_system_file,
                                                       monkeypatch, external):
        # the command line checks them for the built-in model, ExternalExperiment
        # for an external one: each module's binding is counted
        calls = []

        def counted(check):
            def spy(*args):
                calls.append(args)
                return check(*args)
            return spy

        for module in (pigroups.cli, pigroups.external):
            monkeypatch.setattr(module, "check_external_options",
                                counted(module.check_external_options))
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        flags = ["--experiment-cmd", " ".join(cmd)] if external else []
        assert main(["analyze", *flags, "--system", pipe_system_file, "--regime", "turbulent",
                     "--quad", "tensor:2", "--out-dir", str(tmp_path / "x")]) == 0
        assert calls == [(None, 2**15, 1)]

    def test_builtin_model_refuses_the_pipe_quantities_in_another_order(self, tmp_path,
                                                                          capsys):
        system = tmp_path / "v_first.json"
        system.write_text(json.dumps(V_FIRST_SYSTEM))
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"bounds": dict(zip(SYMBOLS, TURBULENT_PAIRS))}))
        assert main(["analyze", "--system", str(system), "--box", str(box),
                     "--quad", "tensor:2", "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "error: the built-in pipe model needs --system to list rho, mu, D, eps, V "
            "in this order, got V, rho, mu, D, eps\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["analyze", "ridge-check", "fd-convergence"])
    def test_box_and_regime_together_are_a_usage_error(self, tmp_path, capsys, command):
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"bounds": TURBULENT_PAIRS}))
        assert main([command, "--regime", "turbulent", "--box", str(box),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "argument --box: not allowed with argument --regime" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestPiBasisCommand:
    def test_pipe_system(self, pipe_system_file, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert main(["pi-basis", pipe_system_file, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rank(D) = 3" in text
        assert "pinned" in text
        doc = json.loads(out.read_text())
        D = np.array(doc["D"])
        W = np.array(doc["W"])
        assert np.max(np.abs(D @ W)) < 1e-12
        assert doc["pinned_w"] == [1.0, 0.0, -1.0, 0.0, 2.0]

    def test_square_system_has_no_groups(self, tmp_path, capsys):
        doc = {
            "base_units": ["kg", "m"],
            "independents": [
                {"name": "a", "symbol": "a", "dims": [1, 0]},
                {"name": "b", "symbol": "b", "dims": [0, 1]},
            ],
            "dependent": {"name": "c", "symbol": "c", "dims": [1, 1]},
        }
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        assert main(["pi-basis", str(path)]) == 3
        assert "no dimensionless groups" in capsys.readouterr().err

    def test_rank_deficient_system_hints_at_missing_quantities(self, tmp_path, capsys):
        doc = {
            "base_units": ["kg", "m"],
            "independents": [
                {"name": "a", "symbol": "a", "dims": [1, 0]},
                {"name": "b", "symbol": "b", "dims": [2, 0]},
                {"name": "c", "symbol": "c", "dims": [-1, 0]},
            ],
            "dependent": {"name": "d", "symbol": "d", "dims": [1, 0]},
        }
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(doc))
        assert main(["pi-basis", str(path)]) == 2
        assert "missing quantities" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert main(["pi-basis", "no-such-file.json"]) == 2

    def test_undeclared_base_unit_is_config_error(self, tmp_path, capsys):
        doc = {
            "base_units": ["kg", "m"],
            "independents": [
                {"name": "a", "symbol": "a", "unit": "kg*furlong"},
                {"name": "b", "symbol": "b", "unit": "m"},
            ],
            "dependent": {"name": "c", "symbol": "c", "unit": "kg"},
        }
        path = tmp_path / "furlong.json"
        path.write_text(json.dumps(doc))
        assert main(["pi-basis", str(path)]) == 2
        assert "furlong" in capsys.readouterr().err
        # analyze maps the same input to the same code
        assert main(["analyze", "--system", str(path), "--regime", "turbulent",
                     "--out-dir", str(tmp_path / "run")]) == 2


class TestAnalyzeCommand:
    def test_algorithm2_outputs_and_budget(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "analyze", "--regime", "turbulent",
            "--algorithm", "2", "--h", "1e-6", "--quad", "tensor:3",
            "--out-dir", str(out),
        ])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["metadata"]["evaluations"] == 243 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["evaluations"] == 243 * 3
        assert manifest["total_experiment_calls"] == 243 * 3
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (1, 243 * 3)
        assert manifest["command"] == "analyze"
        lines = (out / "exponents.csv").read_text().strip().splitlines()
        assert lines[0] == "variable,z_1,z_2"
        assert len(lines) == 7

    def test_manifest_says_how_the_experiment_was_called(self, tmp_path, capsys):
        # 161,051 points in calls of at most 32,768 rows: 15 runs of at most
        # 10,737 points, each one call with their two shifted copies
        out = tmp_path / "run"
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:11",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["total_experiment_calls"] == 3 * 11**5
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (15, 32211)

    def test_removed_experiment_option_is_refused(self, tmp_path, capsys):
        # not taken as an abbreviation of --experiment-cmd
        assert main(["analyze", "--experiment", "pipe", "--regime", "turbulent",
                     "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --experiment pipe" in capsys.readouterr().err

    def test_result_json_is_byte_identical_across_runs(self, tmp_path):
        args = ["analyze", "--regime", "turbulent", "--algorithm", "2",
                "--quad", "tensor:3", "--seed", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()

    def test_algorithm1_writes_surface_and_counts_holdout(self, tmp_path):
        out = tmp_path / "run1"
        rc = main([
            "analyze", "--regime", "turbulent", "--algorithm", "1",
            "--design", "50", "--degree", "2", "--holdout", "20",
            "--quad", "tensor:3", "--seed", "7", "--out-dir", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["evaluations"] == 50
        assert manifest["holdout_evaluations"] == 20
        assert manifest["total_experiment_calls"] == 70
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (2, 50)
        surface = json.loads((out / "surface.json").read_text())
        assert {"surface", "w", "W"} <= set(surface)

    def test_config_file_merging_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad": "tensor:3", "seed": 5, "algorithm": 2}))
        out = tmp_path / "run"
        rc = main(["analyze", "--regime", "turbulent", "--config", str(cfg),
                   "--seed", "9", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        result = json.loads((out / "result.json").read_text())
        assert "N=243" in result["metadata"]["quadrature"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 11}))
        rc = main(["analyze", "--regime", "turbulent", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_regime_is_config_error(self, tmp_path):
        assert main(["analyze", "--regime", "hypersonic",
                     "--out-dir", str(tmp_path)]) == 2

    def test_missing_box_and_regime(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path)]) == 2

    def test_box_file(self, tmp_path):
        box = {"bounds": {s: [lo, hi] for s, lo, hi in zip(
            SYMBOLS, regime_box("turbulent").lower, regime_box("turbulent").upper)}}
        box_path = tmp_path / "box.json"
        box_path.write_text(json.dumps(box))
        out = tmp_path / "run"
        rc = main(["analyze", "--box", str(box_path), "--algorithm", "2",
                   "--quad", "tensor:3", "--out-dir", str(out)])
        assert rc == 0

    def test_trace_written(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["analyze", "--regime", "turbulent", "--algorithm", "2",
                   "--quad", "tensor:3", "--trace", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,mu,D,eps,V,pi,g_1,g_2"
        assert len(lines) == 244

    def test_surface_trace_holds_each_design_point_and_the_surrogate_gradient(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["analyze", "--regime", "turbulent", "--algorithm", "1", "--design", "60",
                   "--holdout", "0", "--quad", "tensor:3", "--trace", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "trace.csv").read_text().splitlines()[0] == "rho,mu,D,eps,V,pi,g_1,g_2"
        data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        points, pi, grads = data[:, :5], data[:, 5], data[:, 6:]
        # one row per design point, in design order
        design = latin_hypercube(regime_box("turbulent"), 60, AlgorithmConfig().seed)
        assert np.array_equal(points, design)
        doc = json.loads((out / "surface.json").read_text())
        logq = np.log(points)
        q = PipeFlowExperiment().evaluate_batch(points)
        assert np.allclose(pi, q * np.exp(-logq @ np.array(doc["w"])), rtol=1e-13, atol=0.0)
        surface = ResponseSurface.from_dict(doc["surface"])
        assert np.allclose(grads, grad_surface(surface, logq @ np.array(doc["W"])),
                           rtol=1e-12, atol=0.0)

    def test_external_experiment_matches_builtin(self, tmp_path, pipe_system_file):
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        out_ext = tmp_path / "ext"
        rc = main([
            "analyze", "--experiment-cmd", " ".join(cmd),
            "--system", pipe_system_file, "--regime", "turbulent",
            "--algorithm", "2", "--quad", "tensor:3", "--out-dir", str(out_ext),
        ])
        assert rc == 0
        out_builtin = tmp_path / "builtin"
        assert main(["analyze", "--regime", "turbulent", "--algorithm", "2",
                     "--quad", "tensor:3", "--out-dir", str(out_builtin)]) == 0
        assert (out_ext / "result.json").read_bytes() == \
            (out_builtin / "result.json").read_bytes()

    @pytest.mark.parametrize("algorithm", ["1", "2"])
    def test_single_group_system_writes_its_result(self, tmp_path, algorithm):
        system = tmp_path / "pendulum.json"
        system.write_text(json.dumps(PENDULUM_SYSTEM))
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"bounds": {"L": [0.5, 2.0], "g": [9.0, 10.0],
                                              "A": [0.05, 0.5]}}))
        cmd = write_script(tmp_path, "pendulum.py", PENDULUM_SCRIPT)
        out = tmp_path / "out"
        rc = main(["analyze", "--algorithm", algorithm, "--system", str(system),
                   "--box", str(box), "--experiment-cmd", " ".join(cmd),
                   "--quad", "tensor:3", "--design", "30", "--holdout", "10",
                   "--out-dir", str(out)])
        assert rc == 0
        metadata = json.loads((out / "result.json").read_text())["metadata"]
        assert metadata["eigen_gap"] is None
        assert metadata["unique"] is True

    @pytest.mark.parametrize("algorithm", ["1", "2"])
    def test_a_constant_experiment_is_flagged_degenerate(self, tmp_path, capsys, algorithm):
        # every gradient is zero, so C is zero and lambda_1 is no scale for a gap
        cmd = write_script(tmp_path, "zeros.py", ZEROS_SCRIPT)
        out = tmp_path / "out"
        rc = main(["analyze", "--algorithm", algorithm, "--regime", "turbulent",
                   "--experiment-cmd", " ".join(cmd), "--quad", "tensor:3",
                   "--design", "50", "--holdout", "10", "--out-dir", str(out)])
        assert rc == 0
        assert "warning: degenerate eigenspace - groups not unique\n" in capsys.readouterr().out
        metadata = json.loads((out / "result.json").read_text())["metadata"]
        assert metadata["unique"] is False
        assert metadata["eigen_gap"] == 0.0

    def test_batch_size_default_is_shown_and_shared(self, capsys):
        assert main(["analyze", "--help"]) == 0
        assert "(default 32768)" in " ".join(capsys.readouterr().out.split())
        assert ExternalExperiment(command=("x",), symbols=SYMBOLS).batch_size == 32768

    @pytest.mark.parametrize("batch_size", ["-1", "0"])
    def test_batch_size_below_one_is_config_error(self, tmp_path, pipe_system_file, capsys,
                                                  batch_size):
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        rc = main(["analyze", "--experiment-cmd", " ".join(cmd), "--system", pipe_system_file,
                   "--regime", "turbulent", "--quad", "tensor:3", "--batch-size", batch_size,
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert f"--batch-size must be at least 1, got {batch_size}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--timeout", "0"], "--timeout must be a positive number, got 0.0"),
        (["--timeout", "-1"], "--timeout must be a positive number, got -1.0"),
        (["--timeout", "nan"], "--timeout must be a positive number, got nan"),
        (["--workers", "-2"], "--workers must be at least 1, got -2"),
        (["--design", "-5"], "--design must be at least 1, got -5"),
        (["--seed", "-1"], "--seed must be nonnegative, got -1"),
    ], ids=["timeout-zero", "timeout-negative", "timeout-nan", "workers", "design", "seed"])
    def test_out_of_range_option_is_config_error(self, tmp_path, pipe_system_file, capsys,
                                                 flags, message):
        cmd = write_script(tmp_path, "wrapper.py", WRAPPER)
        rc = main(["analyze", "--experiment-cmd", " ".join(cmd), "--system", pipe_system_file,
                   "--regime", "turbulent", "--algorithm", "1", "--design", "50",
                   "--holdout", "10", "--quad", "tensor:3", *flags,
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags,message", [
        ("analyze", ["--workers", "-2"], "--workers must be at least 1, got -2"),
        ("analyze", ["--timeout", "-1"],
         "--timeout must be a positive number, got -1.0"),
        ("analyze", ["--batch-size", "0"], "--batch-size must be at least 1, got 0"),
        ("ridge-check", ["--workers", "0"], "--workers must be at least 1, got 0"),
        ("fd-convergence", ["--timeout", "inf"],
         "--timeout must be a positive number, got inf"),
    ], ids=["analyze-workers", "analyze-timeout", "analyze-batch-size", "ridge-check-workers",
            "fd-convergence-timeout"])
    def test_external_options_are_checked_for_the_builtin_experiment(
            self, tmp_path, capsys, command, flags, message):
        rc = main([command, "--regime", "turbulent", "--quad", "tensor:3", *flags,
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("workers", None, "--workers must be an integer, got None"),
        ("batch_size", "10", "--batch-size must be an integer, got '10'"),
        ("timeout", "30s", "--timeout must be a positive number, got '30s'"),
        ("algorithm", 3, "--algorithm must be at most 2, got 3"),
        ("algorithm", "1", "--algorithm must be an integer, got '1'"),
        ("pressure_formula", "bogus",
         "pressure_formula must be 'fanning' or 'darcy', got 'bogus'"),
        ("h", "1e-6x", "--h must be a positive number, got '1e-6x'"),
        ("degree", 2.5, "--degree must be an integer, got 2.5"),
        ("seed", 1.5, "--seed must be an integer, got 1.5"),
        ("seed", True, "--seed must be an integer, got True"),
        ("re_crit", [1], "--re-crit must be a positive number, got [1]"),
        ("h", float("inf"), "--h must be a positive number, got inf"),
        ("--h", "inf", "--h must be a positive number, got inf"),
        ("workers", True, "--workers must be an integer, got True"),
        ("timeout", True, "--timeout must be a positive number, got True"),
        ("batch_size", True, "--batch-size must be an integer, got True"),
        ("batch_size", 2.0, "--batch-size must be an integer, got 2.0"),
        ("h", 10**400, f"--h must be a positive number, got {10**400}"),
        ("timeout", 10**400, f"--timeout must be a positive number, got {10**400}"),
        ("re_crit", 10**400, f"--re-crit must be a positive number, got {10**400}"),
        ("design", 10**30, f"--design must be at most 10000000, got {10**30}"),
        ("quad", None, "--quad must be 'tensor:<p>' or 'mc:<N>', got None"),
    ], ids=["null-workers", "string-batch-size", "string-timeout", "algorithm-3",
            "string-algorithm", "pressure-formula", "string-h", "float-degree", "float-seed",
            "boolean-seed", "list-re-crit", "infinite-h", "infinite-h-flag", "boolean-workers",
            "boolean-timeout", "boolean-batch-size", "float-batch-size", "huge-h",
            "huge-timeout", "huge-re-crit", "huge-design", "null-quad"])
    def test_mistyped_option_in_config_file_is_config_error(self, tmp_path, capsys, key, value,
                                                            message):
        # a key that starts with "--" is given as a flag instead; the rule is
        # set in the file, so that a "quad" row can override it
        cfg = tmp_path / "cfg.json"
        flags = [key, value] if key.startswith("--") else []
        cfg.write_text(json.dumps({"quad": "tensor:3", **({} if flags else {key: value})}))
        assert main(["analyze", "--regime", "turbulent", *flags,
                     "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["h", "timeout", "re_crit"])
    def test_numeric_string_in_config_file_is_a_number(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "3e-6"}))
        out = tmp_path / "x"
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:2",
                     "--config", str(cfg), "--out-dir", str(out)]) == 0
        h = json.loads((out / "result.json").read_text())["metadata"]["h"]
        assert h == (3e-6 if key == "h" else 1e-6)

    @pytest.mark.parametrize("flags,message", [
        (["--h", "-1"], "--h must be a positive number, got -1.0"),
        (["--quad", "bogus"], "--quad must be 'tensor:<p>' or 'mc:<N>', got 'bogus'"),
        (["--quad", "tensor:30"],
         "the point count 30^5 of --quad tensor:30 must be at most 10000000, got 24300000"),
        (["--quad", "mc:100000000000000"],
         "--quad mc:<N> must be at most 10000000, got 100000000000000"),
        (["--degree", "0"], "--degree must be at least 1, got 0"),
        (["--algorithm", "1", "--holdout", "100000000000000"],
         "--holdout must be at most 10000000, got 100000000000000"),
    ], ids=["negative-h", "bogus-quad", "tensor-30", "huge-mc", "zero-degree", "huge-holdout"])
    def test_refused_option_runs_nothing_and_writes_nothing(self, tmp_path, capsys,
                                                            monkeypatch, flags, message):
        calls = []
        monkeypatch.setattr(PipeFlowExperiment, "evaluate_batch", calls.append)
        out = tmp_path / "x"
        assert main(["analyze", "--regime", "turbulent", *flags, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    def test_design_too_small_for_the_surrogate_is_config_error(self, tmp_path, capsys):
        assert main(["analyze", "--regime", "turbulent", "--algorithm", "1", "--design", "5",
                     "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "error: design of 5 cannot fit 6 surrogate coefficients\n")
        assert not (tmp_path / "x").exists()

    def test_design_is_checked_for_the_surface_route_only(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithm": 1, "design": 5}))
        assert main(["ridge-check", "--regime", "turbulent", "--quad", "tensor:2",
                     "--config", str(config), "--out-dir", str(tmp_path / "x")]) == 0

    def test_a_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        # eps above D: the first experiment call meets a relative roughness above 1
        box = tmp_path / "box.json"
        box.write_text(json.dumps({"bounds": [*TURBULENT_PAIRS[:3], [2.0, 3.0],
                                              TURBULENT_PAIRS[4]]}))
        out = tmp_path / "x"
        assert main(["analyze", "--box", str(box), "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 3
        assert "relative roughness must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["1", "2"])
    def test_a_traced_run_makes_a_nested_output_directory(self, tmp_path, algorithm):
        out = tmp_path / "a" / "b" / "c"
        assert main(["analyze", "--regime", "turbulent", "--algorithm", algorithm,
                     "--design", "50", "--holdout", "10", "--quad", "tensor:3", "--trace",
                     "--out-dir", str(out)]) == 0
        names = {"trace.csv", "result.json", "exponents.csv", "manifest.json"}
        assert names <= {path.name for path in out.iterdir()}

    @pytest.mark.parametrize("below", [(), ("sub",), ("sub", "dir")],
                             ids=["the-file", "under-it", "two-under-it"])
    @pytest.mark.parametrize("command", ["analyze", "ridge-check", "fd-convergence"])
    def test_an_out_dir_that_is_or_is_under_a_file_runs_nothing(self, tmp_path, capsys,
                                                               monkeypatch, command, below):
        calls = []
        monkeypatch.setattr(PipeFlowExperiment, "evaluate_batch", calls.append)
        kept = tmp_path / "results"
        kept.write_text("kept")
        out = kept.joinpath(*below)
        assert main([command, "--regime", "turbulent", "--quad", "tensor:2",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out-dir {str(out)!r} cannot be made: {str(kept)!r} is a file\n")
        assert calls == []
        assert kept.read_text() == "kept"

    @pytest.mark.parametrize("command,message", [
        ("", "--experiment-cmd names no program"),
        (" ", "--experiment-cmd names no program"),
        ("'abc", "--experiment-cmd cannot be split into words: No closing quotation"),
    ], ids=["empty", "blank", "open-quote"])
    def test_experiment_command_that_cannot_run_is_config_error(self, tmp_path, capsys,
                                                                command, message):
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:3",
                     "--experiment-cmd", command, "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("exc", [ValueError("a bug"), KeyError("a bug")],
                             ids=["ValueError", "KeyError"])
    def test_an_exception_of_no_toolkit_class_is_not_an_exit_code(self, monkeypatch, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr("pigroups.cli._cmd_analyze", broken)
        with pytest.raises(type(exc)):
            main(["analyze", "--regime", "turbulent"])

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("quad,message", [
        ("mc:0", "--quad mc:<N> must be at least 1, got 0"),
        ("tensor:0", "--quad tensor:<p> must be at least 1, got 0"),
        ("tensor:65", "--quad tensor:<p> must be at most 64, got 65"),
    ])
    def test_quad_point_count_out_of_range_is_config_error(self, tmp_path, capsys, source,
                                                           quad, message):
        if source == "flag":
            options = ["--quad", quad]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"quad": quad}))
            options = ["--config", str(cfg)]
        assert main(["analyze", "--regime", "turbulent", *options,
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind,high", [("mc", "<N> must be at most 10000000"),
                                           ("tensor", "<p> must be at most 64")])
    def test_quad_count_of_more_digits_than_int_reads_is_config_error(self, tmp_path, capsys,
                                                                      kind, high):
        # int() refuses over 4,300 digits; the leading zeros do not count
        quad = f"{kind}:" + "0" * 9 + "1" * 4301
        assert main(["analyze", "--regime", "turbulent", "--quad", quad,
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert f"--quad {kind}:{high}, got 4301 digits" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("quad,points", [("mc:00000000001", 1),
                                             ("tensor:" + "0" * 5000 + "2", 32)],
                             ids=["mc", "tensor"])
    def test_leading_zeros_of_a_quad_count_are_dropped(self, tmp_path, quad, points):
        out = tmp_path / "x"
        assert main(["analyze", "--regime", "turbulent", "--quad", quad,
                     "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["evaluations"] == 3 * points

    def test_null_seed_in_config_file_still_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        for algorithm in ("1", "2"):
            out = tmp_path / algorithm
            assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:3",
                         "--algorithm", algorithm, "--design", "50", "--holdout", "10",
                         "--config", str(cfg), "--out-dir", str(out)]) == 0
            # the seed is drawn once; the manifest and the result record it
            seed = json.loads((out / "manifest.json").read_text())["seed"]
            assert isinstance(seed, int) and seed >= 0
            assert json.loads((out / "result.json").read_text())["metadata"]["seed"] == seed

    def test_negative_holdout_is_config_error(self, tmp_path, capsys):
        rc = main(["analyze", "--regime", "turbulent", "--algorithm", "1", "--holdout", "-5",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "--holdout must be nonnegative, got -5" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("side,value", [(0, float("nan")), (1, float("inf"))])
    def test_non_finite_box_bound_is_rejected(self, tmp_path, capsys, side, value):
        box = regime_box("turbulent")
        bounds = {s: [lo, hi] for s, lo, hi in zip(SYMBOLS, box.lower, box.upper)}
        bounds[SYMBOLS[0]][side] = value
        box_path = tmp_path / "box.json"
        box_path.write_text(json.dumps({"bounds": bounds}))  # writes NaN / Infinity
        rc = main(["analyze", "--box", str(box_path), "--algorithm", "2",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "bounds must be finite" in capsys.readouterr().err

    def test_a_failure_the_model_raises_on_a_shifted_copy_names_its_rule_point(
            self, tmp_path, capsys):
        # D in [1.0, 1.1] and eps in [0.9, 0.99] keep eps / D below 1 in the
        # box, but the first shifted copy at h = 0.5 leaves it: call row 243
        # is rule point 0 shifted by h W[:, 0]
        pairs = [list(pair) for pair in TURBULENT_PAIRS]
        pairs[2], pairs[3] = [1.0, 1.1], [0.9, 0.99]
        box_path = tmp_path / "box.json"
        box_path.write_text(json.dumps({"bounds": pairs}))
        rc = main(["analyze", "--box", str(box_path), "--algorithm", "2", "--quad", "tensor:3",
                   "--h", "0.5", "--out-dir", str(tmp_path / "x")])
        assert rc == 3
        assert re.fullmatch(
            r"error: rule points 0 to 242, where call row i is point 0 \+ i mod 243 in copy "
            r"i div 243 \(copy k > 0 is shifted by h W\[:, k - 1\]\): relative roughness "
            r"must lie in \[0, 1\) at point 243 \(Re=\S+, rel_rough=\S+\)\n",
            capsys.readouterr().err)

    def test_failing_external_experiment_exit_code(self, tmp_path):
        cmd = write_script(tmp_path, "fail.py", FAIL_SCRIPT)
        rc = main(["analyze", "--experiment-cmd", " ".join(cmd),
                   "--regime", "turbulent",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 4

    def test_a_program_that_does_not_exist_cannot_launch(self, tmp_path, capsys):
        missing = str(tmp_path / "no_such_program")
        rc = main(["analyze", "--experiment-cmd", missing, "--regime", "turbulent",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 4
        assert f"cannot launch {missing!r}: " in capsys.readouterr().err

    @pytest.mark.parametrize("script,message", [
        (NOT_UTF8_SCRIPT, "row 0: unparseable output '\ufffd\ufffd'"),
        (BAD_STDERR_SCRIPT, "batch 0: exit code 1; stderr: 'boom \ufffd\ufffd'"),
    ], ids=["stdout", "stderr"])
    def test_child_output_that_is_not_utf8_is_a_subprocess_error(self, tmp_path, capsys,
                                                                 script, message):
        cmd = write_script(tmp_path, "bad.py", script)
        rc = main(["analyze", "--experiment-cmd", " ".join(cmd),
                   "--regime", "turbulent",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 4
        assert message in capsys.readouterr().err

    def test_manifest_records_the_python_and_numpy_versions(self, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert manifest["numpy"] == np.__version__

    def test_manifest_records_the_peak_resident_memory(self, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        # the same process's peak, in MB: it can only have grown since
        assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TestSweepCommands:
    def test_fd_convergence_slope(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["fd-convergence", "--regime", "laminar", "--quad", "tensor:3",
                   "--h-sweep", "1e-2,1e-3,1e-4,1e-6", "--out-dir", str(out)])
        assert rc == 0
        table = np.loadtxt(out / "fdconv.csv", delimiter=",", skiprows=1)
        assert table.shape == (3, 2)
        assert np.all(np.diff(table[:, 1]) < 0.0)  # decays as h shrinks
        slope = fit_loglog_slope(table[:, 0], table[:, 1])
        assert 0.8 < slope < 1.2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["evaluations"] == manifest["total_experiment_calls"] == 4 * 243 * 3
        # one call per step: the 243 points and their two shifted copies
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (4, 243 * 3)

    def test_ridge_check_outputs(self, tmp_path):
        out = tmp_path / "ridge"
        rc = main(["ridge-check", "--regime", "turbulent", "--quad", "tensor:3",
                   "--h-sweep", "1e-2,1e-3", "--out-dir", str(out)])
        assert rc == 0
        table = np.loadtxt(out / "ridge.csv", delimiter=",", skiprows=1)
        assert table.shape == (2, 6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["decay_slopes"]) == {"lambda_4", "lambda_5"}
        # second-order decay, or None where round-off leaves < 2 points
        for slope in manifest["decay_slopes"].values():
            assert slope is None or 1.6 <= slope <= 2.4
        assert manifest["evaluations"] == manifest["total_experiment_calls"] == 2 * 243 * 6
        assert (manifest["evaluate_batch_calls"], manifest["largest_call_rows"]) == (2, 243 * 6)

    def test_ridge_check_integrates_over_the_chosen_rule(self, tmp_path):
        def run(seed):
            out = tmp_path / f"seed{seed}"
            rc = main(["ridge-check", "--regime", "turbulent", "--quad", "mc:50",
                       "--seed", str(seed), "--h-sweep", "1e-2,1e-3", "--out-dir", str(out)])
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["evaluations"] == 2 * 50 * 6
            return (out / "ridge.csv").read_bytes()

        assert run(3) != run(4)

    @pytest.mark.parametrize("command,least", [("ridge-check", 2), ("fd-convergence", 3)],
                             ids=["ridge-check", "fd-convergence"])
    @pytest.mark.parametrize("sweep,message", [
        ("0,1e-3", "--h-sweep must be a positive number, got '0'"),
        ("nan,1e-3", "--h-sweep must be a positive number, got 'nan'"),
        ("1e-3,1e-3", "--h-sweep repeats the value 0.001"),
        ("1e-2,abc", "--h-sweep must be a positive number, got 'abc'"),
        ("1e-3", "--h-sweep needs at least {least} values"),
    ], ids=["zero", "nan", "repeated", "non-numeric", "one-value"])
    def test_bad_sweep_is_rejected_before_any_work(self, tmp_path, capsys, command, least,
                                                   sweep, message):
        out = tmp_path / "x"
        rc = main([command, "--regime", "turbulent", "--quad", "tensor:3",
                   "--h-sweep", sweep, "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {message.format(least=least)}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_fd_convergence_refuses_a_sweep_of_two_steps(self, tmp_path, capsys):
        # the smallest step is the reference: one error is left, and a slope
        # through one point is no slope
        out = tmp_path / "x"
        rc = main(["fd-convergence", "--regime", "turbulent", "--quad", "tensor:2",
                   "--h-sweep", "1e-3,1e-4", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --h-sweep needs at least 3 values\n"
        assert not out.exists()

    def test_points_per_dim_is_not_an_option(self, tmp_path):
        rc = main(["ridge-check", "--regime", "turbulent", "--points-per-dim", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 2


class TestMoodyAndPredict:
    def test_moody_data(self, tmp_path):
        out = tmp_path / "moody.csv"
        assert main(["moody-data", "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape[1] == 3
        i = 57
        assert table[i, 2] == pytest.approx(
            friction_factor(10 ** table[i, 0], 10 ** table[i, 1]), rel=1e-12
        )

    def test_moody_data_takes_re_crit_none(self, tmp_path):
        out = tmp_path / "moody.csv"
        assert main(["moody-data", "--re-crit", "none", "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        lam = friction_factor(10 ** table[:, 0], 10 ** table[:, 1], re_crit=None)
        assert np.array_equal(table[:, 2], lam)

    @pytest.mark.parametrize("argv", [
        ["moody-data", "--out", "{out}/moody.csv"],
        ["analyze", "--regime", "turbulent", "--quad", "tensor:3", "--out-dir", "{out}"],
    ], ids=["moody-data", "analyze"])
    def test_nan_re_crit_is_config_error(self, tmp_path, capsys, argv):
        argv = [arg.format(out=tmp_path / "x") for arg in argv]
        assert main([*argv, "--re-crit", "nan"]) == 2
        assert capsys.readouterr().err == "error: --re-crit must be a positive number, got 'nan'\n"
        assert not (tmp_path / "x").exists()

    def test_predict_round_trips_saved_surface(self, tmp_path):
        out = tmp_path / "run1"
        assert main(["analyze", "--regime", "turbulent", "--algorithm", "1",
                     "--design", "200", "--degree", "2", "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 0
        point = "0.12,5e-6,0.75,1e-3,3.0"
        rc = main(["predict", "--surface", str(out / "surface.json"),
                   "--point", point])
        assert rc == 0

    def test_predict_value_matches_library_call(self, tmp_path, capsys):
        out = tmp_path / "run1"
        assert main(["analyze", "--regime", "turbulent", "--algorithm", "1",
                     "--design", "200", "--degree", "2", "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", "--surface", str(out / "surface.json"),
                     "--point", "0.12,5e-6,0.75,1e-3,3.0"]) == 0
        printed = float(capsys.readouterr().out.strip())

        from pigroups.algorithms import predict_dependent
        from pigroups.surrogate import ResponseSurface
        doc = json.loads((out / "surface.json").read_text())
        expected = predict_dependent(
            ResponseSurface.from_dict(doc["surface"]),
            np.asarray(doc["w"]), np.asarray(doc["W"]),
            np.array([0.12, 5e-6, 0.75, 1e-3, 3.0]),
        )
        assert printed == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("field,value,message", [
        ("scale", [0.0, 1.0], "surface scale must be strictly positive"),
        ("coefficients", [0.1] * 5, "surface coefficients has shape (5,), expected (6,)"),
        ("degree", 3, "expected (10,) for n=2, degree=3"),
    ], ids=["scale", "coefficients", "degree"])
    def test_predict_rejects_a_tampered_surface(self, tmp_path, capsys, pipe_basis,
                                                field, value, message):
        gen = np.random.default_rng(5)
        surface = fit_polynomial(gen.normal(size=(20, 2)), gen.normal(size=20), 2)
        doc = {"surface": {**surface.to_dict(), field: value},
               "w": pipe_basis.w, "W": pipe_basis.W}
        path = tmp_path / "surface.json"
        jsonio.dump(doc, path)
        rc = main(["predict", "--surface", str(path), "--point", "0.12,5e-6,0.75,1e-3,3.0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err

    def test_non_numeric_point_token_names_the_option(self, tmp_path, capsys, pipe_basis):
        gen = np.random.default_rng(5)
        surface = fit_polynomial(gen.normal(size=(20, 2)), gen.normal(size=20), 2)
        path = tmp_path / "surface.json"
        jsonio.dump({"surface": surface.to_dict(), "w": pipe_basis.w, "W": pipe_basis.W}, path)
        rc = main(["predict", "--surface", str(path), "--point", "0.12,5e-6,abc,1e-3,3.0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --point must be a positive number, got 'abc'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_point_value_that_is_not_positive_and_finite_names_the_option(
            self, tmp_path, capsys, value):
        path = tmp_path / "surface.json"
        jsonio.dump(surface_file(), path)
        rc = main(["predict", "--surface", str(path), "--point", f"0.12,5e-6,{value},1e-3,3.0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: --point must be a positive number, got {value!r}\n"

    def test_predict_wrong_point_length(self, tmp_path):
        out = tmp_path / "run1"
        assert main(["analyze", "--regime", "turbulent", "--algorithm", "1",
                     "--design", "200", "--quad", "tensor:3",
                     "--out-dir", str(out)]) == 0
        assert main(["predict", "--surface", str(out / "surface.json"),
                     "--point", "1.0,2.0"]) == 2


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("pigroups") is None,
                        reason="console script 'pigroups' is not on PATH (package not installed)")
    def test_console_script_installed(self):
        exe = shutil.which("pigroups")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"pigroups {pigroups.__version__}"

    def test_declared_entry_point_runs(self):
        # runs the [project.scripts] target the way the installed wrapper does
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pigroups"]
        module, _, attr = target.partition(":")
        code = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'pigroups'; sys.exit({attr}())")
        env = dict(os.environ)
        src = str(Path(pigroups.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"pigroups {pigroups.__version__}"

    def test_python_dash_m_runs(self):
        env = dict(os.environ)
        src = str(Path(pigroups.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "pigroups", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"pigroups {pigroups.__version__}"

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out
