import json
import os
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pigroups
from helpers import csv_request
from pigroups import jsonio
from pigroups.cli import fit_loglog_slope, main
from pigroups.dimension import QuantitySystem
from pigroups.errors import ExternalError
from pigroups.external import _CHUNK_ROWS, ExternalExperiment, _encode_request, _encode_rows
from pigroups.pipeflow import (
    SYMBOLS,
    PipeFlowExperiment,
    friction_factor,
    pipe_quantity_system,
    regime_box,
)
from pigroups.quadrature import latin_hypercube, monte_carlo_rule, tensor_rule
from pigroups.surrogate import fit_polynomial


@pytest.fixture()
def pipe_system_file(tmp_path):
    path = tmp_path / "pipe.json"
    jsonio.dump(pipe_quantity_system().to_dict(), path)
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

# answers 1 per row without parsing the request
ONES_SCRIPT = """\
import sys
data = sys.stdin.buffer.read()
sys.stdout.write("1\\n" * (data.count(b"\\n") - 1))
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
        Q = tensor_rule(regime_box("turbulent"), 9).points
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

    def test_child_that_exits_without_reading_a_large_batch(self, tmp_path):
        # 50,000 rows are far more than a pipe buffer holds
        cmd = write_script(tmp_path, "fail.py", FAIL_SCRIPT)
        external = ExternalExperiment(command=tuple(cmd), symbols=SYMBOLS, batch_size=50000)
        with pytest.raises(ExternalError, match="^batch 0: exit code 1; stderr: .*boom"):
            external.evaluate_batch(np.full((50000, 5), 1.0 / 3.0))


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
        points = tensor_rule(regime_box("turbulent"), 9).points
        X = np.log(points)
        runs = [points] + [np.exp(X + 1e-6 * pipe_basis.W[:, k])
                           for k in range(pipe_basis.n)]
        for Q in runs:
            for s in range(0, Q.shape[0], _CHUNK_ROWS):
                chunk = Q[s:s + _CHUNK_ROWS]
                assert self.distinct_share(chunk) <= 0.5
                self.assert_matches_per_value(chunk)

    def test_monte_carlo_batch(self):
        Q = monte_carlo_rule(regime_box("turbulent"), 20000, seed=5).points
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


class TestInputFiles:
    @pytest.mark.parametrize("option,doc,message", [
        ("config", [1, 2], "must hold a JSON object"),
        ("config", "abc", "must hold a JSON object"),
        ("system", [1, 2], "must hold a JSON object"),
        ("system", {**pipe_quantity_system().to_dict(), "independents": 3},
         "has a value of the wrong type: "),
        ("box", {"bounds": 5}, "has a value of the wrong type: "),
        ("surface", {"surface": 1}, "has a value of the wrong type: "),
    ], ids=["config-array", "config-string", "system-array", "system-independents",
            "box-bounds", "surface"])
    def test_wrongly_shaped_json_is_config_error_naming_the_file(self, tmp_path, capsys,
                                                                 option, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "x"
        argv = {
            "config": ["analyze", "--regime", "turbulent", "--config", str(path)],
            "system": ["pi-basis", str(path)],
            "box": ["analyze", "--box", str(path)],
            "surface": ["predict", "--surface", str(path), "--point", "1,2,3,4,5"],
        }[option]
        if argv[0] == "analyze":
            argv += ["--quad", "tensor:3", "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} {message}")
        assert not out.exists()


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
        assert main(["pi-basis", str(path)]) == 3
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
        assert manifest["command"] == "analyze"
        lines = (out / "exponents.csv").read_text().strip().splitlines()
        assert lines[0] == "variable,z_1,z_2"
        assert len(lines) == 7

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
        (["--timeout", "0"], "--timeout must be a positive number of seconds, got 0.0"),
        (["--timeout", "-1"], "--timeout must be a positive number of seconds, got -1.0"),
        (["--timeout", "nan"], "--timeout must be a positive number of seconds, got nan"),
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
         "--timeout must be a positive number of seconds, got -1.0"),
        ("analyze", ["--batch-size", "0"], "--batch-size must be at least 1, got 0"),
        ("ridge-check", ["--workers", "0"], "--workers must be at least 1, got 0"),
        ("fd-convergence", ["--timeout", "inf"],
         "--timeout must be a positive number of seconds, got inf"),
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
        ("workers", None, "--workers must be at least 1, got None"),
        ("batch_size", "10", "--batch-size must be at least 1, got 10"),
        ("timeout", "30", "--timeout must be a positive number of seconds, got 30"),
        ("algorithm", 3, "--algorithm must be 1 or 2, got 3"),
        ("algorithm", "1", "--algorithm must be 1 or 2, got '1'"),
        ("pressure_formula", "bogus",
         "pressure_formula must be 'fanning' or 'darcy', got 'bogus'"),
        ("h", "1e-6", "--h must be a positive number, got '1e-6'"),
        ("degree", 2.5, "--degree must be an integer, got 2.5"),
        ("seed", 1.5, "--seed must be an integer, got 1.5"),
        ("seed", True, "--seed must be an integer, got True"),
        ("re_crit", [1], "--re-crit must be a number or 'none', got [1]"),
    ], ids=["null-workers", "string-batch-size", "string-timeout", "algorithm-3",
            "string-algorithm", "pressure-formula", "string-h", "float-degree", "float-seed",
            "boolean-seed", "list-re-crit"])
    def test_mistyped_option_in_config_file_is_config_error(self, tmp_path, capsys, key, value,
                                                            message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["analyze", "--regime", "turbulent", "--quad", "tensor:3",
                     "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("quad,message", [
        ("mc:0", "--quad needs at least one point, got 'mc:0'"),
        ("tensor:0", "--quad needs at least one point, got 'tensor:0'"),
        ("tensor:65", "--quad tensor:<p> needs p at most 64, got 'tensor:65'"),
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
        assert rc == 3
        assert "bounds must be finite" in capsys.readouterr().err

    def test_failing_external_experiment_exit_code(self, tmp_path):
        cmd = write_script(tmp_path, "fail.py", FAIL_SCRIPT)
        rc = main(["analyze", "--experiment-cmd", " ".join(cmd),
                   "--regime", "turbulent",
                   "--quad", "tensor:3", "--out-dir", str(tmp_path / "x")])
        assert rc == 4

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
        assert manifest["evaluations"] == 4 * 243 * 3

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
        assert manifest["evaluations"] == 2 * 243 * 6

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

    @pytest.mark.parametrize("command", ["ridge-check", "fd-convergence"])
    @pytest.mark.parametrize("sweep,message", [
        ("0,1e-3", "--h-sweep values must be finite and positive, got 0.0"),
        ("nan,1e-3", "--h-sweep values must be finite and positive, got nan"),
        ("1e-3,1e-3", "--h-sweep repeats the value 0.001"),
        ("1e-2,abc", "--h-sweep values must be numbers, got 'abc'"),
    ], ids=["zero", "nan", "repeated", "non-numeric"])
    def test_bad_sweep_is_rejected_before_any_work(self, tmp_path, capsys, command, sweep,
                                                   message):
        out = tmp_path / "x"
        rc = main([command, "--regime", "turbulent", "--quad", "tensor:3",
                   "--h-sweep", sweep, "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {message}\n" == capsys.readouterr().err
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
        assert capsys.readouterr().err == "error: --point values must be numbers, got 'abc'\n"

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
