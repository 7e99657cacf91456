"""External-experiment child: the built-in pipe model behind the CSV protocol.

Reads a header of quantity symbols and one row of values per line on
stdin, evaluates ``PipeFlowExperiment()`` and writes one ``%.17g`` value
per row on stdout, so the parent parses back exactly the floats the
in-process model returns. Run it with the interpreter and ``PYTHONPATH``
of the CLI that launches it.
"""

import io
import sys

import numpy as np

from pigroups.pipeflow import SYMBOLS, PipeFlowExperiment


def evaluate_csv(text: str) -> str:
    header, _, body = text.partition("\n")
    symbols = [s.strip() for s in header.split(",")]
    if sorted(symbols) != sorted(SYMBOLS):
        raise ValueError(f"header {symbols} does not name the pipe symbols {list(SYMBOLS)}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    points = rows[:, [symbols.index(s) for s in SYMBOLS]]
    values = PipeFlowExperiment().evaluate_batch(points)
    return "".join("%.17g\n" % v for v in values)


if __name__ == "__main__":
    sys.stdout.write(evaluate_csv(sys.stdin.read()))
