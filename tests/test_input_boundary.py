"""The input boundary of the command line, by mutation.

Each test takes one input document that a command accepts and replaces
every node of it, the root included, with each of a fixed set of JSON
values. Whatever the mutant holds, the command refuses it with an exit
code or runs: nothing raises out of ``main``. A system, box or surface
file that the command refuses is named at the start of the message, and a
config file is either used or refused as a configuration error.
"""

import json

from helpers import PIPE_SYSTEM_DOC, surface_file
from pigroups.cli import main
from pigroups.pipeflow import SYMBOLS, regime_box

VALUES = (None, "x", [], {}, -1, 0, 2.5, True, [1], ["x"], float("inf"), float("nan"), 10**400)

POINT = "0.12,5e-6,0.75,1e-3,3.0"

CONFIG_DOC = {
    "algorithm": 2, "h": 1e-6, "degree": 2, "quad": "tensor:3", "seed": 0, "design": 50,
    "holdout": 10, "re_crit": None, "pressure_formula": "fanning", "timeout": None,
    "batch_size": 32768, "workers": 1,
}


def box_doc():
    box = regime_box("turbulent")
    return {"bounds": {s: [lo, hi] for s, lo, hi in zip(SYMBOLS, box.lower.tolist(),
                                                         box.upper.tolist())}}


def node_paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def mutants(doc):
    """(path, value, mutant) for each node of ``doc`` and each of VALUES."""
    for path in node_paths(doc):
        for value in VALUES:
            if not path:
                yield path, value, value
                continue
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield path, value, mutant


def run_mutants(tmp_path, capsys, doc, argv, codes=(0, 2, 3), named=True):
    """The mutants of ``doc`` that raise out of ``main``, exit with a code
    outside ``codes``, or, if ``named``, exit 2 without naming the file first."""
    path = tmp_path / "input.json"
    faults = []
    for where, value, mutant in mutants(doc):
        path.write_text(json.dumps(mutant))  # writes NaN and Infinity
        try:
            code = main(argv(str(path)))
        except Exception as exc:
            faults.append((where, value, f"raised {exc!r}"))
            continue
        err = capsys.readouterr().err
        if code not in codes:
            faults.append((where, value, f"exit {code}: {err.strip()}"))
        elif code == 2 and named and not err.startswith(f"error: {path} "):
            faults.append((where, value, f"exit 2 without the file: {err.strip()}"))
    return faults


def test_system_file_mutants(tmp_path, capsys):
    faults = run_mutants(tmp_path, capsys, PIPE_SYSTEM_DOC, lambda path: ["pi-basis", path])
    assert faults == []


def test_box_file_mutants(tmp_path, capsys):
    out = str(tmp_path / "out")
    faults = run_mutants(tmp_path, capsys, box_doc(), lambda path: [
        "analyze", "--box", path, "--quad", "tensor:3", "--out-dir", out])
    assert faults == []


def test_surface_file_mutants(tmp_path, capsys):
    faults = run_mutants(tmp_path, capsys, surface_file(),
                         lambda path: ["predict", "--surface", path, "--point", POINT])
    assert faults == []


def test_config_file_mutants(tmp_path, capsys):
    out = str(tmp_path / "out")
    faults = run_mutants(tmp_path, capsys, CONFIG_DOC, lambda path: [
        "analyze", "--regime", "turbulent", "--config", path, "--out-dir", out],
        codes=(0, 2), named=False)
    assert faults == []


def test_the_four_documents_have_124_nodes():
    docs = (PIPE_SYSTEM_DOC, box_doc(), surface_file(), CONFIG_DOC)
    assert [len(list(node_paths(doc))) for doc in docs] == [54, 17, 40, 13]
