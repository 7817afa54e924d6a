"""Console answers, one row each, run in process through main(argv).

A row holds the argv, a zero-argument builder of the digraph to write to
g.json first (or None), the exit code, and the fields that the JSON on
stdout must hold.  A new console answer is one more row; refusals are
inputs of the refusal tables in test_cli.py.
"""

import json
from functools import partial

import pytest

from fibercone import Digraph, export_digraph_json, magic_digraph
from fibercone.cli import main


def _reversed(j, k):
    """Gamma_(1,j,k)+ with its vertex order reversed, which leaves it no
    index runs."""
    g = magic_digraph(j, k)
    n = g.vertex_count
    h = Digraph(g.labels[::-1], [(n - 1 - s, n - 1 - t, m) for s, t, m in g.edges])
    assert not h.runs
    return h


def _hub(n):
    """An n-cycle v0..v(n-1) plus a hub h with h -> h, h -> vi for every i
    and v0 -> h: a skeleton of n + 1 vertices, all but two of out-degree
    1."""
    edges = [(i, (i + 1) % n, 1) for i in range(n)] + [(n, n, 1), (0, n, 1)]
    edges += [(n, i, 1) for i in range(n)]
    return Digraph([f"v{i}" for i in range(n)] + ["h"], edges)


ROWS = [
    (("bounds", "class", "--plus", "1,100,10000"), None, 0,
     {"mixing_r": 1010199}),
    # one group of three lanes at modulus 802
    (("bounds", "class", "--plus", "1,401,401"), None, 0,
     {"mixing_r": 162003, "avoid_m": 160801}),
    # V = 20101, read as a document of edge triples
    (("analyze", "exponent", "--json", "g.json"), partial(_reversed, 100, 10000),
     0, {"exponent": 1010199}),
    # linear in the skeleton: each skeleton vertex is passed once
    (("analyze", "exponent", "--json", "g.json"), partial(_hub, 8000), 0,
     {"exponent": 8001}),
    # the loop of seed 0 in tests/golden/zfold_loops.json
    (("--seed", "0", "zfold", "random", "--vertices", "12", "--cochain-bound",
      "3", "--count", "1"), None, 0,
     {"seed": 0, "verified": True, "loop_start": [1, 0],
      "loop_steps": [[3, False], [2, True]]}),
]


@pytest.mark.parametrize(
    ("argv", "document", "code", "fields"),
    ROWS,
    ids=["bounds-1-100-10000", "bounds-1-401-401", "exponent-reversed-100-10000",
         "exponent-hub-8000", "zfold-random-12-3"],
)
def test_console_answers(capsys, tmp_path, monkeypatch, argv, document, code, fields):
    monkeypatch.chdir(tmp_path)
    if document is not None:
        (tmp_path / "g.json").write_text(export_digraph_json(document()))
    assert main(list(argv)) == code
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc.get(key) for key in fields} == fields
