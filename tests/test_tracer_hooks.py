"""The benchmark's layer tracer (perfbench/spans.py) still finds every name it
patches in hadalg, reads what it reads per call on a traced elem, mat and
ideal operation, and puts every name back.  A src deletion that breaks
``perfbench/run.py --trace 1`` or ``--self-check`` fails here."""

import json
from pathlib import Path

import hadalg.cli
from hadalg import coeffseq, matalg, weights
from hadalg.cli import run

ROOT = Path(__file__).resolve().parent.parent
CLASSES = (coeffseq.EPSeq, coeffseq.GenSeq, weights.Weight, matalg.MatElement)


def snapshot(tracer):
    return ([(ns, dict(vars(ns))) for ns in tracer.namespaces]
            + [(cls, dict(cls.__dict__)) for cls in CLASSES])


def changed(before):
    return [(owner, key) for owner, attrs in before
            for key, val in attrs.items() if vars(owner).get(key) is not val]


def test_install_patches_and_uninstall_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    before = snapshot(tracer)
    tracer.install()
    try:
        assert changed(before)
        assert isinstance(hadalg.cli.json, spans._JsonProxy)
        # the unread 20-digit int sends the text past orjson to json.loads
        doc = tmp_path / "f.json"
        doc.write_text(json.dumps({"weight": "factorial", "unread": 10 ** 19,
                                   "normalized": {"cycle": [[2, 0]]}}))
        assert run(["elem", "norm", "--json", str(doc),
                    "--out", str(tmp_path / "out.json")]) == 0
        assert "cli.json.loads" in {tracer.names[i] for i in tracer.name_id}
        # the matrix names the tracer reads per call, and the ideals path
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps({"weight": "factorial", "entries": [
            [{"cycle": [[2, 0]]}, {"cycle": [[3, 0], [1, 0]]}],
            [{"cycle": [[1, 0]]}, {"cycle": [[2, 0], [1, 0]]}]]}))
        assert run(["mat", "sl-factor", "--json", str(mat),
                    "--out", str(tmp_path / "out.json")]) == 0
        assert run(["ideal", "krull-family", "--n", "2", "--horizon", "64",
                    "--out", str(tmp_path / "out.json")]) == 0
        spans_run = {tracer.names[i] for i in tracer.name_id}
        assert {"matalg.sl_factor", "matalg.MatElement.ustack",
                "matalg._apply_factors", "ideals.zero_blocks"} <= spans_run
        assert tracer.counts["matalg.positions"] > 0
    finally:
        tracer.uninstall()
    assert changed(before) == []
    assert hadalg.cli.json is json
