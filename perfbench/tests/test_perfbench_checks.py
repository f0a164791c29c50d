import json
import re

import pytest

import run
from checks import check_artifact
from workloads import Op, deep_bounded


@pytest.fixture
def wa():
    return run.load_package()


def lemma_op(seed=7, pairs=3):
    return Op("lemma1-test", ("lemma1", "--seed", str(seed), "--pairs", str(pairs),
                              "--pieces", "10"),
              "lemma1.json", "lemma1", {"seed": seed, "pairs": pairs, "witnesses": 5})


def test_wrong_artifact_counts_as_failed_op(wa, tmp_path):
    ops = (lemma_op(),)
    passes = [run.run_pass(wa, ops, tmp_path / "pass0", traced=False, keep=True)]
    assert run.failed_ops(ops, passes, tmp_path / "pass0", known={}) == {}

    artifact = tmp_path / "pass0" / "lemma1.json"
    doc = json.loads(artifact.read_text())
    doc["pairs"][0]["witnesses"] = 0
    artifact.write_text(json.dumps(doc))
    problems = run.failed_ops(ops, passes, tmp_path / "pass0", known={})
    assert list(problems) == ["pass 0 lemma1-test"]
    attempted = len(ops) * len(passes)
    assert len(problems) / attempted == 1.0


def test_artifact_that_does_not_parse_fails(wa, tmp_path):
    op = lemma_op()
    path = tmp_path / "lemma1.json"
    path.write_text("{not json")
    assert check_artifact(op, 0, path)
    assert check_artifact(op, 1, path) == ["exit code 1, expected 0"]


def test_digest_drift_counts_as_failed_op(wa, tmp_path):
    ops = (lemma_op(),)
    first = run.run_pass(wa, ops, tmp_path / "pass0", traced=False, keep=True)
    later = run.run_pass(wa, ops, tmp_path / "pass1", traced=False, keep=False)
    assert later.digests == first.digests
    later.digests = ["0" * 64]
    problems = run.failed_ops(ops, [first, later], tmp_path / "pass0", known={})
    assert list(problems) == ["pass 1 lemma1-test"]
    stale = {"lemma1-test": "f" * 64}
    assert "pass 0 lemma1-test" in run.failed_ops(ops, [first], tmp_path / "pass0", stale)


def test_every_pass_gets_a_freshly_imported_package(tmp_path, monkeypatch):
    clis = []
    real = run.run_pass

    def spy(wa, *args, **kwargs):
        clis.append(wa.cli)
        return real(wa, *args, **kwargs)

    monkeypatch.setattr(run, "run_pass", spy)
    passes, _ = run.measure((lemma_op(),), tmp_path, seconds=0, trace=True, spans_out=[])
    assert len(passes) == 2
    assert clis[0] is not clis[1]


def test_setup_is_timed_in_a_fresh_process(tmp_path):
    elapsed = run.timed_setup("seeded", 1, tmp_path / "inputs")
    assert elapsed > 0
    assert not (tmp_path / "inputs").exists()


def _alter_cf(text):
    doc = json.loads(text)
    doc["distances"][5]["value"] = "1/3"
    return json.dumps(doc)


def _alter_csv(text):
    lines = text.splitlines()
    t, num, den = lines[-1].split(",")
    lines[-1] = f"{t},{int(num) + 1},{den}"
    return "\n".join(lines) + "\n"


def _alter_svg(text):
    lines = text.splitlines()
    k = [i for i, line in enumerate(lines) if line.startswith("<line ")][10]
    lines[k] = re.sub(r'y1="([0-9.]+)"', lambda m: f'y1="{float(m[1]) + 0.5:.2f}"', lines[k])
    return "\n".join(lines) + "\n"


ALTER = {"cf": _alter_cf, "measure": _alter_csv, "plot": _alter_svg}


def test_deep_bounded_oracles_accept_real_and_reject_altered_artifacts(wa, tmp_path):
    indir = tmp_path / "inputs"
    indir.mkdir()
    ops = tuple(op for op in deep_bounded(wa, seed=3, indir=indir).ops if op.check in ALTER)
    result = run.run_pass(wa, ops, tmp_path / "pass0", traced=False, keep=True)
    for op, code in zip(ops, result.codes):
        path = tmp_path / "pass0" / op.output
        assert check_artifact(op, code, path) == [], op.label
        path.write_text(ALTER[op.check](path.read_text()))
        assert check_artifact(op, code, path), op.label


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
