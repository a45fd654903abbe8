"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run every workload at a tiny size, so they take about half a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer

sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS, write_inputs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in tracer.PER_LAYER
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    assert "UNOBSERVED" not in out.stdout


class CorruptingRunner(run.Runner):
    """Corrupts the outputs of every invocation after the first."""

    def __init__(self, *args, corrupt):
        super().__init__(*args)
        self.corrupt = corrupt

    def _check(self, outdir):
        if self.count > 1:
            self.corrupt(outdir)
        return super()._check(outdir)


def corrupted_samples(tmp_path, workload, corrupt, reference=None):
    inputs = workload.inputs(5, tiny=True)
    runner = CorruptingRunner(
        workload, inputs, write_inputs(inputs, tmp_path), reference, tmp_path,
        corrupt=corrupt,
    )
    return [runner.invoke(traced=False) for _ in range(2)]


def replace_in(name, old, new):
    def corrupt(outdir):
        path = outdir / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    return corrupt


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("align-bundled-binary", replace_in("change_records.csv", ",0.", ",-0.")),
        ("pmi-mixed", replace_in("pmi_table.tsv", "\t0\n", "\t1.5\n")),
        ("report-perm", replace_in("contrasts.csv", "conv,", "conv,1")),
    ],
)
def test_corrupted_output_counts_as_failed(tmp_path, workload, corrupt):
    good, bad = corrupted_samples(tmp_path, WORKLOADS[workload], corrupt)
    assert good["problems"] == []
    assert bad["problems"]
    t = run.tally([good, bad])
    assert t == {"attempted": 2, "failed": 1, "failed_frac": 0.5, "correct": False}


def test_subtle_corruption_fails_the_digest_gate(tmp_path):
    workload = WORKLOADS["align-bundled-binary"]
    reference = {}
    (tmp_path / "ref").mkdir()
    def record(outdir):
        reference.update(checks.digests(outdir))

    corrupted_samples(tmp_path / "ref", workload, record)
    (tmp_path / "run").mkdir()
    good, bad = corrupted_samples(
        tmp_path / "run", workload, replace_in("alignments.txt", "stable", "conv."),
        reference=reference,
    )
    assert good["problems"] == []
    assert "alignments.txt: digest differs from the reference" in bad["problems"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "report-perm", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "r"],
        ["corpus.pair", 1.0, 4.0, 0, "r"],
        ["phonetics.make_transcription", 2.0, 3.0, 1, "r"],
        ["triple.align_triple", 5.0, 9.0, 0, "r"],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_unreached_entry_point_is_unobserved_not_zero():
    trace = {
        "spans": [["cli.main", 0.0, 1.0, -1, "r"]],
        "counts": {"triple.cells": 0, "triple.distinct": 0},
        "missing": ["corpus.ingest"],
    }
    values, _, unobserved, _ = tracer.layer_metrics(
        trace, ("triple.align_triple",), 10, 1.0
    )
    assert unobserved == ["corpus.ingest", "triple.align_triple"]
    assert values["triple.align_triple.s"] == tracer.UNOBSERVED
    assert values["corpus.ingest.s"] == tracer.UNOBSERVED
    assert values["analysis.summarize.s"] == 0.0  # not expected, so truly 0
