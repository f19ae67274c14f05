"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run as run_cli  # noqa: E402
import tracer as tracing  # noqa: E402
from reproguard import container, entropy, octree  # noqa: E402

TINY = {
    "pc-dense": {"depth": 6, "count": 800},
    "latent": {"h": 8, "w": 8, "c": 2, "streams": 2},
    "raw-full": {"n": 4000},
    "small-streams": {"depth": 5, "count": 200, "streams": 3},
}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], sizes=TINY[name])


def run(name, trace, seed=1):
    w = tiny(name)
    return w, bench.run_workload(w, seed, 0.05, trace)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_run_prints():
    s = spec()
    assert [m["name"] for m in s["workloads"]] == list(bench.WORKLOADS)
    assert list(run_cli.WORKLOAD_NAMES) == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(name, trace, capsys):
    w, report = run(name, trace, seed=7)
    assert report.correct and report.failed == 0 and report.attempted >= 1
    assert report.missing == []
    res = bench.result(report, trace)
    wanted = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(wanted)
    bench.print_report(w, 7, 0.05, trace, report)
    out = capsys.readouterr().out
    lines = out.splitlines()
    for metric, unit in wanted:
        assert any(ln.split()[:1] == [metric] and ln.split()[-1] == unit for ln in lines)
    json.dumps(res)  # serializable as the result line


@pytest.mark.parametrize("name", list(TINY))
def test_byte_metrics_repeat_exactly(name):
    _, a = run(name, False)
    _, b = run(name, False)
    for metric in ("main_bytes", "guard_bytes", "overhead_pct"):
        assert a.metrics[metric] == b.metrics[metric]
    digest = [ln for ln in a.notes if ln.startswith("stream_sha256")]
    assert digest and digest == [ln for ln in b.notes if ln.startswith("stream_sha256")]
    _, ta = run(name, True)
    _, tb = run(name, True)
    for metric in ("safeguard.risky_count", "safeguard.values", "container.bytes"):
        assert ta.metrics[metric] == tb.metrics[metric]


def test_other_seed_gives_other_streams():
    _, a = run("pc-dense", False, seed=1)
    _, b = run("pc-dense", False, seed=2)
    assert a.correct and b.correct
    assert a.metrics["main_bytes"] != b.metrics["main_bytes"]


@pytest.mark.parametrize("name", ["pc-dense", "raw-full"])
@pytest.mark.parametrize("where", ["magic", "payload"])
def test_corrupted_stream_counts_as_failed(name, where, monkeypatch):
    write = container.write

    def corrupt(stream):
        blob = bytearray(write(stream))
        # the magic fails the parse; a payload byte is taken from the middle
        # of the section the decode depends on: main for octree, the flags
        # for raw values (their main section is not read back)
        if where == "magic":
            i = 0
        elif name == "pc-dense":
            i = len(blob) - len(stream.main) // 2
        else:
            i = len(blob) - len(stream.main) - len(stream.safeguard) // 2
        blob[i] ^= 0xFF
        return bytes(blob)

    monkeypatch.setattr(container, "write", corrupt)
    _, report = run(name, False)
    assert report.attempted >= 1
    assert report.failed == report.attempted
    assert not report.correct
    assert bench.result(report, False)["failed"] == report.failed


def test_wrappers_restored_and_absent_when_untraced():
    before = (octree.encode, container.write, entropy.RangeEncoder.__dict__["encode_bits"])
    t = tracing.Tracer()
    with t.stream():
        assert octree.encode is not before[0]
    assert (octree.encode, container.write,
            entropy.RangeEncoder.__dict__["encode_bits"]) == before
    run("pc-dense", True)
    assert octree.encode is before[0] and container.write is before[1]


def test_uncalled_entry_point_is_missing_not_zero(monkeypatch):
    kept = tuple(ep for ep in tracing.ENTRY_POINTS
                 if ep.span != "entropy.prob_to_p16_array")
    monkeypatch.setattr(tracing, "ENTRY_POINTS", kept)
    _, report = run("pc-dense", True)
    assert "entropy.p16_s" in report.missing
    assert "entropy.p16_s" not in bench.result(report, True)["metrics"]
    # a layer the payload never calls reads zero instead
    _, report = run("latent", True)
    assert report.metrics["entropy.p16_s"] == (0.0, "s")
    assert "entropy.p16_s" not in report.missing


def test_exits_nonzero_without_the_codec(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pc-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
