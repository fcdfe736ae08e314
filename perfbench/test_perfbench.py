"""The benchmark's own checks (slow: about two minutes).

    python3 -m pytest perfbench -q

Not part of the repository's test suite: it runs traced rounds of every
workload through run.py, the way the benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import load_program

load_program()
from layers import PER_LAYER  # noqa: E402
from probe import MODULES     # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = ("setup_s", "wall_s", "exp_p50_ms", "exp_p90_ms", "peak_rss_mb")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def traced(workload, seed):
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module", params=("unlink", "campaign", "suites"))
def traced_pair(request):
    return request.param, traced(request.param, 3), traced(request.param, 3)


def test_traced_counts_repeat(traced_pair):
    _, first, second = traced_pair
    for name in ("frames.static_equiv.tests", "harness.Runner.observe.calls",
                 "terms.apply.calls"):
        assert first[name] == second[name], name


def test_layer_shares(traced_pair):
    workload, m, _ = traced_pair
    assert set(m) == {name for name, _, _ in PER_LAYER}
    if workload == "unlink":
        assert m["frames.static_equiv.wall_share"] >= 0.8
    if workload == "campaign":
        assert m["frames.static_equiv.calls"] == 0
        scheduling = sum(m[f"{k}.share"] for k in ("harness", "strategies",
                                                "roles"))
        others = [m[f"{k}.share"] for k in MODULES
                  if k not in ("harness", "strategies", "roles")]
        assert scheduling > max(others)


def test_spec_matches_the_program():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [tuple(x) for x in PER_LAYER]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == ["unlink", "campaign",
                                                       "suites"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "suites", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
