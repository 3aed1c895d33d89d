"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from skewdg.linalg import Mat  # noqa: E402
from skewdg.qpl import IsoResult, QplMatrix  # noqa: E402
from skewdg.resolution import SIX_REPRESENTATIVES  # noqa: E402
from spans import Untraced  # noqa: E402


def test_tail_takes_the_highest_ladder_step_with_ten_samples_beyond():
    assert run.tail(range(1, 21)) == (50, 10)
    assert run.tail(range(1000)) == (99, 989)
    # The percentile does not move when the sample count doubles.
    assert run.tail(range(44))[0] == run.tail(range(88))[0] == 75
    assert run.tail(range(31))[0] == 50
    assert run.tail(range(51))[0] == 75  # one staircase_ext round
    with pytest.raises(ValueError):
        run.tail(range(19))


def _snapshot(items):
    out = []
    for item in items:
        text = None
        if item.path:
            with open(item.path) as handle:
                text = handle.read()
        out.append((item.name, item.base, item.c, item.image, item.degree, text))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    runs = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        os.makedirs(tmp_path / sub)
        wl = make(seed, str(tmp_path / sub))
        wl.prepare()
        runs.append([_snapshot(wl.inputs(k)) for k in (0, 1)])
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    assert runs[0][0] != runs[0][1]  # each round has fresh orbit images


def _first(wl, name):
    return next(item for item in wl.inputs(0) if item.name == name)


def test_verdict_checker_flags_planted_wrong_answers(tmp_path):
    wl = workloads.VerdictSweep(1, str(tmp_path))
    item = next(i for i in wl.inputs(0) if i.base != i.image)
    out = wl.op(item, Untraced())
    assert wl.check(item, out) == []
    assert wl.check(item, dict(out, iso=IsoResult("NotIsomorphic")))
    wrong_witness = dataclasses.replace(out["iso"], witness=QplMatrix.identity(3))
    assert wl.check(item, dict(out, iso=wrong_witness))
    (label, verdict, probe) = out["image"]
    flipped = dataclasses.replace(verdict, calabi_yau=not verdict.calabi_yau)
    assert wl.check(item, dict(out, image=(label, flipped, probe)))


def test_staircase_checker_flags_planted_wrong_answers(tmp_path):
    wl = workloads.StaircaseExt(1, str(tmp_path))
    wl.prepare()
    item = _first(wl, "1.1/a")
    code, text, err = wl.op(item, Untraced())
    assert code == 0 and wl.check(item, (code, text, err)) == []
    rec = json.loads(text)
    rec["resolution"]["ext"]["dim"] += 1
    assert wl.check(item, (code, json.dumps(rec), err))
    rec = json.loads(text)
    rec["cohomology_dims"][2] += 1
    assert wl.check(item, (code, json.dumps(rec), err))
    assert wl.check(item, (3, text, "inconsistent"))


def test_deep_checker_flags_planted_wrong_answers(tmp_path):
    wl = workloads.DeepVerify(1, str(tmp_path))
    wl.prepare()
    item = _first(wl, "rank2-nondegenerate")
    out = wl.op(item, Untraced())
    assert wl.check(item, out) == []
    assert wl.check(item, dict(out, dims=out["dims"][:3] + [2] + out["dims"][4:]))
    assert wl.check(item, dict(out, verified=False))
    assert wl.check(item, dict(out, leibniz=False))


def test_expected_table_matches_the_test_fixtures():
    spec = importlib.util.spec_from_file_location(
        "fixtures", os.path.join(ROOT, "tests", "conftest.py"))
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    bases = workloads.load_table()["bases"]
    for name, entry in bases.items():
        if entry["source"] == "conftest" and "subcase" in entry:
            sub = entry["subcase"]
            assert entry["matrix"] in fixtures.SUBCASE_BATTERY[sub], name
            assert entry["size"] == fixtures.SUBCASE_SIZE[sub], name
            assert entry["ext_dim"] == fixtures.SUBCASE_EXT[sub], name
        elif entry["source"] == "conftest":
            assert entry["matrix"] in fixtures.NOT_CY and not entry["calabi_yau"], name
        elif entry["source"] == "verified":
            assert Mat(entry["matrix"]) == SIX_REPRESENTATIVES[name], name
    verified = tuple(bases[k]["size"] for k in ("M1", "M2", "M3", "M4", "M5", "M6"))
    assert verified == (8, 8, 6, 8, 6, 4)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
