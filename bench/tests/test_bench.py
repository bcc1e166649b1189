"""Tests of the benchmark itself: span arithmetic, metric names, output
checks and a tiny-size run of every workload through the runner.

    python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from kljnbench import checks  # noqa: E402
from kljnbench.runner import END_TO_END, PER_LAYER  # noqa: E402
from kljnbench.tracing import (  # noqa: E402
    Tracer, check_metric_name, self_times, span_layer,
)
from kljnbench.workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("t.leaf", lambda: None)
    mid = tracer.wrap("t.mid", lambda: leaf())

    def outer_body():
        mid()
        leaf()

    tracer.wrap("t.outer", outer_body)()
    summary = tracer.summary()
    # outer [0, 10] holds mid [1, 4] and leaf [5, 6]; mid holds leaf [2, 3]
    assert summary["t.outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert summary["t.mid"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0}
    assert summary["t.leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert sum(s["self_s"] for s in summary.values()) == 10.0
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_self_times_of_flat_arrays():
    start = np.array([0.0, 1.0, 1.5, 5.0, 20.0])
    end = np.array([10.0, 4.0, 2.0, 9.0, 21.0])
    parent = np.array([-1, 0, 1, 0, -1])
    np.testing.assert_allclose(self_times(start, end, parent),
                               [3.0, 2.5, 0.5, 4.0, 1.0])


def test_failed_spans_are_counted_by_exception_class():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("t.boom", boom)()
    assert tracer.counters["t.boom.failed"] == 1
    assert tracer.counters["t.boom.failed.KeyError"] == 1
    assert tracer.summary()["t.boom"]["calls"] == 1


def test_install_patches_every_lookup_and_uninstall_restores():
    import kljn.cli
    import kljn.protocol
    original = kljn.protocol.run_session
    tracer = Tracer()
    tracer.install()
    try:
        assert kljn.protocol.run_session is not original
        assert kljn.cli.run_session is kljn.protocol.run_session
        assert kljn.run_session is kljn.protocol.run_session
    finally:
        tracer.uninstall()
    assert kljn.protocol.run_session is original
    assert kljn.cli.run_session is original
    assert span_layer("cli._dump_rows") == "report"
    assert span_layer("lookup.LookupTable.is_singular") == "lookup"


@pytest.mark.parametrize("name", ["a b", "", "x" * 65, "é", "a/b"])
def test_metric_name_grammar_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_metric_names_and_spec_agree():
    for name in [*END_TO_END, *PER_LAYER]:
        assert check_metric_name(name) == name
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads())


def test_session_invariants_catch_a_tampered_report():
    from kljn.report import CsvReport
    rows = [{"index": i, "status": s, "shared_key_bit": k,
             "s_u": 1.0, "s_i": 2.0, "p_ab": 0.0}
            for i, (s, k) in enumerate([("secure", 1), ("error", None)])]
    summary = {"total_bits": 2, "secure_bits": 1, "efficiency": 0.5,
               "count_error": 1, "count_secure": 1}
    report = CsvReport(columns=list(rows[0]), rows=rows, summary=summary)
    assert checks.session_invariants(report, 2) == []
    digest = checks.output_digest("simulate", report)
    rows[1]["status"] = "secure"
    assert checks.session_invariants(report, 2)
    assert checks.output_digest("simulate", report) != digest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads()))
def test_tiny_run_through_runner(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads(tiny=True)[workload].commands)
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
