"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check the input generators, the independent oracle, the metric
names and that tracing changes no exact count.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import twistcert  # noqa: E402
import twistcert.cli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generators_repeat_for_the_same_seed():
    assert workloads.sweep_inputs(7, twistcert) == workloads.sweep_inputs(7, twistcert)
    assert workloads.sweep_inputs(7, twistcert) != workloads.sweep_inputs(8, twistcert)
    assert workloads.search_inputs(7, twistcert) == workloads.search_inputs(7, twistcert)
    assert workloads.search_inputs(7, twistcert) != workloads.search_inputs(8, twistcert)
    assert workloads.large_n_inputs(1, twistcert) == workloads.large_n_inputs(2, twistcert)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unequal_search_pairs_differ_in_homology(seed):
    assignment = twistcert.genus3_with_h_assignment()
    pairs = workloads.search_inputs(seed, twistcert)
    assert sum(not p.equal for p in pairs) == workloads.SEARCH_UNEQUAL
    for pair in pairs:
        image_u = twistcert.evaluate_rep(twistcert.word(pair.u), assignment)
        image_v = twistcert.evaluate_rep(twistcert.word(pair.v), assignment)
        assert (image_u == image_v) == pair.equal


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_tamper_class_is_produced(seed):
    requests = workloads.sweep_inputs(seed, twistcert)
    assert {r.tamper for r in requests} == set(oracle.TAMPER_CLASSES)
    assert all(r.tamper != "shift" for r in requests if r.n == 0)


def _certificate_text(surface="n:9", curve="nonsep", n=2, flavor="twist-subgroup"):
    cert = twistcert.build_certificate(twistcert.SurfaceSpec.parse(surface),
                                       twistcert.CurveClass.parse(curve), n, flavor)
    return twistcert.cli.format_certificate(cert)


@pytest.mark.parametrize("cls", oracle.TAMPER_CLASSES)
def test_tampered_copies_differ_and_shifted_ones_are_judged_by_replay(cls):
    text = _certificate_text()
    for seed in range(5):
        bad, must_reject = oracle.tamper(text, cls, random.Random(seed))
        assert bad != text
        if cls == "shift":
            assert must_reject == (not oracle.replay(*oracle.script_of(bad)))
        else:
            assert must_reject


@pytest.mark.parametrize("spec", [("o:3", "nonsep", 3, "extended-group"),
                                  ("n:9", "nonsep", -2, "twist-subgroup"),
                                  ("n:10", "nonsep:oc", 2, "twist-subgroup"),
                                  ("o:2", "nonsep", 0, "even-power-extended"),
                                  ("n:5", "nonsep:nc", -3, "even-power-twist")])
def test_oracle_agrees_with_genuine_certificates(spec):
    surface, curve, n, flavor = spec
    text = _certificate_text(surface, curve, n, flavor)
    assert oracle.claim_mismatches(text, flavor, curve, surface, n) == []
    assert oracle.replay(*oracle.script_of(text))
    assert oracle.expected_admissible(surface, curve, flavor) is True


def test_replayer_rejects_a_broken_step():
    start, steps, end = oracle.script_of(_certificate_text("o:3", "nonsep", 2, "extended-group"))
    family, params, direction, pos = steps[3]
    broken = steps[:3] + [(family, params, direction, pos + 50)] + steps[4:]
    assert not oracle.replay(start, broken, end)
    assert not oracle.replay(start, steps, end[1:])


def test_metric_names_and_limits():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def _pass(workload, inputs, traced):
    tracer = tracing.Tracer() if traced else None
    if tracer is None:
        return workload.run_pass(twistcert, inputs, None, {}), None
    with tracer.patched(twistcert):
        return workload.run_pass(twistcert, inputs, tracer, {}), tracer


@pytest.mark.parametrize("name", ["sweep", "search"])
def test_traced_and_untraced_passes_give_identical_counts(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(5, twistcert)[::25] if name == "sweep" else \
        workload.make_inputs(5, twistcert)[:4]
    original = twistcert.certificates.build_rel1
    plain, _ = _pass(workload, inputs, False)
    traced, tracer = _pass(workload, inputs, True)
    assert twistcert.certificates.build_rel1 is original  # wrappers removed
    assert plain.counts == traced.counts
    assert plain.wrong == traced.wrong
    assert [kind for kind, _ in plain.ops] == [kind for kind, _ in traced.ops]
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_per_layer_metrics_match_the_spec():
    workload = workloads.WORKLOADS["sweep"]
    inputs = workload.make_inputs(5, twistcert)[::40]
    plain, _ = _pass(workload, inputs, False)
    traced, tracer = _pass(workload, inputs, True)
    metrics = run.per_layer([plain], [traced], [tracer], [0.01], len(plain.ops),
                            plain.wrong, {})
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in SPEC["per_layer"])
