"""twistcert benchmark.

    python3 bench/run.py --workload {large-n,sweep,search} --seed N \
        --seconds S --trace {0,1}

Run from the repository root or anywhere else: the package is imported
from the ``src/`` directory next to this one, never from an installed
copy.  One process, one thread.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the provenance and the verdict breakdown.

A pass runs every op of the workload once.  Passes repeat while the next
one is expected to end within ``--seconds``; each pass-level figure is the
median over passes.  With ``--trace 1`` the first half of the time runs
untraced passes, the second half traced ones, and the difference is
reported as the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 15
FAMILIES = ("COMMUTE", "BRAID", "STAR", "CENTRAL", "CONJ_REFLECT", "REVERSE_S",
            "COMMUTE_H", "FREE_RED")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def set_up():
    """Import twistcert afresh and warm its lazy caches.  Returns the
    package, the seconds it took and the seconds spent building the three
    homology assignments."""
    for name in [m for m in sys.modules if m == "twistcert" or m.startswith("twistcert.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pkg = importlib.import_module("twistcert")
    importlib.import_module("twistcert.cli")
    pkg.torus_presentation()
    pkg.torus_presentation(True)
    pkg.even_power_presentation()
    t1 = time.perf_counter()
    for make in pkg.homology.ASSIGNMENTS.values():
        make()
    t2 = time.perf_counter()
    return pkg, t2 - t0, t2 - t1


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def percentile(values, q: float) -> float:
    """Interpolated percentile, q in (0, 1); a single sample is its own
    percentile.  Interpolation keeps the figure steady when two ops of
    similar cost swap places around the cut."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def run_passes(workload, pkg, inputs, seconds: float, traced: bool):
    """Repeat passes while the next one is expected to end in time; at
    least one.  Returns the pass results and, when traced, the tracers."""
    results, tracers, cache = [], [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if traced:
            tracer = tracing.Tracer()
            with tracer.patched(pkg):
                results.append(workload.run_pass(pkg, inputs, tracer, cache))
            tracers.append(tracer)
        else:
            results.append(workload.run_pass(pkg, inputs, None, cache))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results, tracers


def pass_seconds(result, kinds=None) -> float:
    return sum(t for kind, t in result.ops if kinds is None or kind in kinds)


def median_pass(results, kinds=None) -> float:
    return statistics.median(pass_seconds(r, kinds) for r in results)


def pooled(results, kinds) -> list[float]:
    return [t for r in results for kind, t in r.ops if kind in kinds]


def end_to_end(results, setup_times) -> dict[str, float]:
    ops = pooled(results, {kind for r in results for kind, _ in r.ops})
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": median_pass(results),
        "op_p50_ms": 1e3 * percentile(ops, 0.5),
        "op_p90_ms": 1e3 * percentile(ops, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _p(values, q) -> float:
    return 1e3 * percentile(values, q) if values else 0.0


def per_layer(untraced, traced, tracers, assignment_times, attempted, wrong, extra):
    """Per-layer metrics: phase figures from the untraced passes, span
    totals from the traced ones, exact counts from the first pass."""
    counts = untraced[0].counts
    certify = pooled(untraced, {"certify"})
    verify = pooled(untraced, {"verify"})
    search = pooled(untraced, {"search", "search_unequal"})
    unequal = [pass_seconds(r, {"search_unequal"}) for r in untraced]
    pass_s = median_pass(untraced)
    out = {
        "certify_s": median_pass(untraced, {"certify", "refuse"}),
        "verify_s": median_pass(untraced, {"verify"}),
        "reject_s": median_pass(untraced, {"reject"}),
        "search_s": median_pass(untraced, {"search", "search_unequal"}),
        "certify_p50_ms": _p(certify, 0.5),
        "certify_p90_ms": _p(certify, 0.9),
        "verify_p50_ms": _p(verify, 0.5),
        "verify_p90_ms": _p(verify, 0.9),
        "search_p50_ms": _p(search, 0.5),
        "certify_samples": len(certify),
        "verify_samples": len(verify),
        "search_samples": len(search),
        "op_samples": sum(len(r.ops) for r in untraced),
        "certs_per_s": counts["certificates"] / pass_s,
        "cert_bytes": counts["cert_bytes"],
        "decided_share": extra.get("decided_share", 0.0),
        "failed_share": sum(wrong.values()) / attempted,
        "trace.overhead_share": median_pass(traced) / pass_s - 1,
    }
    totals = [t.totals() for t in tracers]

    def span_s(name):
        return statistics.median(t.get(name, 0.0) for t in totals)

    for metric, span in (
            ("words.word_parse_s", "words.word"),
            ("presentation.verify_script_s", "presentation.verify_script"),
            ("presentation.format_script_s", "presentation.format_script"),
            ("presentation.parse_script_s", "presentation.parse_script"),
            ("certificates.build_certificate_s", "certificates.build_certificate"),
            ("certificates.build_rel1_s", "certificates.build_rel1"),
            ("certificates.verify_certificate_s", "certificates.verify_certificate"),
            ("homology.evaluate_rep_s", "homology.evaluate_rep"),
            ("homology.det_hom_s", "homology.det_hom"),
            ("surfaces.classify_s", "surfaces.classify"),
            ("surfaces.select_case_s", "surfaces.select_case"),
            ("cli.format_certificate_s", "cli.format_certificate"),
            ("cli.parse_certificate_s", "cli.parse_certificate")):
        out[metric] = span_s(span)
    out["certificates.commutator_phase_s"] = (out["certificates.build_certificate_s"]
                                              - out["certificates.build_rel1_s"])
    out["homology.assignment_init_s"] = statistics.median(assignment_times)
    replayed = tracers[0].counts["presentation.verify_script"]
    verify_script_s = out["presentation.verify_script_s"]
    out["presentation.apply_rule_steps_per_s"] = replayed / verify_script_s if replayed else 0.0
    out["presentation.search_expansions_per_s"] = (
        workloads.SEARCH_BUDGET * workloads.SEARCH_UNEQUAL / statistics.median(unequal)
        if any(unequal) else 0.0)
    out["presentation.script_steps"] = counts["presentation.script_steps"]
    for family in FAMILIES:
        out[f"presentation.steps.{family}"] = counts[f"presentation.steps.{family}"]
    growth = untraced[0].growth
    doubled = [m for m in growth if 2 * m in growth]
    out["presentation.steps_growth_exponent"] = (
        math.log2(growth[2 * max(doubled)] / growth[max(doubled)]) if doubled else 0.0)
    out["presentation.script_bytes"] = counts["presentation.script_bytes"]
    out["presentation.fanout"] = extra.get("fanout", 0.0)
    out["presentation.fanout_free_red_share"] = extra.get("fanout_free_red_share", 0.0)
    out["presentation.witness_steps"] = counts["presentation.witness_steps"]
    out["words.peak_word_len"] = counts["words.peak_word_len"]
    out["certificates.rel1_steps"] = tracers[0].counts["certificates.build_rel1"]
    out["homology.matrix_products"] = tracers[0].counts["homology.evaluate_rep"]
    out["surfaces.refused"] = counts["surfaces.refused"]
    out["surfaces.refused_conjectural"] = counts["surfaces.refused_conjectural"]
    out["oracle.unchecked"] = counts["oracle.unchecked"]
    for category in WRONG_CATEGORIES:
        out[f"wrong.{category}"] = wrong[category]
    return out


WRONG_CATEGORIES = tuple(f"tamper.{c}" for c in oracle.TAMPER_CLASSES) + (
    "oracle.claim", "oracle.admissibility", "oracle.refusal", "oracle.genuine_rejected",
    "oracle.search_unsound", "oracle.witness", "exception", "trace.count_mismatch")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_bytes"):
        return "bytes"
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_share", "share"), ("_s", "s"),
                         ("_exponent", "log2"), ("_len", "letters"), ("fanout", "rewrites")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistcert" / "__init__.py").is_file():
        print(f"error: no twistcert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times, assignment_times = [], []
    for _ in range(SETUPS):
        pkg, seconds, assignment_seconds = set_up()
        setup_times.append(seconds)
        assignment_times.append(assignment_seconds)
    if Path(pkg.__file__).resolve().parent != SRC / "twistcert":
        print(f"error: imported twistcert from {pkg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, pkg)
    extra = {}
    if args.workload == "search":
        extra["fanout"], extra["fanout_free_red_share"] = workloads.fanout(pkg, inputs)

    untraced, _ = run_passes(workload, pkg, inputs, args.seconds / (1 + args.trace), False)
    traced, tracers = ([], []) if not args.trace else \
        run_passes(workload, pkg, inputs, args.seconds / 2, True)
    passes = untraced + traced

    wrong = Counter()
    for result in passes:
        wrong.update(result.wrong)
        if result.counts != passes[0].counts:
            wrong["trace.count_mismatch"] += 1
    attempted = sum(len(r.ops) for r in passes)
    failed = sum(n for category, n in wrong.items()
                 if category.removeprefix("tamper.") not in workloads.KNOWN_VERIFIER_GAPS)
    if args.workload == "search":
        extra["decided_share"] = passes[0].counts["decided"] / workloads.SEARCH_EQUAL

    if args.trace:
        metrics = per_layer(untraced, traced, tracers, assignment_times, attempted, wrong, extra)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, units = end_to_end(untraced, setup_times), END_TO_END

    provenance = {
        "package": str(Path(pkg.__file__).resolve().parent),
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "search_budget": workloads.SEARCH_BUDGET,
        "pass_seconds": {"untraced": [round(pass_seconds(r), 4) for r in untraced],
                         "traced": [round(pass_seconds(r), 4) for r in traced]},
        "ops_per_pass": len(untraced[0].ops),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("verdicts: " + json.dumps({
        "wrong": dict(sorted(wrong.items())),
        "known_verifier_gaps": sorted(workloads.KNOWN_VERIFIER_GAPS),
        "unchecked_refusals_per_pass": passes[0].counts["oracle.unchecked"],
        "exceptions": [e for r in passes for e in r.errors][:10],
        "tampered_per_pass": {k: v for k, v in sorted(passes[0].counts.items())
                              if k.startswith("tampered.")},
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
