"""End-to-end benchmark of the repro evaluation stack.

    python3 perfbench/run.py --workload table4_sim --seed 0 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh process (so process-wide
caches start cold, as they do for a user), until ``--seconds`` would be
exceeded; every repetition's verdicts must match the committed reference in
``perfbench/reference.json``.  Prints a human-readable summary and, as the
last line, one JSON object: ``correct``, ``attempted`` and ``failed`` units,
and ``metrics`` — the end-to-end metrics (medians over the untraced
repetitions) with ``--trace 0``, the per-layer metrics of one traced
repetition with ``--trace 1``.  Exits 1 on any verdict mismatch, 2 when the
program under test is missing.

``--write-reference`` re-measures the committed reference verdicts instead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import INPUT_SEEDS, LAYERS, WORKLOADS  # noqa: E402

#: A run kills a repetition still going this long after the run started
#: (failing the run), so a hung program cannot hold the benchmark past 180 s.
RUN_LIMIT_S = 170.0
#: Set-up-only processes started after each repetition: set-up is short, so
#: one sample per repetition would leave its median at the mercy of noise.
SETUP_PROBES = 2
#: Fallback reasons reported on their own; the rest add up under ``other``.
FALLBACK_REASONS = ("xz-state", "non-constant-shift")
PROOF_RESULTS = ("equivalent", "counterexample", "unknown", "error")


# --------------------------------------------------------------------------- children
def _child_env(workdir: Path) -> dict:
    """The caller's environment without any repro knob, importing this checkout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(
    workload: str,
    seed: int,
    scale: str,
    workdir: Path,
    mode: str = "measure",
    spans_path: Path | None = None,
    timeout_s: float = RUN_LIMIT_S,
) -> dict:
    """One repetition in a fresh interpreter; returns its result.

    ``mode`` is ``measure``, ``trace`` (wrap the layers) or ``setup`` (stop
    after set-up).
    """
    out = Path(tempfile.mkstemp(prefix=f"{workload}-", suffix=".json", dir=workdir)[1])
    t0 = time.monotonic()
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--mode", mode,
        "--t0", repr(t0),
        "--out", str(out),
    ]  # fmt: skip
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    try:
        subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(workdir),
            stdout=sys.stderr,
            check=True,
            timeout=timeout_s,
        )
        result = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    return result


# --------------------------------------------------------------------------- verdict gate
def gate(workload: str, result: dict, reference: dict) -> int:
    """Number of units whose verdict breaks the reference (0 = correct).

    ``table4_sim`` and ``service_drain`` compare the rendered report's digest
    (a mismatch fails every unit: the digest cannot say which one moved).
    ``table4_formal`` compares per-unit verdicts, except where the reference
    quarantined the unit: those may take any verdict, so fixing the
    quarantine defect does not trip the gate.
    """
    verdicts = result["verdicts"]
    if result["units"] != reference["units"] or len(verdicts) != reference["units"]:
        return result["units"]
    if "-" in verdicts:
        return verdicts.count("-")
    if workload == "table4_formal":
        return sum(
            1
            for want, got in zip(reference["verdicts"], verdicts)
            if want != "q" and want != got
        )
    return 0 if result["report_sha256"] == reference["report_sha256"] else result["units"]


def load_reference(scale: str, workload: str, seed: int) -> dict:
    references = json.loads(REFERENCE_PATH.read_text())
    return references[scale][workload][str(seed % INPUT_SEEDS)]


# --------------------------------------------------------------------------- metrics
def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), round(q * len(sorted_values) + 0.5)))
    return sorted_values[rank - 1]


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> dict:
    """Medians over the untraced repetitions, as ``name → (value, unit)``.

    ``setups`` holds every set-up time of the run, set-up probes included.
    """
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([r["wall_s"] for r in reps]), "s"),
        "cpu_s": (statistics.median([r["cpu_s"] for r in reps]), "s"),
        "scored_share": (
            statistics.median([1.0 - r["verdicts"].count("q") / r["units"] for r in reps]),
            "ratio",
        ),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in reps]), "MB"),
    }


def per_layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """The traced repetition's layer table, as ``name → (value, unit)``.

    Self time is given as a share of the traced wall (``.self_pct``) so a
    layer a workload bypasses reads 0 % rather than a constant time; the
    seconds are in the printed table.
    """
    trace = traced["trace"]
    wall = traced["wall_s"]
    counters = trace["counters"]
    metrics: dict = {"traced_wall_s": (wall, "s")}
    for name in LAYERS:
        entry = trace["layers"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_pct"] = (100.0 * entry["self_s"] / wall, "%")
    metrics["unattributed_s"] = (trace["unattributed_s"], "s")
    metrics["trace_overhead_s"] = (wall - untraced_wall_s, "s")

    metrics["verilog.syntax_checker.rejected"] = (
        counters.get("verilog.syntax_checker.rejected", 0),
        "count",
    )
    metrics["verilog.design.hit_ratio"] = (trace["design_hit_ratio"], "ratio")
    fallbacks = trace["fallbacks"]
    metrics["verilog.codegen.fallbacks"] = (sum(fallbacks.values()), "count")
    for reason in FALLBACK_REASONS:
        metrics[f"verilog.codegen.fallbacks.{reason}"] = (fallbacks.get(reason, 0), "count")
    metrics["verilog.codegen.fallbacks.other"] = (
        sum(n for reason, n in fallbacks.items() if reason not in FALLBACK_REASONS),
        "count",
    )
    for result in PROOF_RESULTS:
        metrics[f"formal.proofs.{result}"] = (trace["proofs"].get(result, 0), "count")
    metrics["formal.conflicts"] = (trace["conflicts"], "count")

    durations = trace["check_durations_s"]
    metrics["bench.jobs.checks"] = (counters.get("bench.jobs.checks", 0), "count")
    metrics["bench.jobs.quarantined"] = (counters.get("bench.jobs.quarantined", 0), "count")
    metrics["bench.jobs.check_p50_ms"] = (1000.0 * _percentile(durations, 0.50), "ms")
    metrics["bench.jobs.check_p99_ms"] = (1000.0 * _percentile(durations, 0.99), "ms")
    metrics["bench.jobs.check_samples"] = (len(durations), "count")
    metrics["bench.jobs.backoff_wait_s"] = (
        trace["layers"].get("bench.jobs.run_checks", {}).get("self_s", 0.0),
        "s",
    )
    metrics["bench.jobs.dedup_ratio"] = (trace["dedup_ratio"], "ratio")
    metrics["service.worker.units_per_lease"] = (trace["units_per_lease"], "ratio")
    return metrics


# --------------------------------------------------------------------------- output
def _print_summary(
    workload: str, seed: int, reps: list[dict], setups: list[float], traced: dict | None
) -> None:
    print(f"perfbench {workload} seed={seed}: {len(reps)} untraced repetition(s)")
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        values = setups if name == "setup_s" else [r[name] for r in reps]
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(
            f"  {name:<14} median {statistics.median(values):10.4f} {unit:<3}"
            f" max {max(values):10.4f} {unit}  (n={len(values)})"
        )
    failed = [r["verdicts"].count("q") / r["units"] for r in reps]
    print(f"  {'failed_share':<14} median {statistics.median(failed):10.4f} ratio"
          f" max {max(failed):10.4f}  (quarantined / attempted units, n={len(failed)})")
    if traced is None:
        return
    trace = traced["trace"]
    wall = traced["wall_s"]
    print(f"  traced repetition: wall {wall:.4f} s")
    print(f"    {'layer':<36} {'calls':>8} {'self_s':>10} {'self_%':>7}")
    for name in LAYERS:
        entry = trace["layers"].get(name)
        if entry is not None:
            print(
                f"    {name:<36} {entry['calls']:>8} {entry['self_s']:>10.4f}"
                f" {100.0 * entry['self_s'] / wall:>7.2f}"
            )
    print(f"    {'unattributed':<36} {'':>8} {trace['unattributed_s']:>10.4f}"
          f" {100.0 * trace['unattributed_s'] / wall:>7.2f}")
    for name, seconds in traced.get("api_s", {}).items():
        print(f"    service.api.{name}_s (client) {seconds:.4f} s")


def _metric_payload(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# --------------------------------------------------------------------------- main
def measure(args, workdir: Path) -> int:
    reference = load_reference(args.scale, args.workload, args.seed)
    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"

    reps: list[dict] = []
    setups: list[float] = []
    traced = None
    started = time.monotonic()
    longest = 0.0

    def child(mode: str, spans: Path | None = None) -> dict:
        remaining = started + RUN_LIMIT_S - time.monotonic()
        return run_child(
            args.workload, args.seed, args.scale, workdir, mode, spans, max(1.0, remaining)
        )

    while True:
        cycle_started = time.monotonic()
        if args.trace and traced is None and reps:
            traced = child("trace", spans_path)
        else:
            reps.append(child("measure"))
            setups.append(reps[-1]["setup_s"])
        for _ in range(SETUP_PROBES):
            setups.append(child("setup")["setup_s"])
        now = time.monotonic()
        # Start another cycle only if one as long as the longest so far fits.
        longest = max(longest, now - cycle_started)
        if (not args.trace or traced is not None) and now - started + longest > args.seconds:
            break

    everything = reps + ([traced] if traced else [])
    failed = sum(gate(args.workload, r, reference) for r in everything)
    attempted = sum(r["units"] for r in everything)
    _print_summary(args.workload, args.seed, reps, setups, traced)
    if traced is not None:
        metrics = per_layer_metrics(traced, statistics.median([r["wall_s"] for r in reps]))
    else:
        metrics = end_to_end_metrics(reps, setups)
    if failed:
        print(f"VERDICT MISMATCH: {failed} unit(s) differ from {REFERENCE_PATH.name}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": _metric_payload(metrics),
            }
        )
    )
    return 0 if failed == 0 else 1


def write_reference(workdir: Path) -> int:
    """Re-measure every committed reference (quick scale: all input seeds)."""
    jobs = [("tiny", 0)] + [("quick", seed) for seed in range(INPUT_SEEDS)]
    children = {
        "table4_sim": "table4_sim",
        "table4_formal": "table4_formal",
        "service_drain": "service_serial",  # the drain must equal the serial report
    }

    def one(job):
        (scale, seed), workload = job
        result = run_child(children[workload], seed, scale, workdir)
        entry = {"units": result["units"], "report_sha256": result["report_sha256"]}
        if workload == "table4_formal":
            entry["verdicts"] = result["verdicts"]
        print(f"{scale} {workload} seed={seed}: {entry['report_sha256'][:12]}", file=sys.stderr)
        return scale, workload, seed, entry

    references: dict = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for scale, workload, seed, entry in pool.map(
            one, [(job, workload) for job in jobs for workload in children]
        ):
            references.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = entry
    REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("quick", "tiny"), default="quick")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    compileall.compile_dir(ROOT / "src", quiet=1)  # keep bytecode writes out of set-up
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        if args.write_reference:
            return write_reference(workdir)
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
