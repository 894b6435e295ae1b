"""One repetition of one benchmark workload, in a process of its own.

``python3 perfbench/workloads.py --workload W --seed N --t0 T --out FILE``
builds the workload's manifest from the seed, sets it up, executes it, and
writes one JSON result to ``FILE``: set-up, wall and CPU seconds, peak RSS,
the rendered report's digest and the per-unit verdict vector.  With
``--mode trace`` it also wraps each layer's public entry points (see
:func:`install_layers`) and adds the per-layer span table; with
``--mode setup`` it stops once set-up is done and reports only ``setup_s``.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` includes interpreter start and imports.

The workloads (see ``perfbench/README.md`` for why each one exists):

* ``table4_sim`` — the quick-scale Table IV manifest as the Table IV paper
  benchmark runs it: nine baselines plus three HaVen models, four suites,
  n=5, serial ``RunEngine`` into an in-memory store, then the report.
* ``table4_formal`` — the same manifest cut to two baselines, in formal mode.
* ``service_drain`` — the manifest cut to ``gpt-4``, in simulation mode,
  POSTed to an in-process ``ReproServiceServer`` over a fresh ``FileBroker``
  and drained by one in-process ``ServiceWorker``; the report comes back over
  HTTP.
* ``service_serial`` — the ``service_drain`` manifest through a serial
  ``RunEngine``; it only produces the reference the drain's report must equal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import http.client
import json
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

#: ``DEFAULT_BASELINES`` of benchmarks/test_table4_main_comparison.py.
TABLE4_BASELINES = [
    "gpt-3.5",
    "gpt-4",
    "codellama-7b",
    "deepseek-coder-6.7b",
    "codeqwen-7b",
    "rtlcoder-deepseek",
    "betterv-codeqwen",
    "autovcoder-codeqwen",
    "origen-deepseek",
]
#: The two-model cut of ``table4_formal``.
FORMAL_BASELINES = ["gpt-4", "rtlcoder-deepseek"]
#: ``service_drain`` drains one model (600 units): the broker's cost grows with
#: the square of the units, so this keeps a repetition near 5 s.
SERVICE_BASELINES = ["gpt-4"]

WORKLOADS = ("table4_sim", "table4_formal", "service_drain")

#: Distinct inputs per workload: ``--seed`` is taken modulo this, and the
#: committed reference verdicts cover exactly these.
INPUT_SEEDS = 16

#: Span names, in report order; ``install_layers`` wires each one.
LAYERS = (
    "runs.engine.run",
    "runs.engine.execute_units",
    "core.pipeline.generate",
    "verilog.syntax_checker.check",
    "verilog.design.compile",
    "verilog.simulator.sequential",
    "verilog.simulator.combinational",
    "formal.proofs",
    "bench.jobs.run_checks",
    "bench.jobs.execute_check",
    "runs.store.record",
    "runs.aggregate",
    "service.worker.run_forever",
    "service.broker.lease",
    "service.broker.complete",
    "service.api.report",
)

HTTP_TIMEOUT_S = 120.0


def build_manifest(workload: str, seed: int, scale: str = "quick"):
    """The manifest a workload feeds the program for ``seed``.

    The seed moves the stimulus seed, so every simulated check sees other
    vectors while the candidate set stays the one Table IV evaluates.
    """
    from repro.experiments import ExperimentScale
    from repro.runs.presets import table4_manifest

    if scale == "quick":
        experiment_scale = ExperimentScale.quick()
        experiment_scale.num_samples = 5  # as benchmarks/conftest.py runs Table IV
    elif scale == "tiny":
        experiment_scale = ExperimentScale.tiny()
    else:
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "table4_sim":
        manifest = table4_manifest(
            experiment_scale, baseline_keys=TABLE4_BASELINES, include_haven=True
        )
    else:
        baselines = FORMAL_BASELINES if workload == "table4_formal" else SERVICE_BASELINES
        manifest = table4_manifest(experiment_scale, baseline_keys=baselines, include_haven=False)
    mode = "formal" if workload == "table4_formal" else "simulation"
    manifest.config = dataclasses.replace(
        manifest.config,
        mode=mode,
        stimulus_seed=manifest.config.stimulus_seed + seed % INPUT_SEEDS,
    )
    return manifest


def verdict_vector(units, records) -> str:
    """One letter per unit in expansion order.

    ``p`` passed, ``f`` failed its check, ``s`` failed syntax, ``q``
    quarantined, ``-`` never journaled.
    """
    by_key = {
        record["key"]: record
        for record in records
        if record.get("kind") in ("unit", "quarantine")
    }
    letters = []
    for unit in units:
        record = by_key.get(unit.key)
        if record is None:
            letters.append("-")
        elif record["kind"] == "quarantine":
            letters.append("q")
        elif not record["outcome"]["syntax_ok"]:
            letters.append("s")
        else:
            letters.append("p" if record["outcome"].get("functional_passed") else "f")
    return "".join(letters)


# --------------------------------------------------------------------------- tracing
def _simulator_layer(*args, **kwargs) -> str:
    # (runner, dut_source, golden, ...): bucket by the golden, an input property.
    golden = args[2] if len(args) > 2 else kwargs["golden"]
    if getattr(golden, "is_sequential", False):
        return "verilog.simulator.sequential"
    return "verilog.simulator.combinational"


def install_layers(tracer) -> None:
    """Wrap each layer's public entry points; names match :data:`LAYERS`."""
    from repro.bench import golden, jobs
    from repro.core.pipeline import HaVenPipeline
    from repro.runs.aggregate import StreamingAggregator
    from repro.runs.engine import RunEngine
    from repro.runs.store import RunStore
    from repro.service.broker import FileBroker
    from repro.service.worker import ServiceWorker
    from repro.verilog.design import DesignDatabase
    from repro.verilog.simulator.testbench import BatchTestbenchRunner, TestbenchRunner
    from repro.verilog.syntax_checker import SyntaxChecker

    def after_check(result, args, kwargs):
        if not result.ok:
            tracer.count("verilog.syntax_checker.rejected")

    def after_run_checks(report, args, kwargs):
        tracer.count("bench.jobs.checks", len(report.executions))
        tracer.count("bench.jobs.quarantined", len(report.quarantined()))

    def after_lease(leases, args, kwargs):
        if leases:
            tracer.count("service.broker.leases_granted")
            tracer.count("service.broker.units_leased", len(leases))

    tracer.wrap(RunEngine, "run", "runs.engine.run")
    tracer.wrap(RunEngine, "execute_units", "runs.engine.execute_units")
    tracer.wrap(HaVenPipeline, "generate", "core.pipeline.generate")
    tracer.wrap(SyntaxChecker, "check", "verilog.syntax_checker.check", after=after_check)
    tracer.wrap(DesignDatabase, "compile", "verilog.design.compile")
    tracer.wrap(TestbenchRunner, "run", _simulator_layer)
    tracer.wrap(BatchTestbenchRunner, "run", _simulator_layer)
    tracer.wrap(golden, "formal_equivalence_check", "formal.proofs")
    tracer.wrap(jobs, "run_checks", "bench.jobs.run_checks", after=after_run_checks)
    tracer.wrap(jobs, "execute_check", "bench.jobs.execute_check")
    tracer.wrap(RunStore, "record", "runs.store.record")
    tracer.wrap(RunStore, "record_quarantine", "runs.store.record")
    for method in ("feed_store", "progress", "report"):
        tracer.wrap(StreamingAggregator, method, "runs.aggregate")
    tracer.wrap(ServiceWorker, "run_forever", "service.worker.run_forever")
    tracer.wrap(FileBroker, "lease", "service.broker.lease", after=after_lease)
    tracer.wrap(FileBroker, "complete", "service.broker.complete")
    tracer.wrap(FileBroker, "complete_quarantine", "service.broker.complete")


def _counter_snapshot() -> dict:
    """Process-wide counters the program keeps, to diff across the wall window."""
    from repro.formal.stats import proof_stats
    from repro.verilog.codegen import fallback_stats
    from repro.verilog.design import get_default_database

    return {
        "design": get_default_database().stats.as_dict(),
        "fallbacks": fallback_stats()["reasons"],
        "proofs": proof_stats(),
    }


def _diff(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _layer_summary(tracer, window, before: dict, verdicts: str) -> dict:
    from spans import layer_table

    after = _counter_snapshot()
    table, unattributed = layer_table(tracer.spans, window)
    design = _diff(after["design"], before["design"])
    lookups = design["hits"] + design["misses"]
    counters = tracer.counters
    checks = counters.get("bench.jobs.checks", 0)
    granted = counters.get("service.broker.leases_granted", 0)
    return {
        "layers": table,
        "unattributed_s": unattributed,
        "counters": dict(counters),
        "check_durations_s": sorted(
            span.duration for span in tracer.spans if span.name == "bench.jobs.execute_check"
        ),
        "design_hit_ratio": design["hits"] / lookups if lookups else 0.0,
        "fallbacks": _diff(after["fallbacks"], before["fallbacks"]),
        "proofs": _diff(after["proofs"]["results"], before["proofs"]["results"]),
        "conflicts": after["proofs"]["conflicts"] - before["proofs"]["conflicts"],
        # Units that needed a check (scored or quarantined) per check run.
        "dedup_ratio": sum(verdicts.count(c) for c in "pfq") / checks if checks else 0.0,
        "units_per_lease": counters.get("service.broker.units_leased", 0) / granted
        if granted
        else 0.0,
    }


# --------------------------------------------------------------------------- workloads
def _report_digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def run_engine(manifest, t0: float, tracer=None, setup_only: bool = False) -> dict:
    """Serial ``RunEngine`` + ``StreamingAggregator`` report (``table4_*``)."""
    from repro.runs import RunEngine, RunStore, StreamingAggregator

    store = RunStore.ephemeral()
    engine = RunEngine(manifest, store)
    units = engine.units()  # expansion builds every suite
    for spec in manifest.profiles:
        engine.resolver.pipeline(spec.profile_id)  # datasets and fine-tunes
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}

    before = None
    if tracer is not None:
        before = _counter_snapshot()
        install_layers(tracer)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    engine.run()
    report = StreamingAggregator(manifest, resolver=engine.resolver).feed_store(store).report()
    wall1, cpu1 = time.perf_counter(), time.process_time()

    verdicts = verdict_vector(units, store.records())
    result = {
        "setup_s": setup_s,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "units": len(units),
        "report_sha256": _report_digest(report),
        "verdicts": verdicts,
    }
    if tracer is not None:
        result["trace"] = _layer_summary(tracer, (wall0, wall1), before, verdicts)
    return result


class _Client:
    """A keep-alive HTTP client whose calls are spans when traced."""

    def __init__(self, url_host: str, port: int, tracer=None):
        self.connection = http.client.HTTPConnection(url_host, port, timeout=HTTP_TIMEOUT_S)
        self.tracer = tracer

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def traced(self, name: str, method: str, path: str) -> tuple[int, bytes]:
        if self.tracer is None:
            return self.request(method, path)
        with self.tracer.span(name) as span_id:
            self.tracer.remote_parent = span_id
            try:
                return self.request(method, path)
            finally:
                self.tracer.remote_parent = None

    def close(self) -> None:
        self.connection.close()


def run_service(
    manifest, t0: float, workdir: Path, tracer=None, setup_only: bool = False
) -> dict:
    """POST → drain with one in-process worker → GET the report (``service_drain``)."""
    from repro.service import FileBroker, ServiceWorker
    from repro.service.api import ReproServiceServer, ServiceConfig

    broker_dir = Path(tempfile.mkdtemp(prefix="broker-", dir=workdir))
    server = ReproServiceServer(ServiceConfig(), FileBroker(broker_dir))
    serving = threading.Thread(target=server.serve_forever, name="service-http")
    serving.start()
    client = _Client(*server.server_address[:2], tracer=tracer)
    try:
        status, _ = client.request("GET", "/readyz")
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"setup_s": setup_s}

        before = None
        if tracer is not None:
            before = _counter_snapshot()
            install_layers(tracer)
        body = json.dumps(manifest.to_dict()).encode("utf-8")
        started = time.perf_counter()
        status, payload = client.request("POST", "/runs", body)
        submit_s = time.perf_counter() - started
        if status != 201:
            raise RuntimeError(f"POST /runs answered {status}: {payload[:200]!r}")
        run_id = json.loads(payload)["run_id"]

        wall0, cpu0 = time.perf_counter(), time.process_time()
        ServiceWorker(FileBroker(broker_dir), exit_when_idle=True).run_forever()
        started = time.perf_counter()
        status, payload = client.traced("service.api.report", "GET", f"/runs/{run_id}/report")
        wall1, cpu1 = time.perf_counter(), time.process_time()
        report_s = wall1 - started
        text = payload.decode("utf-8")
        if status != 200 or "(100.0% complete)]" not in text:
            raise RuntimeError(f"report not complete ({status}): {text[-200:]!r}")
        report = text[: text.rindex("\n\n[rendered from ")]

        started = time.perf_counter()
        status, _ = client.request("GET", "/metrics")
        metrics_s = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")

        broker = FileBroker(broker_dir)
        units = broker.units(run_id)
        verdicts = verdict_vector(units, broker.store(run_id).records())
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        serving.join()
        shutil.rmtree(broker_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "units": len(units),
        "report_sha256": _report_digest(report),
        "verdicts": verdicts,
        "api_s": {"submit": submit_s, "report": report_s, "metrics": metrics_s},
    }
    if tracer is not None:
        result["trace"] = _layer_summary(tracer, (wall0, wall1), before, verdicts)
    return result


def run_repetition(workload: str, seed: int, scale: str, t0: float, workdir: Path, mode: str):
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
    setup_only = mode == "setup"
    if workload == "service_serial":
        result = run_engine(build_manifest("service_drain", seed, scale), t0)
    elif workload == "service_drain":
        manifest = build_manifest(workload, seed, scale)
        result = run_service(manifest, t0, workdir, tracer, setup_only)
    else:
        result = run_engine(build_manifest(workload, seed, scale), t0, tracer, setup_only)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("service_serial",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("quick", "tiny"), default="quick")
    parser.add_argument("--mode", choices=("measure", "trace", "setup"), default="measure")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    result, tracer = run_repetition(
        args.workload, args.seed, args.scale, args.t0, args.out.parent, args.mode
    )
    if tracer is not None:
        tracer.close()
        if args.spans is not None:
            tracer.dump(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
