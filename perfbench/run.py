"""The repo's benchmark: from an uncertain instance and a query to a checked answer.

Usage, from the repository root::

    python3 perfbench/run.py --workload tree_questions --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``tree_questions``: a fixed, seeded list of exact questions on tree-like
  instances, answered in process on the object backend, pass after pass:
  Theorem 1 on R-S-T chains of 100 to 200 positions and on a partial 2-
  and 3-tree, Theorem 2 on correlated pcc chains, possibility/certainty, and
  certain answers for the three trichotomy queries on a 1,000-key, a
  200-key wide-value-domain and a 6-key key-violating instance;
- ``columnar_1e6``: a 1,000,001-fact R-S-T chain on the columnar backend,
  generate -> join -> provenance -> compile -> event space -> bind ->
  64 seeded worlds, repeated;
- ``serve_http``: one ``repro serve-http`` process driven by two
  closed-loop keep-alive clients: cold single rows, repeated rows (1 in 7),
  64-row batches (1 in 50) and a /compile of a fresh 60-position chain
  (1 in 400); ``inputs.py`` says where each share comes from.

Every run answers, then checks every answer against an independent oracle
(``oracles.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's environment fingerprint. With ``--trace 0`` the metrics are
the end-to-end ones below, with ``--trace 1`` the per-layer ones, taken
from spans recorded around calls into each layer (``tracing.py``); the
spans are written to ``.perfbench/traces/``.

Every run reports every end-to-end metric, so each has one definition
that applies to all three workloads. A *request* is one
thing a user asks for: a question (``tree_questions``), a whole
generate-to-answer pipeline (``columnar_1e6``) or an HTTP request
(``serve_http``).

- ``setup_s``: imports plus what a user builds once (the question list; the
  served plan, the service spawn, plan registration and its first pass),
  the median of several set-ups, each in a fresh interpreter;
- ``questions_per_s``: answers per second; a 64-row batch gives 64;
- ``qps``: requests answered per second;
- ``time_to_answer_s``: median request latency.
  ``tree_questions`` takes all three from the median pass over its fixed
  question list, as its questions differ in size by two orders; a pass
  is the sum of its question latencies, as garbage is collected untimed
  before each question. ``serve_http`` cuts its run into four equal
  stretches and takes these three and its probability latencies from the
  best stretch (``worker.SERVE_STRETCHES`` says why);
- ``peak_rss_mb``: peak resident memory of the process that computes the
  answers, in a fresh process per run;
- ``probability_p50_ms`` / ``probability_p99_ms``: latency of what returns
  probabilities: the probability questions, the columnar event-space +
  bind + evaluate stages, /probability requests;
- ``compile_p50_ms``: latency of building a plan: the possibility and
  certainty questions (lineage, compile, one evaluation), the columnar
  compile stage, /compile requests.

Runs are isolated: each workload run is a fresh worker process (plus fresh
set-up processes) with every ``REPRO_*`` knob cleared, a fixed hash seed,
temporary files inside ``.perfbench/`` of the checkout, and a fresh
``REPRO_PLAN_CACHE_DIR`` for the service, which shares one CPU with its
clients. In-process workloads run with the plan cache off, the library
default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tree_questions", "columnar_1e6", "serve_http")

END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "qps": "1/s",
    "time_to_answer_s": "s",
    "peak_rss_mb": "MB",
    "probability_p50_ms": "ms",
    "probability_p99_ms": "ms",
    "compile_p50_ms": "ms",
}

PER_LAYER = {
    "treewidth.decompose_s": "s",
    "treewidth.width": "count",
    "treewidth.nice_s": "s",
    "core.lineage_s": "s",
    "core.lineage_gates_per_fact": "gates/fact",
    "core.max_profile": "count",
    "circuits.compile_s": "s",
    "circuits.dd_s": "s",
    "circuits.message_passing_s": "s",
    "core.possibility_s": "s",
    "cqa.classify_s": "s",
    "cqa.fo_s": "s",
    "cqa.ptime_s": "s",
    "cqa.conp_s": "s",
    "cqa.circuit_compiles": "count",
    "instances.generate_s": "s",
    "queries.join_s": "s",
    "queries.witnesses": "count",
    "core.provenance_s": "s",
    "circuits.gates": "count",
    "events.event_space_s": "s",
    "circuits.bind_s": "s",
    "circuits.evaluate_s": "s",
    "instances.facts_materialized": "count",
    "service.server_probability_ms": "ms",
    "service.server_compile_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.coalesce.requests_per_pass": "ratio",
    "service.cache.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


def isolated_env(root: Path, scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    return env


def run_worker(root: Path, env: dict, argv: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in its own session; return its JSON result line."""
    command = [sys.executable, str(root / "perfbench" / "worker.py"), *argv]
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"worker timed out: {' '.join(argv)}") from None
    finally:
        # the service a worker spawned must not outlive it
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RunFailed(f"worker exited with {process.returncode}: {' '.join(argv)}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def reference_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, in milliseconds.

    Recorded before and after each run, so a reader can tell a slower
    program from a slower host: on shared hosts this moves by tens of
    percent over minutes.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def measure(args, root: Path, scratch: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    host_before = reference_ms()
    env = isolated_env(root, scratch)
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    # set-up time is reported only untraced, so a traced run sets up once
    setups = [
        run_worker(root, env, [*common, "--setup-only"], deadline)["setup_s"]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
    ]
    traces = root / ".perfbench" / "traces"
    trace_file = traces / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)
    result = run_worker(root, env, [*common, "--trace-file", str(trace_file)], deadline)
    setups.append(result["setup_s"])
    metrics = dict(result["metrics"])
    expected = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(expected):
        raise RunFailed(f"metrics {sorted(set(metrics) ^ set(expected))} mismatch")
    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "host_reference_ms": [host_before, reference_ms()],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "inputs_sha256": result["inputs_sha256"],
        "capabilities": result["capabilities"],
        "setup_samples_s": setups,
        "checks": result["checks"],
        "samples": result.get("samples"),
        "errors": result.get("errors"),
        "trace_file": str(trace_file.relative_to(root)) if args.trace else None,
    }
    if args.trace:
        trace = json.loads(trace_file.read_text())
        trace_file.write_text(json.dumps({"fingerprint": fingerprint, **trace}, default=repr))
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in expected.items()
        },
    }
    return fingerprint, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is missing)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        fingerprint, line = measure(args, root, scratch)
    except (RunFailed, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no traces were kept
        except OSError:
            pass
    print(json.dumps({"fingerprint": fingerprint}, default=repr))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
