"""One run of one workload, in a fresh interpreter started by ``run.py``.

Prints one JSON line: the run's set-up time, its metrics (end-to-end, or
per-layer with ``--trace 1``), the operations attempted and failed, the
outcome of every correctness check, a digest of the inputs and the
effective ``repro.capabilities()``. With ``--setup-only`` it performs the
workload's set-up once, tears it down and reports only ``setup_s``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import repro
import repro.core.engine as engine
import repro.core.possibility as possibility
import repro.cqa.engine as cqa_engine
import repro.queries.vectorized as vectorized
from repro.circuits.compiled import CompiledCircuit
from repro.instances.tid import TIDInstance

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs
import oracles
from tracing import Tracer

IMPORT_S = time.perf_counter() - _STARTED

PROBABILITY_KINDS = ("chain_probability", "ktree_probability", "pcc_probability")
#: Possibility and certainty build and compile a plan, then run one
#: evaluation: the in-process counterpart of a /compile request.
COMPILE_KINDS = ("possible", "certain")
#: Repairs the all-repairs oracle may enumerate per CQA question.
REPAIR_ORACLE_CAP = 4096
#: Facts up to which a probability question is also enumerated.
ENUMERATION_CAP = 16
#: A serve_http run is cut into this many equal stretches, and its
#: throughput and latency figures are those of its best stretch. On a
#: shared 2-vCPU KVM guest the host's speed swings for seconds at a time
#: (a fixed 50,000-step Python loop moves between ~8 and ~12 ms in a minute,
#: with no steal time reported), and the best stretch is where the
#: program's own speed shows, as in a best-of-N timing. A 30 s run gives
#: 7.5 s stretches of ~1,000-1,300 /probability requests, so >= 10 lie
#: beyond each stretch's p99.
SERVE_STRETCHES = 4


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def patch_layers(tracer: Tracer) -> None:
    """Wrap the public functions each layer is entered through."""

    def lineage_attrs(result, args, kwargs):
        return {
            "gates": len(result.circuit),
            "facts": len(args[0]),
            "max_profile": result.max_profile_size,
        }

    def probability_span(args, kwargs):
        return f"circuits.{kwargs.get('engine', 'probability')}"

    tracer.patch(
        engine, "decompose", "treewidth.decompose", lambda r, a, k: {"width": r.width()}
    )
    tracer.patch(engine, "build_nice_tree", "treewidth.nice")
    tracer.patch(engine, "build_lineage", "core.lineage", lineage_attrs)
    tracer.patch(possibility, "build_lineage", "core.lineage", lineage_attrs)
    tracer.patch(
        engine,
        "build_provenance_circuit",
        "core.provenance",
        lambda r, a, k: {"gates": len(r.circuit)},
    )
    tracer.patch(
        engine, "compile_circuit", "circuits.compile", lambda r, a, k: {"gates": r.size}
    )
    tracer.patch(engine, "probability", probability_span)
    tracer.patch(TIDInstance, "event_space", "events.event_space")
    tracer.patch(CompiledCircuit, "slot_marginals", "circuits.bind")
    tracer.patch(CompiledCircuit, "evaluate_batch", "circuits.evaluate")
    tracer.patch(cqa_engine, "classify", "cqa.classify")
    tracer.patch(
        vectorized, "evaluate_cq", "queries.join", lambda r, a, k: {"witnesses": r.n_rows}
    )


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics from the traced spans, per unit of traced work."""
    own = tracer.self_time_by_name()
    per = max(units, 1)

    def seconds(name):
        return own.get(name, 0.0) / per

    def attrs(name, key):
        return [span["attrs"][key] for span in tracer.named(name) if key in span["attrs"]]

    lineage_gates = sum(attrs("core.lineage", "gates"))
    lineage_facts = sum(attrs("core.lineage", "facts"))
    return {
        "treewidth.decompose_s": seconds("treewidth.decompose"),
        "treewidth.width": max(attrs("treewidth.decompose", "width"), default=0),
        "treewidth.nice_s": seconds("treewidth.nice"),
        "core.lineage_s": seconds("core.lineage"),
        "core.lineage_gates_per_fact": lineage_gates / lineage_facts if lineage_facts else 0.0,
        "core.max_profile": max(attrs("core.lineage", "max_profile"), default=0),
        "circuits.compile_s": seconds("circuits.compile"),
        "circuits.dd_s": seconds("circuits.dd"),
        "circuits.message_passing_s": seconds("circuits.message_passing"),
        "core.possibility_s": seconds("core.possibility"),
        "cqa.classify_s": seconds("cqa.classify"),
        "cqa.fo_s": seconds("cqa.fo"),
        "cqa.ptime_s": seconds("cqa.ptime"),
        "cqa.conp_s": seconds("cqa.conp"),
        "instances.generate_s": seconds("instances.generate"),
        "queries.join_s": seconds("queries.join"),
        "queries.witnesses": sum(attrs("queries.join", "witnesses")) / per,
        "core.provenance_s": seconds("core.provenance"),
        "circuits.gates": sum(attrs("circuits.compile", "gates")) / per,
        "events.event_space_s": seconds("events.event_space"),
        "circuits.bind_s": seconds("circuits.bind"),
        "circuits.evaluate_s": seconds("circuits.evaluate"),
    }


ZERO_LAYERS = {
    "cqa.circuit_compiles": 0,
    "instances.facts_materialized": 0,
    "service.server_probability_ms": 0.0,
    "service.server_compile_ms": 0.0,
    "service.http_overhead_ms": 0.0,
    "service.coalesce.requests_per_pass": 0.0,
    "service.cache.hit_ratio": 0.0,
}


def circuit_compiles() -> int:
    stats = repro.cqa_stats()
    return stats["conp"] + stats["circuit_fallbacks"] + stats["forced_circuit"]


# --------------------------------------------------------------------------- #
# tree_questions


def ask(question, tracer: Tracer | None):
    kind = question.kind
    if kind in ("chain_probability", "ktree_probability"):
        return engine.tid_probability(question.query, question.data)
    if kind == "pcc_probability":
        return engine.pcc_probability(question.query, question.data)
    if kind in COMPILE_KINDS:
        decide = getattr(possibility, kind)
        if tracer is None:
            return decide(question.query, question.data)
        with tracer.span("core.possibility"):
            return decide(question.query, question.data)
    if tracer is None:
        return cqa_engine.certain_answers(question.query, question.data, question.keys)
    with tracer.span(f"cqa.{question.label.rsplit('_', 1)[1]}"):
        return cqa_engine.certain_answers(question.query, question.data, question.keys)


def question_expected(question):
    """``(expected answer, extra check passed)`` from the independent oracles."""
    from repro.baselines import pcc_probability_enumerate, tid_probability_enumerate
    from repro.cqa.repairs import certain_oracle, repair_count

    kind, data = question.kind, question.data
    if kind == "chain_probability":
        columns = oracles.chain_columns(data, (len(data) + 1) // 3)
        return oracles.chain_probability(*columns), True
    if kind == "ktree_probability":
        if len(data) > ENUMERATION_CAP:
            raise ValueError(f"{question.label} is too large to enumerate")
        return tid_probability_enumerate(question.query, data), True
    if kind == "pcc_probability":
        return pcc_probability_enumerate(question.query, data), True
    if kind in COMPILE_KINDS:
        columns = oracles.chain_columns(data, (len(data) + 1) // 3)
        decide = oracles.chain_possible if kind == "possible" else oracles.chain_certain
        return decide(*columns), True
    expected = oracles.certain_by_2sat(question.query, data, question.keys)
    agrees = True
    if repair_count(data, question.keys) <= REPAIR_ORACLE_CAP:
        agrees = certain_oracle(question.query, data, question.keys) == expected
    return expected, agrees


def answer_correct(question, answer) -> bool:
    expected, agrees = question_expected(question)
    if not agrees:
        return False
    if question.kind in PROBABILITY_KINDS:
        ok = oracles.probability_matches(answer, expected)
        if question.kind == "ktree_probability":
            ok = ok and 0.01 < answer < 0.99
        return ok
    return answer in (True, False) and bool(answer) == expected


def run_tree_questions(args, setup_only: bool) -> dict:
    started = time.perf_counter()
    questions = inputs.tree_questions(args.seed)
    build_s = time.perf_counter() - started
    setup_s = IMPORT_S + build_s
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if args.trace else None
    first: dict[int, object] = {}
    errors: dict[int, str] = {}
    inconsistent = [0] * len(questions)
    asked = [0] * len(questions)
    latencies: list[tuple[str, float]] = []
    pass_times: list[tuple[bool, float]] = []
    compiles_traced = 0
    minimum_passes = 3 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    while not pass_times or time.perf_counter() < deadline or len(pass_times) < minimum_passes:
        traced = tracer is not None and len(pass_times) % 2 == 1
        if traced:
            patch_layers(tracer)
            compiles_before = circuit_compiles()
        pass_seconds = 0.0
        for index, question in enumerate(questions):
            asked[index] += 1
            # Collect the previous questions' garbage untimed. Otherwise the
            # collection their garbage makes due runs inside whichever
            # question comes next, and which one that is moves with the seed.
            gc.collect()
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(
                        "question", qid=f"{len(pass_times)}:{index}", label=question.label
                    ):
                        answer = ask(question, tracer)
                else:
                    answer = ask(question, None)
            except Exception as exc:  # noqa: BLE001 - counted as a failed question
                errors.setdefault(index, f"{type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            pass_seconds += latency
            latencies.append((question.kind, latency))
            if index not in first:
                first[index] = answer
            elif answer != first[index]:
                inconsistent[index] += 1
        pass_times.append((traced, pass_seconds))
        if traced:
            tracer.unpatch()
            compiles_traced += circuit_compiles() - compiles_before
    peak = peak_rss_mb()

    checks = {}
    failed = 0
    for index, question in enumerate(questions):
        if index in errors:
            ok = False
        else:
            ok = answer_correct(question, first[index]) and not inconsistent[index]
        checks[question.label] = ok
        if not ok:
            failed += asked[index]
    result = {
        "setup_s": setup_s,
        "attempted": sum(asked),
        "failed": failed,
        "correct": failed == 0,
        "checks": checks,
        "errors": errors,
        "samples": {"pass_seconds": [seconds for _traced, seconds in pass_times]},
    }
    untraced = [seconds for traced, seconds in pass_times if not traced]
    if tracer is None:
        # passes, not single questions, are the unit: medians over passes
        per_question = statistics.median(untraced) / len(questions)
        probability = [s * 1e3 for kind, s in latencies if kind in PROBABILITY_KINDS]
        compiling = [s * 1e3 for kind, s in latencies if kind in COMPILE_KINDS]
        result["metrics"] = {
            "questions_per_s": 1.0 / per_question,
            "qps": 1.0 / per_question,
            "time_to_answer_s": per_question,
            "peak_rss_mb": peak,
            "probability_p50_ms": statistics.median(probability),
            "probability_p99_ms": percentile(probability, 0.99),
            "compile_p50_ms": statistics.median(compiling),
        }
        return result
    traced_times = [seconds for traced, seconds in pass_times if traced]
    metrics = layer_metrics(tracer, len(traced_times))
    metrics.update(ZERO_LAYERS)
    metrics["instances.generate_s"] = build_s
    metrics["cqa.circuit_compiles"] = compiles_traced / len(traced_times)
    # the first pass is untraced and cold: compare against the warm ones
    metrics["trace.overhead_s"] = statistics.mean(traced_times) - statistics.mean(
        untraced[1:]
    )
    result["metrics"] = metrics
    result["tracer"] = tracer
    return result


# --------------------------------------------------------------------------- #
# columnar_1e6


def run_columnar(args, setup_only: bool) -> dict:
    # Nothing is built once here: generation is part of every answer.
    setup_s = IMPORT_S
    if setup_only:
        return {"setup_s": setup_s}
    n = inputs.COLUMNAR_POSITIONS
    generator_seed = inputs.columnar_seed(args.seed)
    world_seed = inputs.derived_seed(args.seed, "worlds")
    tracer = Tracer() if args.trace else None
    samples: list[dict] = []
    answers: list[list[bool]] = []
    state: dict = {}
    minimum_runs = 3
    deadline = time.perf_counter() + args.seconds
    while len(samples) < minimum_runs or time.perf_counter() < deadline:
        traced = tracer is not None and len(samples) % 2 == 1
        state.clear()
        gc.collect()
        if traced:
            patch_layers(tracer)
        sample = columnar_pipeline(tracer if traced else None, n, generator_seed, world_seed, state)
        if traced:
            tracer.unpatch()
        sample["traced"] = traced
        samples.append(sample)
        answers.append(state["hits"])
    peak = peak_rss_mb()

    checks = {}
    hits = state["hits"]
    checks["witnesses_n_minus_1"] = state["witnesses"] == n - 1
    checks["no_facts_materialized"] = state["facts_materialized"] == 0
    slots = oracles.chain_slots(state["names"], n)
    columns = inputs.chain_generator_probabilities(
        n, inputs.COLUMNAR_PROBABILITY, generator_seed
    )
    checks["bound_marginals_bitwise"] = oracles.marginals_match(state["bound"], slots, columns)
    direct = oracles.chain_hits(state["worlds"], slots)
    checks["worlds_match_direct_evaluation"] = [bool(v) for v in direct] == hits
    checks["worlds_unsaturated"] = 0 < sum(hits) < len(hits)
    checks["answers_repeat"] = all(answer == hits for answer in answers)
    correct = all(checks.values())
    result = {
        "setup_s": setup_s,
        "attempted": len(samples),
        "failed": 0 if correct else len(samples),
        "correct": correct,
        "checks": checks,
        "samples": {"pipelines": samples},
    }
    untraced = [s for s in samples if not s["traced"]]
    if tracer is None:
        answer_s = statistics.median(s["total"] for s in untraced)
        probability = [s["probability"] * 1e3 for s in untraced]
        result["metrics"] = {
            "questions_per_s": 1.0 / answer_s,
            "qps": 1.0 / answer_s,
            "time_to_answer_s": answer_s,
            "peak_rss_mb": peak,
            "probability_p50_ms": statistics.median(probability),
            "probability_p99_ms": percentile(probability, 0.99),
            "compile_p50_ms": statistics.median(s["compile"] * 1e3 for s in untraced),
        }
        return result
    traced_runs = [s for s in samples if s["traced"]]
    metrics = layer_metrics(tracer, len(traced_runs))
    metrics.update(ZERO_LAYERS)
    metrics["instances.facts_materialized"] = state["facts_materialized"]
    metrics["trace.overhead_s"] = statistics.mean(
        s["total"] for s in traced_runs
    ) - statistics.mean(s["total"] for s in untraced[1:])
    result["metrics"] = metrics
    result["tracer"] = tracer
    return result


def columnar_pipeline(tracer, n, generator_seed, world_seed, state) -> dict:
    """generate -> join -> provenance -> compile -> event space -> bind -> worlds.

    Returns the stage times; leaves the outputs the checks need in
    ``state``. Drawing the worlds is the benchmark's own work and is not
    timed.
    """

    def stage(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    t0 = time.perf_counter()
    with stage("instances.generate"):
        tid = repro.rst_chain_tid(
            n, inputs.COLUMNAR_PROBABILITY, seed=generator_seed, backend="columnar"
        )
    lineage = engine.build_provenance_circuit(tid.instance, inputs.Q_RST)
    t1 = time.perf_counter()
    with stage("circuits.compile") as record:
        compiled = repro.compile_circuit(lineage.circuit)
        if record is not None:
            record["attrs"]["gates"] = compiled.size
    t2 = time.perf_counter()
    space = tid.event_space()
    bound = compiled.slot_marginals(space)
    t3 = time.perf_counter()
    rng = np.random.default_rng(world_seed)
    worlds = (
        rng.random((inputs.COLUMNAR_WORLDS, len(bound)))
        < np.asarray(bound) * inputs.COLUMNAR_WORLD_DENSITY
    )
    t4 = time.perf_counter()
    hits = [bool(v) for v in compiled.evaluate_batch(worlds)]
    t5 = time.perf_counter()
    state.update(
        hits=hits,
        witnesses=lineage.max_profile_size,
        facts_materialized=tid.instance.facts_materialized,
        names=compiled.variables(),
        bound=bound,
        worlds=worlds,
    )
    return {
        "total": (t3 - t0) + (t5 - t4),
        "compile": t2 - t1,
        "probability": (t3 - t2) + (t5 - t4),
    }


# --------------------------------------------------------------------------- #
# serve_http


def repro_shm() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()


class Service:
    """The set-up users do once: plan construction, spawn, registration."""

    def __init__(self, seed: int):
        from repro.service import spawn_service

        started = time.perf_counter()
        tid = inputs.serve_plan_tid(seed)
        self.compiled = repro.compile_circuit(
            repro.build_lineage(tid.instance, inputs.Q_RST).circuit
        )
        self.shm_before = repro_shm()
        cache_dir = tempfile.mkdtemp(prefix="plancache-")
        self.handle = spawn_service(env={"REPRO_PLAN_CACHE_DIR": cache_dir})
        # The service and its clients share one CPU. In a closed loop one
        # side always waits for the other, and on separate vCPUs every
        # hand-over wakes an idle vCPU, whose delay follows the hypervisor's
        # load: in 6 interleaved pairs on a 2-vCPU KVM guest, separate CPUs
        # gave 1-24% lower qps, and over those seeds their latency and qps
        # spread 0.19-0.22 of the median against 0.09-0.16 here. Threads
        # started later (the service's compute thread, the clients) inherit
        # the pinning; those already running (numpy's) are pinned one by one.
        cpu = max(os.sched_getaffinity(0))
        for pid in (self.handle.process.pid, os.getpid()):
            for thread in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(thread), {cpu})
        client = self.handle.client()
        self.digest = client.register_compiled(self.compiled)
        # first pass on the plan: one-time numpy and kernel warm-up
        by_name = {f.variable_name: tid.probability(f) for f in tid.facts()}
        row = [by_name[name] for name in self.compiled.variables()]
        self.warmup = client.probability(self.digest, [row])["marginals"][0]
        self.warmup_expected = oracles.chain_probability(
            *oracles.chain_columns(tid, inputs.SERVE_PLAN_POSITIONS)
        )
        client.close()
        self.setup_s = time.perf_counter() - started

    def stop(self) -> dict:
        """POST /shutdown; the exit code and any leaked shared memory."""
        self.handle.client(timeout=10.0).shutdown()
        try:
            code = self.handle.wait_dead(30.0)
        finally:
            self.handle.stop()
        leaked = sorted(repro_shm() - self.shm_before)
        return {"exit_code": code, "leaked_shm": leaked}


class Client(threading.Thread):
    """One closed-loop client: sends its next request when a reply arrives."""

    def __init__(self, index, service, seed, deadline, tracer, records, counter):
        super().__init__(name=f"perfbench-client-{index}")
        self.index = index
        self.service = service
        self.seed = seed
        self.deadline = deadline
        self.tracer = tracer
        self.records = records
        self.counter = counter
        self.rows = np.random.default_rng(inputs.derived_seed(seed, "client", index))
        self.ops = random.Random(inputs.derived_seed(seed, "ops", index))
        self.history: list[list[float]] = []
        self.n_vars = len(service.compiled.variables())

    def timed(self, kind, call, **info):
        started = time.perf_counter()
        try:
            if self.tracer is None:
                reply = call()
            else:
                qid = f"{self.index}:{len(self.records)}"
                with self.tracer.span(f"http.{kind}", qid=qid):
                    reply = call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed request
            reply, error = None, f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        record = {"kind": kind, "seconds": done - started, "done": done, "error": error}
        record.update(info)
        self.records.append((record, reply))
        return reply

    def run(self):
        client = self.service.handle.client()
        compile_every, batch_every, repeat_every = (
            inputs.SERVE_COMPILE_EVERY,
            inputs.SERVE_BATCH_EVERY,
            inputs.SERVE_REPEAT_EVERY,
        )
        compile_phase = inputs.serve_phase(compile_every, self.index)
        batch_phase = inputs.serve_phase(batch_every, self.index)
        repeat_phase = inputs.serve_phase(repeat_every, self.index)
        sent = 0
        try:
            while time.perf_counter() < self.deadline:
                sent += 1
                if sent % compile_every == compile_phase:
                    self.compile(client)
                    continue
                if sent % batch_every == batch_phase:
                    rows = self.rows.random((inputs.SERVE_BATCH_ROWS, self.n_vars)).tolist()
                    shape = "batch"
                elif sent % repeat_every == repeat_phase and self.history:
                    rows = [self.history[self.ops.randrange(len(self.history))]]
                    shape = "repeat"
                else:
                    rows = [self.rows.random(self.n_vars).tolist()]
                    self.history = (self.history + rows)[-64:]
                    shape = "single"
                self.timed(
                    "probability",
                    lambda: client.probability(self.service.digest, rows),
                    rows=rows,
                    shape=shape,
                )
        finally:
            client.close()

    def compile(self, client):
        with self.counter["lock"]:
            index = self.counter["next"]
            self.counter["next"] += 1
        payload, probabilities, columns = inputs.serve_compile_payload(self.seed, index)
        reply = self.timed(
            "compile",
            lambda: client.compile(payload, inputs.SERVE_QUERY, probabilities),
            index=index,
        )
        if reply is None:
            return
        self.timed(
            "probability",
            lambda: client.probability(reply["digest"], [reply["default_row"]]),
            shape="compiled",
            expected=oracles.chain_probability(*columns),
        )


def drive(service, seed, seconds, tracer, counter) -> tuple[list, float]:
    """Run the clients for ``seconds``; their records and the start time."""
    records: list = []
    started = time.perf_counter()
    deadline = started + seconds
    clients = [
        Client(i, service, seed, deadline, tracer, records, counter)
        for i in range(inputs.SERVE_CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=seconds + 120.0)
    if any(client.is_alive() for client in clients):
        raise RuntimeError("a client thread did not finish")
    return records, started


def stretch_figures(answered, started: float, seconds: float) -> list[dict]:
    """Throughput and latency of each of ``SERVE_STRETCHES`` equal stretches.

    A request belongs to the stretch in which its reply arrived; the few
    replies that arrive after the deadline count in the last stretch.
    """
    length = seconds / SERVE_STRETCHES
    stretches: list[list] = [[] for _ in range(SERVE_STRETCHES)]
    for record, reply in answered:
        index = min(int((record["done"] - started) / length), SERVE_STRETCHES - 1)
        stretches[index].append((record, reply))
    figures = []
    for part in stretches:
        probability = [r["seconds"] * 1e3 for r, _ in part if r["kind"] == "probability"]
        rows = sum(len(reply["marginals"]) for r, reply in part if r["kind"] == "probability")
        figures.append(
            {
                "questions_per_s": rows / length,
                "qps": len(part) / length,
                "time_to_answer_s": statistics.median(r["seconds"] for r, _ in part),
                "probability_p50_ms": statistics.median(probability),
                "probability_p99_ms": percentile(probability, 0.99),
                "probability_samples": len(probability),
            }
        )
    return figures


def check_served(service, records) -> tuple[int, dict]:
    """Count wrong or failed requests; served marginals vs the library."""
    compiled = service.compiled
    failed = 0
    singles = [(record, reply) for record, reply in records if record.get("shape") == "single"]
    checks = {}
    if singles:
        matrix = np.asarray([record["rows"][0] for record, _ in singles], dtype=np.float64)
        expected = compiled.probability_batch(matrix)
        for (record, reply), want in zip(singles, expected):
            record["ok"] = reply is not None and reply["marginals"][0] == float(want)
    first_value: dict[tuple, float] = {
        tuple(record["rows"][0]): reply["marginals"][0]
        for record, reply in singles
        if record.get("ok")
    }
    for record, reply in records:
        if record["error"] is not None:
            record["ok"] = False
        elif record.get("shape") == "batch":
            matrix = np.asarray(record["rows"], dtype=np.float64)
            want = [float(v) for v in compiled.probability_batch(matrix)]
            record["ok"] = reply["marginals"] == want
        elif record.get("shape") == "repeat":
            record["ok"] = reply["marginals"][0] == first_value.get(tuple(record["rows"][0]))
        elif record.get("shape") == "compiled":
            record["ok"] = oracles.probability_matches(reply["marginals"][0], record["expected"])
        elif record["kind"] == "compile":
            record["ok"] = bool(reply.get("digest")) and reply.get("n_vars", 0) > 0
        failed += not record.get("ok", False)
    checks["served_marginals"] = failed == 0
    return failed, checks


def verify_compile(seed: int, reply_digest: str | None) -> bool:
    """The first /compile digest equals a local compile of the same payload."""
    from repro.instances.columnar import ColumnarInstance

    payload, _probabilities, _columns = inputs.serve_compile_payload(seed, 0)
    instance, _fids = ColumnarInstance.ingest_payload(payload)
    query = repro.service.parse_query(inputs.SERVE_QUERY)
    _lineage, plan = engine.compile_query_plan(instance, query)
    return reply_digest == plan.plan_digest()


def server_stats(service) -> dict:
    client = service.handle.client()
    try:
        return client.stats()
    finally:
        client.close()


def run_serve_http(args, setup_only: bool) -> dict:
    service = Service(args.seed)
    setup_s = IMPORT_S + service.setup_s
    if setup_only:
        stopped = service.stop()
        if stopped["exit_code"] != 0 or stopped["leaked_shm"]:
            raise RuntimeError(f"service did not stop cleanly: {stopped}")
        return {"setup_s": setup_s}

    # A client encoding a 64-row batch holds the GIL for ~24 ms; with the
    # default 5 ms switch interval the other client's arrived reply waits
    # that long for it, so client-side contention, not the service, set
    # part of the latency.
    sys.setswitchinterval(0.0005)
    counter = {"lock": threading.Lock(), "next": 0}
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            records, started = drive(service, args.seed, args.seconds, None, counter)
            phases = None
        else:
            half = args.seconds / 2.0
            plain, _ = drive(service, args.seed, half, None, counter)
            before = server_stats(service)
            traced, _ = drive(service, args.seed + 1, half, tracer, counter)
            after = server_stats(service)
            records = plain + traced
            phases = (plain, traced, before, after)
    finally:
        stopped = service.stop()
    peak = peak_rss_mb(resource.RUSAGE_CHILDREN)

    failed, checks = check_served(service, records)
    checks["warmup_matches_chain_oracle"] = oracles.probability_matches(
        service.warmup, service.warmup_expected
    )
    checks["service_exit_code_0"] = stopped["exit_code"] == 0
    checks["no_leaked_shm"] = not stopped["leaked_shm"]
    first_compile = next(
        (reply for record, reply in records if record["kind"] == "compile" and record["index"] == 0),
        None,
    )
    if tracer is not None:
        patch_layers(tracer)
    try:
        checks["compile_digest_matches_local"] = verify_compile(
            args.seed, first_compile["digest"] if first_compile else None
        )
    finally:
        if tracer is not None:
            tracer.unpatch()
    attempted = len(records)
    correct = failed == 0 and all(checks.values())
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "checks": checks,
        "shutdown": stopped,
    }
    if tracer is None:
        answered = [(r, reply) for r, reply in records if r["error"] is None]
        compiling = [r["seconds"] * 1e3 for r, _ in answered if r["kind"] == "compile"]
        stretches = stretch_figures(answered, started, args.seconds)
        best = {
            name: pick(s[name] for s in stretches)
            for name, pick in (
                ("questions_per_s", max),
                ("qps", max),
                ("time_to_answer_s", min),
                ("probability_p50_ms", min),
                ("probability_p99_ms", min),
            )
        }
        # too few /compile requests to split: their median is the whole run's
        result["metrics"] = {
            **best,
            "peak_rss_mb": peak,
            "compile_p50_ms": statistics.median(compiling),
        }
        result["samples"] = {"compile": len(compiling), "stretches": stretches}
        return result
    plain, traced, before, after = phases
    metrics = layer_metrics(tracer, 1)
    metrics.update(ZERO_LAYERS)

    def endpoint_delta(path):
        old = before["endpoints"].get(path, {"count": 0, "mean_ms": 0.0})
        new = after["endpoints"].get(path, {"count": 0, "mean_ms": 0.0})
        count = new["count"] - old["count"]
        total = new["mean_ms"] * new["count"] - old["mean_ms"] * old["count"]
        return total / count if count else 0.0

    def mean_seconds(phase, kind):
        values = [r["seconds"] for r, _ in phase if r["kind"] == kind]
        return statistics.mean(values) if values else 0.0

    coalesce = {k: after["coalescer"][k] - before["coalescer"][k] for k in ("requests", "passes")}
    cache = {k: after["result_cache"][k] - before["result_cache"][k] for k in ("hits", "misses")}
    server_probability = endpoint_delta("/probability")
    metrics["service.server_probability_ms"] = server_probability
    metrics["service.server_compile_ms"] = endpoint_delta("/compile")
    metrics["service.http_overhead_ms"] = (
        mean_seconds(traced, "probability") * 1e3 - server_probability
    )
    metrics["service.coalesce.requests_per_pass"] = (
        coalesce["requests"] / coalesce["passes"] if coalesce["passes"] else 0.0
    )
    lookups = cache["hits"] + cache["misses"]
    metrics["service.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["trace.overhead_s"] = statistics.mean(
        r["seconds"] for r, _ in traced
    ) - statistics.mean(r["seconds"] for r, _ in plain)
    result["metrics"] = metrics
    result["tracer"] = tracer
    return result


WORKLOADS = {
    "tree_questions": run_tree_questions,
    "columnar_1e6": run_columnar,
    "serve_http": run_serve_http,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args, args.setup_only)
    tracer = result.pop("tracer", None)
    if not args.setup_only:
        result["inputs_sha256"] = inputs.inputs_digest(args.workload, args.seed)
        result["numpy"] = np.__version__
        result["capabilities"] = repro.capabilities()
        if tracer is not None and args.trace_file:
            tracer.write(
                args.trace_file,
                {"workload": args.workload, "seed": args.seed, "metrics": result["metrics"]},
            )
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
