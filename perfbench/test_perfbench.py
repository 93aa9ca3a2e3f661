"""Self-tests of the benchmark: its checks can fail, its inputs are seeded.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs
import oracles

from repro import (
    build_provenance_circuit,
    certain_oracle,
    compile_circuit,
    cqa_trichotomy_queries,
    key_violation_instance,
    rst_chain_tid,
    tid_probability_enumerate,
)


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_oracle_rejects_dd_pass_on_provenance_circuit():
    # The witness DNF is not d-D, so Theorem 1's linear pass over it is wrong.
    tid = rst_chain_tid(6, backend="object")
    compiled = compile_circuit(build_provenance_circuit(tid.instance, inputs.Q_RST).circuit)
    wrong = compiled.probability(compiled.slot_marginals(tid.event_space()))
    expected = oracles.chain_probability(*oracles.chain_columns(tid, 6))
    assert abs(wrong - 0.7403) < 1e-4 and abs(expected - 0.5536) < 1e-4
    assert not oracles.probability_matches(wrong, expected)
    enumerated = tid_probability_enumerate(inputs.Q_RST, tid)
    assert oracles.probability_matches(enumerated, expected)


def test_marginal_check_rejects_one_perturbed_marginal():
    n, seed = 50, 7
    tid = rst_chain_tid(n, inputs.COLUMNAR_PROBABILITY, seed=seed, backend="columnar")
    compiled = compile_circuit(build_provenance_circuit(tid.instance, inputs.Q_RST).circuit)
    bound = np.asarray(compiled.slot_marginals(tid.event_space()), dtype=np.float64)
    slots = oracles.chain_slots(compiled.variables(), n)
    columns = inputs.chain_generator_probabilities(n, inputs.COLUMNAR_PROBABILITY, seed)
    assert oracles.marginals_match(bound, slots, columns)
    perturbed = bound.copy()
    perturbed[17] = np.nextafter(perturbed[17], 1.0)
    assert not oracles.marginals_match(perturbed, slots, columns)


def test_world_check_rejects_one_flipped_world():
    n = 40
    tid = rst_chain_tid(n, backend="columnar")
    compiled = compile_circuit(build_provenance_circuit(tid.instance, inputs.Q_RST).circuit)
    slots = oracles.chain_slots(compiled.variables(), n)
    worlds = np.random.default_rng(3).random((32, len(compiled.variables()))) < 0.3
    served = [bool(v) for v in compiled.evaluate_batch(worlds)]
    direct = [bool(v) for v in oracles.chain_hits(worlds, slots)]
    assert served == direct and 0 < sum(served) < len(served)
    served[5] = not served[5]
    assert served != direct


def test_two_sat_oracle_agrees_with_repair_enumeration():
    answers = []
    for seed in range(8):
        instance, keys = key_violation_instance(6, 0.5, seed=seed, backend="object")
        for query in cqa_trichotomy_queries().values():
            expected = certain_oracle(query, instance, keys)
            assert oracles.certain_by_2sat(query, instance, keys) == expected
            answers.append(expected)
    assert True in answers and False in answers


def test_wide_cqa_answers_vary_with_the_seed():
    # an engine answering True, or False, to every fo or conp question fails
    queries = cqa_trichotomy_queries()
    for name in ("fo", "conp"):
        answers = {
            oracles.certain_by_2sat(queries[name], *inputs.wide_violation_instance(seed))
            for seed in range(12)
        }
        assert answers == {True, False}, name


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in ("tree_questions", "columnar_1e6", "serve_http"):
        first = inputs.inputs_digest(workload, 1)
        assert inputs.inputs_digest(workload, 1) == first
        assert inputs.inputs_digest(workload, 2) != first


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _run_module()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_serve_figures_are_split_by_reply_time():
    spec = importlib.util.spec_from_file_location("perfbench_worker", HERE / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    single = {"marginals": [0.5]}
    answered = [
        ({"kind": "probability", "seconds": 0.010, "done": 100.5}, single),
        ({"kind": "probability", "seconds": 0.020, "done": 101.5}, {"marginals": [0.5] * 64}),
        ({"kind": "probability", "seconds": 0.030, "done": 102.5}, single),
        ({"kind": "probability", "seconds": 0.050, "done": 103.5}, single),
        ({"kind": "compile", "seconds": 0.100, "done": 103.6}, {"digest": "d"}),
        ({"kind": "probability", "seconds": 0.040, "done": 104.2}, single),  # after the deadline
    ]
    figures = worker.stretch_figures(answered, started=100.0, seconds=4.0)
    assert len(figures) == worker.SERVE_STRETCHES == 4
    assert [f["qps"] for f in figures] == [1.0, 1.0, 1.0, 3.0]
    assert [f["questions_per_s"] for f in figures] == [1.0, 64.0, 1.0, 2.0]
    assert figures[3]["probability_p50_ms"] == 45.0
    assert figures[3]["probability_p99_ms"] == 50.0
