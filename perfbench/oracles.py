"""Independent answers and checks for the benchmark's questions.

None of these call the code path whose answer they check:

- R-S-T chains: the witnesses R(i), S(i, i+1), T(i+1) use pairwise
  disjoint facts, so they are independent events and
  P(Q) = 1 - prod_i (1 - r_i s_i t_{i+1}), a one-pass product;
- possibility/certainty on chains: some witness has all facts possible
  (p > 0) or all certain (p = 1);
- certain answers of a two-atom self-join-free query when every key block
  has at most two facts: a repair avoiding every match is an assignment
  satisfying one 2-clause per match, so the query is certain iff that
  2-SAT instance is unsatisfiable;
- columnar worlds: the query evaluated directly on the world matrix.

The possible-world and all-repairs enumerators of ``repro.baselines`` and
``repro.cqa`` serve as the oracles on the small instances.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro.instances.base import variable_name_of
from repro.queries.cq import Variable

#: Largest |answer - oracle| accepted for a probability.
PROBABILITY_TOLERANCE = 1e-12


def probability_matches(answer: float, expected: float) -> bool:
    return math.isfinite(answer) and abs(answer - expected) <= PROBABILITY_TOLERANCE


def chain_columns(tid, n: int):
    """``(r, s, t)``: the chain's probabilities read from its instance."""
    from repro import fact

    r = [tid.probability(fact("R", i)) for i in range(n)]
    t = [tid.probability(fact("T", i)) for i in range(n)]
    s = [tid.probability(fact("S", i, i + 1)) for i in range(n - 1)]
    return r, s, t


def chain_probability(r, s, t) -> float:
    """P(exists i: R(i), S(i, i+1), T(i+1)) on an independent chain."""
    miss = 1.0
    for i in range(len(s)):
        miss *= 1.0 - r[i] * s[i] * t[i + 1]
    return 1.0 - miss


def chain_possible(r, s, t) -> bool:
    return any(r[i] > 0 and s[i] > 0 and t[i + 1] > 0 for i in range(len(s)))


def chain_certain(r, s, t) -> bool:
    return any(r[i] >= 1 and s[i] >= 1 and t[i + 1] >= 1 for i in range(len(s)))


# --------------------------------------------------------------------------- #
# certain answers by 2-SAT


def _matches(query, facts_by_relation):
    """Every pair of facts the two atoms of ``query`` map to together."""
    first, second = query.atoms

    def bind(atom, f, binding):
        binding = dict(binding)
        for term, value in zip(atom.terms, f.args):
            if isinstance(term, Variable):
                if binding.setdefault(term, value) != value:
                    return None
            elif term != value:
                return None
        return binding

    shared = [
        position
        for position, term in enumerate(second.terms)
        if isinstance(term, Variable) and term in first.terms
    ]
    index: dict[tuple, list] = {}
    for g in facts_by_relation.get(second.relation, ()):
        index.setdefault(tuple(g.args[p] for p in shared), []).append(g)
    for f in facts_by_relation.get(first.relation, ()):
        binding = bind(first, f, {})
        if binding is None:
            continue
        probe = tuple(binding.get(second.terms[p]) for p in shared)
        for g in index.get(probe, ()):
            if bind(second, g, binding) is not None:
                yield f, g


def certain_by_2sat(query, instance, keys) -> bool:
    """Is the two-atom self-join-free ``query`` true in every repair?

    Needs blocks of at most two facts (``key_violation_instance``'s
    default); raises ``ValueError`` otherwise.
    """
    if len(query.atoms) != 2 or query.atoms[0].relation == query.atoms[1].relation:
        raise ValueError("the 2-SAT oracle needs a self-join-free two-atom query")
    facts_by_relation: dict[str, list] = {}
    blocks: dict[tuple, list] = {}
    for f in instance.facts():
        facts_by_relation.setdefault(f.relation, []).append(f)
        positions = keys.positions_for(f.relation, len(f.args))
        blocks.setdefault(
            (f.relation, tuple(f.args[p] for p in positions)), []
        ).append(f)
    # literal of a fact: None when its block is a singleton (always kept),
    # else (block variable, polarity) -- polarity True keeps the 2nd fact.
    literal = {}
    for number, members in enumerate(blocks.values()):
        if len(members) > 2:
            raise ValueError("the 2-SAT oracle needs blocks of at most two facts")
        if len(members) == 1:
            literal[members[0]] = None
        else:
            literal[members[0]] = (number, False)
            literal[members[1]] = (number, True)

    def negated(lit):
        return (lit[0], not lit[1])

    implications = nx.DiGraph()
    for f, g in _matches(query, facts_by_relation):
        a, b = literal[f], literal[g]
        if a is None and b is None:
            return True  # a match every repair keeps
        if a is None or b is None:
            kept = a if b is None else b
            implications.add_edge(kept, negated(kept))  # unit clause: drop it
            continue
        # clause (not a or not b)
        implications.add_edge(a, negated(b))
        implications.add_edge(b, negated(a))
    for component in nx.strongly_connected_components(implications):
        if any(negated(lit) in component for lit in component):
            return True  # no repair avoids every match
    return False


# --------------------------------------------------------------------------- #
# columnar_1e6


def chain_slots(names, n: int):
    """Slot indices of R(i), S(i, i+1), T(i+1) for i < n - 1, by leaf name."""
    slot_of = {name: slot for slot, name in enumerate(names)}
    r = np.fromiter(
        (slot_of[variable_name_of("R", (i,))] for i in range(n - 1)), np.int64, n - 1
    )
    s = np.fromiter(
        (slot_of[variable_name_of("S", (i, i + 1))] for i in range(n - 1)),
        np.int64,
        n - 1,
    )
    t = np.fromiter(
        (slot_of[variable_name_of("T", (i + 1,))] for i in range(n - 1)), np.int64, n - 1
    )
    return r, s, t


def marginals_match(bound, slots, columns) -> bool:
    """Is the bound per-slot marginal vector bitwise the generator's draw?"""
    r, s, t = columns
    expected = np.full(len(bound), np.nan)
    expected[slots[0]] = r[:-1]
    expected[slots[1]] = s
    expected[slots[2]] = t[1:]
    got = np.asarray(bound, dtype=np.float64)
    return got.shape == expected.shape and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64)
    )


def chain_hits(worlds, slots) -> np.ndarray:
    """Per world (row of ``worlds``), does some chain witness survive?"""
    r, s, t = slots
    return (worlds[:, r] & worlds[:, s] & worlds[:, t]).any(axis=1)
