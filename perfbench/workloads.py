"""Workload inputs and the rounds a run repeats.

A round is one unit of work, started with a cold term memo:

* ``unlink``: one ``checks.run_suite("unlinkability", seed=b)`` battery,
  50 paired real/ideal experiments.
* ``suites``: the ``security``, ``controls``, ``multimonth`` and ``utxl``
  batteries for seed ``b``, back to back, each with a cold memo as a
  separate ``utxsim suite`` invocation would have.
* ``campaign``: ``CAMPAIGN_ROUND`` drawn many-card, many-session UTX runs,
  each followed by ``check_all_agreements`` and ``check_secrecy``; every row
  is expected to hold. Each run also yields a ``RUN`` line (trace records,
  frame size, abort reasons) so that a change in what the run did shows in
  the gate even when every verdict still holds.

Round seeds ``b`` come from a fixed pool, so that the verdict lines of every
round a run can reach are recorded in ``golden.json``. A run's ``--seed``
only picks and orders rounds from the pool; the program sees the generated
scenarios and nothing else.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from utxsim import checks, harness
from utxsim import terms as T

WORKLOADS = ("unlink", "campaign", "suites")
# Round seeds that ordinary --seed values draw. A run takes the first few
# of its shuffled pool (4-6 campaign or suites rounds, one unlink round).
POOL = range(12)
HELD_OUT_SEED = 7919         # draws only from HELD_OUT_POOL
HELD_OUT_POOL = range(32, 40)
SUITE_NAMES = ("security", "controls", "multimonth", "utxl")

CAMPAIGN_ROUND = 24          # four blocks of six runs
CAMPAIGN_ATTACKERS = ("passive", "fuzzer", "drop", "replay_bank_request",
                      "replay_card_reply", "reflect")
CAMPAIGN_MODES = ("onhi", "offhi", "lo")
MIN_SESSIONS, MAX_SESSIONS = 4, 96


def round_seeds(workload: str, seed: int) -> list:
    pool = list(HELD_OUT_POOL if seed == HELD_OUT_SEED else POOL)
    random.Random(f"{workload}.{seed}").shuffle(pool)
    return pool


def campaign_scenarios(b: int) -> list:
    """One round of runs with the same make-up in every round.

    Sessions are stratified: run i of the round has 4 + floor(93 u^2)
    sessions with u uniform in [i/n, (i+1)/n), so most runs are small and a
    few near 96 sessions dominate the tail. The runs form blocks of six
    consecutive strata; within a block, stratum j gets attacker j and
    (j + block) % 6 + 1 cards, a Latin square, so that which attacker or
    card count lands on the largest runs does not change from round to
    round. Terminal mix, attacker argument and run seed are random.
    """
    rng = random.Random(f"campaign.{b}")
    n = CAMPAIGN_ROUND
    out = []
    for i in range(n):
        block, j = divmod(i, len(CAMPAIGN_ATTACKERS))
        u = (i + rng.random()) / n
        sessions = MIN_SESSIONS + int((MAX_SESSIONS - MIN_SESSIONS + 1) * u * u)
        terminals = tuple((rng.choice(CAMPAIGN_MODES), None)
                          for _ in range(rng.randint(1, 3)))
        out.append(harness.Scenario(
            cards=(j + block) % 6 + 1, sessions=sessions, terminals=terminals,
            strategy=CAMPAIGN_ATTACKERS[j], strategy_arg=rng.randrange(2, 6),
            seed=rng.randrange(2 ** 31), max_steps=40 * sessions + 200))
    rng.shuffle(out)
    return out


def make_inputs(workload: str, seed: int) -> list:
    """(round seed, round input) for every round a run may use, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    seeds = round_seeds(workload, seed)
    if workload == "campaign":
        return [(b, campaign_scenarios(b)) for b in seeds]
    return [(b, b) for b in seeds]


@dataclass
class RoundResult:
    lines: list = field(default_factory=list)   # verdict lines, in order

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def _suite(name: str, seed: int, exps) -> list:
    T.clear_cache()
    report = checks.run_suite(name, seed=seed)
    exps.close()
    return list(report.render())


def _campaign_experiment(sc, exps) -> list:
    try:
        trace = harness.run_scenario(sc)
        verdicts = checks.check_all_agreements(trace)
        verdicts.append(checks.check_secrecy(trace.frame, trace.secrets))
    except Exception as e:       # a raising run is a failed experiment
        exps.fail()
        exps.close()
        return [f"ERROR {type(e).__name__}: {e}"]
    for v in verdicts:
        exps.row(v.status != "holds")
    exps.close()
    shape = (f"RUN records={len(trace.records)} "
             f"bindings={len(trace.frame.bindings)} "
             f"aborts={','.join(sorted(r for _, r in trace.aborts))}")
    return [v.line() for v in verdicts] + [shape]


def run_round(workload: str, payload, exps) -> RoundResult:
    """Run one round; ``exps`` (probe.Experiments) must be installed."""
    res = RoundResult()
    if workload == "unlink":
        res.lines = _suite("unlinkability", payload, exps)
    elif workload == "suites":
        for name in SUITE_NAMES:
            res.lines += _suite(name, payload, exps)
    else:
        T.clear_cache()
        for sc in payload:
            res.lines += _campaign_experiment(sc, exps)
    return res
