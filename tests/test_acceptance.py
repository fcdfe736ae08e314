"""Acceptance gate: one test per exit criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Tolerances and runtime budgets are asserted here, not calibrated elsewhere.
"""

import random
import time

import pytest

import test_terms
from record_pins import assert_pinned

import utxsim.checks as C
import utxsim.concrete as K
import utxsim.harness as H
import utxsim.roles as R
import utxsim.setup_phase as S
import utxsim.terms as T
from utxsim.concrete import random_term


def accept(num, name, cond, detail=""):
    status = "pass" if cond else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert cond, f"criterion {num} ({name}) failed {detail}"


# -- 1: equational engine -------------------------------------------------------

def test_criterion_1_equational_engine():
    t0 = time.monotonic()
    rng = random.Random("accept1")
    pool = test_terms.NAME_POOL
    for i in range(10_000):
        t = random_term(rng, rng.randrange(1, 9), pool)
        n = T.normalize(t)
        assert T.normalize(n) == n
        assert test_terms.rewrite_random_order(t, rng) == n
    fresh = T.FreshNames()
    g = T.gen()
    for i in range(1_000):
        a, c, tt = (fresh.scalar(h) for h in ("a", "c", "t"))
        assert T.equal_mod_E(
            T.h(T.smult(T.mult(a, c), T.smult(tt, g))),
            T.h(T.smult(tt, T.smult(a, T.smult(c, g)))))
        chi = fresh.scalar("x")
        blinded = T.checkv(T.pkv(chi),
                           T.smult(a, T.sigv(chi, T.smult(c, g))))
        assert T.equal_mod_E(blinded, T.smult(T.mult(a, c), g))
    dt = time.monotonic() - t0
    accept(1, "equational-engine", dt < 30,
           f"(10k terms order-invariant, 1k identity triples, {dt:.1f}s)")


# -- 2: honest-run completeness ---------------------------------------------------

EXPECTED_EVENTS = ["CRunB", "CRun", "TComC", "TRunBC", "BComC", "BRunT",
                   "BComTC", "TComBC", "TAccept"]


def test_criterion_2_honest_runs():
    t0 = time.monotonic()
    ok = True
    for mode in ("onhi", "offhi", "lo"):
        for seed in range(20):
            tr = H.run_scenario(H.Scenario(terminals=((mode, None),),
                                           strategy="passive", seed=seed))
            auth = [shown for kind, _, shown, _ in tr.records
                    if kind == "output" and shown == T.AUTH]
            ok &= bool(auth) and not tr.aborts
            ok &= [e.tag for e in tr.events] == EXPECTED_EVENTS
    dt = time.monotonic() - t0
    accept(2, "honest-run-completeness", ok and dt < 10,
           f"(3 modes x 20 seeds, {dt:.1f}s)")


# -- 3 and 4: agreement and secrecy over randomized traces -------------------------

@pytest.fixture(scope="module")
def mixed_traces():
    traces = []
    for k in range(200):
        traces.append(H.run_scenario(H.Scenario(
            cards=3, sessions=6,
            terminals=(("onhi", None), ("offhi", None), ("lo", None)),
            strategy="fuzzer", strategy_arg=k, seed=k)))
    return traces


def test_criterion_3_injective_agreement(mixed_traces):
    t0 = time.monotonic()
    violations = []
    commits = accepts = 0
    for k, tr in enumerate(mixed_traces):
        tags = [e.tag for e in tr.events]
        commits += sum(tags.count(t) for t in ("TComC", "BComTC", "BComC"))
        accepts += tags.count("TAccept")
        for v in C.check_all_agreements(tr):
            if v.status != "holds":
                violations.append((k, v.line()))
    dt = time.monotonic() - t0
    # non-vacuity: the disrupted corpus still exercises the correspondences
    accept(3, "injective-agreement",
           not violations and commits > 500 and accepts > 200 and dt < 120,
           f"(200 traces, {commits} commits, {accepts} accepts, "
           f"{len(violations)} violations, {dt:.1f}s)")


def test_criterion_4_secrecy(mixed_traces):
    t0 = time.monotonic()
    leaks = []
    for k, tr in enumerate(mixed_traces):
        v = C.check_secrecy(tr.frame, tr.secrets)
        if v.status != "holds":
            leaks.append((k, v.witness))
    dt = time.monotonic() - t0
    accept(4, "secrecy", not leaks, f"(200 frames, {dt:.1f}s)")


# -- 5: replay protection -----------------------------------------------------------

def test_criterion_5_replay_protection():
    t0 = time.monotonic()
    rejected = 0
    for seed in range(100):
        tr = H.run_scenario(H.Scenario(terminals=(("lo", None),), seed=seed,
                                       strategy="replay_bank_request"))
        if any(reason == "Replay" for _, reason in tr.aborts):
            rejected += 1
    breaks = 0
    for seed in range(20):
        tr = H.run_scenario(H.Scenario(terminals=(("lo", None),), seed=seed,
                                       strategy="replay_bank_request",
                                       replay_check=False))
        accepted_twice = sum(1 for e in tr.events if e.tag == "BComTC") == 2
        v = C.check_agreement(tr, C.CORRESPONDENCES[2])
        if accepted_twice and v.status == "violated":
            breaks += 1
    dt = time.monotonic() - t0
    accept(5, "replay-protection", rejected == 100 and breaks == 20,
           f"(on: {rejected}/100 rejected; off: {breaks}/20 breaks, {dt:.1f}s)")


# -- 6: negative controls -------------------------------------------------------------

def test_criterion_6_negative_controls():
    t0 = time.monotonic()
    rep = C.run_suite("controls", seed=0)
    by_name = {v.name: (v, exp) for v, exp in rep.lines}
    bdh, _ = by_name["bdh-2-session"]
    ubdh, _ = by_name["ubdh-2-session"]
    dt = time.monotonic() - t0
    conditions = (
        bdh.status == "violated",
        ubdh.status == "bounded-pass",
        by_name["terminal-agrees-card[no-checkv]"][0].status == "violated",
        by_name["terminal-agrees-bank-card[no-checkv]"][0].status == "holds",
        by_name["bank-agrees-terminal-card[no-checkv]"][0].status == "holds",
        by_name["bank-agrees-card[no-checkv]"][0].status == "holds",
        by_name["terminal-agrees-card[chi-leak]"][0].status == "violated",
        by_name["bank-agrees-terminal-card[chi-leak]"][0].status == "holds",
        by_name["bank-agrees-card[chi-leak]"][0].status == "holds",
        rep.ok(),
        dt < 60,
    )
    accept(6, "negative-controls", all(conditions), f"({dt:.1f}s)")


# -- 7: bounded unlinkability experiment ------------------------------------------------

def test_criterion_7_unlinkability_bounded():
    t0 = time.monotonic()
    rep = C.run_suite("unlinkability", seed=0, sessions=3)
    n = len(rep.lines)
    all_pass = all(v.status == "bounded-pass" for v, _ in rep.lines)
    labeled = all("bound=6" in v.witness for v, _ in rep.lines)
    # every verdict, witness and tests= count byte for byte
    assert_pinned("suite_unlinkability", rep.render())
    dt = time.monotonic() - t0
    accept(7, "unlinkability-bounded", n >= 50 and all_pass and labeled
           and dt < 600, f"({n} strategies, {dt:.1f}s)")


# -- 8: month mechanics ---------------------------------------------------------------

def test_criterion_8_month_mechanics():
    t0 = time.monotonic()
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    matrix = True
    for pointer in range(3):
        for asked in range(3):
            card = S.issue_card(auth, fresh, pointer)
            outcome = R._month_decision(card, asked, fresh)
            if asked >= pointer - 1:
                matrix &= outcome is None
                matrix &= card.pointer == max(pointer, asked)
            else:
                matrix &= outcome == "StaleMonth" and card.pointer == pointer
    # stale probe through the attacker-mediated network
    tr = H.run_scenario(H.Scenario(horizon=4, current_month=2,
                                   terminals=(("lo", 0),), sessions=0,
                                   strategy="month_probe"))
    stale = ("C0", "StaleMonth") in tr.aborts
    # sliding-window branches
    card = S.issue_card_multimonth(auth, fresh, (0, 1, 2))
    shifts = (R._month_decision(card, 0, fresh) is None
              and card.window == (0, 1, 2))
    shifts &= (R._month_decision(card, 1, fresh) is None
               and card.window == (0, 1, 2))
    shifts &= (R._month_decision(card, 2, fresh) is None
               and card.window == (1, 2, 3))
    shifts &= R._month_decision(card, 0, fresh) == "StaleMonth"
    shifts &= R._month_decision(card, 3, fresh) is None
    shifts &= card.window == (2, 3, 4)
    shifts &= R._month_decision(card, 9, fresh) == "BadCertificate"
    # paired multi-month worlds stay indistinguishable at the bound
    paired_ok = True
    for name in ("passive", "probe_cards"):
        sc = H.Scenario(protocol="utx_multimonth", cards=1, sessions=2,
                        terminals=(("lo", None),),
                        strategy=name, replay_check=False)
        real, ideal = H.run_paired(sc)
        paired_ok &= C.distinguish(real, ideal).status == "bounded-pass"
    dt = time.monotonic() - t0
    accept(8, "month-mechanics", matrix and stale and shifts and paired_ok,
           f"({dt:.1f}s)")


# -- 9: low-value subsystem -------------------------------------------------------------

def test_criterion_9_low_value():
    t0 = time.monotonic()
    rep = C.run_suite("utxl", seed=0)
    by_name = {v.name: v for v, _ in rep.lines}
    hypothesis_ok = all(
        v.status == "bounded-pass" for name, v in by_name.items()
        if name.startswith("utxl-hypothesis"))
    loss = by_name["utxl-with-hi-probe"].status == "violated"
    dt = time.monotonic() - t0
    accept(9, "low-value-subsystem",
           hypothesis_ok and loss and rep.ok(), f"({dt:.1f}s)")


# -- 10: differential backend -------------------------------------------------------------

def test_criterion_10_differential_backend():
    t0 = time.monotonic()
    rep = K.differential_test(samples=10_000, seed=0)
    dt = time.monotonic() - t0
    accept(10, "differential-backend",
           not rep.soundness_violations and rep.collision_rate < 0.01,
           f"(10k samples, collisions {rep.collision_rate:.4f}, {dt:.1f}s)")
