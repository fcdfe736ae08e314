"""Verdict-layer tests: correspondence matching (with a counting oracle for
injectivity), secrecy, distinguishing, and the suite wiring."""

import functools
import gc
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import utxsim.checks as C
import utxsim.frames as F
import utxsim.harness as H
import utxsim.strategies as S
import utxsim.terms as T
from utxsim.roles import EVENT_ARITY, Event
from record_pins import assert_pinned
from test_harness import _ATTACKERS


def _trace_with(events):
    tr = H.Trace(scenario=H.Scenario())
    tr.events = events
    return tr


def counting_oracle(trace, corr):
    """Independent injectivity check for single-obligation correspondences:
    commits may not outnumber matching runs for any argument vector."""
    assert len(corr.obligations) == 1
    runs: dict = {}
    for e in trace.events:
        if e.tag == corr.obligations[0][0]:
            key = e.args[:len(corr.trigger[1])]
            runs[key] = runs.get(key, 0) + 1
    for e in trace.events:
        if e.tag == corr.trigger[0]:
            key = e.args
            if runs.get(key, 0) <= 0:
                return "violated"
            runs[key] -= 1
    return "holds"


def test_empty_trace_vacuously_holds():
    tr = _trace_with([])
    for v in C.check_all_agreements(tr):
        assert v.status == "holds"


def test_honest_trace_satisfies_all_four():
    tr = H.run_scenario(H.Scenario(terminals=(("onhi", None),),
                                   strategy="passive"))
    for v in C.check_all_agreements(tr):
        assert v.status == "holds", v.line()


def test_agreement_is_interleaving_insensitive():
    tr = H.run_scenario(H.Scenario(cards=2, sessions=2, strategy="passive",
                                   terminals=(("lo", None), ("offhi", None))))
    verdicts = [v.status for v in C.check_all_agreements(tr)]
    rng = random.Random(3)
    for _ in range(5):
        shuffled = list(tr.events)
        rng.shuffle(shuffled)
        tr2 = _trace_with(shuffled)
        assert [v.status for v in C.check_all_agreements(tr2)] == verdicts


def test_missing_run_event_is_reported():
    g = T.normalize(T.gen())
    args6 = (g,) * 6
    tr = _trace_with([Event("TComC", args6, "T0", "T0")])
    v = C.check_agreement(tr, C.CORRESPONDENCES[0])
    assert v.status == "violated"
    assert "TComC" in v.witness


def test_injectivity_two_commits_one_run():
    g = T.normalize(T.gen())
    args6 = (g,) * 6
    events = [Event("CRun", args6, "C0", "card0"),
              Event("TComC", args6, "T0", "T0"),
              Event("TComC", args6, "T1", "T1")]
    tr = _trace_with(events)
    v = C.check_agreement(tr, C.CORRESPONDENCES[0])
    assert v.status == "violated"
    assert counting_oracle(tr, C.CORRESPONDENCES[0]) == "violated"
    # one commit per run is fine
    tr2 = _trace_with(events[:2])
    assert C.check_agreement(tr2, C.CORRESPONDENCES[0]).status == "holds"
    assert counting_oracle(tr2, C.CORRESPONDENCES[0]) == "holds"


def test_replay_without_uniqueness_breaks_bank_injectivity():
    tr = H.run_scenario(H.Scenario(terminals=(("lo", None),),
                                   strategy="replay_bank_request",
                                   replay_check=False))
    v = C.check_agreement(tr, C.CORRESPONDENCES[2])
    assert v.status == "violated"
    # oracle: BComTC commits outnumber TRunBC runs on the replayed request
    commits = {}
    runs = {}
    for e in tr.events:
        if e.tag == "BComTC":
            commits[e.args[0]] = commits.get(e.args[0], 0) + 1
        if e.tag == "TRunBC":
            runs[e.args[0]] = runs.get(e.args[0], 0) + 1
    assert any(commits[k] > runs.get(k, 0) for k in commits)


def test_shared_existentials_across_obligations():
    # BComTC must find one TRunBC and one CRun agreeing on the same tail
    g = T.normalize(T.gen())
    x = T.normalize(T.h(T.gen()))
    tail_a = (g,) * 6
    tail_b = (x,) * 6
    ev = [Event("TRunBC", (x,) + tail_a, "T0", "T0"),
          Event("CRun", tail_b, "C0", "card0"),
          Event("BComTC", (x,), "B0", "bank")]
    v = C.check_agreement(_trace_with(ev), C.CORRESPONDENCES[2])
    assert v.status == "violated"        # tails disagree
    ev[1] = Event("CRun", tail_a, "C0", "card0")
    v = C.check_agreement(_trace_with(ev), C.CORRESPONDENCES[2])
    assert v.status == "holds"


def test_injective_search_backtracks():
    """The first commit's first choice takes the only run the second commit
    can use: the search must undo it and take the first commit's second."""
    r0, r1 = (T.name(f"req{i}", "data") for i in range(2))
    t1, t2 = (tuple(T.name(f"m{i}.{j}", "data") for j in range(6))
              for i in (1, 2))
    ev = [Event("TRunBC", (r0,) + t1, "T0", "T0"),
          Event("TRunBC", (r0,) + t2, "T1", "T1"),
          Event("TRunBC", (r1,) + t1, "T2", "T2"),
          Event("CRun", t1, "C0", "card0"),
          Event("CRun", t2, "C1", "card0"),
          Event("BComTC", (r0,), "B0", "bank"),
          Event("BComTC", (r1,), "B1", "bank")]
    v = C.check_agreement(_trace_with(ev), C.CORRESPONDENCES[2])
    assert v.status == "holds"
    v = C.check_agreement(_trace_with(ev + [ev[-1]]), C.CORRESPONDENCES[2])
    assert v.witness == "no injective matching (commit#7 contended)"


def test_contended_witness_is_the_first_commit_left_without_a_run():
    """Two commits share one run and a third has its own: the witness is
    the second of the two, the first commit that no choice for the ones
    before it leaves a run for, not the last commit."""
    v0, v2 = (tuple(T.name(f"m{i}.{j}", "data") for j in range(6))
              for i in (0, 2))
    ev = [Event("CRun", v0, "C0", "card0"),
          Event("CRun", v2, "C1", "card1"),
          Event("TComC", v0, "T0", "T0"),
          Event("TComC", v0, "T1", "T1"),
          Event("TComC", v2, "T2", "T2")]
    assert C.check_agreement(_trace_with(ev), C.CORRESPONDENCES[0]).line() \
        == ("CHECK terminal-agrees-card violated no injective matching "
            "(commit#3 contended)")


def _commits(n, contended):
    """n TComC commits on distinct message vectors, each with its own CRun;
    when contended, the last commit repeats the vector of the one before."""
    vecs = [tuple(T.name(f"m{i}.{j}", "data") for j in range(6))
            for i in range(n)]
    if contended:
        vecs[-1] = vecs[-2]
    runs = [Event("CRun", v, f"C{i}", f"card{i}")
            for i, v in enumerate(vecs[:n - contended])]
    commits = [Event("TComC", v, f"T{i}", f"T{i}") for i, v in enumerate(vecs)]
    return _trace_with(runs + commits), len(runs)


def test_agreement_checks_long_traces():
    """1,200 commits, more than the default recursion limit: the injective
    search must neither recurse per commit nor change its verdicts."""
    corr = C.CORRESPONDENCES[0]
    tr, _ = _commits(1200, contended=False)
    assert C.check_agreement(tr, corr).line() == \
        "CHECK terminal-agrees-card holds"
    tr, n_runs = _commits(1200, contended=True)
    assert C.check_agreement(tr, corr).line() == (
        "CHECK terminal-agrees-card violated no injective matching "
        f"(commit#{n_runs + 1199} contended)")
    assert counting_oracle(tr, corr) == "violated"


def _unify(args, varnames, binding):
    new = dict(binding)
    for value, vn in zip(args, varnames):
        if vn in new:
            if new[vn] != value:
                return None
        else:
            new[vn] = value
    return new


def _nested_loop_tuples(corr, binding, pools):
    """Reference: every event of each obligation's tag, in event order,
    unified against the variables bound so far."""

    def go(i, bound, chosen):
        if i == len(corr.obligations):
            yield tuple(chosen)
            return
        tag, varnames = corr.obligations[i]
        for idx, ev in pools.get(tag, ()):
            if idx in chosen:
                continue
            nxt = _unify(ev.args, varnames, bound)
            if nxt is not None:
                yield from go(i + 1, nxt, chosen + [idx])

    yield from go(0, binding, [])


def _assert_join_matches_nested_loop(events, correspondences=C.CORRESPONDENCES):
    index = C._EventIndex(events)
    for corr in correspondences:
        joins = C._join_tables(corr, index)
        for _, ev in index.pools.get(corr.trigger[0], ()):
            binding = _unify(ev.args, corr.trigger[1], {})
            assert C._candidate_tuples(ev.args, joins) == \
                list(_nested_loop_tuples(corr, binding, index.pools)), \
                corr.name


def _attacker_scenarios():
    """One many-session run per attacker, over mixed terminals."""
    return [H.Scenario(cards=3, sessions=24, strategy=name, strategy_arg=3,
                       seed=i, max_steps=1200,
                       terminals=(("onhi", None), ("offhi", None),
                                  ("lo", None)))
            for i, name in enumerate(_ATTACKERS)]


@pytest.fixture(scope="module")
def checked_traces():
    """(label, trace): every built-in scenario at seeds 0-3 in both worlds,
    labelled by its name, then the attacker runs, labelled by attacker."""
    traces = [(name, H.run_scenario(replace(sc, seed=s, world=w)))
              for name, sc in C.SCENARIOS.items()
              for s in range(4) for w in ("real", "ideal")]
    traces += [(sc.strategy, H.run_scenario(sc))
               for sc in _attacker_scenarios()]
    return traces


def test_hash_join_matches_nested_loop(checked_traces):
    """The hash-joined candidate tuples, with every correspondence's tables
    taken from one shared index, in order, on the built-in scenarios,
    many-session attacker runs, and duplicated and shuffled events (so that
    buckets hold several events, out of order)."""
    traces = [tr for _, tr in checked_traces]
    rng = random.Random(11)
    for tr in traces:
        _assert_join_matches_nested_loop(tr.events)
    for tr in traces[-len(_ATTACKERS):]:
        events = list(tr.events)
        events += rng.sample(events, len(events) // 3)
        rng.shuffle(events)
        _assert_join_matches_nested_loop(events)


_OBLIGATION_TAGS = {tag for corr in C.CORRESPONDENCES
                    for tag, _ in corr.obligations}


def _with_decoys(events):
    """The events with, before each event of an obligation's tag, one copy
    per argument after its first, hashed there: equal to it at the first
    argument, which every built-in obligation is joined on, and different
    in one other."""
    out = []
    for ev in events:
        if ev.tag in _OBLIGATION_TAGS:
            out += [replace(ev, args=ev.args[:j] + (T.h(ev.args[j]),)
                            + ev.args[j + 1:])
                    for j in range(1, len(ev.args))]
        out.append(ev)
    return out


# an obligation with no bound argument; one keyed on the trigger's; one
# keyed on a variable an earlier obligation binds, which also checks
# another and reuses the first one's tag; and a correspondence with no
# obligation at all
_SYNTHETIC = (
    C.Correspondence("unkeyed-first", ("BComC", ("u",)),
                     (("BRunT", ("x", "w")), ("TAccept", ("u", "y")),
                      ("BRunT", ("y", "x")))),
    C.Correspondence("trigger-only", ("BComC", ("u",)), ()),
)


def test_join_compares_every_bound_argument():
    """A table is keyed on one argument, so a bucket also holds events that
    agree there and differ in another bound argument: the candidate tuples
    still match the nested loop's, on runs with a decoy before each event
    an obligation reads, and on synthetic correspondences over events
    drawn from three names."""
    for name in ("honest_onhi", "mixed_fuzz", "replay_cryptogram_nocheck"):
        for seed in range(2):
            tr = H.run_scenario(replace(C.SCENARIOS[name], seed=seed))
            _assert_join_matches_nested_loop(_with_decoys(tr.events))
    rng = random.Random(5)
    names = [T.name(f"v{i}", "data") for i in range(3)]
    for _ in range(20):
        events = []
        for _ in range(30):
            tag = rng.choice(("BComC", "BRunT", "TAccept"))
            args = tuple(rng.choice(names)
                         for _ in range(EVENT_ARITY[tag]))
            events.append(Event(tag, args, "S", "R"))
        _assert_join_matches_nested_loop(events, _SYNTHETIC)
    with pytest.raises(ValueError):
        C.Correspondence("repeats", ("BComC", ("u",)),
                         (("BRunT", ("x", "x")),))


def test_all_agreements_share_one_index(checked_traces):
    """check_all_agreements, with one event index for the four
    correspondences, gives the verdicts of four one-off check_agreement
    calls, on runs that include the controls that violate one."""
    violated = set()
    for label, tr in checked_traces:
        verdicts = C.check_all_agreements(tr)
        assert verdicts == [C.check_agreement(tr, corr)
                            for corr in C.CORRESPONDENCES], label
        if any(v.status == "violated" for v in verdicts):
            violated.add(label)
    assert {"replay_cryptogram_nocheck", "fake_card_no_checkv",
            "chi_leak_fake_card"} <= violated


def test_checking_leaves_no_cyclic_garbage():
    """Attacker runs, their checks and a paired battery drop nothing that
    only the cycle collector can free: with it off, it then finds none."""
    gc.collect()
    gc.disable()
    try:
        for sc in _attacker_scenarios():
            tr = H.run_scenario(sc)
            C.check_all_agreements(tr)
            C.check_secrecy(tr.frame, tr.secrets)
        C.run_suite("unlinkability", seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_secrecy_targets_are_normal_and_ground():
    """check_secrecy searches each target as given, so every Trace holds
    its targets as normal forms without variables: every built-in scenario
    under every built-in attacker, in both worlds at seeds 0-2, and the
    many-session attacker runs."""
    runs = [replace(sc, strategy=strategy, world=w, seed=s)
            for sc in C.SCENARIOS.values()
            for strategy in S.builtin_strategies()
            for w in ("real", "ideal") for s in range(3)]
    runs += _attacker_scenarios()
    seen = 0
    for sc in runs:
        for label, target in H.run_scenario(sc).secrets:
            assert T.normalize(target) == target, (sc, label)
            assert not T.free_vars(target), (sc, label)
            seen += 1
    assert seen > len(runs)


def test_secrecy_honest_and_leaky():
    tr = H.run_scenario(H.Scenario(terminals=(("onhi", None),),
                                   strategy="passive"))
    assert C.check_secrecy(tr.frame, tr.secrets).status == "holds"
    leaky = H.run_scenario(H.Scenario(protocol="utxl",
                                      terminals=(("lo", None),),
                                      strategy="passive",
                                      leak_pin=True, contact=False))
    v = C.check_secrecy(leaky.frame, leaky.secrets)
    assert v.status == "violated"
    assert ".pin<-?w" in v.witness      # the published alias is the recipe


def test_distinguish_is_symmetric():
    sc = H.Scenario(protocol="bdh", sessions=2, terminals=(("lo", None),),
                    strategy="probe_cards",
                    replay_check=False)
    real, ideal = H.run_paired(sc)
    a = C.distinguish(real, ideal)
    b = C.distinguish(ideal, real)
    assert a.status == b.status == "violated"


def test_distinguish_verdict_witness_replays():
    sc = H.Scenario(protocol="bdh", sessions=2, terminals=(("lo", None),),
                    strategy="probe_cards",
                    replay_check=False)
    real, ideal = H.run_paired(sc)
    verdict = F.static_equiv(real.frame, ideal.frame)
    assert not bool(verdict)
    ra = T.apply(real.frame.bindings, verdict.left)
    rb = T.apply(real.frame.bindings, verdict.right)
    ia = T.apply(ideal.frame.bindings, verdict.left)
    ib = T.apply(ideal.frame.bindings, verdict.right)
    assert (ra == rb) != (ia == ib)


def test_distinguish_rechecks_its_witness(monkeypatch):
    """A Distinguished witness is re-evaluated in both frames before it
    becomes a verdict: the equality must hold in the named frame only."""
    import pytest
    sc = H.Scenario(protocol="bdh", sessions=2, terminals=(("lo", None),),
                    strategy="probe_cards",
                    replay_check=False)
    real, ideal = H.run_paired(sc)
    good = F.static_equiv(real.frame, ideal.frame)
    assert C.distinguish(real, ideal).witness == \
        good.describe()
    other = "second" if good.side == "first" else "first"
    w0 = T.var("w0")
    for wrong in (replace(good, side=other), replace(good, right=good.left),
                  replace(good, left=w0, right=T.h(w0))):
        monkeypatch.setattr(F, "static_equiv", lambda *a, v=wrong, **k: v)
        with pytest.raises(C.UncertifiedWitness):
            C.distinguish(real, ideal)


def test_secrecy_rechecks_each_leak(monkeypatch):
    """A leak's recipe is evaluated in the frame before it becomes a
    verdict, and must give the secret: corrupt the cost search that
    check_secrecy runs, and the re-check refuses its recipe."""
    import pytest
    leaky = H.run_scenario(H.Scenario(protocol="utxl",
                                      terminals=(("lo", None),),
                                      strategy="passive",
                                      leak_pin=True, contact=False))
    assert C.check_secrecy(leaky.frame, leaky.secrets).status == "violated"
    derive = F.derive

    def wrong(sat, target):
        got = derive(sat, target)
        return None if got is None else T.h(got)

    monkeypatch.setattr(F, "derive", wrong)
    with pytest.raises(C.UncertifiedWitness):
        C.check_secrecy(leaky.frame, leaky.secrets)


def test_secrecy_searches_through_derive(monkeypatch):
    """check_secrecy looks frames.derive up on the module, once a target,
    so a wrapper set there, as the benchmark's probe sets one, sees every
    search."""
    tr = H.run_scenario(C.SCENARIOS["honest_onhi"])
    calls = []
    derive = F.derive

    def counted(*args):
        calls.append(args[1])
        return derive(*args)

    monkeypatch.setattr(F, "derive", counted)
    assert C.check_secrecy(tr.frame, tr.secrets).status == "holds"
    assert tr.secrets and calls == [t for _, t in tr.secrets]


def test_run_suite_unknown_name():
    import pytest
    with pytest.raises(ValueError):
        C.run_suite("nonsense")


def test_suite_report_rendering():
    rep = C.Report("demo")
    rep.add(C.Verdict("x", "holds"), "holds")
    rep.add(C.Verdict("y", "violated", "w"), "holds")
    lines = list(rep.render())
    assert lines[0] == "CHECK x holds"
    assert "expected holds" in lines[1]
    assert lines[-1] == "SUITE demo FAIL"
    assert not rep.ok()


def test_builtin_scenarios_set_only_what_their_runs_read():
    """Every built-in scenario, and every battery row's with its overrides,
    sets no field that its run does not read or that equals what the
    scenario resolves to without it. No scenario is run."""
    scenarios = dict(C.SCENARIOS)
    for battery, rows in C.suites().items():
        for i, row in enumerate(rows):
            if row.scenario:
                scenarios[f"{battery}[{i}] {row.scenario}"] = replace(
                    C.SCENARIOS[row.scenario], **row.overrides)
    problems = []
    for label, sc in scenarios.items():
        if len(set(sc.terminals)) != len(sc.terminals):
            problems.append(f"{label}: a terminal config is listed twice")
        # a pump starts terminals by the schedule, and no others
        if (issubclass(S._CATALOG[sc.strategy], S.Pump)
                and {t for _, t in sc.schedule()}
                != set(range(len(sc.terminals)))):
            problems.append(f"{label}: a terminal is never scheduled")
    assert problems == []


def test_checkv_defends_replay_checks_terminal_agrees_card():
    """The checkv-defends-replay row's own check, on fake_card_no_checkv at
    seed 0: without the month-certificate check the replayed card's commit
    goes unmatched in terminal-agrees-card (which the other agreements
    miss), and with it the correspondence holds."""
    row = next(r for r in C.suites()["controls"]
               if r.lines[0][1] == "checkv-defends-replay")
    check = row.lines[0][0]
    sc = replace(C.SCENARIOS[row.scenario], seed=0)
    assert not sc.terminal_cert_check
    off = check(H.run_scenario(sc))
    on = check(H.run_scenario(replace(sc, **row.overrides)))
    assert [v.line() for v in off] == [
        "CHECK terminal-agrees-card violated commit#2:TComC@T1 unmatched"]
    assert [v.line() for v in on] == ["CHECK terminal-agrees-card holds"]


def test_distinguish_reports_default_bound():
    real, ideal = H.run_paired(H.Scenario(sessions=3))
    verdict = C.distinguish(real, ideal)
    assert verdict.line() == \
        "CHECK distinguish bounded-pass bound=6 tests=35630"


# Rendered reports of the batteries at seed 0, each pinned as
# tests/golden/suite_<battery>.txt. A change to the search that only makes
# it faster must leave every verdict, witness and tests= count
# byte-identical.
def _suite_lines(name, sessions=3):
    return list(C.run_suite(name, seed=0, sessions=sessions).render())


def test_suite_verdicts_pinned():
    for name in ("security", "controls", "multimonth", "utxl"):
        assert_pinned(f"suite_{name}", _suite_lines(name))


def test_unlinkability_at_eight_sessions_pinned():
    """The unlinkability battery at eight sessions an experiment, whose
    frames hold more blinded points than at three: every verdict line,
    witness and tests= count byte for byte."""
    lines = _suite_lines("unlinkability", sessions=8)
    assert_pinned("suite_unlinkability_8", lines)
    assert len(lines) == 51 and lines[-1] == "SUITE unlinkability pass"


def _real_runs(rows):
    """Each battery row at seeds 0-2: the row, the seed, its scenario and
    the trace of its real run."""
    for row, seed in product(rows, range(3)):
        sc = replace(C.SCENARIOS[row.scenario], seed=seed + row.seed_offset,
                     **row.overrides)
        yield row, seed, sc, H.run_scenario(replace(sc, world="real"))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 26, open: a paired run that starts at most one session "
    "of each card index runs the same process in both worlds, so its pass "
    "cannot fail; drop, harvest, month_probe and some fuzzers run so"))
def test_every_paired_row_starts_a_second_card_session():
    """Every paired battery row, at seeds 0-2 and 3 or 8 sessions, starts a
    second session of some card index in its real run: the ideal world
    differs from the real one only from such a session on."""
    vacuous = []
    for sessions in (3, 8):
        for rows in C.suites(sessions).values():
            paired = [r for r in rows if r.paired]
            for row, seed, _, real in _real_runs(paired):
                starts = Counter(
                    shown for kind, _, shown, _ in real.records
                    if kind == "start" and shown.startswith("card idx="))
                if max(starts.values(), default=0) < 2:
                    vacuous.append(f"{row.lines[0][1]} seed={seed} "
                                   f"sessions={sessions}")
    assert not vacuous, (f"{len(vacuous)} paired row runs start no second "
                         f"card session: {', '.join(vacuous)}")


# the honest-pump programs: Pump and its subclasses
_PUMPS = tuple(name for name, cls in S._CATALOG.items()
               if issubclass(cls, S.Pump))


def test_attacker_runs_cover_each_pump_once():
    """The attacker runs of test_harness, in the order their pinned runs
    follow, are the honest-pump programs."""
    assert sorted(_ATTACKERS) == sorted(_PUMPS)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 27, open: a card session left waiting for a message that "
    "never comes lives for ever, and its card starts no later session; "
    "drop, replay_card_reply and many fuzzers end so"))
def test_every_pump_row_starts_its_sessions_or_ends_them():
    """Every Pump-family unlinkability row, at seeds 0-2 and 3, 8 or 16
    sessions, starts all its scheduled card sessions in its real run, or
    ends with no card session live (none without an abort or a CRun)."""
    stuck = []
    for sessions in (3, 8, 16):
        pumps = [r for r in C.suites(sessions)["unlinkability"]
                 if r.overrides["strategy"] in _PUMPS]
        for row, seed, sc, real in _real_runs(pumps):
            cards = [sid for kind, sid, shown, _ in real.records
                     if kind == "start" and shown.startswith("card idx=")]
            ended = {sid for sid, _ in real.aborts} | {
                e.session_id for e in real.events if e.tag == "CRun"}
            if len(cards) < sc.sessions and set(cards) - ended:
                stuck.append(f"{row.lines[0][1]} seed={seed} "
                             f"sessions={sessions}")
    assert not stuck, (f"{len(stuck)} Pump-family row runs start fewer card "
                       f"sessions than scheduled and leave one live: "
                       f"{', '.join(stuck)}")


# the pins of this module: tests/golden/<name>.txt holds the lines of each;
# test_acceptance's criterion 7 reads suite_unlinkability
PINS = {
    **{f"suite_{name}": functools.partial(_suite_lines, name)
       for name in ("security", "controls", "multimonth", "utxl",
                    "unlinkability")},
    "suite_unlinkability_8": functools.partial(_suite_lines, "unlinkability",
                                               sessions=8),
}
