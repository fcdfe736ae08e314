"""Harness tests: scheduling, attacker closure, determinism, trace
round-trips and paired-world alignment."""

import hashlib
from collections import Counter
from dataclasses import replace
from itertools import product
from types import MappingProxyType, SimpleNamespace

import pytest

import utxsim.checks as C
import utxsim.frames as F
import utxsim.harness as H
import utxsim.roles as R
import utxsim.strategies as S
import utxsim.terms as T
from record_pins import assert_pinned
from utxsim.strategies import builtin_strategies


def test_scenario_validation():
    with pytest.raises(H.ScenarioInvalid):
        H.Scenario(protocol="nope").validate()
    with pytest.raises(H.ScenarioInvalid, match="leak_chi 3"):
        H.Scenario(leak_chi=3).validate()
    with pytest.raises(H.ScenarioInvalid):
        H.Scenario(protocol="utxl", terminals=(("onhi", None),)).validate()
    with pytest.raises(H.ScenarioInvalid, match="need a card"):
        H.Scenario(cards=0).validate()


@pytest.mark.parametrize("sessions", [0, 1])
def test_scenario_without_a_terminal_is_invalid(sessions):
    """validate refuses a scenario with no terminal, instead of dividing by
    zero as it lays the sessions out, or, with no session, leaving the
    attacker's terminal probes to fail mid-run."""
    with pytest.raises(H.ScenarioInvalid, match="needs a terminal"):
        H.Scenario(terminals=(), sessions=sessions).validate()
    with pytest.raises(H.ScenarioInvalid, match="needs a terminal"):
        H.run_scenario(H.Scenario(terminals=(), sessions=sessions,
                                  strategy="harvest"))


@pytest.mark.parametrize("mode", ["onhi", "offhi", "lo"])
def test_honest_scenario_ends_authorized(mode):
    tr = H.run_scenario(H.Scenario(terminals=((mode, None),),
                                   strategy="passive"))
    assert not tr.aborts
    auths = [shown for kind, _, shown, _ in tr.records
             if kind == "output" and shown == T.AUTH]
    assert auths
    assert {e.tag for e in tr.events} >= {
        "TComC", "TRunBC", "TComBC", "TAccept", "CRun", "CRunB",
        "BComC", "BRunT", "BComTC"}


def test_wrong_pin_no_auth():
    tr = H.run_scenario(H.Scenario(terminals=(("offhi", None),),
                                   strategy="passive", wrong_pin=(0,)))
    assert "BReject" in {e.tag for e in tr.events}
    assert not [shown for kind, _, shown, _ in tr.records
                if kind == "output" and shown == T.AUTH]


def test_trace_is_deterministic():
    kw = dict(cards=2, sessions=3, strategy="fuzzer", strategy_arg=9, seed=4,
              terminals=(("onhi", None), ("lo", None)))
    assert H.run_scenario(H.Scenario(**kw)).dump() == \
        H.run_scenario(H.Scenario(**kw)).dump()


def test_trace_roundtrip():
    tr = H.run_scenario(H.Scenario(terminals=(("offhi", None),),
                                   strategy="passive"))
    back = H.parse_trace(tr.dump())
    assert back.frame == tr.frame
    # dict equality ignores order; the frame's alias order is part of it
    assert list(back.frame.bindings.items()) == \
        list(tr.frame.bindings.items())
    assert back.events == tr.events
    assert back.aborts == tr.aborts
    assert back.secrets == tr.secrets


@pytest.mark.parametrize("seed", range(4))
def test_every_builtin_trace_round_trips(seed):
    """A dump parses back to its own text and its run's scenario, in both
    worlds, and that scenario re-runs to the same dump."""
    for (name, sc), world in product(C.SCENARIOS.items(), H.WORLDS):
        sc = replace(sc, seed=seed, world=world)
        text = H.run_scenario(sc).dump()
        back = H.parse_trace(text)
        assert back.dump() == text, (name, world)
        assert back.scenario == sc, (name, world)
        assert H.run_scenario(back.scenario).dump() == text, (name, world)


def _dump_lines(runs):
    """One line per (label, scenario) run: the label, world and seed that
    name the run, and the sha256 of its dump."""
    return [f"{label} {sc.world} {sc.seed} "
            f"{hashlib.sha256(H.run_scenario(sc).dump().encode()).hexdigest()}"
            for label, sc in runs]


def _pinned_runs():
    """The built-in scenarios in both worlds, each also under every
    honest-pump program, many-card attacker runs that stress scheduling,
    and mixed_fuzz's seed-1 run at 48 sessions, whose dump test_cli checks
    from its file."""
    builtins = [(name, replace(sc, seed=s, world=w))
                for name, sc in sorted(C.SCENARIOS.items())
                for s in range(4) for w in ("real", "ideal")]
    pumped = [(f"{scen}/{name}", replace(sc, strategy=name, world=w, seed=s))
              for scen, sc in sorted(C.SCENARIOS.items())
              for name, cls in S._CATALOG.items() if issubclass(cls, S.Pump)
              for w in ("real", "ideal") for s in range(3)]
    assert len(pumped) == 612
    strategies = ("passive", "fuzzer", "drop", "replay_bank_request",
                  "replay_card_reply", "reflect")
    terminals = (("onhi", None), ("offhi", None), ("lo", None))
    campaign = [(f"campaign/{s}",
                 H.Scenario(cards=3, sessions=24, terminals=terminals,
                            strategy=s, strategy_arg=3, seed=i, world=w,
                            max_steps=1200))
                for i, s in enumerate(strategies) for w in ("real", "ideal")]
    many = [("mixed_fuzz/48-sessions",
             replace(C.SCENARIOS["mixed_fuzz"], seed=1, sessions=48))]
    return builtins + pumped + campaign + many


def test_pinned_traces():
    """Dumped traces pinned byte for byte, each run by the sha256 of its
    dump in tests/golden/traces.txt."""
    assert_pinned("traces", _dump_lines(_pinned_runs()))


# the SCEN line of a default run's dump
_SCEN = next(H.Trace(H.Scenario()).to_lines())


@pytest.mark.parametrize("header", [
    # the six-field header of older dumps, one per first token: each is
    # refused, for the unknown key that its first token is
    "SCEN protocol=utx world=real",
    "SCEN world=real protocol=utx seed=0 cards=1 sessions=1 strategy=passive",
    "SCEN protocol=zzz world=real seed=0 cards=1 sessions=1 strategy=passive",
])
def test_malformed_scenario_header(header):
    with pytest.raises(H.TraceInvalid) as e:
        H.parse_trace(header + "\n")
    key = header.split()[1]
    assert str(e.value) == \
        f"bad trace line 1 (SCEN): unknown scenario key '{key}'"


@pytest.mark.parametrize("line, message", [
    ("seed x", "bad scenario line 16: 'seed x'"),
    ("strategy", "bad scenario line 16: 'strategy'"),
    ("zzz 1", "unknown scenario key 'zzz'"),
    ("cards -2", "cards -2 is negative"),
    ("sessions -5", "sessions -5 is negative"),
    ("protocol zzz", "unknown protocol zzz"),
    ("world both", "unknown world both"),
    # two rules that the six-field header could not break
    ("terminal xx .", "unknown terminal mode 'xx'"),
    ("protocol utxl", "low-value worlds admit lo terminals only"),
])
def test_trace_header_breaking_a_scenario_rule(line, message):
    """A SCEN line is read and checked as a scenario file: the default
    run's, with a last line that sets a key again or adds a terminal, is
    refused by the one rule that line breaks."""
    with pytest.raises(H.TraceInvalid) as e:
        H.parse_trace(f"{_SCEN}; {line}\n")
    assert str(e.value) == f"bad trace line 1 (SCEN): {message}"


def test_attacker_closure_rejects_secret_recipes():
    runner = H.Runner(H.Scenario(terminals=(("lo", None),), sessions=0))
    runner.apply(H.StartCard(0))
    secret = runner.cards[0].pin
    with pytest.raises(H.StrategyError):
        runner.apply(H.Deliver("C0", secret))
    with pytest.raises(H.StrategyError):
        runner.apply(H.Deliver("C0", T.var("w999")))


def test_same_card_sessions_are_sequential():
    runner = H.Runner(H.Scenario(cards=1, sessions=0))
    runner.apply(H.StartCard(0))
    with pytest.raises(H.StrategyError):
        runner.apply(H.StartCard(0))


def _ended_card(runner):
    """C0, aborted: a handshake, then a month message that is no
    ciphertext."""
    runner.apply(H.StartCard(0))
    runner.apply(H.Deliver("C0", T.smult(T.name("n0", "scalar"), T.gen())))
    runner.apply(H.Deliver("C0", T.gen()))
    assert runner.views["C0"].aborted


@pytest.mark.parametrize("setup, action, message", [
    (None, H.StartCard(2), "no such card"),
    (None, H.StartCard(-1), "no such card"),
    (None, H.StartTerminal(1), "no such terminal config"),
    (_ended_card, H.Deliver("C0", T.gen()), "no live session C0"),
    (lambda r: r.apply(H.StartCard(0)), H.DeliverBank("C0", T.gen()),
     "bank endpoint needs a terminal session"),
], ids=["card-past-count", "card-minus-one", "terminal-config",
        "ended-session", "bank-to-card"])
def test_runner_refuses_an_action_it_cannot_apply(setup, action, message):
    """A move naming no card, no terminal config, an ended session, or a
    card session as a bank endpoint raises StrategyError and leaves no
    record: StartCard(-1) does not wrap to the last card."""
    runner = H.Runner(H.Scenario(cards=2, terminals=(("lo", None),),
                                 sessions=0))
    if setup is not None:
        setup(runner)
    records, views = list(runner.trace.records), dict(runner.views)
    with pytest.raises(H.StrategyError, match=f"^{message}$"):
        runner.apply(action)
    assert runner.trace.records == records and runner.views == views


def test_ideal_world_uses_fresh_card_per_session():
    """Both worlds refuse a card's next session while its latest lives.
    Once that session has ended, the ideal world starts the next one on a
    fresh card, card0.1, and the real world on the same card."""
    for world in ("real", "ideal"):
        runner = H.Runner(H.Scenario(world=world, cards=1, sessions=0))
        runner.apply(H.StartCard(0))
        runner.apply(H.Deliver("C0", T.smult(T.name("n0", "scalar"),
                                             T.gen())))
        with pytest.raises(H.StrategyError, match="mid-session"):
            runner.apply(H.StartCard(0))
        runner.apply(H.Deliver("C0", T.gen()))   # not a ciphertext: abort
        assert runner.views["C0"].aborted
        runner.apply(H.StartCard(0))
        first = runner.states["C0"]
        second = runner.states["C1"]
        if world == "real":
            assert first is second
        else:
            assert first.card_id == "card0.0"
            assert second.card_id == "card0.1"
            assert first.pan != second.pan and first.c != second.c


@pytest.mark.parametrize("protocol", ("utx", "utx_multimonth"))
def test_ideal_card_continues_where_the_last_one_stopped(protocol):
    """A card that has shown month 2 refuses month 0 in its next session.
    The ideal world's next card starts at the month position the card it
    replaces reached, so it refuses too, and the worlds stay aligned."""
    sc = H.Scenario(protocol=protocol, horizon=4, sessions=2,
                    terminals=(("lo", 2), ("lo", 0)), strategy="passive")
    real, ideal = H.run_paired(sc)
    for tr in (real, ideal):
        assert ("C1", "StaleMonth") in tr.aborts


def test_ideal_world_labels_each_card_once():
    """An ideal run's secrecy targets name each card once: card{i}.0 for
    every card index i, started or not, and card{i}.{n} for the n-th later
    session of i, each with its pin, mk and c."""
    for (name, sc), seed in product(sorted(C.SCENARIOS.items()), range(4)):
        tr = H.run_scenario(replace(sc, seed=seed, world="ideal"))
        labels = [label for label, _ in tr.secrets]
        assert len(labels) == len(set(labels)), (name, seed)
        started = Counter(shown for kind, _, shown, _ in tr.records
                          if kind == "start" and shown.startswith("card"))
        cards = [f"card{i}.{n}" for i in range(sc.cards)
                 for n in range(max(1, started[f"card idx={i}"]))]
        assert sorted(x for x in labels if x.startswith("card")) == sorted(
            f"{card}.{part}" for card in cards for part in ("pin", "mk", "c")
        ), (name, seed)


def test_harvest_exposes_bank_certificate():
    tr = H.run_scenario(H.Scenario(terminals=(("lo", None),), sessions=0,
                                   strategy="harvest"))
    crt = None
    for img in tr.frame.bindings.values():   # find the true certificate value
        if img[0] == T.ENC and img[1][0] == T.TUP:
            crt = img[1]
    assert crt is not None
    assert F.derive(tr.frame, crt) is not None


def test_month_probe_stale_aborts():
    tr = H.run_scenario(H.Scenario(horizon=4, current_month=2,
                                   terminals=(("lo", 0),), sessions=0,
                                   strategy="month_probe"))
    assert ("C0", "StaleMonth") in tr.aborts


def test_cryptogram_replay_hits_uniqueness_check():
    tr = H.run_scenario(H.Scenario(terminals=(("lo", None),),
                                   strategy="replay_bank_request"))
    assert any(reason == "Replay" for _, reason in tr.aborts)
    off = H.run_scenario(H.Scenario(terminals=(("lo", None),),
                                    strategy="replay_bank_request",
                                    replay_check=False))
    assert not any(reason == "Replay" for _, reason in off.aborts)
    assert sum(1 for e in off.events if e.tag == "BComTC") == 2


def test_paired_zero_sessions_trivially_aligned():
    real, ideal = H.run_paired(H.Scenario(sessions=0, strategy="passive"))
    assert list(real.frame.bindings) == list(ideal.frame.bindings)
    assert bool(F.static_equiv(real.frame, ideal.frame))


_SHAPE = [("output", "bulletin", "w0"), ("start", "T0", ""),
          ("output", "T0", "w1"), ("start", "C0", ""), ("output", "C0", "w2")]


@pytest.mark.parametrize("real, ideal, step", [
    (_SHAPE, _SHAPE[:3] + [("start", "C1", "")] + _SHAPE[4:], 3),
    (_SHAPE, [("output", "bulletin", "w9")] + _SHAPE[1:], 0),
    (_SHAPE, _SHAPE[:4], 4),
    (_SHAPE[:2], _SHAPE, 2),
], ids=["differ-at-3", "differ-at-0", "ideal-is-a-prefix",
        "real-is-a-prefix"])
def test_paired_runs_fail_at_the_first_misaligned_record(monkeypatch, real,
                                                         ideal, step):
    """run_paired compares the two worlds' observable shapes: it fails at
    the first record where they differ, or, when one is a proper prefix of
    the other, at the shorter one's length; the paired verdict names that
    step."""
    traces = {"real": real, "ideal": ideal}

    def shaped(sc):
        return SimpleNamespace(observable_shape=lambda: traces[sc.world])

    monkeypatch.setattr(H, "run_scenario", shaped)
    sc = H.Scenario(sessions=0, strategy="passive")
    with pytest.raises(H.AlignmentFailure) as e:
        H.run_paired(sc)
    assert e.value.step == step
    assert C.paired_verdict(sc) == C.Verdict(
        "distinguish", "violated", f"alignment step {step}")


def test_paired_frames_share_alias_domains():
    sc = H.Scenario(cards=1, sessions=2, terminals=(("lo", None),),
                    strategy="probe_cards",
                    replay_check=False)
    real, ideal = H.run_paired(sc)
    assert list(real.frame.bindings) == list(ideal.frame.bindings)
    # the ideal world used two distinct cards for the two sessions
    pans = {shown.split("=")[-1] for kind, actor, shown, _ in ideal.records
            if kind == "start" and actor.startswith("C")}
    assert len(pans) == 1          # same scenario card index
    cards = {e.role_id for e in ideal.events if e.tag == "CRun"}
    assert len(cards) == len([e for e in ideal.events if e.tag == "CRun"])


def _two_sessions(name, **kw):
    return H.Scenario(cards=1, sessions=2,
                      terminals=(("lo", None), ("lo", None)), strategy=name,
                      replay_check=False, leak_pin=name == "pin_probe", **kw)


@pytest.mark.parametrize("world", ("real", "ideal"))
@pytest.mark.parametrize("protocol", H.PROTOCOLS)
def test_every_builtin_strategy_runs(protocol, world):
    """No program makes a move the runner refuses: a scripted attack stops
    once the session it addresses has ended (chi_fake_card without a leaked
    key, say, or fake_card_cert_replay against a bdh card)."""
    for name in builtin_strategies():
        tr = H.run_scenario(_two_sessions(name, protocol=protocol,
                                          world=world, seed=1))
        assert tr.records, name


def test_a_script_stops_at_a_session_that_has_ended():
    """A terminal that verifies the month certificate rejects the replayed
    pair, and the replay script makes no move after the abort."""
    tr = H.run_scenario(replace(C.SCENARIOS["fake_card_no_checkv"],
                                terminal_cert_check=True))
    assert tr.records[-1][0] == "abort"
    assert tr.aborts == [("T1", "BadMonthCert")]


# scripted runs that end when a session they address has ended; the pin
# below leaves them out
_STOPPED = {("month_probe", "bdh"), ("chi_fake_card", "utxl"),
            ("chi_fake_card", "bdh"), ("chi_fake_card", "ubdh"),
            ("fake_card_cert_replay", "bdh"),
            ("fake_card_cert_replay", "ubdh")}


def _scripted_runs():
    """Every scripted attack under each protocol, in both worlds, at seeds
    0-1."""
    return [(f"{name}/{p}",
             _two_sessions(name, protocol=p, world=w, seed=seed,
                           leak_chi=1 if name == "chi_fake_card" else None))
            for name, cls in S._CATALOG.items()
            if issubclass(cls, S.Scripted)
            for p in H.PROTOCOLS if (name, p) not in _STOPPED
            for w in ("real", "ideal") for seed in (0, 1)]


def test_scripted_traces_pinned():
    """Dumped traces of the scripted runs pinned byte for byte, each by the
    sha256 of its dump in tests/golden/scripted_traces.txt."""
    runs = _scripted_runs()
    assert_pinned("scripted_traces", _dump_lines(runs))
    assert len(runs) == 96


def test_fuzzer_keeps_agreement_events_well_formed():
    tr = H.run_scenario(H.Scenario(cards=3, sessions=5, strategy="fuzzer",
                                   strategy_arg=2, seed=8,
                                   terminals=(("onhi", None), ("offhi", None),
                                              ("lo", None))))
    from utxsim.roles import EVENT_ARITY
    for e in tr.events:
        assert len(e.args) == EVENT_ARITY[e.tag]


@pytest.mark.parametrize("mode", ["onhi", "offhi", "lo"])
def test_a_started_terminal_is_past_its_first_stage(mode):
    """A terminal takes its first step as it starts, so no live session
    sits at a terminal's first stage, and the fuzzer draws its targets from
    every live session."""
    runner = H.Runner(H.Scenario(terminals=((mode, None),), sessions=0))
    runner.apply(H.StartTerminal(0))
    view = runner.observe().sessions["T0"]
    assert view.alive() and view.stage == "T2"


# -- incremental records -----------------------------------------------------------

_ATTACKERS = ("passive", "fuzzer", "drop", "replay_bank_request",
              "replay_card_reply", "reflect")


def _pending_from_records(runner):
    """The messages in flight, rebuilt from the trace records: the outputs
    of session steps and bank requests, less auth and less the aliases
    delivered with source_alias, each hinted by its sender."""
    views, bindings = runner.views, runner.frame.bindings
    pending, prev = {}, ""
    for kind, actor, _, alias in runner.trace.records:
        if kind == "deliver" and alias:
            pending.pop(alias, None)
        # a session's first output is its challenge, not a message
        elif (kind == "output" and prev != "start"
              and bindings[alias] != T.AUTH):
            if actor.startswith("B"):            # a bank request's reply
                pending[alias] = (actor.partition(".")[2], "self")
            elif actor in views:
                if (views[actor].kind == "terminal"
                        and bindings[alias] == runner.states[actor].req):
                    hint = "bank"
                else:
                    hint = "peer"
                pending[alias] = (actor, hint)
        prev = kind
    return pending


def _assert_records(runner, strategy, obs, action):
    """The runner's and the pump's incremental records equal a scan of the
    views and the trace from scratch; obs is what the strategy has just
    decided on, and action what it decided."""
    assert list(runner.pending.items()) == \
        list(_pending_from_records(runner).items())
    if not isinstance(strategy, S.Pump):
        return
    # the pump has learned every session's rank, its start index; a card
    # session and the terminal of the pair it was started for are peers
    views, rank, peer = obs.sessions, strategy.rank, strategy.peer
    assert rank == {sid: n for n, sid in enumerate(views)}
    assert all(peer[b] == a for a, b in peer.items())
    # each card session's index, from its start record; the strategy's
    # views are the runner's, renamed, in the same start order
    card_idx = {sid: int(shown.partition("card idx=")[2])
                for kind, sid, shown, _ in runner.trace.records
                if kind == "start" and shown.startswith("card")}
    idx_of = {sid: card_idx[old] for sid, old in zip(views, runner.views)
              if views[sid].kind == "card"}
    for sid, idx in idx_of.items():
        assert strategy.schedule[rank[peer[sid]]][0] == idx
    # the pump's latest session of each card is the card's newest one
    assert strategy.latest == {idx: sid for sid, idx in idx_of.items()}
    # the message heap is a heap of pending messages, each keyed by its
    # holder's rank and its output index
    index = {alias: n for n, alias in enumerate(obs.outputs)}
    heap = strategy.messages
    assert all(heap[(n - 1) // 2] <= heap[n] for n in range(1, len(heap)))
    waiting = [e for entries in strategy.waiting.values() for e in entries]
    for key, idx, alias in heap + waiting:
        assert key == rank[obs.pending[alias][0]] and idx == index[alias]
    # a waiting message sits on a terminal that has no card session yet
    for tsid, entries in strategy.waiting.items():
        assert views[tsid].kind == "terminal" and tsid not in peer
        assert all(obs.pending[a] == (tsid, "peer") for _, _, a in entries)
    # every pending message the pump has looked up (the outputs before
    # n_outputs), but the one it routes now, is on the heap, is waiting, or
    # has no route
    queued = {alias for _, _, alias in heap + waiting}
    routed = getattr(action, "source_alias", "")
    for alias in list(obs.outputs)[:strategy.n_outputs]:
        if alias in obs.pending and alias not in queued and alias != routed:
            sid, hint = obs.pending[alias]
            assert S.Pump._route_one(strategy, obs, views[sid], alias,
                                     hint) is None
    # each card's queue is the terminals of its unstarted pairs, less a
    # prefix of terminals that died
    for card_idx, queue in strategy.queues.items():
        unstarted = [t for t in views if rank[t] < len(strategy.schedule)
                     and strategy.schedule[rank[t]][0] == card_idx
                     and t not in peer and t != strategy.starting]
        shed = unstarted[:len(unstarted) - len(queue)]
        assert list(queue) == unstarted[len(shed):]
        assert all(not views[t].alive() for t in shed)


class _RenamedSids:
    """A runner as a strategy sees it when every session id is renamed by a
    bijection that tells nothing of the ids the runner mints: in the session
    views and their keys, the holders of pending messages, and the actors
    of outputs."""

    def __init__(self, runner):
        self.runner = runner
        self.new, self.old = {}, {}

    def _rename(self, sid):
        if sid not in self.new:
            name = f"s{len(self.new) * 7919 % 65521:x}!"
            self.new[sid], self.old[name] = name, sid
        return self.new[sid]

    def observe(self):
        obs = self.runner.observe()
        sessions = {self._rename(sid): v._replace(sid=self._rename(sid))
                    for sid, v in obs.sessions.items()}
        outputs = {alias: actor if actor == "bulletin"
                   or actor.startswith("opin") else self._rename(actor)
                   for alias, actor in obs.outputs.items()}
        pending = {alias: (self.new[sid], hint)
                   for alias, (sid, hint) in obs.pending.items()}
        return H.Obs(*map(MappingProxyType, (sessions, outputs, pending)))

    def apply(self, action):
        if isinstance(action, H.Deliver):
            action = action._replace(sid=self.old[action.sid])
        elif isinstance(action, H.DeliverBank):
            action = action._replace(
                terminal_sid=self.old[action.terminal_sid])
        self.runner.apply(action)


def _run_checking_records(sc):
    runner = H.Runner(sc)
    renamed = _RenamedSids(runner)
    strategy = H.make_strategy(sc)
    for _ in range(sc.max_steps):
        obs = renamed.observe()
        action = strategy.decide(obs)
        _assert_records(runner, strategy, obs, action)
        if action is None:
            break
        renamed.apply(action)
    return runner.trace


def test_incremental_records_match_a_scan():
    """Each run keeps its records equal to a scan at every step, and its
    trace is the same when the strategy sees every session id renamed: no
    strategy reads a session's start order from its id."""
    runs = [replace(sc, seed=s, world=w) for sc in C.SCENARIOS.values()
            for s in range(2) for w in ("real", "ideal")]
    runs += [H.Scenario(cards=3, sessions=24, strategy=name, strategy_arg=3,
                        seed=i, world=w, max_steps=1200,
                        terminals=(("onhi", None), ("offhi", None),
                                   ("lo", None)))
             for i, name in enumerate(_ATTACKERS) for w in ("real", "ideal")]
    for sc in runs:
        assert _run_checking_records(sc).dump() == H.run_scenario(sc).dump()


def test_costs_grow_linearly_in_sessions(monkeypatch):
    """Per session, a run under each attacker and its agreement and secrecy
    checks make about as many routing visits, join consistency tests,
    multiset subtractions and deduction cost lookups at 160 sessions as at
    40: none of them scans every session, event or block."""
    counts = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)

    counted(C, "_agrees")
    counted(F, "_minus")
    counted(F, "_cost")
    counted(S.Pump, "_route_one")
    fired = set()
    for name in _ATTACKERS:
        per_session = {}
        for n in (40, 160):
            counts.clear()
            tr = H.run_scenario(H.Scenario(
                cards=4, sessions=n, terminals=(("lo", None),),
                strategy=name, max_steps=40 * n + 200))
            verdicts = C.check_all_agreements(tr)
            verdicts.append(C.check_secrecy(tr.frame, tr.secrets))
            assert {v.status for v in verdicts} == {"holds"}, name
            per_session[n] = {k: c / n for k, c in counts.items()}
        # compare the counters that fired: a run that drops every message
        # has no commit to match
        assert per_session[160].keys() == per_session[40].keys(), name
        for counter, small in per_session[40].items():
            assert per_session[160][counter] <= 1.5 * small, (name, counter)
        fired |= per_session[40].keys()
    assert fired == {"_agrees", "_minus", "_cost", "_route_one"}


# -- what a checked run reads ---------------------------------------------------

def _attacker_runs():
    """One many-card run per attacker, over mixed terminals."""
    terminals = (("onhi", None), ("offhi", None), ("lo", None))
    return [H.Scenario(cards=3, sessions=12, terminals=terminals[:2 + i % 2],
                       strategy=name, strategy_arg=3, seed=7 + i,
                       max_steps=40 * 12 + 200)
            for i, name in enumerate(_ATTACKERS)]


def test_checking_a_run_renders_no_text(monkeypatch):
    """A run and its checks never render a term as text; a dump does."""
    calls = Counter()
    to_text = T.to_text

    def counted(t):
        calls["to_text"] += 1
        return to_text(t)
    monkeypatch.setattr(T, "to_text", counted)
    for sc in _attacker_runs():
        tr = H.run_scenario(sc)
        verdicts = C.check_all_agreements(tr)
        verdicts.append(C.check_secrecy(tr.frame, tr.secrets))
        assert {v.status for v in verdicts} == {"holds"}, sc.strategy
        assert calls["to_text"] == 0, sc.strategy
    tr.dump()
    assert calls["to_text"] > 0


def test_record_text_survives_a_dump():
    for sc in _attacker_runs():
        tr = H.run_scenario(sc)
        back = H.parse_trace(tr.dump())
        # a run's record shows a term or text; a parsed one shows its text
        assert [(kind, actor,
                 shown if isinstance(shown, str) else T.to_text(shown), alias)
                for kind, actor, shown, alias in tr.records] == back.records


def test_views_and_actions_are_immutable():
    runner = H.Runner(H.Scenario())
    runner.apply(H.StartTerminal(0))
    runner.apply(H.StartCard(0))
    views = runner.observe().sessions
    assert set(views) == {"T0", "C0"}
    for view in views.values():
        with pytest.raises(AttributeError):
            view.stage = "done"
    for action in (H.StartCard(0), H.StartTerminal(0),
                   H.Deliver("T0", T.var("w0")),
                   H.DeliverBank("T0", T.var("w0"))):
        with pytest.raises(AttributeError):
            setattr(action, action._fields[0], 1)


def test_apply_dispatches_by_class():
    """Two actions with equal fields compare equal as tuples; apply still
    sends a Deliver to the session and a DeliverBank to the bank, and a
    plain tuple is no action."""
    fields = ("T0", T.var("w0"), "")
    assert H.Deliver(*fields) == H.DeliverBank(*fields) == fields
    actors = {}
    for cls in (H.Deliver, H.DeliverBank):
        runner = H.Runner(H.Scenario())
        runner.apply(H.StartTerminal(0))
        n = len(runner.trace.records)
        runner.apply(cls(*fields))
        actors[cls] = runner.trace.records[n][:2]
        assert runner.n_bank_requests == (cls is H.DeliverBank)
    assert actors == {H.Deliver: ("deliver", "T0"),
                      H.DeliverBank: ("deliver", "B0.T0")}
    with pytest.raises(H.StrategyError, match="unknown action"):
        runner.apply(("C0", T.var("w0"), ""))


def test_runner_binds_variable_free_images():
    """recipe_value checks only a recipe's aliases, which is enough because
    every image a Runner binds is variable-free."""
    for sc in _attacker_runs():
        for world in ("real", "ideal"):
            tr = H.run_scenario(replace(sc, world=world))
            assert tr.frame.bindings
            assert not any(T.free_vars(img)
                           for img in tr.frame.bindings.values())


def test_role_steps_see_and_give_normal_forms(monkeypatch):
    """Every value the runner delivers to a role step, every output a step
    gives, and every image the run's frame binds is a normal form: the roles
    take their input as given, build their terms with T.norm_root, and
    Frame.bind stores them as given; a forward's value is its binding."""
    seen = Counter()

    def normal(t, what):
        assert T.normalize(t) == t, f"{what} {T.to_text(t)}"

    def checked(name, inner, arg):
        def step(*args, **kw):
            if args[arg] is not None:
                normal(args[arg], f"{name} input")
                seen[name] += 1
            res = inner(*args, **kw)
            for out in res.outputs:
                normal(out, f"{name} output")
            return res
        return step

    # the incoming message is argument 1 of a card or terminal step and
    # argument 2 of a bank step
    for name, arg in (("card_step", 1), ("terminal_step", 1),
                      ("bank_step", 2)):
        monkeypatch.setattr(R, name, checked(name, getattr(R, name), arg))
    for _, sc in sorted(C.SCENARIOS.items()):
        for strategy in builtin_strategies():
            for world in H.WORLDS:
                for seed in range(3):
                    tr = H.run_scenario(replace(sc, strategy=strategy,
                                                world=world, seed=seed))
                    for alias, img in tr.frame.bindings.items():
                        normal(img, f"binding {alias}")
    assert all(seen[name] for name in ("card_step", "terminal_step",
                                       "bank_step")), seen


# the pins of this module: tests/golden/<name>.txt holds the lines of each
PINS = {"traces": lambda: _dump_lines(_pinned_runs()),
        "scripted_traces": lambda: _dump_lines(_scripted_runs())}
