"""Attacker-mediated network: scenario execution and trace production.

Every message crosses the attacker, who is also the scheduler: a strategy
program observes public structure only (session kinds, stage labels, alias
identifiers, abort/done flags) and decides to start sessions, forward or
drop held messages, or inject recipes built from the frame. Injections are
validated against the frame, so the attacker is never omniscient.

The runner keeps each fact once, a session's in one record keyed by its
sid: its role state in states (in start order), its public state in views
(a SessionView, which keeps the session's own last stage), a terminal's
card session in wired (the one whose output it was handed, as a plain
forward, at its handshake) and the terminals whose user mistypes the PIN in
mistyping. Each message in flight is only in Runner.pending: alias -> the
session holding it and a hint naming where it goes, in output order. The
hint is "peer" for a card's message to its terminal or a terminal's to its
card, "self" for a bank reply, which goes to the terminal holding it, and
"bank" for a terminal's request. The trace records hold every output;
Runner.outputs indexes each output's alias by its sender, for the
strategies. What the attacker has seen is only in its one Frame, which
grows in place and is the trace's frame: the honest agents' name source
adds every name it mints to its restricted set, and every output binds an
alias in it. The trace keeps each record as one (kind, actor, shown, alias)
tuple, where shown is the term a record shows (an output's bound image, a
delivery's recipe) or its text; its index is its position. Only a dump
renders a term as text, so checking a run renders none.

A delivered value is a normal form, which the roles take as given. A forward
is a bare alias, so its value is the alias's binding, normal as the roles
build it (Frame.bind stores what it is given); any other recipe is checked
against the frame and evaluated.

An observation costs nothing however long the run: the runner builds one
Obs, of read-only views of its own dicts, not copies, and hands the same
one out at every step. Each apply therefore changes what it shows;
run_scenario and the strategies read it only before acting on it.

Worlds: the ideal world is the real one with a fresh card for every
session, the comparison target for unlinkability experiments. Both mint card
i before the first step, card{i} in the real world and card{i}.0 in the
ideal one, and publish its PIN when the scenario leaks PINs. A card index
runs its sessions one after another in both, as on real hardware. When
index i starts its session n > 0, counting from 0, the ideal world replaces
its card with a fresh card{i}.{n}, registered with the bank and issued at
the month position the card it replaces had reached.

Settings: each Scenario field but terminals and strategy_arg is named by
the scenario-file key that sets it. parse_scenario_text reads a scenario
file by one rule typed by the field's default and scenario_lines writes
one; a dump's SCEN line is its scenario's file lines joined by "; ".

Determinism: a (scenario, seed) pair fixes the trace byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import frames, roles, setup_phase
from . import terms as T
from .terms import Term


class ScenarioInvalid(Exception):
    pass


class TraceInvalid(Exception):
    """A trace file line that does not parse; the message names the line."""


class StrategyError(Exception):
    """An attacker program tried an action the model forbids."""


class AlignmentFailure(Exception):
    """Observable behaviour diverged between the paired worlds; reported as
    a distinguishing outcome, with the offending step."""

    def __init__(self, step, detail=""):
        super().__init__(f"worlds diverge at observable step {step}: {detail}")
        self.step = step


PROTOCOLS = ("utx", "utx_multimonth", "utxl", "bdh", "ubdh")
WORLDS = ("real", "ideal")


@dataclass(frozen=True, slots=True)
class Scenario:
    protocol: str = "utx"            # one of PROTOCOLS
    world: str = "real"              # one of WORLDS
    cards: int = 1
    terminals: tuple = (("onhi", None),)
    sessions: int = 1
    strategy: str = "passive"
    strategy_arg: int = 0
    seed: int = 0
    current_month: int = 1
    horizon: int = 3
    max_steps: int = 600
    replay_check: bool = True        # the bank's transaction-uniqueness log
    terminal_cert_check: bool = True  # terminals check the month cert
    leak_chi: Optional[int] = None   # month whose key is published
    leak_pin: bool = False
    contact: bool = True             # utxl: False makes cards contactless-only
    wrong_pin: tuple = ()            # terminal ordinals that mistype the PIN

    def schedule(self):
        """(card index, terminal config index) per session: session i pairs
        card i mod cards with terminal i mod terminals."""
        return tuple((i % self.cards, i % len(self.terminals))
                     for i in range(self.sessions))

    def validate(self):
        if self.protocol not in PROTOCOLS:
            raise ScenarioInvalid(f"unknown protocol {self.protocol}")
        if self.world not in WORLDS:
            raise ScenarioInvalid(f"unknown world {self.world}")
        if self.strategy not in strategies._CATALOG:
            raise ScenarioInvalid(f"unknown strategy {self.strategy!r}")
        for what, count in (("cards", self.cards), ("sessions", self.sessions)):
            if count < 0:
                raise ScenarioInvalid(f"{what} {count} is negative")
        if not self.terminals:
            raise ScenarioInvalid("a scenario needs a terminal; terminals "
                                  "is empty")
        if self.protocol == "utxl" and any(m != "lo" for m, _ in self.terminals):
            raise ScenarioInvalid("low-value worlds admit lo terminals only")
        for mode, _ in self.terminals:
            if mode not in ("onhi", "offhi", "lo"):
                raise ScenarioInvalid(f"unknown terminal mode {mode!r}")
        if self.sessions and not self.cards:
            raise ScenarioInvalid(f"sessions {self.sessions} need a card; "
                                  "cards is 0")
        months = [("current_month", self.current_month),
                  ("leak_chi", self.leak_chi)]
        months += [("terminal month", m) for _, m in self.terminals]
        for what, month in months:
            if month is not None and not 0 <= month < self.horizon:
                raise ScenarioInvalid(
                    f"{what} {month} is not a month of horizon {self.horizon}")
        if self.horizon > setup_phase.HORIZON:
            raise ScenarioInvalid(
                f"horizon {self.horizon} is above {setup_phase.HORIZON}")
        if self.max_steps < 0:
            raise ScenarioInvalid(f"max_steps {self.max_steps} is negative")
        for n in self.wrong_pin:
            if n < 0:
                raise ScenarioInvalid(f"wrong_pin {n} is negative")


RECORD_KINDS = ("start", "deliver", "output", "event", "abort")


@dataclass(slots=True)
class Trace:
    """A run's output. records holds one (kind, actor, shown, alias) tuple
    per record, in order; kind is one of RECORD_KINDS."""
    scenario: Scenario
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    aborts: list = field(default_factory=list)      # (session_id, reason)
    frame: frames.Frame = field(default_factory=frames.Frame)
    secrets: list = field(default_factory=list)     # (label, term) targets

    def observable_shape(self):
        """World-independent skeleton used for paired-run alignment: kinds,
        actors and alias names, never term contents or abort reasons."""
        return [(kind, actor, alias) for kind, actor, _, alias in self.records
                if kind != "event"]

    def to_lines(self):
        yield "SCEN " + "; ".join(scenario_lines(self.scenario))
        yield "REST " + " ".join(sorted(self.frame.restricted))
        for alias, img in self.frame.bindings.items():
            yield f"BIND {alias} {T.to_text(img)}"
        for i, (kind, actor, shown, alias) in enumerate(self.records):
            text = shown if isinstance(shown, str) else T.to_text(shown)
            yield f"REC {i}|{kind}|{actor}|{alias}|{text}"
        for e in self.events:
            args = " ".join(T.to_text(a) for a in e.args)
            yield f"EV {e.tag} {e.session_id} {e.role_id} {args}"
        for sid, reason in self.aborts:
            yield f"ABORT {sid} {reason}"
        for label, t in self.secrets:
            yield f"TARGET {label} {T.to_text(t)}"

    def dump(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


# the scenario-file keys, each a Scenario field, and the defaults that type
# their values; a terminal line sets terminals
_KEYS = {f.name: f.default for f in fields(Scenario)
         if f.name not in ("terminals", "strategy_arg")}


def _value(key: str, words: list):
    """Field key's value, written as words, typed by the field's default: a
    tuple takes any number of integers and every other field one word, on
    or off for a bool, the word itself for a str, else an integer."""
    default = _KEYS[key]
    if isinstance(default, tuple):
        return tuple(int(w) for w in words)
    (word,) = words
    if isinstance(default, bool):
        return {"on": True, "off": False}[word]
    return word if isinstance(default, str) else int(word)


def parse_scenario_text(text: str) -> Scenario:
    """Line-oriented key/value scenario files; see README for the grammar."""
    kw: dict = {}
    terminals = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *words = line.split()
        if key != "terminal" and key not in _KEYS:
            raise ScenarioInvalid(f"unknown scenario key {key!r}")
        # a terminal's month and a strategy's argument are optional
        second = (words.pop() if key in ("terminal", "strategy")
                  and len(words) == 2 else None)
        try:
            if key == "terminal":
                (mode,) = words
                terminals.append(
                    (mode, None if second in (None, ".") else int(second)))
            else:
                kw[key] = _value(key, words)
                if second is not None:
                    kw["strategy_arg"] = int(second)
        except (ValueError, KeyError):
            raise ScenarioInvalid(
                f"bad scenario line {lineno}: {line!r}") from None
    if terminals:
        kw["terminals"] = tuple(terminals)
    return Scenario(**kw)


def scenario_lines(sc: Scenario) -> list:
    """sc as the scenario-file lines that parse_scenario_text reads back
    to it: a line per terminal, then a line per key, the strategy's with
    its argument, and none for a leak_chi of None."""
    lines = [f"terminal {mode} {'.' if month is None else month}"
             for mode, month in sc.terminals]
    for key, default in _KEYS.items():
        value = getattr(sc, key)
        if key == "strategy":
            value = f"{value} {sc.strategy_arg}"
        elif isinstance(default, tuple):
            value = " ".join(map(str, value))
        elif isinstance(default, bool):
            value = "on" if value else "off"
        elif value is None:
            continue
        lines.append(f"{key} {value}".rstrip())
    return lines


def _ground(t: Term) -> Term:
    """t, which must hold no variable: a run's frame, events and targets
    hold none, and derive finds no recipe for a target that holds one, so
    such a TARGET would check as secret whatever the frame."""
    vs = T.free_vars(t)
    if vs:
        raise ValueError(f"variable ?{min(vs)} in a term")
    return t


def parse_trace(text: str) -> Trace:
    """Rebuild the scenario, events, aborts and frame from a dumped trace;
    this is everything the property checkers consume."""
    tr = Trace(scenario=Scenario())
    bindings = tr.frame.bindings
    seen = set()        # the SCEN and REST lines, each at most once
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        head, _, rest = line.partition(" ")
        try:
            if head in seen:
                raise ValueError(f"a second {head} line")
            if head == "SCEN":
                seen.add(head)
                tr.scenario = parse_scenario_text(rest.replace(";", "\n"))
                tr.scenario.validate()
            elif head == "REST":
                seen.add(head)
                tr.frame.restricted = set(rest.split())
            elif head == "BIND":
                alias, _, img = rest.partition(" ")
                if alias in bindings:
                    raise ValueError(f"alias {alias} is bound twice")
                # a frame holds normal forms, as the roles build them
                bindings[alias] = T.normalize(_ground(T.parse(img)))
            elif head == "EV":
                tag, _, rest = rest.partition(" ")
                sid, _, rest = rest.partition(" ")
                role, _, args = rest.partition(" ")
                # the checks compare event arguments as normal forms
                args = tuple(T.normalize(_ground(a))
                             for a in T.parse_all(args))
                tr.events.append(roles.Event(tag, args, sid, role))
            elif head == "ABORT":
                sid, _, reason = rest.partition(" ")
                if not sid or not reason:
                    raise ValueError("want a session id and a reason")
                tr.aborts.append((sid, reason))
            elif head == "TARGET":
                label, _, t = rest.partition(" ")
                # check_secrecy reads a target as a normal form, as the
                # roles build it
                tr.secrets.append((label, T.normalize(_ground(T.parse(t)))))
            elif head == "REC":
                idx, kind, actor, alias, text_ = rest.split("|", 4)
                # a record's index is its position, as the dump writes it
                if idx != str(len(tr.records)):
                    raise ValueError(f"index {idx} is not {len(tr.records)}")
                if kind not in RECORD_KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                tr.records.append((kind, actor, text_, alias))
            else:
                raise ValueError("unknown record")
        except (ValueError, T.MalformedTerm, ScenarioInvalid) as e:
            msg = f"bad trace line {lineno} ({head}): {e}"
            raise TraceInvalid(msg) from None
    return tr


# -- actions an attacker program may take --------------------------------------
# Named tuples, which cost a third of a frozen dataclass to build: a run
# builds one a step. Two actions with equal fields compare equal, so
# Runner.apply tells them apart by class.

class StartCard(NamedTuple):
    card_idx: int


class StartTerminal(NamedTuple):
    cfg_idx: int


class Deliver(NamedTuple):
    sid: str
    recipe: Term
    source_alias: str = ""        # set when forwarding a held output verbatim


class DeliverBank(NamedTuple):
    terminal_sid: str
    recipe: Term
    source_alias: str = ""


# -- live session views ----------------------------------------------------------

class SessionView(NamedTuple):
    """A session's public state, the only record of it; the messages it
    holds are in Obs.pending. The runner replaces the view (a named tuple,
    cheap to build) whenever the session steps, so a finished session keeps
    the stage it ended in even after a later session on the same real-world
    card moves their shared card state on."""
    sid: str
    kind: str
    stage: str
    aborted: bool = False
    done: bool = False

    def alive(self) -> bool:
        return not self.done and not self.aborted


@dataclass(frozen=True, slots=True)
class Obs:
    """What the attacker sees: live read-only views of the runner's
    records, which each Runner.apply changes."""
    sessions: MappingProxyType     # sid -> SessionView, in start order
    outputs: MappingProxyType      # alias -> actor, every output
    pending: MappingProxyType      # alias -> (holding sid, destination),
                                   # the messages in flight in output order;
                                   # the destination is "peer", "self" or
                                   # "bank", see the module docstring


class _SysFresh(T.FreshNames):
    """Name source for honest agents: everything it mints is restricted."""

    def __init__(self, restricted: set):
        super().__init__()
        self._restricted = restricted

    def _mint(self, hint, sort):
        n = super()._mint(hint, sort)
        self._restricted.add(n[1])
        return n


class Runner:
    """One world executing one scenario under one attacker program."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        sc = self.sc = scenario
        self.frame = frames.Frame()
        self.fresh = _SysFresh(self.frame.restricted)
        self.outputs: dict = {}        # alias -> actor, in output order
        self.trace = Trace(scenario=scenario, frame=self.frame)
        self.states: dict = {}         # sid -> role state, in start order
        self.views: dict = {}          # sid -> SessionView
        self.wired: dict = {}          # terminal sid -> card sid it was handed
        self.mistyping: set = set()    # terminal sids whose user mistypes
        self.n_cards_started: dict = {}
        self.pending: dict = {}        # alias -> (holding sid, destination)
        self._obs = Obs(*map(MappingProxyType, (
            self.views, self.outputs, self.pending)))
        self.n_terms = 0
        self.n_bank_requests = 0
        self._log = self.trace.records
        self._build_world()

    # -- construction ------------------------------------------------------

    def _build_world(self):
        sc = self.sc
        self.auth = setup_phase.make_authority(self.fresh, sc.horizon)
        self.cred = setup_phase.make_bank_credential(self.auth, self.fresh)
        self.bank = roles.BankAgent(
            bank_id="bank", b_t=self.cred.b_t,
            replay_check=sc.replay_check)
        first = ".0" if sc.world == "ideal" else ""
        self.cards = [self._mint_card(f"card{i}{first}")
                      for i in range(sc.cards)]
        for key in setup_phase.publish_bulletin(self.auth, sc.current_month):
            self._publish(key, "bulletin")
        if sc.leak_chi is not None:
            self._publish(self.auth.chi[sc.leak_chi], "bulletin")
        if sc.protocol == "utxl":
            # low-value worlds hand the attacker every terminal ingredient
            self._publish(self.cred.crt_by_month[sc.current_month], "bulletin")
        if sc.leak_pin:
            for i, card in enumerate(self.cards):
                self._publish(card.pin, f"opin{i}")

    def _card_position(self, card):
        return card.window if card.window is not None else card.pointer

    def _mint_card(self, card_id: str, position=None) -> roles.CardState:
        """A card at position, else at current_month: for utx_multimonth,
        the window around it."""
        sc = self.sc
        month = sc.current_month
        if sc.protocol == "utx_multimonth":
            issue = setup_phase.issue_card_multimonth
            default = (max(month - 1, 0), month, month + 1)
        else:
            issue, default = setup_phase.issue_card, month
        card = issue(self.auth, self.fresh,
                     default if position is None else position,
                     card_id=card_id, protocol=sc.protocol,
                     contactless_only=sc.protocol == "utxl" and not sc.contact)
        self.bank.register_card(card)
        for label, t in (("pin", card.pin), ("mk", card.mk), ("c", card.c)):
            self.trace.secrets.append((f"{card.card_id}.{label}", t))
        return card

    # -- frame and trace plumbing --------------------------------------------

    def _publish(self, t: Term, actor: str) -> str:
        """Bind an output in the frame and log it; every output, the
        bulletin's too, is made here."""
        alias = self.frame.bind(t)
        self.outputs[alias] = actor
        self._log.append(("output", actor, t, alias))
        return alias

    # -- observation ------------------------------------------------------------

    def observe(self) -> Obs:
        """The runner's one observation: live read-only views of its
        records, so each apply changes what it shows."""
        return self._obs

    # -- actions ------------------------------------------------------------------

    def apply(self, action) -> None:
        if isinstance(action, StartCard):
            self._start_card(action.card_idx)
        elif isinstance(action, StartTerminal):
            self._start_terminal(action.cfg_idx)
        elif isinstance(action, Deliver):
            self._deliver(action)
        elif isinstance(action, DeliverBank):
            self._deliver_bank(action)
        else:
            raise StrategyError(f"unknown action {action!r}")

    def _start_card(self, idx: int) -> None:
        if not 0 <= idx < self.sc.cards:
            raise StrategyError("no such card")
        card = self.cards[idx]
        # a card index's sessions are sequential: only its latest may live
        latest = self.views.get(card.session_id)
        if latest is not None and latest.alive():
            raise StrategyError("card already mid-session")
        n = self.n_cards_started.get(idx, 0)
        if n and self.sc.world == "ideal":
            card = self.cards[idx] = self._mint_card(
                f"card{idx}.{n}", self._card_position(card))
        self.n_cards_started[idx] = n + 1
        sid = f"C{len(self.states) - self.n_terms}"
        card.begin_session(sid)
        self.states[sid] = card
        self.views[sid] = SessionView(sid, "card", card.stage)
        self._log.append(("start", sid, f"card idx={idx}", ""))
        self._publish(self.fresh.data("chc"), sid)

    def _start_terminal(self, cfg_idx: int) -> None:
        if not 0 <= cfg_idx < len(self.sc.terminals):
            raise StrategyError("no such terminal config")
        mode, month = self.sc.terminals[cfg_idx]
        month = self.sc.current_month if month is None else month
        sid = f"T{self.n_terms}"
        if self.n_terms in self.sc.wrong_pin:
            self.mistyping.add(sid)
        self.n_terms += 1
        term = setup_phase.provision_terminal(
            self.cred, self.auth, self.fresh, month, mode, terminal_id=sid,
            protocol=self.sc.protocol,
            checks_month_cert=self.sc.terminal_cert_check)
        self.states[sid] = term
        self.views[sid] = SessionView(sid, "terminal", term.stage)
        self._log.append(("start", sid, f"terminal {mode} month={month}", ""))
        self._publish(self.fresh.data("cht"), sid)
        self._absorb(sid, roles.terminal_step(term, None, self.fresh))

    def _value_of(self, recipe: Term) -> Term:
        # a forward is a bare alias: its value is its binding, a normal form
        if recipe[0] == T.VAR and recipe[1] in self.frame.bindings:
            return self.frame.bindings[recipe[1]]
        if not frames.recipe_ok(self.frame, recipe):
            raise StrategyError(f"recipe not constructible: {T.to_text(recipe)}")
        # recipe_ok has checked the aliases that recipe_value would walk again
        return T.apply(self.frame.bindings, recipe)

    def _deliver(self, action: Deliver) -> None:
        sid = action.sid
        view = self.views.get(sid)
        if view is None or not view.alive():
            raise StrategyError(f"no live session {sid}")
        state = self.states[sid]
        value = self._value_of(action.recipe)
        if action.source_alias:
            self.pending.pop(action.source_alias, None)
            if view.stage == "T2":
                origin = self.views.get(self.outputs.get(action.source_alias))
                if origin is not None and origin.kind == "card":
                    self.wired[sid] = origin.sid
        self._log.append(("deliver", sid, action.recipe, action.source_alias))
        if view.kind == "card":
            res = roles.card_step(state, value, self.fresh)
            if res.done and state.k_cb is not None:
                self.trace.secrets.append((f"{sid}.k_cb", state.k_cb))
                self.trace.secrets.append((f"{sid}.ac", state.ac))
        else:
            user_pin = self._user_pin(sid) if state.wants_pin() else None
            res = roles.terminal_step(state, value, self.fresh,
                                      user_pin=user_pin)
        self._absorb(sid, res)

    def _user_pin(self, tsid: str) -> Term:
        """PIN entry models a conscious purchase: the pad reads the real PIN
        only when the handshake reply came from an honest card; a decoy name
        otherwise. Scenario-selected terminals mistype."""
        if tsid in self.mistyping:
            return self.fresh.data("wrongpin")
        if tsid in self.wired:
            return self.states[self.wired[tsid]].pin
        return self.fresh.data("decoypin")

    def _deliver_bank(self, action: DeliverBank) -> None:
        tsid = action.terminal_sid
        view = self.views.get(tsid)
        if view is None or view.kind != "terminal":
            raise StrategyError("bank endpoint needs a terminal session")
        value = self._value_of(action.recipe)
        self.pending.pop(action.source_alias, None)
        sid = f"B{self.n_bank_requests}.{tsid}"
        self.n_bank_requests += 1
        self._log.append(("deliver", sid, action.recipe, action.source_alias))
        res = roles.bank_step(self.bank, self.states[tsid].kbt, value, sid)
        self._record_step(sid, tsid, res, "self")

    def _absorb(self, sid: str, res: roles.StepResult) -> None:
        state = self.states[sid]
        # a terminal's bank request goes to the bank, the rest to its peer
        req = state.req if state.stage == "T9" else None
        self._record_step(sid, sid, res, "peer", req)
        # only a live session steps, so this step's abort/done are its own
        self.views[sid] = SessionView(sid, self.views[sid].kind, state.stage,
                                      bool(res.abort), res.done)

    def _record_step(self, actor: str, holder: str, res: roles.StepResult,
                     hint: str, to_bank=None) -> None:
        """Records a step's events, outputs and abort under actor, and files
        each output but auth as pending at holder, hinted "bank" if it is
        to_bank, else hint."""
        for e in res.events:
            self.trace.events.append(e)
            self._log.append(("event", actor, e.tag, ""))
        for out in res.outputs:
            alias = self._publish(out, actor)
            if out != T.AUTH:        # a verdict signal, not a protocol message
                self.pending[alias] = (
                    holder, "bank" if out == to_bank else hint)
        if res.abort:
            self.trace.aborts.append((actor, res.abort))
            self._log.append(("abort", actor, res.abort, ""))


def run_scenario(sc: Scenario) -> Trace:
    runner = Runner(sc)
    strategy = make_strategy(sc)
    for _ in range(sc.max_steps):
        action = strategy.decide(runner.observe())
        if action is None:
            break
        runner.apply(action)
    return runner.trace


def run_paired(sc: Scenario):
    """Run the same scenario and attacker program in both worlds; returns
    (real, ideal) traces with aligned frames, or raises AlignmentFailure
    (itself a distinguishing signal)."""
    real = run_scenario(replace(sc, world="real"))
    ideal = run_scenario(replace(sc, world="ideal"))
    sa, sb = real.observable_shape(), ideal.observable_shape()
    for i, (x, y) in enumerate(zip(sa, sb)):
        if x != y:
            raise AlignmentFailure(i, f"{x} vs {y}")
    if len(sa) != len(sb):
        raise AlignmentFailure(min(len(sa), len(sb)), "shape length mismatch")
    return real, ideal


def make_strategy(sc: Scenario):
    """The scenario's attacker program, by its strategy name, one of the
    catalog's as Scenario.validate checks; run_scenario looks it up here."""
    return strategies._CATALOG[sc.strategy](sc)


# strategies imports this module, so it is imported once Scenario and the
# actions it builds on are defined
from . import strategies  # noqa: E402

