"""Attacker programs driving the harness.

A strategy sees only public structure (session stages, pending alias ids,
output counts) and yields one action per decision, so the same program runs
identically in the real and ideal worlds as long as observable behaviour
stays aligned. Strategies never branch on message contents, and read each
observation only before returning the action it leads to: an Obs shows the
runner's live records and changes with the next apply. The honest pump
decides in time that does not grow with the run (see Pump).

The catalog covers the honest forwarder, message replays against terminal
and bank, certificate harvesting with a fake card, the fake-terminal
interrogator (which is also the active adversary for the key-establishment
baselines), month probing, leaked-key card forgery, leaked-PIN probing,
reflection, message dropping and a seeded fuzzer. The honest-pump variants
inject through Pump.intercept. The scripted attacks are made of five moves
of Scripted: start a session and learn its sid, handshake, harvest_crt,
fake_terminal and send_tx. A script stops at a delivery to a session that
has ended.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import islice

from . import harness as H
from . import terms as T


# -- honest pump ----------------------------------------------------------------

class Pump:
    """Forwards messages along their natural routes, one action per call.

    Pairs terminal session i with a session of card i mod cards, the
    scenario's round robin (Scenario.schedule); sessions of one physical
    card run back to back. Every scheduled terminal starts before any card,
    in schedule order. The pump learns each sid as the newest in
    obs.sessions after starting it, and records its rank (start index); a
    card session and its pair's terminal are each other's peer, and it is
    its card's latest session.

    The next card session goes to the least pair at the head of an idle
    card's queue of unstarted pairs; a card is idle when it has no session
    or its latest one has ended. The next message routed is the first
    pending one, by its holder's rank and then output order, that has a
    route. Instead of walking every pending message for it, the pump keeps
    the ones it has looked up on one heap (messages) and pops each message a
    visit finds without a route: for good when it is dropped or bound for a
    dead session, which never comes back to life; a terminal's message for
    the card of a pair that has none yet waits until that card session
    starts, and then goes back on the heap. Popping a message that has no
    route therefore changes no decision.
    """

    name = "passive"

    def __init__(self, sc: H.Scenario):
        self.sc = sc
        self.schedule = list(sc.schedule())
        self.rank: dict = {}           # sid -> start index, in start order
        self.peer: dict = {}           # terminal sid <-> its pair's card sid
        self.latest: dict = {}         # card idx -> its latest card session
        self.starting = None           # terminal whose card was just started
        self.dropped: set = set()
        self.queues: dict = {}         # card idx -> its unstarted pairs' terminals
        self.messages: list = []       # heap of (holder's rank, output idx, alias)
        self.waiting: dict = {}        # terminal -> entries waiting for its card
        self.n_outputs = 0             # outputs looked up in obs.pending

    # subclass hooks
    def intercept(self, obs):
        return None

    def decide(self, obs):
        if len(self.rank) < len(obs.sessions):
            self._learn(next(reversed(obs.sessions)))
        return self.intercept(obs) or self._start(obs) or self._route(obs)

    def _learn(self, sid):
        """Records the session that the last action started."""
        n = self.rank[sid] = len(self.rank)
        if n < len(self.schedule):      # the terminal of pair n
            self.queues.setdefault(self.schedule[n][0], deque()).append(sid)
            return
        tsid = self.starting
        self.peer[sid], self.peer[tsid] = tsid, sid
        self.latest[self.schedule[self.rank[tsid]][0]] = sid
        for entry in self.waiting.pop(tsid, ()):
            heapq.heappush(self.messages, entry)

    def _start(self, obs):
        """The first unstarted pair whose card is idle and whose terminal
        lives: the least head of the idle cards' queues, once each has shed
        the pairs whose terminal died."""
        if len(self.rank) < len(self.schedule):
            return H.StartTerminal(self.schedule[len(self.rank)][1])
        best = None
        for card_idx, queue in self.queues.items():
            latest = self.latest.get(card_idx)
            if latest is not None and obs.sessions[latest].alive():
                continue
            while queue and not obs.sessions[queue[0]].alive():
                queue.popleft()
            if queue and (best is None or self.rank[queue[0]] < best[0]):
                best = self.rank[queue[0]], card_idx
        if best is None:
            return None
        self.starting = self.queues[best[1]].popleft()
        return H.StartCard(best[1])

    def _route_one(self, obs, view, alias, hint):
        if (view.sid, alias) in self.dropped:
            return None
        if hint == "bank":
            return H.DeliverBank(view.sid, T.var(alias), source_alias=alias)
        target = (view if hint == "self"
                  else obs.sessions.get(self.peer.get(view.sid)))
        if target is None or not target.alive():
            return None
        return H.Deliver(target.sid, T.var(alias), source_alias=alias)

    def _route(self, obs):
        # every pending message is an output: queue the pending ones among
        # the outputs made since the last call
        end = len(obs.outputs)
        for idx, alias in zip(range(end - 1, self.n_outputs - 1, -1),
                              reversed(obs.outputs)):
            held = obs.pending.get(alias)
            if held is not None:
                heapq.heappush(self.messages, (self.rank[held[0]], idx, alias))
        self.n_outputs = end
        while self.messages:
            entry = heapq.heappop(self.messages)
            sid, hint = obs.pending[entry[2]]
            view = obs.sessions[sid]
            act = self._route_one(obs, view, entry[2], hint)
            if act is not None:
                return act
            # only a terminal lacks a peer: each card session has one from
            # its start
            if hint == "peer" and sid not in self.peer:
                self.waiting.setdefault(sid, []).append(entry)
        return None


class DropSome(Pump):
    """Honest forwarding that silently discards every k-th message."""

    name = "drop"

    def __init__(self, sc):
        super().__init__(sc)
        self.k = max(2, sc.strategy_arg or 3)
        self.seen = 0

    def _route_one(self, obs, view, alias, hint):
        act = super()._route_one(obs, view, alias, hint)
        if act is None:
            return None
        self.seen += 1
        if self.seen % self.k == 0:
            self.dropped.add((view.sid, alias))
            return None
        return act


class ReplayBankRequest(Pump):
    """Forwards honestly, then submits the first bank request a second time."""

    name = "replay_bank_request"

    def __init__(self, sc):
        super().__init__(sc)
        self.first_req = None
        self.replayed = False

    def _route_one(self, obs, view, alias, hint):
        act = super()._route_one(obs, view, alias, hint)
        if isinstance(act, H.DeliverBank) and self.first_req is None:
            self.first_req = (act.terminal_sid, alias)
        return act

    def decide(self, obs):
        act = super().decide(obs)
        if act is None and self.first_req and not self.replayed:
            self.replayed = True
            tsid, alias = self.first_req
            return H.DeliverBank(tsid, T.var(alias))
        return act


class ReplayCardReply(Pump):
    """Re-delivers session 0's blinded-certificate message into the next
    terminal session (stale ciphertext; honest terminals reject it)."""

    name = "replay_card_reply"

    def __init__(self, sc):
        super().__init__(sc)
        self.stash = None
        self.replayed = False

    def _route_one(self, obs, view, alias, hint):
        act = super()._route_one(obs, view, alias, hint)
        # the first card session starts right after the last terminal
        if (act is not None and self.rank[view.sid] == len(self.schedule)
                and self.stash is None and view.stage == "C5"):
            self.stash = alias
        return act

    def intercept(self, obs):
        if not self.replayed and self.stash and len(self.schedule) > 1:
            t1 = obs.sessions[next(islice(self.rank, 1, None))]  # 2nd terminal
            if t1.alive() and t1.stage == "T4":
                self.replayed = True
                return H.Deliver(t1.sid, T.var(self.stash))
        return None


class Reflect(Pump):
    """Answers a card's handshake with another card's blinded key."""

    name = "reflect"

    def __init__(self, sc):
        super().__init__(sc)
        self.z2_seen = None
        self.reflected = False

    def _route_one(self, obs, view, alias, hint):
        act = super()._route_one(obs, view, alias, hint)
        # any visit counts, routed or not; the pump pops only messages it
        # has visited, so the first visit of a card's message still comes at
        # the same step
        if view.kind == "card" and self.z2_seen is None:
            self.z2_seen = alias
        return act

    def intercept(self, obs):
        if not self.reflected and self.z2_seen:
            for v in obs.sessions.values():
                if v.kind == "card" and v.alive() and v.stage == "C1":
                    self.reflected = True
                    return H.Deliver(v.sid, T.var(self.z2_seen))
        return None


class Fuzzer(Pump):
    """Honest pump with a seeded budget of drops, replays and recipe
    injections assembled from frame aliases and the attacker's own names."""

    name = "fuzzer"

    def __init__(self, sc):
        super().__init__(sc)
        self.rng = random.Random(f"fuzz.{sc.seed}.{sc.strategy_arg}")
        self.budget = 4
        self.own = T.FreshNames()

    def _random_recipe(self, obs, depth=2):
        n_aliases = len(obs.outputs)
        choice = self.rng.randrange(5 if n_aliases else 4)
        if depth <= 0 or choice == 0:
            return self.own.data("atk")
        if choice == 1:
            return T.gen()
        if choice == 2:
            return T.tup(self._random_recipe(obs, depth - 1),
                         self._random_recipe(obs, depth - 1))
        if choice == 3:
            return T.enc(self._random_recipe(obs, depth - 1),
                         self._random_recipe(obs, depth - 1))
        return T.var(list(obs.outputs)[self.rng.randrange(n_aliases)])

    def intercept(self, obs):
        if self.budget <= 0 or self.rng.random() > 0.18:
            return None
        live = [v for v in obs.sessions.values() if v.alive()]
        if not live:
            return None
        self.budget -= 1
        target = live[self.rng.randrange(len(live))]
        kind = self.rng.randrange(3)
        if kind == 0 and obs.outputs:
            alias = list(obs.outputs)[self.rng.randrange(len(obs.outputs))]
            return H.Deliver(target.sid, T.var(alias))
        if kind == 1:
            held = [a for a, (sid, _) in obs.pending.items()
                    if sid == target.sid]
            if held:
                self.dropped.add((target.sid, held[0]))
                return None
        return H.Deliver(target.sid, self._random_recipe(obs))


# -- scripted attacks -------------------------------------------------------------

class Scripted:
    """Imperative attack scripts: each subclass's script, a generator made
    of the moves below, yields actions and reads the newest observation
    from self.obs after every yield. A script ends at a delivery to a session that has ended,
    and at the start of a card the scenario does not have."""

    def __init__(self, sc: H.Scenario):
        self.sc = sc
        self.obs = None
        self.own = T.FreshNames()
        self._gen = self.script()

    def decide(self, obs):
        self.obs = obs
        act = next(self._gen, None)
        if (isinstance(act, H.Deliver) and not obs.sessions[act.sid].alive()
                or isinstance(act, H.StartCard)
                and act.card_idx >= self.sc.cards):
            self._gen.close()
            return None
        return act

    # helpers ----------------------------------------------------------

    def outputs_of(self, actor):
        return [alias for alias, a in self.obs.outputs.items() if a == actor]

    def last_output(self, actor):
        outs = self.outputs_of(actor)
        return outs[-1] if outs else None

    # moves: generators that return their result through yield from ----

    def start(self, action):
        """Starts a session; returns the sid the runner gave it."""
        yield action
        return next(reversed(self.obs.sessions))

    def handshake(self, sid, peer_alias=None):
        """Deliver [n]G for a fresh scalar n of ours; returns the session key
        h([n]X), X the image of peer_alias or else of the session's reply."""
        n = self.own.scalar("atkn")
        yield H.Deliver(sid, T.smult(n, T.gen()))
        return T.h(T.smult(n, T.var(peer_alias or self.last_output(sid))))

    def harvest_crt(self):
        """Fake card against an honest terminal: its certificate message
        decrypts under a key we control, by the recipe self.crt_recipe."""
        tid = yield from self.start(H.StartTerminal(0))
        key = yield from self.handshake(tid, self.last_output(tid))
        self.crt_recipe = T.dec(key, T.var(self.last_output(tid)))

    def fake_terminal(self, card_idx):
        """Fake terminal against an honest card: handshake, then the
        harvested certificate. Returns (sid, key); key is None when the card
        finished at the handshake (bdh)."""
        sid = yield from self.start(H.StartCard(card_idx))
        key = yield from self.handshake(sid)
        if self.obs.sessions[sid].done:
            return sid, None
        yield H.Deliver(sid, T.enc(self.crt_recipe, key))
        return sid, key

    def send_tx(self, sid, key, slot=T.BOT):
        """Fresh transaction details and slot in the PIN position, under
        key; returns the alias of the last output of the session."""
        tx = T.tup(self.own.data("atktx"), T.LO)
        yield H.Deliver(sid, T.enc(T.tup(tx, slot), key))
        return self.last_output(sid)


class Harvest(Scripted):
    """Certificate harvesting and nothing else; the knowledge stays in the
    frame for later analysis."""

    name = "harvest"

    def script(self):
        yield from self.harvest_crt()


class ProbeCards(Scripted):
    """Fake terminal interrogating each scheduled card session: handshake
    with our own scalar, replay of a harvested certificate, then transaction
    details. Doubles as the active adversary for the key-establishment
    baselines (which stop early on their own)."""

    name = "probe_cards"
    pin_slot = T.BOT    # term delivered in the PIN position

    def script(self):
        if self.sc.protocol == "utxl":
            self.crt_recipe = T.var(self.outputs_of("bulletin")[-1])
        elif self.sc.protocol != "bdh":
            yield from self.harvest_crt()
        for card_idx, _ in self.sc.schedule():
            sid, key = yield from self.fake_terminal(card_idx)
            if key is None or not self.obs.sessions[sid].alive():
                continue            # the card session has ended
            yield from self.send_tx(sid, key, self.pin_slot)


class PinProbe(ProbeCards):
    """Leaked-PIN tracking probe: interrogates cards with the published PIN
    instead of the empty slot; only contact-capable worlds answer."""

    name = "pin_probe"

    def script(self):
        pins = self.outputs_of("opin0")
        if pins:
            self.pin_slot = T.var(pins[0])
        yield from super().script()


class MonthProbe(Scripted):
    """Presents a chosen month's certificate to a card and watches whether
    the session survives the window check."""

    name = "month_probe"

    def script(self):
        yield from self.harvest_crt()
        yield from self.fake_terminal(0)


class ChiFakeCard(Scripted):
    """With a leaked month signing key the attacker mints a card of its own
    and walks an honest terminal to its commit point."""

    name = "chi_fake_card"

    def script(self):
        chi = T.var(self.outputs_of("bulletin")[-1])   # the leaked key
        c_f = self.own.scalar("atkc")
        a_f = self.own.scalar("atka")
        pk_f = T.smult(c_f, T.gen())
        tid = yield from self.start(H.StartTerminal(0))
        z1 = self.last_output(tid)
        z2 = T.smult(a_f, pk_f)
        yield H.Deliver(tid, z2)
        key = T.h(T.smult(T.mult(a_f, c_f), T.var(z1)))
        pair = T.tup(z2, T.smult(a_f, T.sigv(chi, pk_f)))
        yield H.Deliver(tid, T.enc(pair, key))
        tx = T.proj(1, T.dec(key, T.var(self.last_output(tid))))
        fake = T.enc(T.tup(self.own.data("atkblob"), T.BOT, tx), key)
        yield H.Deliver(tid, fake)
        req = self.last_output(tid)
        yield H.DeliverBank(tid, T.var(req), source_alias=req)


class FakeCardCertReplay(Scripted):
    """Two-phase §fake-card attack: interrogate an honest card as a fake
    terminal, then replay its blinded certificate pair and cryptogram shell
    to a terminal that skips certificate verification."""

    name = "fake_card_cert_replay"

    def script(self):
        yield from self.harvest_crt()
        # phase 1: fake terminal drains an honest card
        cid, k1 = yield from self.fake_terminal(0)
        if k1 is None:
            return                  # the card finished at the handshake
        pair = T.dec(k1, T.var(self.last_output(cid)))
        b_old, bs_old = T.proj(1, pair), T.proj(2, pair)
        eac = yield from self.send_tx(cid, k1)
        opened = T.dec(k1, T.var(eac))
        ehac_old, flag_old = T.proj(1, opened), T.proj(2, opened)
        # phase 2: fake card built from the replayed pair
        tid = yield from self.start(
            H.StartTerminal(1 if len(self.sc.terminals) > 1 else 0))
        kt = yield from self.handshake(tid, self.last_output(tid))
        yield H.Deliver(tid, T.enc(T.tup(b_old, bs_old), kt))
        tx1 = T.proj(1, T.dec(kt, T.var(self.last_output(tid))))
        yield H.Deliver(tid, T.enc(T.tup(ehac_old, flag_old, tx1), kt))
        req = self.last_output(tid)
        yield H.DeliverBank(tid, T.var(req), source_alias=req)


_CATALOG = {
    cls.name: cls
    for cls in (Pump, DropSome, ReplayBankRequest, ReplayCardReply, Reflect,
                Fuzzer, Harvest, ProbeCards, PinProbe, MonthProbe,
                ChiFakeCard, FakeCardCertReplay)
}


def builtin_strategies():
    """Name -> one-line description of every attacker program."""
    return {name: (cls.__doc__ or "").strip().splitlines()[0]
            for name, cls in _CATALOG.items()}

