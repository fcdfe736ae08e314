"""Card, terminal and bank state machines.

Each role is a deterministic step function over an explicit state: feed it
the next incoming message, get back outputs, emitted events, and possibly an
abort. A card's stage is a label, C1, C3, C5 or C7, and a terminal's is T1,
T2, T4, T7, T9 or T11 in every mode; the attacker observes both. The bank
keeps no stage, as it answers each request in one step.

The incoming message must be a normal form, as every value the harness
delivers is, and a step does not normalize it again. Its parts and the
state's keys (as setup_phase issues them) are normal too, so a step builds
every term as a normal form, innermost first and without a normalize walk: a
node that never rewrites at its root (hash, enc, tuple, pk, sig, pkv) over
normal parts is the plain constructor, and one that can (smult, mult, sigv,
and the destructors dec, check, checkv) is rewritten by T.norm_root. Every
output, event argument and secret a step leaves in its state is therefore a
normal form.

A message that does not parse raises _Malformed where it fails, which each
public step turns into its one MalformedInput abort; every other abort names
the check that failed.

The control roles for the key-establishment baselines (linkable blinded DH
and its unlinkable truncation) read the scenario's protocol, "bdh" or
"ubdh", off the card/terminal states; their message framing beyond the
handshake is this engine's reconstruction, see README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import terms as T
from .terms import Term

EVENT_ARITY = {
    "TComC": 6, "TRunBC": 7, "TComBC": 8, "TAccept": 2,
    "CRunB": 1, "CRun": 6,
    "BComC": 1, "BRunT": 2, "BComTC": 1, "BReject": 2,
}


@dataclass(frozen=True, slots=True)
class Event:
    tag: str
    args: tuple
    session_id: str
    role_id: str

    def __post_init__(self):
        arity = EVENT_ARITY.get(self.tag)
        if arity is None:
            raise ValueError(f"unknown event tag {self.tag!r}")
        if len(self.args) != arity:
            raise ValueError(f"event {self.tag} takes {arity} arguments, "
                             f"got {len(self.args)}")


@dataclass(slots=True)
class StepResult:
    outputs: list = field(default_factory=list)
    events: list = field(default_factory=list)
    abort: Optional[str] = None
    done: bool = False


def _fail(reason: str) -> StepResult:
    return StepResult(abort=reason)


class _Malformed(Exception):
    """A message that does not parse; its public step aborts MalformedInput."""


def _items(t: Term, arity: int) -> tuple:
    if t[0] != T.TUP or len(t[1]) != arity:
        raise _Malformed
    return t[1]


def _opened(key: Term, msg: Term, arity: int) -> tuple:
    """The items of msg decrypted under key."""
    return _items(T.norm_root(T.dec(key, msg)), arity)


# -- card --------------------------------------------------------------------

@dataclass(slots=True)
class CardState:
    card_id: str
    c: Term
    pk_c: Term
    pan: Term
    pin: Term
    mk: Term
    certs: dict                      # month index -> blindable signature
    pointer: int
    authority_vk: Term               # generic verification key
    window: Optional[tuple] = None   # sliding month window (multi-month card)
    contactless_only: bool = False
    protocol: str = "utx"            # the scenario's, which bdh and ubdh read
    stage: str = "C1"
    session_id: str = ""
    # per-session values
    a: Optional[Term] = None
    z1: Optional[Term] = None
    z2: Optional[Term] = None
    k_c: Optional[Term] = None
    y_b: Optional[Term] = None
    m_msg: Optional[Term] = None
    emc: Optional[Term] = None
    k_cb: Optional[Term] = None
    ac: Optional[Term] = None

    def begin_session(self, session_id: str) -> None:
        self.stage = "C1"
        self.session_id = session_id
        self.a = self.z1 = self.z2 = self.k_c = self.y_b = None
        self.m_msg = self.emc = self.k_cb = self.ac = None


def card_step(s: CardState, incoming: Term, fresh: T.FreshNames) -> StepResult:
    if s.stage == "C1":
        return _card_handshake(s, incoming, fresh)
    try:
        if s.stage == "C3":
            return _card_show_month(s, incoming, fresh)
        if s.stage == "C5":
            return _card_cryptogram(s, incoming)
    except _Malformed:
        pass
    return _fail("MalformedInput")


def _card_handshake(s: CardState, z1: Term, fresh: T.FreshNames) -> StepResult:
    s.z1 = z1
    s.a = fresh.scalar("a")
    s.z2 = T.norm_root(T.smult(s.a, s.pk_c))
    s.k_c = T.h(T.norm_root(T.smult(T.norm_root(T.mult(s.a, s.c)), z1)))
    if s.protocol == "bdh":
        # linkable baseline: the signed public key leaves the card unblinded
        month = s.window[0] if s.window else s.pointer
        payload = T.enc(T.tup(s.pk_c, s.certs[month]), s.k_c)
        s.stage = "C7"
        return StepResult(outputs=[s.z2, payload], done=True)
    s.stage = "C3"
    return StepResult(outputs=[s.z2])


def _card_show_month(s: CardState, m: Term, fresh: T.FreshNames) -> StepResult:
    mc, mc_s = _opened(s.k_c, m, 2)
    month_term, y_b = _items(mc, 2)
    k = T.month_index(month_term)
    if k is None:
        raise _Malformed
    if T.norm_root(T.check(s.authority_vk, mc_s)) != mc:
        return _fail("BadCertificate")
    outcome = _month_decision(s, k, fresh)
    if outcome is not None:
        return _fail(outcome)
    s.y_b = y_b
    s.m_msg = m
    s.emc = T.enc(T.tup(s.z2, T.norm_root(T.smult(s.a, s.certs[k]))), s.k_c)
    if s.protocol == "ubdh":
        s.stage = "C7"
        return StepResult(outputs=[s.emc], done=True)
    s.stage = "C5"
    return StepResult(outputs=[s.emc])


def _month_decision(s: CardState, k: int, fresh: T.FreshNames):
    """Pointer / window bookkeeping; returns an abort reason or None."""
    if s.window is not None:
        if k not in s.window:
            return "StaleMonth" if k < s.window[0] else "BadCertificate"
        if k == s.window[-1]:
            # answering the newest month invalidates the oldest one
            nxt = k + 1
            if nxt not in s.certs:
                chi = fresh.scalar("chiw")
                s.certs[nxt] = T.norm_root(T.sigv(chi, s.pk_c))
            s.window = s.window[1:] + (nxt,)
        return None
    if k < s.pointer - 1:
        return "StaleMonth"
    if k not in s.certs:
        return "BadCertificate"
    s.pointer = max(s.pointer, k)
    return None


def _card_cryptogram(s: CardState, x: Term) -> StepResult:
    tx, upin = _opened(s.k_c, x, 2)
    if s.contactless_only and upin != T.BOT:
        raise _Malformed
    if upin == T.BOT:
        ac, flag = T.tup(s.a, s.pan, tx), T.BOT
    elif upin == s.pin:
        ac, flag = T.tup(s.a, s.pan, tx, T.OK), T.OK
    else:
        ac, flag = T.tup(s.a, s.pan, tx, T.NO), T.NO
    s.ac = ac
    s.k_cb = T.h(T.norm_root(T.smult(T.norm_root(T.mult(s.a, s.c)), s.y_b)))
    ehac = T.enc(T.tup(ac, T.h(T.tup(ac, s.mk))), s.k_cb)
    eac = T.enc(T.tup(ehac, flag, tx), s.k_c)
    events = [
        Event("CRunB", (ehac,), s.session_id, s.card_id),
        Event("CRun", (s.z1, s.z2, s.m_msg, s.emc, x, eac),
              s.session_id, s.card_id),
    ]
    s.stage = "C7"
    return StepResult(outputs=[eac], events=events, done=True)


# -- terminal ------------------------------------------------------------------

@dataclass(slots=True)
class TerminalState:
    terminal_id: str
    mode: str                        # onhi | offhi | lo
    pk_mm: Term                      # month verification key
    crt: Term                        # bank certificate for its month
    kbt: Term
    checks_month_cert: bool = True
    protocol: str = "utx"            # the scenario's, which bdh and ubdh read
    stage: str = "T1"
    # per-session values
    t: Optional[Term] = None
    tx: Optional[Term] = None
    z1: Optional[Term] = None
    z2: Optional[Term] = None
    k_t: Optional[Term] = None
    upin: Optional[Term] = None
    ec: Optional[Term] = None
    n_msg: Optional[Term] = None
    etx: Optional[Term] = None
    y_msg: Optional[Term] = None
    req: Optional[Term] = None

    def wants_pin(self) -> bool:
        return self.mode in ("onhi", "offhi") and self.stage == "T4"


def terminal_step(s: TerminalState, incoming: Optional[Term],
                  fresh: T.FreshNames, user_pin: Optional[Term] = None) -> StepResult:
    if s.stage == "T1":
        txdata = fresh.data("TXdata")
        s.tx = T.tup(txdata, T.HI if s.mode != "lo" else T.LO)
        s.t = fresh.scalar("t")
        s.z1 = T.norm_root(T.smult(s.t, T.gen()))
        s.stage = "T2"
        return StepResult(outputs=[s.z1])
    if s.stage == "T2":
        s.z2 = incoming
        s.k_t = T.h(T.norm_root(T.smult(s.t, s.z2)))
        s.stage = "T4"
        if s.protocol == "bdh":
            # the linkable baseline sends no certificate; it awaits the
            # card's signed key directly
            return StepResult()
        s.ec = T.enc(s.crt, s.k_t)
        return StepResult(outputs=[s.ec])
    try:
        if s.stage == "T4":
            return _terminal_validity(s, incoming, user_pin)
        if s.stage == "T7":
            return _terminal_forward_cryptogram(s, incoming)
        if s.stage == "T9":
            return _terminal_bank_reply(s, incoming)
    except _Malformed:
        pass
    return _fail("MalformedInput")


def _terminal_validity(s: TerminalState, n: Term, user_pin) -> StepResult:
    b, b_s = _opened(s.k_t, n, 2)
    if s.checks_month_cert:
        if T.norm_root(T.checkv(s.pk_mm, b_s)) != b:
            return _fail("BadMonthCert")
        # binding the pair to the handshake key defeats replayed pairs; the
        # linkable baseline never had this check
        if s.protocol != "bdh" and b != s.z2:
            return _fail("BadMonthCert")
    s.n_msg = n
    if s.protocol in ("bdh", "ubdh"):
        s.stage = "T11"
        return StepResult(done=True)
    if s.mode in ("onhi", "offhi"):
        if user_pin is None:
            raise ValueError("hi-value terminal needs a PIN at this stage")
        s.upin = user_pin
    card_pin_slot = s.upin if s.mode == "offhi" else T.BOT
    s.etx = T.enc(T.tup(s.tx, card_pin_slot), s.k_t)
    s.stage = "T7"
    return StepResult(outputs=[s.etx])


def _terminal_forward_cryptogram(s: TerminalState, y: Term) -> StepResult:
    ehac, pin_v, tx = _opened(s.k_t, y, 3)
    if tx != s.tx:
        return _fail("TxMismatch")
    s.y_msg = y
    events = [Event("TComC", (s.z1, s.z2, s.ec, s.n_msg, s.etx, y),
                    s.terminal_id, s.terminal_id)]
    outputs = []
    if s.mode == "offhi" and pin_v == T.OK:
        outputs.append(T.AUTH)       # offline authorisation before upload
    bank_pin_slot = s.upin if s.mode == "onhi" else T.BOT
    s.req = T.enc(T.tup(s.tx, s.z2, ehac, bank_pin_slot), s.kbt)
    events.append(Event("TRunBC", (s.req, s.z1, s.z2, s.ec, s.n_msg, s.etx, y),
                        s.terminal_id, s.terminal_id))
    outputs.append(s.req)
    s.stage = "T9"
    return StepResult(outputs=outputs, events=events)


def _terminal_bank_reply(s: TerminalState, r: Term) -> StepResult:
    tx, rtype = _opened(s.kbt, r, 2)
    if tx != s.tx:
        return _fail("TxMismatch")
    events = [Event("TComBC",
                    (s.req, r, s.z1, s.z2, s.ec, s.n_msg, s.etx, s.y_msg),
                    s.terminal_id, s.terminal_id)]
    if rtype != T.ACCEPT:
        res = _fail("BankReject")
        res.events = events
        return res
    events.append(Event("TAccept", (s.kbt, s.tx), s.terminal_id,
                        s.terminal_id))
    s.stage = "T11"
    return StepResult(outputs=[T.AUTH], events=events, done=True)


# -- bank ----------------------------------------------------------------------

@dataclass(slots=True)
class BankAgent:
    """The merged acquiring/issuing bank: card database, per-terminal shared
    keys, and the transaction-uniqueness log."""

    bank_id: str
    b_t: Term
    db: dict = field(default_factory=dict)          # PAN term -> (pin, mk, pk_c)
    replay_check: bool = True
    replay_log: set = field(default_factory=set)

    def register_card(self, card: CardState) -> None:
        self.db[card.pan] = (card.pin, card.mk, card.pk_c)


def bank_step(bank: BankAgent, kbt: Term, x: Term, session_id: str) -> StepResult:
    """One full request: the internal database read is not a network step,
    so a single call answers it."""
    try:
        tx_req, z2, ehac, upin = _opened(kbt, x, 4)
        k_bc = T.h(T.norm_root(T.smult(bank.b_t, z2)))
        ac, ac_hmac = _opened(k_bc, ehac, 2)
        if ac[0] != T.TUP or len(ac[1]) not in (3, 4):
            raise _Malformed
        x_a, pan, tx = ac[1][0], ac[1][1], ac[1][2]
        pin_v = ac[1][3] if len(ac[1]) == 4 else None
        entry = bank.db.get(pan)
        if entry is None:
            return _fail("UnknownPAN")
        pin, mk, pk_c = entry
        if T.h(T.tup(ac, mk)) != ac_hmac:
            return _fail("BadMac")
        if tx != tx_req:
            return _fail("TxMismatch")
        if T.norm_root(T.smult(x_a, pk_c)) != z2:
            return _fail("BadBlinding")
        uniq = (pan, tx, x_a)
        if bank.replay_check and uniq in bank.replay_log:
            return _fail("Replay")
        bank.replay_log.add(uniq)
        tx_type = _items(tx_req, 2)[1]
        if tx_type == T.LO:
            verdict = T.ACCEPT
        elif tx_type == T.HI:
            verdict = T.ACCEPT if (pin_v == T.OK or upin == pin) else T.REJECT
        else:
            raise _Malformed
    except _Malformed:
        return _fail("MalformedInput")
    reply = T.enc(T.tup(tx_req, verdict), kbt)
    events = []
    if verdict == T.REJECT:
        events.append(Event("BReject", (kbt, tx_req), session_id, bank.bank_id))
    events += [
        Event("BComC", (ehac,), session_id, bank.bank_id),
        Event("BRunT", (x, reply), session_id, bank.bank_id),
        Event("BComTC", (x,), session_id, bank.bank_id),
    ]
    return StepResult(outputs=[reply], events=events, done=True)
