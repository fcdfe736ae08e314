"""Issuance/provisioning tests and a hand-wired honest session across the
three role machines (no attacker, no harness)."""

import copy

import pytest

import utxsim.frames as F
import utxsim.roles as R
import utxsim.setup_phase as S
import utxsim.terms as T


def world(horizon=3, issue_month=1, mode="onhi", term_month=1, **card_flags):
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=horizon)
    cred = S.make_bank_credential(auth, fresh)
    card = S.issue_card(auth, fresh, issue_month, card_id="c0", **card_flags)
    term = S.provision_terminal(cred, auth, fresh, term_month, mode, "t0")
    bank = R.BankAgent(bank_id="b0", b_t=cred.b_t)
    bank.register_card(card)
    return fresh, auth, cred, card, term, bank


# -- setup ---------------------------------------------------------------------

def test_two_cards_share_no_names():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    c1 = S.issue_card(auth, fresh, 1)
    c2 = S.issue_card(auth, fresh, 1)
    own1 = {c1.c, c1.pan, c1.pin, c1.mk}
    own2 = {c2.c, c2.pan, c2.pin, c2.mk}
    assert not own1 & own2


def test_issued_card_certificates_verify():
    _, auth, _, card, _, _ = world()
    for m, cert in card.certs.items():
        assert T.equal_mod_E(T.checkv(auth.month_vk(m), cert), card.pk_c)


def test_horizon_guard():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    with pytest.raises(S.HorizonExceeded):
        S.issue_card(auth, fresh, 3)


def test_terminal_provisioning():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    cred = S.make_bank_credential(auth, fresh)
    t1 = S.provision_terminal(cred, auth, fresh, 1, "lo")
    t2 = S.provision_terminal(cred, auth, fresh, 1, "lo")
    assert t1.kbt != t2.kbt
    assert T.equal_mod_E(T.check(auth.vk(), T.proj(2, t1.crt)), T.proj(1, t1.crt))
    with pytest.raises(S.NoCertForMonth):
        S.provision_terminal(cred, auth, fresh, 9, "lo")


def test_bulletin_publishes_released_keys_only():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    frame = F.Frame({n[1] for n in (auth.s, *auth.chi.values())})
    keys = S.publish_bulletin(auth, current_month=0)
    assert keys == [auth.vk(), auth.month_vk(0)]  # generic key + month 0
    for key in keys:
        frame.bind(key)
    assert F.derive(frame, auth.month_vk(0)) is not None
    assert F.derive(frame, auth.month_vk(1)) is None


def test_setup_keeps_secrets_out_of_frame():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    cred = S.make_bank_credential(auth, fresh)
    card = S.issue_card(auth, fresh, 1)
    frame = F.Frame({n[1] for n in (auth.s, *auth.chi.values(), cred.b_t,
                                    card.c, card.pan, card.pin, card.mk)})
    for key in S.publish_bulletin(auth, 1):
        frame.bind(key)
    for secret in [card.c, card.pin, card.mk, cred.b_t, auth.s, auth.chi[1]]:
        assert F.derive(frame, secret) is None


def test_setup_issues_normal_forms():
    """Every key and certificate issuance makes is a normal form, the
    privately minted certificates of a multi-month card's months beyond the
    horizon too, so a frame binds them and the roles use them as given."""
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    cred = S.make_bank_credential(auth, fresh)
    card = S.issue_card(auth, fresh, 1)
    window = S.issue_card_multimonth(auth, fresh, (1, 2, 3, 4))
    assert len(window.certs) == 5          # months 3 and 4 minted privately
    issued = [auth.vk(), *map(auth.month_vk, range(3)),
              *cred.crt_by_month.values()]
    for c in (card, window):
        issued += [c.pk_c, *c.certs.values()]
    for t in issued:
        assert T.normalize(t) == t, T.to_text(t)


@pytest.mark.parametrize("mode", ["onhi", "offhi", "lo"])
def test_honest_session_skips_the_term_memo(monkeypatch, mode):
    """Issuance and the three roles build every term as a normal form
    without T.normalize, so an honest session never walks a term."""
    def refused(t):
        raise AssertionError(f"normalize({T.to_text(t)})")
    monkeypatch.setattr(T, "normalize", refused)
    _, aborts, _, card, term, _ = run_honest(mode)
    assert not aborts
    assert card.stage == "C7" and term.stage == "T11"


# -- honest session, hand-wired -------------------------------------------------

def run_honest(mode, wrong_pin=False, term_month=1, issue_month=1,
               horizon=3, bank_override=None, **card_flags):
    fresh, auth, cred, card, term, bank = world(
        horizon=horizon, issue_month=issue_month, mode=mode,
        term_month=term_month, **card_flags)
    if bank_override:
        bank_override(bank)
    card.begin_session("s0")
    events, aborts, outputs = [], [], []

    def step(res):
        events.extend(res.events)
        if res.abort:
            aborts.append(res.abort)
        outputs.extend(res.outputs)
        return res

    r = step(terminal_step_auto(term, None, fresh))              # z1
    r = step(R.card_step(card, r.outputs[0], fresh))             # z2
    r = step(R.terminal_step(term, r.outputs[0], fresh))         # crt
    r = step(R.card_step(card, r.outputs[0], fresh))             # blinded cert
    pin = (T.name("badpin") if wrong_pin else card.pin)
    r = step(R.terminal_step(term, r.outputs[0], fresh, user_pin=pin))
    if r.abort:
        return events, aborts, outputs, card, term, bank
    r = step(R.card_step(card, r.outputs[0], fresh))             # cryptogram
    r = step(R.terminal_step(term, r.outputs[0], fresh))         # bank request
    req = r.outputs[-1]
    r = step(R.bank_step(bank, term.kbt, req, "s0"))
    if r.abort:
        return events, aborts, outputs, card, term, bank
    r = step(R.terminal_step(term, r.outputs[0], fresh))         # auth
    return events, aborts, outputs, card, term, bank


def terminal_step_auto(term, incoming, fresh):
    return R.terminal_step(term, incoming, fresh)


@pytest.mark.parametrize("mode", ["onhi", "offhi", "lo"])
def test_honest_run_completes(mode):
    events, aborts, outputs, card, term, bank = run_honest(mode)
    assert not aborts
    assert outputs.count(T.AUTH) == (2 if mode == "offhi" else 1)
    tags = [e.tag for e in events]
    for tag in ("CRunB", "CRun", "TComC", "TRunBC", "BComC", "BRunT",
                "BComTC", "TComBC", "TAccept"):
        assert tag in tags, tag
    assert card.stage == "C7" and term.stage == "T11"


def test_honest_keys_agree():
    _, aborts, _, card, term, _ = run_honest("lo")
    assert not aborts
    assert card.k_c == term.k_t


def test_wrong_pin_offline_rejected_by_bank():
    events, aborts, outputs, *_ = run_honest("offhi", wrong_pin=True)
    tags = [e.tag for e in events]
    assert "BReject" in tags
    assert T.AUTH not in outputs
    assert aborts == ["BankReject"]


def test_wrong_pin_online_rejected_by_bank():
    events, aborts, outputs, *_ = run_honest("onhi", wrong_pin=True)
    assert "BReject" in [e.tag for e in events]
    assert T.AUTH not in outputs


def test_previous_month_accepted_pointer_untouched():
    events, aborts, _, card, *_ = run_honest("lo", term_month=0, issue_month=1)
    assert not aborts
    assert card.pointer == 1


def test_next_month_advances_pointer():
    events, aborts, _, card, *_ = run_honest("lo", term_month=2, issue_month=1)
    assert not aborts
    assert card.pointer == 2


def test_stale_month_aborts():
    fresh, auth, cred, card, term, bank = world(
        horizon=4, issue_month=3, mode="lo", term_month=1)
    card.begin_session("s0")
    r = R.terminal_step(term, None, fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    r = R.terminal_step(term, r.outputs[0], fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    assert r.abort == "StaleMonth"


def test_month_beyond_the_certificates_aborts_pointer_untouched():
    """A month certificate the authority signed for a month past the
    horizon, which the card holds no credential for, aborts BadCertificate
    and leaves the pointer where it was."""
    fresh, auth, cred, card, term, bank = world(mode="lo")
    card.begin_session("s0")
    r = R.terminal_step(term, None, fresh)
    R.card_step(card, r.outputs[0], fresh)
    mc = T.tup(T.mm(auth.horizon), _JUNK[0])
    r = R.card_step(card, T.enc(T.tup(mc, T.sig(auth.s, mc)), card.k_c),
                    fresh)
    assert (r.abort, r.outputs, card.pointer) == ("BadCertificate", [], 1)


def _driven(n, mode="lo", **card_flags):
    """A world whose honest session has taken its first n deliveries after
    the terminal's start, and the last message sent: the card reaches C3 at
    1, C5 at 3 and C7 at 5, a lo terminal 4 at 2, 7 at 4, 9 at 6 and 11 at
    8."""
    fresh, auth, cred, card, term, bank = world(mode=mode, **card_flags)
    card.begin_session("s0")
    steps = [lambda m: R.card_step(card, m, fresh),
             lambda m: R.terminal_step(term, m, fresh)] * 3 + [
             lambda m: R.bank_step(bank, term.kbt, m, "s0"),
             lambda m: R.terminal_step(term, m, fresh)]
    msg = R.terminal_step(term, None, fresh).outputs[-1]
    for step in steps[:n]:
        msg = step(msg).outputs[-1]
    return fresh, card, term, bank, msg


_JUNK = [T.name(f"junk{i}") for i in range(3)]


def _request(card, term, tx, ac=None, mk=None):
    """A bank request for tx that passes every check up to the replay log:
    the card's own blinding scalar, PAN and MAC key, sealed as it seals.
    ac and mk, when given, replace the authorisation code and the MAC key."""
    ac = T.tup(card.a, card.pan, tx) if ac is None else ac
    mk = card.mk if mk is None else mk
    ehac = T.enc(T.tup(ac, T.h(T.tup(ac, mk))), card.k_cb)
    return T.enc(T.tup(tx, term.z2, ehac, T.BOT), term.kbt)


# (role, deliveries before the step, card flags, the message that fails)
_UNPARSED = {
    "card-month-undecryptable": ("card", 1, {}, lambda c, t: T.gen()),
    "card-month-not-a-pair": (
        "card", 1, {}, lambda c, t: T.enc(T.tup(*_JUNK[:2]), c.k_c)),
    "card-month-no-constant": (
        "card", 1, {},
        lambda c, t: T.enc(T.tup(T.tup(*_JUNK[:2]), _JUNK[2]), c.k_c)),
    "card-request-undecryptable": ("card", 3, {}, lambda c, t: T.gen()),
    "card-contactless-pin-slot": (
        "card", 3, {"contactless_only": True},
        lambda c, t: T.enc(T.tup(t.tx, c.pin), c.k_c)),
    "card-after-C7": ("card", 5, {}, lambda c, t: T.gen()),
    "terminal-validity-not-a-pair": (
        "terminal", 2, {}, lambda c, t: T.enc(_JUNK[0], t.k_t)),
    "terminal-cryptogram-not-a-triple": (
        "terminal", 4, {}, lambda c, t: T.enc(T.tup(*_JUNK[:2]), t.k_t)),
    "terminal-reply-not-a-pair": (
        "terminal", 6, {}, lambda c, t: T.enc(T.tup(*_JUNK), t.kbt)),
    "terminal-after-11": ("terminal", 8, {}, lambda c, t: T.gen()),
    "bank-request-not-a-quadruple": (
        "bank", 6, {}, lambda c, t: T.enc(T.tup(*_JUNK[:2]), t.kbt)),
    "bank-ehac-not-a-pair": (
        "bank", 6, {}, lambda c, t: T.enc(
            T.tup(t.tx, t.z2, T.enc(T.tup(*_JUNK), c.k_cb), T.BOT), t.kbt)),
    "bank-ac-arity": (
        "bank", 6, {}, lambda c, t: T.enc(T.tup(
            t.tx, t.z2, T.enc(T.tup(T.tup(*_JUNK[:2]), _JUNK[2]), c.k_cb),
            T.BOT), t.kbt)),
    "bank-tx-not-a-pair": ("bank", 6, {}, lambda c, t: _request(c, t, _JUNK[0])),
    "bank-unknown-tx-type": (
        "bank", 6, {}, lambda c, t: _request(c, t, T.tup(_JUNK[0], T.OK))),
}


def _step(role, n, card_flags, bad):
    """The step of role at _driven(n) on bad's message, which must leave a
    card's or terminal's state as it was."""
    fresh, card, term, bank, _ = _driven(n, **card_flags)
    msg = bad(card, term)
    if role == "bank":
        return R.bank_step(bank, term.kbt, msg, "s1")
    state, step = ((card, R.card_step) if role == "card"
                   else (term, R.terminal_step))
    before = copy.deepcopy(state)
    r = step(state, msg, fresh)
    assert state == before
    return r


@pytest.mark.parametrize("case", _UNPARSED)
def test_a_message_that_does_not_parse_aborts_its_step(case):
    """Each place a step parses its message: a message that does not parse
    there aborts MalformedInput with no output and no event, and leaves a
    card's or terminal's state as it was."""
    r = _step(*_UNPARSED[case])
    assert (r.abort, r.outputs, r.events) == ("MalformedInput", [], [])


_OTHER_TX = T.tup(_JUNK[0], T.LO)
_OTHER_KEY = T.name("junkkey", "scalar")
_MC = T.tup(T.mm(1), _JUNK[0])

# (role, deliveries before the step, abort, a message that parses and
# fails the check the abort names)
_FAILED = {
    "bank-unknown-pan": ("bank", 6, "UnknownPAN", lambda c, t: _request(
        c, t, t.tx, ac=T.tup(c.a, _JUNK[0], t.tx))),
    "bank-mac-under-another-key": ("bank", 6, "BadMac", lambda c, t:
                                   _request(c, t, t.tx, mk=_JUNK[0])),
    "bank-ac-for-another-tx": ("bank", 6, "TxMismatch", lambda c, t: _request(
        c, t, t.tx, ac=T.tup(c.a, c.pan, _OTHER_TX))),
    "bank-blinding-not-z2": ("bank", 6, "BadBlinding", lambda c, t: _request(
        c, t, t.tx, ac=T.tup(T.name("junka", "scalar"), c.pan, t.tx))),
    "terminal-cryptogram-for-another-tx": (
        "terminal", 4, "TxMismatch",
        lambda c, t: T.enc(T.tup(_JUNK[1], T.BOT, _OTHER_TX), t.k_t)),
    "terminal-reply-for-another-tx": (
        "terminal", 6, "TxMismatch",
        lambda c, t: T.enc(T.tup(_OTHER_TX, T.ACCEPT), t.kbt)),
    "card-month-certificate-under-another-key": (
        "card", 1, "BadCertificate",
        lambda c, t: T.enc(T.tup(_MC, T.sig(_OTHER_KEY, _MC)), c.k_c)),
    # the pair is bound to the handshake key, so only checkv refuses it
    "terminal-month-cert-under-another-key": (
        "terminal", 2, "BadMonthCert", lambda c, t: T.enc(T.tup(
            t.z2, T.norm_root(T.sigv(_OTHER_KEY, t.z2))), t.k_t)),
}


@pytest.mark.parametrize("case", _FAILED)
def test_a_message_that_fails_a_check_aborts_its_step(case):
    """Each check the bank makes of a request, the card and the terminal of
    a month certificate's signature, and the terminal of the transaction a
    cryptogram or a bank reply names: a message that parses and fails it
    aborts with the check's name, no output and no event (a commit event
    least of all), and leaves a card's or terminal's state as it was."""
    role, n, abort, bad = _FAILED[case]
    r = _step(role, n, {}, bad)
    assert (r.abort, r.outputs, r.events) == (abort, [], [])


@pytest.mark.parametrize("mode", ["onhi", "offhi"])
def test_hi_value_terminal_needs_a_pin(mode):
    """A high-value terminal takes the user's PIN with the card's blinded
    certificate, at T4: stepped there with none, it raises."""
    fresh, card, term, bank, msg = _driven(3, mode=mode)
    assert term.stage == "T4"
    with pytest.raises(ValueError, match="needs a PIN"):
        R.terminal_step(term, msg, fresh, user_pin=None)


def test_replay_rejected_by_uniqueness_log():
    fresh, auth, cred, card, term, bank = world(mode="lo")
    card.begin_session("s0")
    r = R.terminal_step(term, None, fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    r = R.terminal_step(term, r.outputs[0], fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    r = R.terminal_step(term, r.outputs[0], fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    r = R.terminal_step(term, r.outputs[0], fresh)
    req = r.outputs[-1]
    first = R.bank_step(bank, term.kbt, req, "s0")
    assert first.abort is None
    second = R.bank_step(bank, term.kbt, req, "s1")
    assert second.abort == "Replay"
    bank.replay_check = False
    third = R.bank_step(bank, term.kbt, req, "s2")
    assert third.abort is None


def test_card_never_leaks_secrets_in_clear():
    # the unblinded public key, PAN, PIN and master key only ever travel
    # inside an encryption body; blinded products are fine in the clear
    events, aborts, outputs, card, term, bank = run_honest("offhi")
    protected = {T.normalize(p) for p in
                 (card.pk_c, card.pan, card.pin, card.mk, card.c)}

    def exposed(t):
        if t in protected:
            return True
        op = t[0]
        if op == T.ENC:
            return exposed(t[2])  # key position only; the body is covered
        if op == T.MULT:
            return False          # products are the blinding mechanism
        if op == T.TUP:
            return any(exposed(k) for k in t[1])
        if op in (T.HASH, T.PK, T.PKV):
            return exposed(t[1])
        if op == T.PROJ:
            return exposed(t[2])
        if op >= T.MULT:
            return exposed(t[1]) or exposed(t[2])
        return False

    for out in outputs:
        assert not exposed(T.normalize(out)), T.to_text(out)


# -- multi-month window ----------------------------------------------------------

def mm_world():
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=3)
    cred = S.make_bank_credential(auth, fresh)
    card = S.issue_card_multimonth(auth, fresh, (0, 1, 2), card_id="c0")
    bank = R.BankAgent(bank_id="b0", b_t=cred.b_t)
    bank.register_card(card)
    return fresh, auth, cred, card, bank


def probe_month(fresh, auth, cred, card, month, sid):
    term = S.provision_terminal(cred, auth, fresh, month, "lo", f"t{sid}")
    card.begin_session(f"s{sid}")
    r = R.terminal_step(term, None, fresh)
    r = R.card_step(card, r.outputs[0], fresh)
    r = R.terminal_step(term, r.outputs[0], fresh)
    return R.card_step(card, r.outputs[0], fresh)


def test_window_card_answers_middle_month_without_shift():
    fresh, auth, cred, card, _ = mm_world()
    r = probe_month(fresh, auth, cred, card, 1, 0)
    assert r.abort is None
    assert card.window == (0, 1, 2)


def test_window_shifts_on_newest_month():
    fresh, auth, cred, card, _ = mm_world()
    r = probe_month(fresh, auth, cred, card, 2, 0)
    assert r.abort is None
    assert card.window == (1, 2, 3)
    r = probe_month(fresh, auth, cred, card, 0, 1)
    assert r.abort == "StaleMonth"


@pytest.mark.parametrize("window", [(1,), (0, 1), (0, 1, 2), (0, 1, 2, 3)])
def test_window_keeps_its_length_as_it_slides(window):
    fresh = T.FreshNames()
    auth = S.make_authority(fresh, horizon=8)
    cred = S.make_bank_credential(auth, fresh)
    card = S.issue_card_multimonth(auth, fresh, window, card_id="c0")
    for shift in (1, 2):
        r = probe_month(fresh, auth, cred, card, card.window[-1], shift)
        assert r.abort is None
        assert card.window == tuple(m + shift for m in window)


def test_event_arity_schema():
    with pytest.raises(ValueError, match="TComC takes 6 arguments, got 1"):
        R.Event("TComC", (T.gen(),), "s", "r")
    with pytest.raises(ValueError, match="unknown event tag ''"):
        R.Event("", (), "s", "r")


def test_blinding_scalar_fresh_per_session():
    fresh, auth, cred, card, term, bank = world(mode="lo")
    card.begin_session("s0")
    r = R.terminal_step(term, None, fresh)
    R.card_step(card, r.outputs[0], fresh)
    first_a = card.a
    card.begin_session("s1")
    term2 = S.provision_terminal(cred, auth, fresh, 1, "lo", "t1")
    r = R.terminal_step(term2, None, fresh)
    R.card_step(card, r.outputs[0], fresh)
    assert card.a != first_a
