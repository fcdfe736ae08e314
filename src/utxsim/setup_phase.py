"""Authority keys, card issuance, terminal provisioning, key bulletin.

The signing authority holds a generic signing key for bank certificates and
one blindable-signature key per calendar month. Issued cards carry the full
list of month credentials for their validity span plus the pointer that
limits disclosure to a two-month window. Terminals are provisioned with one
month's bank certificate, that month's verification key, and a fresh shared
key with the bank.

Every key, certificate and credential issued here is a normal form, built
as the roles build their messages: plain constructors over normal parts, and
T.norm_root on each smult and sigv, so issuance never calls T.normalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import roles
from . import terms as T
from .terms import Term

HORIZON = 61


class HorizonExceeded(Exception):
    pass


class NoCertForMonth(Exception):
    pass


@dataclass(slots=True)
class Authority:
    s: Term
    chi: dict                       # month index -> signing scalar
    horizon: int

    def vk(self) -> Term:
        return T.pk(self.s)

    def month_vk(self, month: int) -> Term:
        return T.pkv(self.chi[month])


@dataclass(slots=True)
class BankCredential:
    b_t: Term
    crt_by_month: dict = field(default_factory=dict)


def make_authority(fresh: T.FreshNames, horizon: int = HORIZON) -> Authority:
    s = fresh.scalar("s")
    chi = {m: fresh.scalar("chi") for m in range(horizon)}
    return Authority(s=s, chi=chi, horizon=horizon)


def make_bank_credential(auth: Authority, fresh: T.FreshNames) -> BankCredential:
    b_t = fresh.scalar("bt")
    pk_bt = T.norm_root(T.smult(b_t, T.gen()))
    crts = {}
    for m in range(auth.horizon):
        body = T.tup(T.mm(m), pk_bt)
        crts[m] = T.tup(body, T.sig(auth.s, body))
    return BankCredential(b_t=b_t, crt_by_month=crts)


def issue_card(auth: Authority, fresh: T.FreshNames, issue_month: int,
               card_id: str = "card", **card_flags) -> roles.CardState:
    """Fresh card credentialed for every month of the horizon, ready to
    answer for the issue month and the month before it."""
    if not 0 <= issue_month <= auth.horizon - 1:
        raise HorizonExceeded(f"issue month {issue_month}")
    c = fresh.scalar("c")
    pk_c = T.norm_root(T.smult(c, T.gen()))
    certs = {m: T.norm_root(T.sigv(auth.chi[m], pk_c))
             for m in range(auth.horizon)}
    return roles.CardState(
        card_id=card_id,
        c=c,
        pk_c=pk_c,
        pan=fresh.data("PAN"),
        pin=fresh.data("PIN"),
        mk=fresh.data("mk"),
        certs=certs,
        pointer=issue_month,
        authority_vk=auth.vk(),
        **card_flags,
    )


def issue_card_multimonth(auth: Authority, fresh: T.FreshNames,
                          window: tuple, card_id: str = "card",
                          **card_flags) -> roles.CardState:
    """Card with a sliding window of months. Months beyond the authority
    horizon get privately minted signing keys (the supply of future months
    is unbounded but unpublished)."""
    card = issue_card(auth, fresh, min(window[0], auth.horizon - 1),
                      card_id=card_id, **card_flags)
    for m in window:
        if m not in card.certs:
            chi = fresh.scalar("chiw")
            card.certs[m] = T.norm_root(T.sigv(chi, card.pk_c))
    card.window = tuple(window)
    return card


def provision_terminal(cred: BankCredential, auth: Authority,
                       fresh: T.FreshNames, month: int, mode: str,
                       terminal_id: str = "term",
                       **term_flags) -> roles.TerminalState:
    if month not in cred.crt_by_month:
        raise NoCertForMonth(f"month {month}")
    return roles.TerminalState(
        terminal_id=terminal_id,
        mode=mode,
        pk_mm=auth.month_vk(month),
        crt=cred.crt_by_month[month],
        kbt=fresh.data("kbt"),
        **term_flags,
    )


def publish_bulletin(auth: Authority, current_month: int) -> list:
    """The keys to announce: the generic verification key and every month key
    released so far; future month keys are never published in advance."""
    months = range(min(current_month, auth.horizon - 1) + 1)
    return [auth.vk()] + [auth.month_vk(m) for m in months]
