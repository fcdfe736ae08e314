"""Message algebra for the payment protocol engine.

Terms model the messages agents exchange: Diffie-Hellman style points and
scalars, hashes, authenticated symmetric encryption, n-tuples, generic and
blindable (Verheul) signatures, plus a handful of protocol constants. The
theory is captured by normalize(): two terms are equal in the theory iff
their normal forms are structurally identical.

All operations are pure; terms are immutable tuples, safe to share freely.

The hot normalization kernel comes in two interchangeable builds: a compiled
extension and a pure-Python fallback, selected at import (set UTXSIM_PURE=1
to force the fallback).
"""

from __future__ import annotations

import os

if os.environ.get("UTXSIM_PURE"):
    from . import _kernel as kernel
else:
    try:
        from . import _kernel_c as kernel  # type: ignore[no-redef]
    except ImportError:
        from . import _kernel as kernel  # type: ignore[no-redef]

from . import _kernel as _pure

KERNEL_BUILD = "pure" if kernel is _pure else "compiled"

MalformedTerm = kernel.MalformedTerm

GEN = _pure.GEN
CONST = _pure.CONST
NAME = _pure.NAME
VAR = _pure.VAR
MULT = _pure.MULT
SMULT = _pure.SMULT
HASH = _pure.HASH
ENC = _pure.ENC
TUP = _pure.TUP
PK = _pure.PK
SIG = _pure.SIG
PKV = _pure.PKV
SIGV = _pure.SIGV
CHECK = _pure.CHECK
CHECKV = _pure.CHECKV
PROJ = _pure.PROJ
DEC = _pure.DEC

Term = tuple
Substitution = dict

CONST_TAGS = (
    "bot", "ok", "no", "accept", "reject", "auth",
    "lo", "hi", "unlinkable", "select", "mm",
)

_OP_NAMES = {
    GEN: "gen", CONST: "const", NAME: "name", VAR: "var", MULT: "mult",
    SMULT: "smult", HASH: "hash", ENC: "enc", TUP: "tuple", PK: "pk",
    SIG: "sig", PKV: "pkv", SIGV: "sigv", CHECK: "check", CHECKV: "checkv",
    PROJ: "proj", DEC: "dec",
}
_OPS_BY_NAME = {v: k for k, v in _OP_NAMES.items()}


# -- constructors -------------------------------------------------------

def gen() -> Term:
    return (GEN,)


def const(tag: str) -> Term:
    if tag not in CONST_TAGS or tag == "mm":
        raise MalformedTerm(f"unknown constant {tag!r}")
    return (CONST, tag, -1)


def mm(k: int) -> Term:
    """Month constant; k is the month index."""
    return (CONST, "mm", int(k))


def name(ident: str, sort: str = "data") -> Term:
    if sort not in ("scalar", "data"):
        raise MalformedTerm(f"bad name sort {sort!r}")
    return (NAME, ident, sort)


def var(ident: str) -> Term:
    return (VAR, ident)


def mult(*factors: Term) -> Term:
    if len(factors) < 2:
        raise MalformedTerm("product needs at least two factors")
    return (MULT, tuple(factors))


def smult(scalar: Term, point: Term) -> Term:
    return (SMULT, scalar, point)


def h(body: Term) -> Term:
    return (HASH, body)


def enc(body: Term, key: Term) -> Term:
    return (ENC, body, key)


def tup(*items: Term) -> Term:
    if len(items) < 2:
        raise MalformedTerm("tuple needs at least two items")
    return (TUP, tuple(items))


def pk(key: Term) -> Term:
    return (PK, key)


def sig(key: Term, msg: Term) -> Term:
    return (SIG, key, msg)


def pkv(key: Term) -> Term:
    return (PKV, key)


def sigv(key: Term, msg: Term) -> Term:
    return (SIGV, key, msg)


def check(vkey: Term, signature: Term) -> Term:
    return (CHECK, vkey, signature)


def checkv(vkey: Term, signature: Term) -> Term:
    return (CHECKV, vkey, signature)


def proj(index: int, body: Term) -> Term:
    if index < 1:
        raise MalformedTerm("projection index must be positive")
    return (PROJ, index, body)


def dec(key: Term, body: Term) -> Term:
    return (DEC, key, body)


BOT = const("bot")
OK = const("ok")
NO = const("no")
ACCEPT = const("accept")
REJECT = const("reject")
AUTH = const("auth")
LO = const("lo")
HI = const("hi")
UNLINKABLE = const("unlinkable")
SELECT = const("select")


# -- the theory ----------------------------------------------------------

normalize = kernel.normalize
free_names = kernel.free_names
free_vars = kernel.free_vars
m_factors = kernel.m_factors
clear_cache = kernel.clear_cache


def equal_mod_E(a: Term, b: Term) -> bool:
    """Equality in the message theory."""
    return normalize(a) == normalize(b)


def apply(s: Substitution, t: Term) -> Term:
    """Apply a substitution (var id -> term) and normalize the result."""
    return normalize(kernel.subst_vars(t, s)) if s else normalize(t)


def is_stuck(t: Term) -> bool:
    """True if the normal form's root is an unreduced destructor."""
    return t[0] in (CHECK, CHECKV, PROJ, DEC)


def month_index(t: Term) -> int | None:
    return t[2] if t[0] == CONST and t[1] == "mm" else None


# -- fresh names ---------------------------------------------------------

class FreshNames:
    """Deterministic fresh-name source: ids are hint + running counter.

    The hint "w" is reserved for frame aliases and rejected here, keeping
    alias and name identifiers disjoint.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def _mint(self, hint: str, sort: str) -> Term:
        if hint == "w" or not hint.isidentifier():
            raise ValueError(f"bad name hint {hint!r}")
        n = self._counters.get(hint, 0)
        self._counters[hint] = n + 1
        return (NAME, f"{hint}{n}", sort)

    def scalar(self, hint: str) -> Term:
        return self._mint(hint, "scalar")

    def data(self, hint: str) -> Term:
        return self._mint(hint, "data")


# -- canonical text form --------------------------------------------------

_RESERVED = {t for t in CONST_TAGS if t != "mm"}


def to_text(t: Term) -> str:
    """Prefix S-expression form; injective on normal forms (products keep
    their canonical factor order)."""
    op = t[0]
    if op == GEN:
        return "(gen)"
    if op == CONST:
        return f"(mm {t[2]})" if t[1] == "mm" else t[1]
    if op == NAME:
        return ("$" + t[1]) if t[2] == "scalar" else t[1]
    if op == VAR:
        return "?" + t[1]
    if op == MULT or op == TUP:
        body = " ".join(to_text(x) for x in t[1])
        return f"({_OP_NAMES[op]} {body})"
    if op == PROJ:
        return f"(proj {t[1]} {to_text(t[2])})"
    if op in (HASH, PK, PKV):
        return f"({_OP_NAMES[op]} {to_text(t[1])})"
    return f"({_OP_NAMES[op]} {to_text(t[1])} {to_text(t[2])})"


def _tokenize(text: str):
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        yield tok


def _token(toks: list[str], pos: int) -> str:
    if pos >= len(toks):
        raise MalformedTerm("unexpected end of input")
    return toks[pos]


def _index(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise MalformedTerm(f"bad index {tok!r}") from None


def _parse_tokens(toks: list[str], pos: int) -> tuple[Term, int]:
    tok = _token(toks, pos)
    if tok == ")":
        raise MalformedTerm("unexpected ')'")
    if tok != "(":
        return _parse_atom(tok), pos + 1
    head = _token(toks, pos + 1)
    pos += 2
    if head == "gen":
        if _token(toks, pos) != ")":
            raise MalformedTerm("gen takes no arguments")
        return (GEN,), pos + 1
    if head == "mm":
        k = _index(_token(toks, pos))
        if _token(toks, pos + 1) != ")":
            raise MalformedTerm("mm takes one index")
        return (CONST, "mm", k), pos + 2
    if head == "proj":
        idx = _index(_token(toks, pos))
        body, pos = _parse_tokens(toks, pos + 1)
        if _token(toks, pos) != ")":
            raise MalformedTerm("proj takes an index and a term")
        return (PROJ, idx, body), pos + 1
    op = _OPS_BY_NAME.get(head)
    if op is None:
        raise MalformedTerm(f"unknown operator {head!r}")
    args = []
    while _token(toks, pos) != ")":
        arg, pos = _parse_tokens(toks, pos)
        args.append(arg)
    pos += 1
    if op == MULT:
        return mult(*args), pos
    if op == TUP:
        return tup(*args), pos
    if op in (HASH, PK, PKV):
        if len(args) != 1:
            raise MalformedTerm(f"{head} takes one argument")
        return (op, args[0]), pos
    if len(args) != 2:
        raise MalformedTerm(f"{head} takes two arguments")
    return (op, args[0], args[1]), pos


def _parse_atom(tok: str) -> Term:
    if tok in _RESERVED:
        return (CONST, tok, -1)
    if tok.startswith("$"):
        return (NAME, tok[1:], "scalar")
    if tok.startswith("?"):
        return (VAR, tok[1:])
    return (NAME, tok, "data")


def parse(text: str) -> Term:
    toks = list(_tokenize(text))
    if not toks:
        raise MalformedTerm("empty input")
    t, pos = _parse_tokens(toks, 0)
    if pos != len(toks):
        raise MalformedTerm("trailing tokens")
    return t
