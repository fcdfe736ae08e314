"""Message algebra for the payment protocol engine.

Terms model the messages agents exchange: Diffie-Hellman style points and
scalars, hashes, authenticated symmetric encryption, n-tuples, generic and
blindable (Verheul) signatures, plus a handful of protocol constants. The
theory is captured by normalize(): two terms are equal in the theory iff
their normal forms are structurally identical.

A term is a nested tuple whose first element is an integer opcode. Every
opcode has a fixed field signature, so plain tuple comparison is a total
order on terms; that order is what makes multiplication canonical.

    (GEN,)                    group generator
    (CONST, tag, k)           protocol constant; k is the month index for
                              tag "mm" and -1 otherwise
    (NAME, id, sort)          fresh name; sort is "scalar" or "data"
    (VAR, id)                 variable / frame alias
    (MULT, (f1, ..., fn))     scalar product, flattened, factors sorted
    (SMULT, s, p)             point multiplication [s]p
    (HASH, m) (ENC, m, k) (TUP, (m1, ..., mn))
    (PK, k) (SIG, k, m) (PKV, k) (SIGV, k, m)
    (CHECK, vk, s) (CHECKV, vk, s) (PROJ, i, m) (DEC, k, m)

fields() and with_fields() are the one table of these shapes: fields(t) is
t's subterms in order (none for an atom, never a projection's index), and
with_fields(t, fs) is the same node over new subterms. Every walk over a
term and every rebuild of a node goes through them, except the rewrite
kernel (_eval, norm_root), the distinguisher's per-candidate loop and its
walk of each frame's joinable set (frames._joinable), which read fields
by hand because they run once per term, candidate or node and a call per
node there shows in the wall time.

normalize() computes the canonical form: destructors reduced where their
constructor matches, products flattened and sorted, and scalars hoisted so
that a point multiplication never nests and a blindable signature carries a
blinding-free body. The result of normalize() is a fixpoint; callers may
rely on structural equality of normal forms coinciding with equality in the
message theory. normalize() and apply() are one stateless walk, _eval: it
normalizes a term's fields, innermost first, then applies norm_root(), the
one table of root rewrites. apply(s, t) is the same walk with a variable
bound in s replaced by its binding, which must be a normal form and is taken
as given, never walked. Nothing is kept between calls.

norm_root(t) is the entry point for a term whose fields are already normal
forms, such as a constructor applied to normal parts. It rewrites at the
root only and normalizes no field; on such a term it equals normalize(t).
Its result on a term with a non-normal field is unspecified. Its callers are
saturation and the distinguisher, which apply one operator to frame images,
and the roles and setup_phase, which build every key, certificate and
message of a run innermost first over normal parts: norm_root on each node
that can rewrite (smult, mult, sigv, and the destructors dec, check and
checkv that open a delivered message), the plain constructor on every other.
The roles and setup therefore never walk a term. The walk serves the terms
that arrive in arbitrary form: attacker recipes (through apply) and the
terms of a parsed trace.

All operations are pure; terms are immutable tuples, safe to share freely.
"""

from __future__ import annotations

GEN = 0
CONST = 1
NAME = 2
VAR = 3
MULT = 4
SMULT = 5
HASH = 6
ENC = 7
TUP = 8
PK = 9
SIG = 10
PKV = 11
SIGV = 12
CHECK = 13
CHECKV = 14
PROJ = 15
DEC = 16

Term = tuple


class MalformedTerm(Exception):
    """Raised for structurally ill-formed terms (tuple arity < 2, projection
    index < 1, unknown opcode)."""


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


# -- the shape table -----------------------------------------------------

def fields(t: Term) -> tuple:
    """t's subterms, in order: none for an atom, and never a projection's
    index."""
    op = t[0]
    if op <= VAR:
        return ()
    if op == MULT or op == TUP:
        return t[1]
    return t[2:] if op == PROJ else t[1:]


def with_fields(t: Term, fs) -> Term:
    """The node t rebuilt over new subterms fs, one per field of t."""
    op = t[0]
    if op <= VAR:
        return t
    if op == MULT or op == TUP:
        return (op, tuple(fs))
    return (PROJ, t[1], *fs) if op == PROJ else (op, *fs)


# -- the theory ----------------------------------------------------------

def clear_cache() -> None:
    """Does nothing: the kernel keeps no state between calls."""


def m_factors(t: Term) -> tuple:
    """Multiset of scalar factors of a normalized term (itself if atomic)."""
    return t[1] if t[0] == MULT else (t,)


_NO_ENV: dict = {}


def normalize(t: Term) -> Term:
    """Normal form of t."""
    return _eval(t, _NO_ENV)


def apply(s: dict, t: Term) -> Term:
    """Normal form of t with each variable bound in s (id -> term) replaced
    by its binding. The terms of s must be normal forms, as Frame.bind
    requires: they are taken as given and never walked."""
    return _eval(t, s)


def _eval(t: Term, env: dict) -> Term:
    # the one walk behind normalize and apply; it recurses on its private
    # name, so a wrapper installed over either public name sees only entry
    # calls. Dispatched by hand: a call per node through with_fields shows
    # in the wall time.
    op = t[0]
    if op <= VAR:
        return env.get(t[1], t) if op == VAR else t
    if op == MULT or op == TUP:
        t = (op, tuple([_eval(x, env) for x in t[1]]))
    elif op == PROJ:
        t = (PROJ, t[1], _eval(t[2], env))
    elif op == HASH or op == PK or op == PKV:
        t = (op, _eval(t[1], env))
    elif op <= DEC:
        t = (op, _eval(t[1], env), _eval(t[2], env))
    return norm_root(t)


# atoms and constructors without a root rewrite (TUP has its arity check)
_NO_ROOT_REWRITE = frozenset((GEN, CONST, NAME, VAR, HASH, ENC, PK, SIG, PKV))


def norm_root(t: Term) -> Term:
    """Normal form of t, whose fields must already be normal forms: the root
    rewrite only, walking no field. On such a term it equals normalize(t),
    because normal forms are fixpoints."""
    # dispatched by hand: the distinguisher calls it once per candidate
    op = t[0]
    if op in _NO_ROOT_REWRITE:
        return t
    if op == DEC:
        b = t[2]
        if b[0] == ENC and b[2] == t[1]:
            return b[1]
        return t
    if op == CHECK:
        vk, s = t[1], t[2]
        if vk[0] == PK and s[0] == SIG and s[1] == vk[1]:
            return s[2]
        return t
    if op == CHECKV:
        vk, s = t[1], t[2]
        if vk[0] == PKV:
            if s[0] == SIGV and s[1] == vk[1]:
                return s[2]
            if s[0] == SMULT and s[2][0] == SIGV and s[2][1] == vk[1]:
                # verification of a blinded signature reveals the blinded body
                return (SMULT, s[1], s[2][2])
        return t
    if op == PROJ:
        if t[1] < 1:
            raise MalformedTerm("projection index must be positive")
        b = t[2]
        if b[0] == TUP and t[1] <= len(b[1]):
            return b[1][t[1] - 1]
        return t
    if op == SMULT:
        p = t[2]
        if p[0] != SMULT:
            return t
        # p is normal, so its own point is no point multiplication, and the
        # two scalars give the product at least two factors
        fs = m_factors(t[1]) + m_factors(p[1])
        return (SMULT, (MULT, tuple(sorted(fs))), p[2])
    if op == MULT:
        fs = []
        for f in t[1]:
            if f[0] == MULT:
                fs.extend(f[1])
            else:
                fs.append(f)
        if len(fs) < 2:
            raise MalformedTerm("product needs at least two factors")
        return (MULT, tuple(sorted(fs)))
    if op == SIGV:
        m = t[2]
        if m[0] == SMULT:
            # blinding commutes with the signature: scalar moves outside
            return (SMULT, m[1], (SIGV, t[1], m[2]))
        return t
    if op == TUP:
        if len(t[1]) < 2:
            raise MalformedTerm("tuple needs at least two items")
        return t
    raise MalformedTerm("unknown opcode %r" % (op,))


def equal_mod_E(a: Term, b: Term) -> bool:
    """Equality in the message theory."""
    return normalize(a) == normalize(b)


def _nodes(t: Term, op: int) -> set:
    """Every node of t whose root is op."""
    out = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if x[0] == op:
            out.add(x)
        elif x[0] > VAR:
            stack.extend(fields(x))
    return out


def free_names(t: Term) -> set:
    """All NAME nodes occurring in t."""
    return _nodes(t, NAME)


def free_vars(t: Term) -> set:
    """All variable ids occurring in t."""
    return {x[1] for x in _nodes(t, VAR)}


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
    head = f"proj {t[1]}" if op == PROJ else _OP_NAMES[op]
    return f"({head} {' '.join(map(to_text, fields(t)))})"


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


# the deepest nesting of applications parse accepts: built-in runs nest
# under 10, and a far deeper term would overrun the recursion of the parser
# and of normalisation
MAX_NESTING = 256


def _parse_tokens(toks: list[str], pos: int,
                  room: int = MAX_NESTING) -> tuple[Term, int]:
    tok = _token(toks, pos)
    if tok == ")":
        raise MalformedTerm("unexpected ')'")
    if tok != "(":
        return _parse_atom(tok), pos + 1
    if not room:
        raise MalformedTerm(f"term nested deeper than {MAX_NESTING}")
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
        body, pos = _parse_tokens(toks, pos + 1, room - 1)
        if _token(toks, pos) != ")":
            raise MalformedTerm("proj takes an index and a term")
        return proj(idx, body), pos + 1
    op = _OPS_BY_NAME.get(head)
    if op is None:
        raise MalformedTerm(f"unknown operator {head!r}")
    args = []
    while _token(toks, pos) != ")":
        arg, pos = _parse_tokens(toks, pos, room - 1)
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


def parse_all(text: str) -> tuple:
    """The terms of a space-separated sequence, in order."""
    toks, pos, terms = list(_tokenize(text)), 0, []
    while pos < len(toks):
        t, pos = _parse_tokens(toks, pos)
        terms.append(t)
    return tuple(terms)


def parse(text: str) -> Term:
    toks = list(_tokenize(text))
    if not toks:
        raise MalformedTerm("empty input")
    t, pos = _parse_tokens(toks, 0)
    if pos != len(toks):
        raise MalformedTerm("trailing tokens")
    return t
