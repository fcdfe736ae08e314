"""Differential numeric backend for the message algebra.

Evaluates terms in a toy exponent group: group elements are tracked by
their discrete logarithms, so point multiplication, products of scalars and
blindable signatures all become multiplication in Z_q*. One-way operations
(hash, encryption, ordinary signatures, public-key formation) map to short
keyed digests. This backend exists to cross-check the symbolic equality
relation against actual arithmetic on randomly sampled valuations.

It is NOT cryptography: the evaluator plays the role of an omniscient
pairing oracle that knows every discrete log. Functional fidelity only.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from . import terms as T

# order of the toy exponent group (Mersenne prime 2^61 - 1)
Q = 2305843009213693951


@dataclass(frozen=True, slots=True)
class Stuck:
    """Value of an irreducible destructor; carries the stuck normal form so
    that equal stuck terms evaluate equal."""

    text: str


class UnvaluedName(Exception):
    pass


@dataclass(slots=True)
class GroupEnv:
    """Valuation of fresh names in the toy group. Insecure by design."""

    valuation: dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_names(cls, names, seed: int) -> "GroupEnv":
        rng = random.Random(f"groupenv{seed}")
        vals = {}
        for nm in sorted(names):
            vals[nm[1]] = rng.randrange(2, Q - 1)
        return cls(valuation=vals)


def _digest(parts) -> int:
    hsh = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, int):
            hsh.update(b"i" + p.to_bytes(16, "big", signed=True))
        elif isinstance(p, str):
            hsh.update(b"s" + p.encode())
        elif isinstance(p, Stuck):
            hsh.update(b"k" + p.text.encode())
        else:  # tuple value
            hsh.update(b"t%d" % len(p))
            hsh.update(_digest(p).to_bytes(16, "big"))
    return int.from_bytes(hsh.digest(), "big")


def eval_term(t: T.Term, env: GroupEnv):
    """Homomorphic evaluation of the normal form of t.

    Returns an int (mod Q), a tuple value, or Stuck. Raises UnvaluedName
    for names missing from the valuation and on free variables.
    """
    return _ev(T.normalize(t), env)


# the one-way ops, each a keyed digest of its tag and its fields' values
_ONE_WAY = {T.HASH: "h", T.ENC: "e", T.PK: "pk", T.PKV: "pkv", T.SIG: "sig"}


def _ev(t, env):
    op = t[0]
    if op == T.GEN:
        return 1
    if op == T.CONST:
        return _digest(["const", t[1], t[2]]) % Q
    if op == T.NAME:
        try:
            return env.valuation[t[1]]
        except KeyError:
            raise UnvaluedName(t[1]) from None
    if op == T.VAR:
        raise UnvaluedName("?" + t[1])
    if op == T.MULT:
        r = 1
        for f in T.fields(t):
            v = _ev(f, env)
            if isinstance(v, (Stuck, tuple)):
                return Stuck(T.to_text(t))
            r = r * v % Q
        return r
    if op in (T.SMULT, T.SIGV):
        a, b = [_ev(x, env) for x in T.fields(t)]
        if isinstance(a, (Stuck, tuple)) or isinstance(b, (Stuck, tuple)):
            return Stuck(T.to_text(t))
        return a * b % Q
    if op == T.TUP:
        return ("tup",) + tuple(_ev(x, env) for x in T.fields(t))
    tag = _ONE_WAY.get(op)
    if tag is not None:
        return _digest([tag, *(_ev(x, env) for x in T.fields(t))]) % Q
    # irreducible destructor
    return Stuck(T.to_text(t))


# -- random term sampling --------------------------------------------------

def random_term(rng: random.Random, depth: int, names):
    """Arbitrary raw term over the given name pool, at most `depth` deep."""
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return T.gen()
        if kind == 1:
            return rng.choice(names)
        if kind == 2:
            return (T.CONST, rng.choice(["bot", "ok", "no", "lo", "hi"]), -1)
        return T.mm(rng.randrange(3))
    op = rng.choice((T.MULT, T.SMULT, T.HASH, T.ENC, T.TUP, T.PK, T.SIG,
                     T.PKV, T.SIGV, T.CHECK, T.CHECKV, T.PROJ, T.DEC))
    sub = lambda: random_term(rng, depth - 1, names)
    if op == T.MULT:
        return T.mult(*[sub() for _ in range(rng.randrange(2, 4))])
    if op == T.TUP:
        return T.tup(*[sub() for _ in range(rng.randrange(2, 5))])
    if op in (T.HASH, T.PK, T.PKV):
        return (op, sub())
    if op == T.PROJ:
        return T.proj(rng.randrange(1, 5), sub())
    if op == T.DEC:
        # bias towards matching keys so reductions actually fire
        if rng.random() < 0.5:
            k = sub()
            return T.dec(k, T.enc(sub(), k))
        return T.dec(sub(), sub())
    if op == T.CHECK and rng.random() < 0.5:
        k = sub()
        return T.check(T.pk(k), T.sig(k, sub()))
    if op == T.CHECKV and rng.random() < 0.5:
        k = sub()
        return T.checkv(T.pkv(k), T.sigv(k, sub()))
    return (op, sub(), sub())


def equal_variant(rng: random.Random, t: T.Term, names) -> T.Term:
    """A term equal to t in the theory but syntactically perturbed."""
    choice = rng.randrange(5)
    if choice == 0:
        k = rng.choice(names)
        return T.dec(k, T.enc(t, k))
    if choice == 1:
        filler = rng.choice(names)
        idx = rng.randrange(2)
        items = [filler, filler]
        items[idx] = t
        return T.proj(idx + 1, T.tup(*items))
    if choice == 2:
        k = rng.choice(names)
        return T.check(T.pk(k), T.sig(k, t))
    if choice == 3:
        return T.proj(1, T.tup(t, rng.choice(names)))
    a = rng.choice(names)
    return T.checkv(T.pkv(a), T.sigv(a, t))


@dataclass(slots=True)
class DiffReport:
    samples: int
    soundness_violations: list
    collisions: int

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.samples if self.samples else 0.0

    def lines(self):
        status = "holds" if not self.soundness_violations else "violated"
        yield f"CHECK difftest-soundness {status} ({self.samples} samples)"
        yield f"CHECK difftest-collision-rate {self.collision_rate:.5f}"


def differential_test(samples: int, seed: int) -> DiffReport:
    """Sample random term pairs, each term 1 to 6 deep; symbolic equality
    must imply concrete equality on every valuation.
    Concrete-equal-but-symbolically-distinct pairs are counted as
    collisions of the toy parameters."""
    rng = random.Random(f"difftest{seed}")
    names = [T.name(f"s{i}", "scalar") for i in range(6)]
    names += [T.name(f"d{i}") for i in range(4)]
    env = GroupEnv.for_names(names, seed)
    violations = []
    collisions = 0
    for i in range(samples):
        a = random_term(rng, rng.randrange(1, 7), names)
        if rng.random() < 0.5:
            b = equal_variant(rng, a, names)
        else:
            b = random_term(rng, rng.randrange(1, 7), names)
        sym_eq = T.equal_mod_E(a, b)
        ea, eb = eval_term(a, env), eval_term(b, env)
        if sym_eq and ea != eb:
            violations.append((a, b))
        elif not sym_eq and ea == eb:
            collisions += 1
    return DiffReport(samples, violations, collisions)
