"""Attacker knowledge: frames, deduction, and bounded static equivalence.

A frame is the attacker's view of a run, nu n.sigma: the set of restricted
(secret) names plus one substitution from aliases to the messages observed
on the network, in output order. A recipe is a term the attacker can build:
its leaves are frame aliases (variables), public constants, and
non-restricted names.

saturate() closes a frame under destructor analysis, generalizing the
building-block normalization used in the protocol's proofs to arbitrary
frames. It splits tuples and opens every entry whose key derives, at any
cost: enc(m, k) by dec with k, sig(k, m) by check with pk(k), and sigv(k,
m) or a blinded [s]sigv(k, m) by checkv with pkv(k). The opened image is
the root rewrite of (destructor, key, entry), and the key's recipe is the
first smallest one derive would give. It adds entries round by round, each
round in entry order, and visits each entry once but for one whose key has
not derived yet, which each later round retries; every entry's recipe
evaluates to its image in the frame.

derive() finds a minimal-size recipe for a target by composing saturated
building blocks with constructors (Abadi & Cortier's saturate-then-compose
scheme); it is sound (returned recipes evaluate to the target) and complete
only up to its size bound, DERIVE_BOUND. Its target must be a normal form
holding no variable, as every secrecy target is: the search takes it as
given and never walks it first. Saturated entries and public atoms cost 0; an
application costs 1 plus its parts; a product joined from several covered
parts (product blocks or single factors) costs 1 plus theirs; a rebase
[r]([s]p) on a block [s]p costs 1 plus r's cost. Among equally cheap
recipes the earliest block in saturation order wins. The [s]p blocks are
filed under their point p and then under the first factor of s, so a rebase
tries only the blocks whose first factor is one of the target's: no other
block lies inside the target's scalar. A saturation keeps one cost memo,
shared by every search over it (saturate's key searches and each secrecy
target alike) and cleared by Saturated.add: a cost is a function of the
entries and blocks alone, and derive's size bound is applied after the
lookup, so sharing the memo changes no recipe.

static_equiv() tests candidate recipes composed from saturated building
blocks and maintains a partial bijection between the two frames' value
spaces; the first inconsistency is a distinguishing equality test.
The seeds are gen, the other constants, the months and public names that
occur in a binding, and both saturations' entries. An opening adds no
atom, so those months and names are the atoms of every saturated entry;
the walk that finds each frame's joinable set (_joinable) meets them, and
no saturation is walked for them. A recipe that both saturations hold,
each alias at least, is evaluated once: its repeat counts one test.
The pool is the seeds: nothing joins it after them. A destructor
candidate that reduces in a frame reduces to an entry of that frame's
saturation, which opens every entry whose key derives, and that entry's
seed has already filed its image; a candidate that would join anyway
raises LateJoin, an internal error. So the candidates are enumerated once,
in one order: the seeds, the probes, the one-field candidates over each
pool entry, then the pair candidates over each two pool entries.
No setting changes that enumeration. Counting a building block as size 1
and an application as 1 plus its parts, a probe enc(dec(k, u), k) has size
5, a one-field candidate size 2 and a pair candidate size 3: TEST_BOUND,
the bound a pass reports, bounds them all. Only the seeds
are evaluated by substitution (terms.apply, which gives an alias's
bindings as bound), and a saturated entry's seed only in the other frame:
its image in its own frame is the entry. Every composed candidate's image
in each frame is its root over its parts' stored images, rewritten at the
root only (terms.norm_root) rather than walked again. That gives the same
normal form because normal forms are fixpoints.
The tests count is every enumerated candidate, each at the position its
pool indices give; only a candidate that a rewrite or a known image can
make collide is tested, and every other is counted by arithmetic
(_Bijection states the rule and why it is exact). A pass is a bounded
guarantee, never a proof.

A run's frame is its one record of what the attacker has seen, and it only
grows, through Frame.bind. The analyses here only read their frames, so
searches over different frames can run in parallel; within one search,
enumeration order (and therefore the first witness) is deterministic.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field

from . import terms as T
from .terms import Term

DERIVE_BOUND = 8
TEST_BOUND = 6
ALIAS_PREFIX = "w"


class DomainMismatch(Exception):
    pass


class LateJoin(Exception):
    """A candidate would join static_equiv's pool after the seeds: an
    internal error of the search (a saturation missed an opening), never a
    verdict."""


@dataclass(slots=True)
class Frame:
    """The one record of what the attacker has seen: the restricted name ids
    and the substitution alias -> ground normal form (one holding no
    variable), in output order. It grows only through bind, the one place
    an alias is made."""
    restricted: set = field(default_factory=set)
    bindings: dict = field(default_factory=dict)

    def bind(self, t: Term) -> str:
        """Record a protocol output under a fresh alias; returns the alias.
        t must be a normal form, as every role output and issued key is
        built; it is stored as given, not normalized again."""
        alias = f"{ALIAS_PREFIX}{len(self.bindings)}"
        self.bindings[alias] = t
        return alias


def recipe_ok(f: Frame, recipe: Term) -> bool:
    """A valid recipe references only bound aliases and public names."""
    if not T.free_vars(recipe) <= f.bindings.keys():
        return False
    return all(n[1] not in f.restricted for n in T.free_names(recipe))


def recipe_value(f: Frame, recipe: Term) -> Term:
    """The recipe's value in the frame. Only the recipe's aliases are
    checked, not the value: over a frame of variable-free images, as the
    Runner's is, a recipe whose aliases are all bound has a variable-free
    value."""
    if not T.free_vars(recipe) <= f.bindings.keys():
        raise KeyError(f"recipe references unbound aliases: {T.to_text(recipe)}")
    return T.apply(f.bindings, recipe)


# -- saturation -------------------------------------------------------------

@dataclass(slots=True)
class Saturated:
    frame: Frame
    entries: dict = field(default_factory=dict)   # image -> first recipe
    # deduction's blocks, in entries order: product images under None, as
    # (factor multiset, recipe); [s]p images under their point p, in a dict
    # from the first factor of s (None when s has none) to
    # (entry number, factor multiset, recipe)
    blocks: dict = field(default_factory=dict)
    # term -> _cost's (size, recipe) or None, over the entries as they stand
    memo: dict = field(default_factory=dict)

    def add(self, recipe: Term, image: Term) -> bool:
        n = len(self.entries)
        self.entries.setdefault(image, recipe)     # one hash of the image
        if len(self.entries) == n:
            return False
        self.memo.clear()
        if image[0] == T.MULT:
            self.blocks.setdefault(None, []).append((image[1], recipe))
        elif image[0] == T.SMULT:
            unit = T.m_factors(image[1])
            self.blocks.setdefault(image[2], {}).setdefault(
                unit[0] if unit else None, []).append((n, unit, recipe))
        return True


def _opening(img: Term):
    """(destructor, key image) that opens a saturated entry, or None."""
    op = img[0]
    if op == T.ENC:
        return T.DEC, img[2]
    if op == T.SIG:
        return T.CHECK, (T.PK, img[1])
    if op == T.SIGV:
        return T.CHECKV, (T.PKV, img[1])
    if op == T.SMULT and img[2][0] == T.SIGV:
        return T.CHECKV, (T.PKV, img[2][1])
    return None


def saturate(f: Frame) -> Saturated:
    """Destructor closure of the frame, in rounds: each visits, in entry
    order, the entries still shut (their key did not derive) and those the
    round before added, and the last adds nothing."""
    sat = Saturated(f)
    for alias, img in f.bindings.items():
        sat.add(T.var(alias), img)
    todo = list(sat.entries.items())
    while todo:
        n, shut = len(sat.entries), []
        for entry in todo:
            img, recipe = entry
            if img[0] == T.TUP:
                for i, item in enumerate(img[1]):
                    sat.add(T.proj(i + 1, recipe), item)
                continue
            opening = _opening(img)
            if opening is None:
                continue
            op, key = opening
            key_cost = _cost(sat, key)
            if key_cost is None:
                shut.append(entry)
            else:
                sat.add((op, key_cost[1], recipe), T.norm_root((op, key, img)))
        todo = (shut + list(sat.entries.items())[n:]
                if len(sat.entries) > n else [])
    return sat


# -- deduction --------------------------------------------------------------

def derive(f, target: Term):
    """Recipe for target over the (saturated) frame, or None within
    DERIVE_BOUND. Sound; complete only up to that size. The target must be a
    normal form holding no variable, as every Trace's secrecy targets are;
    one that is not normal is searched as it stands, and may be missed."""
    sat = f if isinstance(f, Saturated) else saturate(f)
    best = _cost(sat, target)
    if best is None or best[0] > DERIVE_BOUND:
        return None
    return best[1]


_MISS = object()


def _cost(sat: Saturated, t: Term):
    """(size, recipe) of the first smallest recipe for t, or None. Every
    recursive call is on a strict subterm of t. A memo hit hashes t once."""
    memo = sat.memo
    best = memo.get(t, _MISS)
    if best is not _MISS:
        return best
    op = t[0]
    hit = sat.entries.get(t)
    if hit is not None:
        best = (0, hit)
    elif op == T.GEN or op == T.CONST or (
            op == T.NAME and t[1] not in sat.frame.restricted):
        best = (0, t)
    elif op <= T.VAR:
        best = None
    elif op == T.MULT:
        best = _mult_cost(sat, t[1])
    elif op == T.SMULT:
        best = _smult_cost(sat, t)
    else:
        best = _compose(sat, t)
    memo[t] = best
    return best


def _compose(sat: Saturated, t: Term):
    """t built at its root: the same node with each field replaced by its
    recipe, at 1 plus the fields' costs; None at the first field, in order,
    that does not derive."""
    cost, recipes = 1, []
    for x in T.fields(t):
        sub = _cost(sat, x)
        if sub is None:
            return None
        cost += sub[0]
        recipes.append(sub[1])
    return cost, T.with_fields(t, recipes)


def _minus(want: tuple, block: tuple):
    """The multiset want less block, or None when block is not inside want."""
    rest = list(want)
    for u in block:
        if u not in rest:
            return None
        rest.remove(u)
    return tuple(rest)


def _mult_cost(sat: Saturated, factors: tuple):
    """Cover the factor multiset by known product blocks and single factors;
    one product application joins the parts."""
    cover = _cover(sat, factors)
    if cover is None:
        return None
    cost, parts = cover
    if len(parts) == 1:
        return (cost, parts[0])
    return (cost + 1, (T.MULT, tuple(parts)))


def _cover(sat: Saturated, factors: tuple):
    if not factors:
        return (0, [])
    first = factors[0]
    best = None
    # product blocks that hold the first factor, then the factor on its own
    for unit, recipe in sat.blocks.get(None, ()):
        rest = _minus(factors, unit) if first in unit else None
        if rest is None:
            continue
        tail = _cover(sat, rest)
        if tail is not None and (best is None or tail[0] < best[0]):
            best = (tail[0], [recipe] + tail[1])
    sub = _cost(sat, first)
    tail = None if sub is None else _cover(sat, factors[1:])
    if tail is not None and (best is None or sub[0] + tail[0] < best[0]):
        best = (sub[0] + tail[0], [sub[1]] + tail[1])
    return best


def _smult_cost(sat: Saturated, t: Term):
    """[s]p built directly, or rebased on a known block [s2]p as
    [r]([s2]p), where r covers s less s2. A block inside s has its first
    factor in s, so only those filed under one of s's factors (and any
    with no factor) are tried, merged back into entries order."""
    best = _compose(sat, t)
    want = T.m_factors(t[1])
    filed = sat.blocks.get(t[2], {})
    for _, unit, recipe in heapq.merge(
            *(filed[k] for k in {None, *want} if k in filed)):
        rest = _minus(want, unit)
        if not rest:    # not inside s, or all of it
            continue
        sub = _mult_cost(sat, rest)
        if sub is not None and (best is None or 1 + sub[0] < best[0]):
            best = (1 + sub[0], (T.SMULT, sub[1], recipe))
    return best


# -- bounded static equivalence ----------------------------------------------

@dataclass(slots=True)
class Equivalent:
    tests: int

    def __bool__(self):
        return True


@dataclass(slots=True)
class Distinguished:
    left: Term
    right: Term
    side: str     # which world satisfies the equality: "first" or "second"
    tests: int

    def __bool__(self):
        return False

    def describe(self) -> str:
        return (f"{T.to_text(self.left)} = {T.to_text(self.right)} "
                f"holds in the {self.side} frame only")


_UNARY = (T.HASH, T.PK, T.PKV)
# the candidates over one pool entry x, by the head each puts before x, to
# their place in test order: (HASH, x), (PK, x), (PKV, x), then
# (PROJ, i, x) for i = 1..4
_ONE_POS = {head: pos for pos, head in enumerate(
    [(op,) for op in _UNARY] + [(T.PROJ, i) for i in range(1, 5)])}
# destructor probes first: they reduce and collide, constructors mint fresh
_BINARY = (T.DEC, T.CHECK, T.CHECKV, T.ENC, T.SMULT, T.MULT, T.TUP, T.SIG, T.SIGV)
# the candidates over a pair of pool entries e1, e2, in test order, as
# (op, swapped): e1 op e2, then e2 op e1; MULT in one order only
_PAIR_SHAPES = tuple((op, swapped) for op in _BINARY
                     for swapped in (False, True)
                     if not (op == T.MULT and swapped))
_PAIR_TESTS = len(_PAIR_SHAPES)
_PAIR_POS = {shape: pos for pos, shape in enumerate(_PAIR_SHAPES)}
# the ops whose root rewrite can fire over an entry, by the entry's root: a
# pair op over it as second operand, MULT over a product as either operand,
# and PROJ over a tuple; _Bijection._opens adds CHECKV over a blinded
# signature and the rebase marks below over an [s]p
_OPENS = {T.ENC: (T.DEC,), T.SIG: (T.CHECK,), T.SIGV: (T.CHECKV,),
          T.MULT: (T.MULT,), T.TUP: (T.PROJ,)}
# per frame, the marks of the smult rebase rule (see _Bijection): POINT on
# an entry that is an [s]p there, SHARED on one that breaks the rule as e1
# there (a factor of it is one of a joinable scalar's, or a joinable image
# is a product)
_POINT = (("point", 0), ("point", 1))
_SHARED = (("shared", 0), ("shared", 1))
_PAIR_OPS = frozenset(_BINARY)
# the pair ops whose unrewritten image is op(x, y)
_FIELD_OPS = _PAIR_OPS - {T.MULT, T.TUP}


@functools.cache   # one entry per two mark sets that occur together
def _rewritable(opens1: frozenset, opens2: frozenset) -> tuple:
    """The pair shapes to test over entries that open opens1 and opens2:
    MULT when either entry is a product; SMULT where, in some frame, the
    second operand is an [s]p (POINT) and the first breaks the smult rule
    (SHARED); and each other op its second operand opens, SIGV only over
    an [s]p whose s is a pool image. A rebase left out is counted (see
    _Bijection)."""
    shapes = []
    for op, swapped in _PAIR_SHAPES:
        first, second = (opens2, opens1) if swapped else (opens1, opens2)
        if op == T.MULT:
            fires = op in first or op in second
        elif op == T.SMULT:
            fires = any(p in second and x in first
                        for p, x in zip(_POINT, _SHARED))
        else:
            fires = op in second
        if fires:
            shapes.append((op, swapped))
    return tuple(shapes)


_KEYLESS = frozenset((T.MULT, T.SMULT, T.SIGV))


@functools.cache   # one entry per two mark sets that occur together
def _broad(opens1: frozenset, opens2: frozenset) -> bool:
    """Whether _rewritable(opens1, opens2) holds a MULT, SMULT or SIGV
    shape, the ops whose rewrite needs no key."""
    return any(op in _KEYLESS for op, _ in _rewritable(opens1, opens2))


def _pair_term(op, x, y):
    # built by hand, not by T.with_fields: it runs once per pair candidate
    return (op, (x, y)) if op == T.MULT or op == T.TUP else (op, x, y)


def _pair_key(op, i, j):
    """The key of the candidate i op j over pool entries i and j. MULT sorts
    its product, so its key is the same in both orders."""
    return (op, j, i) if op == T.MULT and j < i else (op, i, j)


# the destructor roots: a seed outside a frame's joinable set is stuck there
# at one of these
_DESTRUCTORS = frozenset((T.DEC, T.PROJ, T.CHECK, T.CHECKV))


def _joinable(f: Frame):
    """(the atoms of f's bindings: their month constants and names; the
    factors of the scalars of the [s]p images in f's joinable set, its
    bindings closed under splitting tuples and under _opening's openings,
    or None when that set holds a product), in one walk. An opening's
    image is a subterm of what it opens, or [s]m of a blinded [s]sigv(k,
    m), so the walk meets every atom once it walks each opening's key.
    Each joinable term is hashed once (the set's size tells whether it was
    new, as in Saturated.add), and the atom walk reads fields by hand, not
    by T.fields: it runs once per node."""
    joinable, stack, rest = set(), list(f.bindings.values()), []
    factors, product = set(), False
    while stack:
        t = stack.pop()
        n = len(joinable)
        joinable.add(t)
        if len(joinable) == n:
            continue
        if t[0] == T.SMULT:
            factors.update(T.m_factors(t[1]))
        product |= t[0] == T.MULT
        opening = _opening(t)
        if t[0] == T.TUP:
            stack += t[1]
        elif opening is None:
            rest.append(t)
        else:   # the opened image; its key is walked for atoms only
            stack.append(T.norm_root((*opening, t)))
            rest.append(opening[1])
    atoms = set()
    while rest:
        x = rest.pop()
        op = x[0]
        if op == T.NAME or (op == T.CONST and x[1] == "mm"):
            atoms.add(x)
        elif op == T.MULT or op == T.TUP:
            rest += x[1]
        elif op == T.PROJ:
            rest.append(x[2])
        elif op > T.VAR:
            rest += x[1:]
    return atoms, None if product else factors


class _Bijection:
    """Partial bijection between the two frames' value spaces; recipes whose
    images break it witness a distinguishing test. Every candidate is
    counted in tests, in enumeration order.

    Images are evaluated incrementally: an atom seed is evaluated in each
    frame by T.apply, which takes the bindings as given (an alias seed's
    images are its two bindings), and a saturated entry's seed only in the
    frame it did not come from, its image in its own being the entry. Each
    pool entry keeps both images, so a composed candidate's image is its
    root over its parts' images, rewritten at the root by T.norm_root, not
    walked again.
    Normal forms are fixpoints, so this equals evaluating the whole recipe,
    and the images stay variable-free.

    Phases: seed tests and pools each seed; seal ends the seed phase and
    indexes the final pool; search then tests the composed candidates over
    it. A sealed pool takes no entry: a destructor candidate that reduces
    in a frame reduces to a saturated entry there, whose seed already
    filed that image, so _test raises LateJoin for one that would join.

    A composed candidate is keyed by its root over the pool indices of its
    fields: (op, n) or (PROJ, i, n) over one entry, (op, i, j) for i op j
    (MULT's sorted, as its product is), and (ENC, (DEC, k, u), k) for the
    probe enc(dec(k, u), k). Its position, the tests count before it,
    follows from its key (_candidate): after the seeds come len(pool)
    probes per entry ENC-rooted in either frame, 7 one-field candidates
    per entry, then a row of slots per entry n1, one slot per entry n2 and
    _PAIR_TESTS candidates per slot. i op j is tested in the slot (min(i,
    j), max(i, j)), which runs the pair both ways round; the mirror slot
    repeats it and is counted.

    The rule: a candidate is tested when a rewrite or a known image can
    make it collide, and counted otherwise. A plain candidate, one that
    neither frame rewrites at the root, has its root over the two frames'
    pool images as images:
    - one-field: HASH, PK and PKV never rewrite, and PROJ only over a tuple;
    - pair: ENC, SIG and TUP never rewrite, DEC, CHECK and CHECKV only
      over the roots _OPENS gives (CHECKV over an SMULT only when its point
      is a SIGV, the one shape its rewrite opens), SMULT and SIGV only over
      an SMULT, and MULT only over a product, so a plain one's image is the
      two-factor product of two pool images;
    - probe: its dec rewrites in neither frame (in each frame only the key
      that is u's own can open u).
    An entry joins the pool only after missing both by_a and by_b, so pool
    images are pairwise distinct in each frame, and a product operand gives
    three or more factors (products only flatten): a plain candidate's
    image is no other candidate's unrewritten image but in two cases, a
    probe's, which is also the ENC pair enc(d, k)'s over an entry d whose
    image is the stuck dec(k, u), and the sigv rebase's (see Rebases).
    _locate yields, for an image, every candidate whose unrewritten image
    it is. So search collects the candidates that rewrite (_rewriting),
    adds the ENC pairs over a stuck dec, since such a pair and its probe
    can both be plain with one value, closes that set under naming by the
    seeds' images and its own, and tests it in enumeration order. A
    counted candidate's value is then no seed's, no tested candidate's and
    no other counted candidate's: testing it would change nothing.
    Lemma, the smult rule's premise (see Rebases): only seeds join, and a
    seed's image is an atom's, a joinable one (in its frame's joinable
    set, _joinable's walk of the bindings and their openings), or one
    stuck at a destructor that the other frame reduces, since an entry
    seed is a binding under destructors.
    Rebases: in a frame where pool entry e2's image is [s]p, e1 smult e2
    has the image [fac(e1)*s]p and sigv(e1, e2) has [s]sigv(e1, p); each
    is counted, though it rewrites, where each frame leaves it plain or
    rewrites it under a rule below. An SMULT-rooted image there is a
    joinable one (a seed's, or a rewrite's, which opens a joinable pool
    image), a plain s' smult p' over pool images, or a rebase over a
    joinable [s']p'. The smult rule: with no joinable product no pool image
    is a product, and with no factor of e1 among the joinable scalars'
    (factors), [fac(e1)*s]p is no joinable image, no plain one (its scalar
    is a product), no other smult rebase's (e1 is one factor, not in s'),
    and no sigv rebase's (its scalar s' would hold e1). The sigv rule: with
    s no pool image (_poolable), no plain smult has [s]sigv(e1, p), and
    _locate's inverse step names the rebase from any image of that shape.
    So either kind is exact as a plain candidate is. _opens folds the
    rules into marks per frame: POINT on an [s]p, SHARED on an entry that
    breaks the smult rule as e1, and SIGV only on an [s]p whose s is a pool
    image; _rewritable leaves out the rebases it counts.
    Rows: _rewriting visits only the slots (n1, n2), n2 >= n1, where a
    candidate can rewrite. _slots reads them off seal's indexes, without
    a scan of the pool, as the union of:
    - key partners: DEC, CHECK and CHECKV rewrite only where, in a frame,
      one entry's image is the key _opening gives for the other's. Pool
      images are distinct in each frame, so each key image in
      openers[side] that at[side] holds names the one entry whose image
      it is, and it pairs with each entry openers[side] lists under it,
      in the slot (min, max) of the two;
    - broad partners: for each two opens classes c1, c2 with _broad(c1,
      c2), the MULT, SMULT and SIGV shapes _rewritable keeps, whose
      rewrite needs no key, every slot from a member of c1 to one of c2.
    Those slots come out of a set; search sorts what it tests by
    position."""

    def __init__(self, fa, fb):
        self.sub_a, self.sub_b = fa.bindings, fb.bindings
        (aa, xa), (ab, xb) = _joinable(fa), _joinable(fb)
        self.atoms = aa | ab     # the atoms of either frame's bindings
        # per frame: the joinable scalars' factors, None past a product
        self.factors = (xa, xb)
        self.by_a: dict = {}
        self.by_b: dict = {}
        self.pool: list = []     # (recipe, img_a, img_b)
        self.tests = 0
        self.at = ({}, {})       # per frame: pool image -> pool index
        # the indexes seal builds once the seeds are in: per pool entry
        # the ops it opens in either frame; opens -> pool indices,
        # ascending; per frame, key image -> the entries it opens (see
        # _opening); ENC-rooted entry -> its probes' rank; and the tests
        # count before the probes, the one-field candidates and the rows
        self.sealed = False
        self.opens: list = []
        self.classes: dict = {}
        self.openers = ({}, {})
        self.enc: dict = {}
        self.starts = ()

    def seed(self, recipe: Term, side=None, image=None):
        """Test a seed; one from side's saturation brings its image there.
        A seed is an atom or a saturation recipe, which evaluates in any
        frame with its frame's domain."""
        ia = image if side == 0 else T.apply(self.sub_a, recipe)
        ib = image if side == 1 else T.apply(self.sub_b, recipe)
        return self._test(recipe, ia, ib)

    def _test(self, recipe: Term, ia: Term, ib: Term):
        self.tests += 1
        # setdefault hashes each image once; a by_b clash ends the search,
        # so the by_a entry it leaves behind is never read
        entry = (recipe, ib)
        got = self.by_a.setdefault(ia, entry)
        if got is not entry:
            r0, ib0 = got
            if ib0 != ib:
                return Distinguished(r0, recipe, "first", self.tests)
            return None
        r0 = self.by_b.setdefault(ib, recipe)
        if r0 is not recipe:
            return Distinguished(r0, recipe, "second", self.tests)
        # the pool is the seeds: a destructor application that reduced
        # somewhere reduces to a saturated entry, whose seed has its image.
        # A constructor image never becomes a part, so a test over one is
        # missed: h(h(w0)) = w2 tells [a, b, h(h(a))] from [a, b, h(c)],
        # yet the pass holds.
        if self.sealed:
            op = recipe[0]
            if op in _DESTRUCTORS and (ia[0] != op or ib[0] != op):
                raise LateJoin(f"{T.to_text(recipe)} would join the pool "
                               f"after the seeds")
        else:
            self.at[0][ia] = self.at[1][ib] = len(self.pool)
            self.pool.append((recipe, ia, ib))
        return None

    def _locate(self, img: Term, side: int):
        """Yield the key of each candidate whose unrewritten image in side's
        frame is img: a one-field op, a pair op other than MULT, a two-item
        tuple or a two-factor product over pool images; for enc(dec(k, u),
        k) also the probe over u and k; and, the inverse step, sigv(x,
        [s]p) for an image [s]sigv(x, p) whose s is no pool image, the one
        candidate with that image. Keys of candidates no pass enumerates
        are yielded too; _candidate drops them."""
        # fields read by hand, not by T.fields: it runs once per image
        op = img[0]
        if op in _FIELD_OPS or (
                (op == T.TUP or op == T.MULT) and len(img[1]) == 2):
            fields = img[1] if op == T.TUP or op == T.MULT else img[1:]
        elif op in _UNARY or op == T.PROJ:
            fields = img[-1:]
        else:
            return
        at = self.at[side]
        if op == T.ENC and fields[0][0] == T.DEC and fields[0][1] == img[2]:
            u, k = at.get(fields[0][2]), at.get(img[2])
            if u is not None and k is not None:
                yield T.ENC, (T.DEC, k, u), k
        elif op == T.SMULT and fields[1][0] == T.SIGV and \
                not self._poolable(fields[0], side):
            # the inverse step: the one candidate with this image is the
            # rebase sigv(x, [s]p) (no plain SMULT has a scalar off the pool)
            (_, x, p), op = fields[1], T.SIGV
            fields = x, (T.SMULT, fields[0], p)
        ix = [at.get(x) for x in fields]
        if None in ix:
            return
        if len(ix) == 1:
            yield (*img[:-1], ix[0])
        else:
            yield _pair_key(op, *ix)

    def seal(self):
        """End the seed phase: from here no candidate joins the pool (_test
        raises LateJoin instead), so the pool is final. Index it for
        _slots, _rewriting and _candidate, the only readers of opens,
        classes, openers, enc and starts, in one loop."""
        self.sealed = True
        for n, (_, a, b) in enumerate(self.pool):
            opens = frozenset(self._opens(a, 0) + self._opens(b, 1))
            self.opens.append(opens)
            self.classes.setdefault(opens, []).append(n)
            for side, img in enumerate((a, b)):
                opening = _opening(img)
                if opening is not None:
                    self.openers[side].setdefault(opening[1], []).append(n)
            if a[0] == T.ENC or b[0] == T.ENC:
                self.enc[n] = len(self.enc)
        m = len(self.pool)
        ones = self.tests + m * len(self.enc)
        self.starts = (self.tests, ones, ones + len(_ONE_POS) * m)

    def _poolable(self, x: Term, side: int) -> bool:
        """Whether x is a pool image in side's frame; asked only once the
        pool is sealed, so final."""
        return x in self.at[side]

    def _opens(self, img: Term, side: int) -> tuple:
        """The ops and marks _rewritable reads off an entry whose image in
        side's frame is img: _OPENS by its root; SHARED when a factor of
        img is one of a joinable scalar's or the frame holds a product; and
        over an [s]p, POINT, SIGV only when s is a pool image, and CHECKV
        only when p is a SIGV, as _opening says for saturation."""
        ops = _OPENS.get(img[0], ())
        factors = self.factors[side]
        if factors is None or not factors.isdisjoint(T.m_factors(img)):
            ops += (_SHARED[side],)
        if img[0] == T.SMULT:
            ops += (_POINT[side],)
            if self._poolable(img[1], side):
                ops += (T.SIGV,)
            if img[2][0] == T.SIGV:
                ops += (T.CHECKV,)
        return ops

    def _candidate(self, key):
        """(position, recipe, image a, image b, plain) of the candidate key
        names: the tests count before it, its recipe over the pool's, its
        images rewritten at the root, and whether neither frame rewrites
        it there. None for a key that the search does not enumerate: a
        probe over an entry ENC-rooted in neither frame, or PROJ i for
        i > 4."""
        pool, (probes, ones, rows) = self.pool, self.starts
        # candidates built by hand: this runs once per collected or named key
        if key[0] not in _PAIR_OPS:
            head, n = key[:-1], key[-1]
            pos = _ONE_POS.get(head)
            if pos is None:
                return None
            r, a, b = pool[n]
            pos += ones + len(_ONE_POS) * n
            recipe, ta, tb = (*head, r), (*head, a), (*head, b)
        elif type(key[1]) is tuple:
            _, (_, k, u), _ = key
            rank = self.enc.get(u)
            if rank is None:
                return None
            (ur, ua, ub), (kr, ka, kb) = pool[u], pool[k]
            ta, tb = (T.DEC, ka, ua), (T.DEC, kb, ub)
            ia, ib = T.norm_root(ta), T.norm_root(tb)
            # ENC never rewrites at the root
            return (probes + len(pool) * rank + k,
                    (T.ENC, (T.DEC, kr, ur), kr), (T.ENC, ia, ka),
                    (T.ENC, ib, kb), ia is ta and ib is tb)
        else:
            op, i, j = key
            (r1, a1, b1), (r2, a2, b2) = pool[i], pool[j]
            n1, n2 = (i, j) if i <= j else (j, i)
            pos = rows + _PAIR_TESTS * (len(pool) * n1 + n2) + \
                _PAIR_POS[op, i > j]
            recipe = _pair_term(op, r1, r2)
            ta, tb = _pair_term(op, a1, a2), _pair_term(op, b1, b2)
        ia, ib = T.norm_root(ta), T.norm_root(tb)
        return pos, recipe, ia, ib, ia is ta and ib is tb

    def _slots(self) -> set:
        """The pair slots (n1, n2), n2 >= n1, where a candidate can
        rewrite: the key and broad partners of Rows, read off openers, at
        and classes."""
        slots = set()
        for at, openers in zip(self.at, self.openers):
            for key, opened in openers.items():
                k = at.get(key)
                if k is not None:
                    slots.update((k, n) if k <= n else (n, k) for n in opened)
        classes = self.classes.items()
        for c1, ix1 in classes:
            for c2, ix2 in classes:
                if _broad(c1, c2):
                    slots.update((n1, n2) for n1 in ix1 for n2 in ix2
                                 if n2 >= n1)
        return slots

    def _rewriting(self):
        """Yield, as _candidate gives them, the candidates that a frame
        rewrites at the root, but for the rebases the rules count: the
        probes by the key of an entry ENC-rooted in a frame, the
        projections of a tuple, and in each of _slots' slots the shapes
        _rewritable keeps. Then yield the ENC pairs enc(d, k) over each
        entry d whose image in a frame is a stuck dec under pool entry k's
        image, which need not rewrite."""
        pool, at, opens = self.pool, self.at, self.opens
        keys, stuck = [], []
        for u, (_, a, b) in enumerate(pool):
            if T.PROJ in opens[u]:
                keys += [(T.PROJ, i, u) for i in range(1, 5)]
            for side, img in ((0, a), (1, b)):
                if img[0] == T.ENC and img[2] in at[side]:
                    k = at[side][img[2]]
                    keys.append((T.ENC, (T.DEC, k, u), k))
                elif img[0] == T.DEC and img[1] in at[side]:
                    stuck.append((T.ENC, u, at[side][img[1]]))
        for n1, n2 in self._slots():
            keys += [(op, n2, n1) if swapped else (op, n1, n2)
                     for op, swapped in _rewritable(opens[n1], opens[n2])]
        for key in keys:
            cand = self._candidate(key)
            if cand is not None and not cand[-1]:
                yield cand
        for key in stuck:
            cand = self._candidate(key)
            if cand is not None:
                yield cand

    def search(self):
        """Test, over the sealed pool, the candidates _rewriting yields and
        every candidate that a seed's image or a tested candidate's names
        (_locate), in enumeration order, each at its position, and count
        every other candidate. The witness of the first clash, or None.
        An atom seed image (a constant, a name or gen) is no candidate's
        unrewritten image, so it names nothing and is not located."""
        chosen = {cand[0]: cand for cand in self._rewriting()}
        # the images still to locate: every seed's but the atoms, then each
        # chosen candidate's
        images = [(img, side) for side, filed in enumerate(
            (self.by_a, self.by_b)) for img in filed if img[0] > T.VAR]
        for cand in chosen.values():
            images += ((cand[2], 0), (cand[3], 1))
        named = set()
        while images:
            for key in self._locate(*images.pop()):
                if key in named:
                    continue
                named.add(key)
                cand = self._candidate(key)
                if cand is not None and cand[0] not in chosen:
                    chosen[cand[0]] = cand
                    images += ((cand[2], 0), (cand[3], 1))
        for pos, recipe, ia, ib, _ in sorted(chosen.values()):
            self.tests = pos
            verdict = self._test(recipe, ia, ib)
            if verdict is not None:
                return verdict
        m = len(self.pool)
        self.tests = self.starts[2] + _PAIR_TESTS * m * m
        return None


def _seed_recipes(sa: Saturated, sb: Saturated, atoms):
    """The seeds as _Bijection.seed's arguments, in a deterministic order:
    gen and the other constants, the months and public names among the
    atoms (_joinable's, of both frames' bindings, so of every saturated
    entry), in term order, then each frame's saturated building blocks
    with that frame's side and their image there."""
    seeds = [T.gen()]
    seeds += [T.const(t) for t in T.CONST_TAGS if t != "mm"]
    restricted = sa.frame.restricted | sb.frame.restricted
    seeds += sorted(x for x in atoms if x[0] == T.CONST or (
        x[0] == T.NAME and x[1] not in restricted))
    seeds = [(x, None, None) for x in seeds]
    for side, sat in enumerate((sa, sb)):
        seeds += [(r, side, img) for img, r in sat.entries.items()]
    return seeds


def static_equiv(fa: Frame, fb: Frame):
    """Bounded distinguisher search between two frames with equal domains."""
    domain = list(fa.bindings)
    if domain != list(fb.bindings):
        raise DomainMismatch(
            f"alias domains differ: {domain} vs {list(fb.bindings)}")
    sa, sb = saturate(fa), saturate(fb)
    bij = _Bijection(fa, fb)

    # each alias, and any recipe the two saturations share, is a seed of
    # both: a repeat counts one test and is not run again
    seen = set()
    for r, side, img in _seed_recipes(sa, sb, bij.atoms):
        if r in seen:
            bij.tests += 1
            continue
        seen.add(r)
        verdict = bij.seed(r, side, img)
        if verdict is not None:
            return verdict

    bij.seal()
    verdict = bij.search()
    if verdict is not None:
        return verdict
    return Equivalent(bij.tests)
