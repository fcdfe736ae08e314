"""Attacker knowledge: frames, deduction, and bounded static equivalence.

A frame is the attacker's view of a run, nu n.sigma: the set of restricted
(secret) names plus one substitution from aliases to the messages observed
on the network, in output order. A recipe is a term the attacker can build:
its leaves are frame aliases (variables), public constants, and
non-restricted names.

saturate() closes a frame under destructor analysis, generalizing the
building-block normalization used in the protocol's proofs to arbitrary
frames. It splits tuples and opens an entry when the key that opens it
derives within SATURATE_KEY_BOUND: enc(m, k) by dec with k, sig(k, m) by
check with pk(k), and sigv(k, m) or a blinded [s]sigv(k, m) by checkv with
pkv(k). The opened image is the root rewrite of (destructor, key, entry).

derive() finds a minimal-size recipe for a target by composing saturated
building blocks with constructors (Abadi & Cortier's saturate-then-compose
scheme); it is sound (returned recipes evaluate to the target) and complete
only up to the size bound. Saturated entries and public atoms cost 0; an
application costs 1 plus its parts; a product joined from several covered
parts (product blocks or single factors) costs 1 plus theirs; a rebase
[r]([s]p) on a block [s]p costs 1 plus r's cost. Among equally cheap
recipes the earliest block in saturation order wins.

static_equiv() enumerates candidate recipes breadth-first from saturated
building blocks and maintains a partial bijection between the two frames'
value spaces; the first inconsistency is a distinguishing equality test.
The bound is on recipe size: a building block has size 1 and an
application 1 plus its parts; the level-0 seeds are tested at any bound,
and the enc(dec(k, u), k) probe may exceed it by 3. Only the level-0 seeds
are evaluated by substitution; every composed candidate's image in each
frame is its root over its parts' stored images, rewritten at the root
only (terms.norm_root) rather than looked up in the term memo. That gives
the same normal form because normal forms are fixpoints. The tests count
is every enumerated candidate, including the mirror of a pair of entries
that joined the pool at the same level; a mirror's candidates are counted,
not rebuilt, since the pair's first build fixed their outcome. A pass is
a bounded guarantee, never a proof; it also says when the pool cap, not the
bound, ended the search.

A run's frame is its one record of what the attacker has seen, and it only
grows, through Frame.bind. The analyses here only read their frames, so
searches over different frames can run in parallel; within one search,
enumeration order (and therefore the first witness) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import terms as T
from .terms import Term

DERIVE_BOUND = 8
TEST_BOUND = 6
SATURATE_KEY_BOUND = 6
POOL_CAP = 6000
ALIAS_PREFIX = "w"


class DomainMismatch(Exception):
    pass


@dataclass
class Frame:
    """The one record of what the attacker has seen: the restricted name ids
    and the substitution alias -> normal form, in output order. It grows
    only through bind, the one place an alias is made."""
    restricted: set = field(default_factory=set)
    bindings: dict = field(default_factory=dict)

    def bind(self, t: Term) -> str:
        """Record a protocol output under a fresh alias; returns the alias."""
        alias = f"{ALIAS_PREFIX}{len(self.bindings)}"
        self.bindings[alias] = T.normalize(t)
        return alias


def recipe_ok(f: Frame, recipe: Term) -> bool:
    """A valid recipe references only bound aliases and public names."""
    if not T.free_vars(recipe) <= f.bindings.keys():
        return False
    return all(n[1] not in f.restricted for n in T.free_names(recipe))


def recipe_value(f: Frame, recipe: Term) -> Term:
    val = T.apply(f.bindings, recipe)
    if T.free_vars(val):
        raise KeyError(f"recipe references unbound aliases: {T.to_text(recipe)}")
    return val


# -- saturation -------------------------------------------------------------

@dataclass
class Saturated:
    frame: Frame
    entries: dict = field(default_factory=dict)   # image -> first recipe
    # deduction's blocks, in entries order, as (factor multiset, recipe):
    # product images under None, [s]p images under their point p
    blocks: dict = field(default_factory=dict)

    def add(self, recipe: Term, image: Term) -> bool:
        if image in self.entries:
            return False
        self.entries[image] = recipe
        if image[0] == T.MULT:
            self.blocks.setdefault(None, []).append((image[1], recipe))
        elif image[0] == T.SMULT:
            self.blocks.setdefault(image[2], []).append(
                (T.m_factors(image[1]), recipe))
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
    """Destructor closure of the frame, to fixpoint."""
    sat = Saturated(f)
    for alias, img in f.bindings.items():
        sat.add(T.var(alias), img)
    changed = True
    while changed:
        changed = False
        for img, recipe in list(sat.entries.items()):
            if img[0] == T.TUP:
                for i, item in enumerate(img[1]):
                    changed |= sat.add(T.proj(i + 1, recipe), item)
                continue
            opening = _opening(img)
            if opening is None:
                continue
            op, key = opening
            key_recipe = _derive(sat, key, SATURATE_KEY_BOUND)
            if key_recipe is not None:
                changed |= sat.add((op, key_recipe, recipe),
                                   T.norm_root((op, key, img)))
    return sat


# -- deduction --------------------------------------------------------------

def derive(f, target: Term, size_bound: int = DERIVE_BOUND):
    """Recipe for target over the (saturated) frame, or None within the
    bound. Sound; complete only up to size_bound."""
    sat = f if isinstance(f, Saturated) else saturate(f)
    target = T.normalize(target)
    if T.free_vars(target):
        return None
    return _derive(sat, target, size_bound)


def _derive(sat: Saturated, target: Term, bound: int):
    best = _cost(sat, target, {})
    if best is None or best[0] > bound:
        return None
    return best[1]


def _cost(sat: Saturated, t: Term, memo: dict):
    """(size, recipe) of the first smallest recipe for t, or None. Every
    recursive call is on a strict subterm of t."""
    if t in memo:
        return memo[t]
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
        best = _mult_cost(sat, t[1], memo)
    elif op == T.SMULT:
        best = _smult_cost(sat, t, memo)
    else:
        best = _compose(sat, t, memo)
    memo[t] = best
    return best


def _compose(sat: Saturated, t: Term, memo: dict):
    """t built at its root: the same node with each field replaced by its
    recipe, at 1 plus the fields' costs; None at the first field, in order,
    that does not derive."""
    op = t[0]
    head = 2 if op == T.PROJ else 1
    fields = t[1] if op == T.TUP else t[head:]
    cost, recipes = 1, []
    for x in fields:
        sub = _cost(sat, x, memo)
        if sub is None:
            return None
        cost += sub[0]
        recipes.append(sub[1])
    if op == T.TUP:
        return cost, (T.TUP, tuple(recipes))
    return cost, (*t[:head], *recipes)


def _minus(want: tuple, block: tuple):
    """The multiset want less block, or None when block is not inside want."""
    rest = list(want)
    for u in block:
        if u not in rest:
            return None
        rest.remove(u)
    return tuple(rest)


def _mult_cost(sat: Saturated, factors: tuple, memo: dict):
    """Cover the factor multiset by known product blocks and single factors;
    one product application joins the parts."""
    cover = _cover(sat, factors, memo)
    if cover is None:
        return None
    cost, parts = cover
    if len(parts) == 1:
        return (cost, parts[0])
    return (cost + 1, (T.MULT, tuple(parts)))


def _cover(sat: Saturated, factors: tuple, memo: dict):
    if not factors:
        return (0, [])
    first = factors[0]
    best = None
    # product blocks that hold the first factor, then the factor on its own
    for unit, recipe in sat.blocks.get(None, ()):
        rest = _minus(factors, unit) if first in unit else None
        if rest is None:
            continue
        tail = _cover(sat, rest, memo)
        if tail is not None and (best is None or tail[0] < best[0]):
            best = (tail[0], [recipe] + tail[1])
    sub = _cost(sat, first, memo)
    tail = None if sub is None else _cover(sat, factors[1:], memo)
    if tail is not None and (best is None or sub[0] + tail[0] < best[0]):
        best = (sub[0] + tail[0], [sub[1]] + tail[1])
    return best


def _smult_cost(sat: Saturated, t: Term, memo: dict):
    """[s]p built directly, or rebased on a known block [s2]p as
    [r]([s2]p), where r covers s less s2."""
    best = _compose(sat, t, memo)
    want = T.m_factors(t[1])
    for unit, recipe in sat.blocks.get(t[2], ()):
        rest = _minus(want, unit)
        if not rest:    # not inside s, or all of it
            continue
        sub = _mult_cost(sat, rest, memo)
        if sub is not None and (best is None or 1 + sub[0] < best[0]):
            best = (1 + sub[0], (T.SMULT, sub[1], recipe))
    return best


# -- bounded static equivalence ----------------------------------------------

@dataclass
class Equivalent:
    bound: int
    tests: int
    capped: bool = False   # the pool cap turned away composition material

    def __bool__(self):
        return True


@dataclass
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
# destructor probes first: they reduce and collide, constructors mint fresh
_BINARY = (T.DEC, T.CHECK, T.CHECKV, T.ENC, T.SMULT, T.MULT, T.TUP, T.SIG, T.SIGV)
# tests per pair of pool entries: both orders of each op, MULT's one order
_PAIR_TESTS = 2 * len(_BINARY) - 1


class _Bijection:
    """Partial bijection between the two frames' value spaces; recipes whose
    images break it witness a distinguishing test. Every candidate is
    counted in tests: static_equiv admits each one here except a mirrored
    pair's, which it counts without rebuilding. The pool cap only limits
    which recipes feed further levels.

    Images are evaluated incrementally: a level-0 seed is substituted and
    normalized in each frame, and each pool entry keeps both images, so a
    composed candidate's image is its root over its parts' images,
    rewritten at the root by T.norm_root, not looked up in the term memo.
    Normal forms are fixpoints, so this equals evaluating the whole recipe,
    and the images stay variable-free."""

    def __init__(self, fa, fb, pool_cap):
        self.sub_a, self.sub_b = fa.bindings, fb.bindings
        self.pool_cap = pool_cap
        self.capped = False
        self.by_a: dict = {}
        self.by_b: dict = {}
        self.pool: list = []     # (recipe, size, img_a, img_b)
        self.fresh: list = []    # admissions since the last level cut
        self.tests = 0

    def seed(self, recipe: Term):
        try:
            ia = T.apply(self.sub_a, recipe)
            ib = T.apply(self.sub_b, recipe)
        except T.MalformedTerm:
            return None
        if T.free_vars(ia) or T.free_vars(ib):
            return None
        return self.admit(recipe, 1, ia, ib)

    def admit(self, recipe: Term, size: int, ta: Term, tb: Term):
        """Test a candidate whose images in the two frames are the root
        rewrites of ta and tb, well-formed terms over normal parts (so the
        rewrite raises no MalformedTerm)."""
        ia = T.norm_root(ta)
        ib = T.norm_root(tb)
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
        # pool only composition material: small recipes and destructor
        # applications that reduced somewhere. Composites of fresh
        # constructor images distinguish nothing their parts do not, except
        # through a later reduction, and reductions re-enter here.
        op = recipe[0]
        useful = size <= 1 or (
            op in (T.DEC, T.PROJ, T.CHECK, T.CHECKV)
            and (ia[0] != op or ib[0] != op))
        if useful:
            if len(self.pool) < self.pool_cap:
                entry = (recipe, size, ia, ib)
                self.pool.append(entry)
                self.fresh.append(entry)
            else:
                self.capped = True
        return None

    def cut_level(self):
        fresh, self.fresh = self.fresh, []
        return fresh


def _seed_recipes(sa: Saturated, sb: Saturated):
    """Deterministic level-0 candidates: constants, public names, months and
    the saturated building blocks of both frames."""
    seeds = [T.gen()]
    seeds += [T.const(t) for t in T.CONST_TAGS if t != "mm"]
    months = set()
    pub_names = set()
    restricted = sa.frame.restricted | sb.frame.restricted
    for img in [*sa.entries, *sb.entries]:
        stack = [img]
        while stack:
            x = stack.pop()
            if x[0] == T.CONST and x[1] == "mm":
                months.add(x[2])
            elif x[0] == T.NAME and x[1] not in restricted:
                pub_names.add(x)
            elif x[0] in (T.MULT, T.TUP):
                stack.extend(x[1])
            elif x[0] == T.PROJ:
                stack.append(x[2])
            elif x[0] in (T.HASH, T.PK, T.PKV):
                stack.append(x[1])
            elif x[0] >= T.MULT:
                stack.extend((x[1], x[2]))
    seeds += [T.mm(k) for k in sorted(months)]
    seeds += sorted(pub_names)
    seeds += sa.entries.values()
    seeds += sb.entries.values()
    return seeds


def static_equiv(fa: Frame, fb: Frame, test_bound: int = TEST_BOUND,
                 pool_cap: int = POOL_CAP):
    """Bounded distinguisher search between two frames with equal domains."""
    domain = list(fa.bindings)
    if domain != list(fb.bindings):
        raise DomainMismatch(
            f"alias domains differ: {domain} vs {list(fb.bindings)}")
    sa, sb = saturate(fa), saturate(fb)
    bij = _Bijection(fa, fb, pool_cap)

    for r in _seed_recipes(sa, sb):
        verdict = bij.seed(r)
        if verdict is not None:
            return verdict

    # decryptability probes: enc(dec(k, u), k) = u tests made explicit
    enc_rooted = [e for e in bij.pool if e[2][0] == T.ENC or e[3][0] == T.ENC]
    keys = list(bij.pool)
    for er, es, ea, eb in enc_rooted:
        for kr, ks, ka, kb in keys:
            size = es + 2 * ks + 2
            if size > test_bound + 3:
                continue
            verdict = bij.admit((T.ENC, (T.DEC, kr, er), kr), size,
                                (T.ENC, T.norm_root((T.DEC, ka, ea)), ka),
                                (T.ENC, T.norm_root((T.DEC, kb, eb)), kb))
            if verdict is not None:
                return verdict

    frontier = bij.cut_level()
    while frontier:
        for r, s, a, b in frontier:
            if s + 1 > test_bound:
                continue
            for op in _UNARY:
                verdict = bij.admit((op, r), s + 1, (op, a), (op, b))
                if verdict is not None:
                    return verdict
            for i in range(1, 5):
                verdict = bij.admit((T.PROJ, i, r), s + 1,
                                    (T.PROJ, i, a), (T.PROJ, i, b))
                if verdict is not None:
                    return verdict
        base = list(bij.pool)
        # the frontier is the slice base[k:k + len(frontier)]. A pair of two
        # frontier entries was composed both ways round when its earlier
        # entry was e1. That left each image pair in by_a (MULT sorts its
        # product, so its one order covers both), so the mirror's tests are
        # all consistent by_a hits: they are counted, not rebuilt.
        k = len(base) - len(bij.fresh) - len(frontier)
        for i, e1 in enumerate(frontier):
            mirrored = _PAIR_TESTS * sum(
                1 for e2 in frontier[:i] if e1[1] + e2[1] + 1 <= test_bound)
            for seconds, skipped in ((base[:k], mirrored), (base[k + i:], 0)):
                for e2 in seconds:
                    size = e1[1] + e2[1] + 1
                    if size > test_bound:
                        continue
                    for op in _BINARY:
                        if op == T.MULT:   # commutative, one direction enough
                            orders = ((e1, e2),)
                        else:
                            orders = ((e1, e2), (e2, e1))
                        for (r1, _, a1, b1), (r2, _, a2, b2) in orders:
                            if op == T.MULT or op == T.TUP:
                                verdict = bij.admit(
                                    (op, (r1, r2)), size,
                                    (op, (a1, a2)), (op, (b1, b2)))
                            else:
                                verdict = bij.admit((op, r1, r2), size,
                                                    (op, a1, a2), (op, b1, b2))
                            if verdict is not None:
                                return verdict
                bij.tests += skipped
        frontier = bij.cut_level()
    return Equivalent(test_bound, bij.tests, bij.capped)
