"""Frame deduction and static-equivalence tests, cross-validated against
blind exhaustive recipe enumeration on small frames."""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import utxsim.checks as C
import utxsim.frames as F
import utxsim.harness as H
import utxsim.terms as T
from record_pins import assert_pinned

G = T.gen()


def build(restricted, images):
    f = F.Frame({n[1] for n in restricted})
    return f, [f.bind(T.normalize(img)) for img in images]


# -- blind oracles -----------------------------------------------------------
#
# These enumerate raw recipes breadth-first over atoms and all constructors,
# with no saturation and no goal direction. Deduplicating by evaluated value
# preserves exhaustiveness: evaluation is compositional (the value of C[r]
# depends on r only through r's value), so swapping a subrecipe for an
# equal-valued, no-larger representative loses nothing.

_UNARY_OPS = (T.HASH, T.PK, T.PKV)
_BINARY_OPS = (T.SMULT, T.ENC, T.DEC, T.SIG, T.SIGV, T.CHECK, T.CHECKV)


def _oracle_atoms(frame, extra_atoms):
    atoms = [T.var(a) for a in frame.bindings]
    atoms += [G, T.mm(0)]
    atoms += [n for n in sorted(extra_atoms)]
    return atoms


def _combine(r1, r2):
    for op in _BINARY_OPS:
        yield (op, r1, r2)
        yield (op, r2, r1)
    yield (T.MULT, (r1, r2))
    yield (T.TUP, (r1, r2))
    yield (T.TUP, (r2, r1))


def _enumerate(atoms, bound, admit):
    """Breadth-first closure over all constructors, grouped by recipe size;
    admit(recipe, size) returns True to short-circuit, or a recipe to keep
    it in the pool."""
    by_size = {0: []}
    for a in atoms:
        got = admit(a, 0)
        if got is True:
            return True
        if got:
            by_size[0].append(a)
    for size in range(1, bound + 1):
        fresh = []

        def take(cand):
            got = admit(cand, size)
            if got is True:
                return True
            if got:
                fresh.append(cand)
            return False

        for r1 in by_size.get(size - 1, ()):
            for op in _UNARY_OPS:
                if take((op, r1)):
                    return True
            for i in (1, 2, 3):
                if take((T.PROJ, i, r1)):
                    return True
        for s1 in range(size):
            s2 = size - 1 - s1
            if s2 < s1:
                break
            for r1 in by_size.get(s1, ()):
                for r2 in by_size.get(s2, ()):
                    for cand in _combine(r1, r2):
                        if take(cand):
                            return True
        by_size[size] = fresh
    return False


def oracle_values(frame, bound, extra_atoms=()):
    """value -> (size, recipe) for everything reachable within the bound."""
    sub = frame.bindings
    values = {}

    def admit(recipe, size):
        val = T.apply(sub, recipe)
        if T.free_vars(val):
            return False
        if val in values:
            return False
        values[val] = (size, recipe)
        return recipe

    _enumerate(_oracle_atoms(frame, extra_atoms), bound, admit)
    return values


def oracle_derivable(frame, target, bound, extra_atoms=()):
    return T.normalize(target) in oracle_values(frame, bound, extra_atoms)


def oracle_distinguishable(fa, fb, bound):
    """Exhaustive pair comparison up to the bound, phrased as a consistency
    check of the induced value correspondence (equivalent to comparing the
    equality outcome of every recipe pair)."""
    sub_a, sub_b = fa.bindings, fb.bindings
    seen_a, seen_b = {}, {}

    def admit(recipe, size):
        va = T.apply(sub_a, recipe)
        vb = T.apply(sub_b, recipe)
        if T.free_vars(va) or T.free_vars(vb):
            return False
        if va in seen_a:
            return True if seen_a[va] != vb else False
        if vb in seen_b:
            return True  # equal to an older recipe in the second world only
        seen_a[va] = vb
        seen_b[vb] = va
        return recipe

    return _enumerate(_oracle_atoms(fa, ()), bound, admit)


# -- worked examples ---------------------------------------------------------

def test_extend_gives_distinct_aliases():
    f, (a1, a2) = build([], [G, G])
    assert a1 != a2
    assert f.bindings[a1] == f.bindings[a2] == G


def test_saturation_opens_encryption_with_known_key():
    m, k = T.name("m"), T.name("k")
    f, _ = build([m, k], [T.enc(m, k), k])
    sat = F.saturate(f)
    assert T.normalize(m) in sat.entries
    r = F.derive(f, m)
    assert F.recipe_value(f, r) == T.normalize(m)


def test_saturation_exposes_bank_certificate_to_fake_card():
    # a fake card that chose its own scalar n can read the certificate an
    # honest terminal sends encrypted under the session key
    t, bt, s = T.name("t", "scalar"), T.name("bt", "scalar"), T.name("s", "scalar")
    n = T.name("n", "scalar")  # attacker scalar: not restricted
    crt_body = T.tup(T.mm(1), T.smult(bt, G))
    crt = T.tup(crt_body, T.sig(s, crt_body))
    z1 = T.smult(t, G)
    key = T.h(T.smult(t, T.smult(n, G)))
    f, _ = build([t, bt, s], [z1, T.enc(crt, key)])
    sat = F.saturate(f)
    assert T.normalize(T.mm(1)) in sat.entries
    assert T.normalize(T.smult(bt, G)) in sat.entries
    assert T.normalize(T.sig(s, crt_body)) in sat.entries
    assert F.derive(f, s) is None


def test_blinded_output_reveals_no_factors():
    a, c = T.name("a", "scalar"), T.name("c", "scalar")
    f, _ = build([a, c], [T.smult(a, T.smult(c, G))])
    sat = F.saturate(f)
    assert len(sat.entries) == 1
    assert F.derive(f, a) is None
    assert F.derive(f, T.smult(c, G)) is None


def test_derive_self_and_restrictions():
    pin, k = T.name("PIN"), T.name("k")
    f, aliases = build([pin, k], [T.enc(pin, k), k])
    for alias in aliases:
        r = F.derive(f, f.bindings[alias])
        assert r is not None
        assert F.recipe_value(f, r) == f.bindings[alias]
        assert all(n[1] not in f.restricted for n in T.free_names(r))


def test_derive_composes_products():
    a, b, c = (T.name(x, "scalar") for x in "abc")
    f, _ = build([a, b, c], [T.mult(a, b), c])
    r = F.derive(f, T.mult(a, b, c))
    assert r is not None
    assert F.recipe_value(f, r) == T.normalize(T.mult(a, b, c))
    assert F.derive(f, T.mult(a, c)) is None  # cannot split a·b


def test_derive_rebases_blinded_points():
    a, c = T.name("a", "scalar"), T.name("c", "scalar")
    pub = T.name("nb", "scalar")
    f, _ = build([a, c], [T.smult(T.mult(a, c), G)])
    target = T.smult(T.mult(a, c, pub), G)
    r = F.derive(f, target)
    assert r is not None
    assert F.recipe_value(f, r) == T.normalize(target)


def test_derive_counts_a_public_atom_as_free():
    """A public atom adds nothing to a recipe's size, so the hash of a
    seven-field tuple of one public name is derived within DERIVE_BOUND
    over a frame that binds only a restricted name."""
    n, p = T.name("n"), T.name("p")
    f, _ = build([n], [n])
    target = T.normalize(T.h(T.tup(*[p] * 7)))
    assert T.to_text(F.derive(f, target)) == "(hash (tuple p p p p p p p))"


def test_static_equiv_trivial_and_witness():
    same, _ = build([], [G, G])
    hashed, _ = build([], [G, T.h(G)])
    assert bool(F.static_equiv(same, same))
    # w1 = gen holds only where w1 is gen: in the first frame, then in the
    # second once the frames swap (a clash found through the second image)
    for fa, fb, side in ((same, hashed, "first"), (hashed, same, "second")):
        verdict = F.static_equiv(fa, fb)
        assert not bool(verdict)
        assert verdict.side == side
        la, ra = verdict.left, verdict.right
        ea = T.apply(fa.bindings, la) == T.apply(fa.bindings, ra)
        eb = T.apply(fb.bindings, la) == T.apply(fb.bindings, ra)
        assert ea != eb
        assert ea == (side == "first")


def test_static_equiv_domain_mismatch():
    fa, _ = build([], [G])
    fb, _ = build([], [G, G])
    with pytest.raises(F.DomainMismatch):
        F.static_equiv(fa, fb)


def test_static_equiv_decryptability_probe():
    # same alias structure; the published key opens the ciphertext in one
    # world only
    m, k1, k2 = T.name("m"), T.name("k1"), T.name("k2")
    fa, _ = build([m, k1, k2], [T.enc(m, k1), k1])
    fb, _ = build([m, k1, k2], [T.enc(m, k1), k2])
    assert not bool(F.static_equiv(fa, fb))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1, open: a pass can miss a short test, since a "
    "constructor image never joins the pool as a part"))
def test_static_equiv_misses_hash_of_composite():
    a, b, c = T.name("a"), T.name("b"), T.name("c")
    other, _ = build([a, b, c], [a, b, T.h(c)])
    for composite in (T.h(a), T.tup(a, b)):
        f, _ = build([a, b, c], [a, b, T.h(composite)])
        # h(h(w0)) = w2, or h(tup(w0, w1)) = w2, holds in f only
        assert not F.static_equiv(f, other)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 25, open: the pair search rebases a point by one pool "
    "entry, and a product of two known scalars is never a pool entry"))
def test_static_equiv_misses_a_cofactor_rebase():
    s, t, p, q = (T.name(x, "scalar") for x in ("s", "t", "p", "q"))
    fa, _ = build([s, t], [T.smult(s, G), T.smult(T.mult(p, q, s), G), p, q])
    fb, _ = build([s, t], [T.smult(s, G), T.smult(t, G), p, q])
    # [w2]([w3]w0) = w1 holds in fa only
    test = T.smult(T.var("w2"), T.smult(T.var("w3"), T.var("w0")))
    assert [F.recipe_value(f, test) == F.recipe_value(f, T.var("w1"))
            for f in (fa, fb)] == [True, False]
    assert not F.static_equiv(fa, fb)
    assert not F.static_equiv(fb, fa)


def test_saturate_idempotent_and_monotone():
    m, k = T.name("m"), T.name("k")
    f, _ = build([m, k], [T.enc(T.tup(m, k), k), k])
    images1 = set(F.saturate(f).entries)
    assert set(F.saturate(f).entries) == images1
    f.bind(T.normalize(T.h(m)))
    assert images1 <= set(F.saturate(f).entries)


# -- saturation rounds ---------------------------------------------------------
#
# saturate visits each entry once but for one whose key has not derived yet.
# The round-robin loop below, which visits every entry in every round until a
# round adds nothing, is the reference for the entries and their order.

def _round_robin(f):
    sat = F.Saturated(f)
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
            opening = F._opening(img)
            if opening is None:
                continue
            op, key = opening
            key_cost = F._cost(sat, key)
            if key_cost is not None:
                changed |= sat.add((op, key_cost[1], recipe),
                                   T.norm_root((op, key, img)))
    return sat


def test_saturate_matches_the_round_robin_loop():
    """Over every built-in scenario at seeds 0-3, under its own program and
    under the fuzzer, in both worlds, saturate adds the reference loop's
    entries in its order and files the same blocks; and every entry's recipe
    evaluates to its image in its own frame, the image static_equiv takes
    for that entry's seed there. In the hand-made frame, round 2 opens w0
    with the key round 1 split off w1 before it splits (a, b), which round 1
    added: a round that visited its own additions, or the shut entries
    last, would add a and b before m."""
    m, k, a, b = (T.name(x) for x in "mkab")
    f, _ = build([m, k, a, b], [T.enc(m, k), T.tup(k, T.tup(a, b))])
    assert [T.to_text(x) for x in F.saturate(f).entries.values()] == [
        "?w0", "?w1", "(proj 1 ?w1)", "(proj 2 ?w1)",
        "(dec (proj 1 ?w1) ?w0)", "(proj 1 (proj 2 ?w1))",
        "(proj 2 (proj 2 ?w1))"]
    frames = 0
    for sc in C.SCENARIOS.values():
        for seed in range(4):
            for program in (sc, replace(sc, strategy="fuzzer",
                                        strategy_arg=seed)):
                for world in H.WORLDS:
                    f = H.run_scenario(
                        replace(program, seed=seed, world=world)).frame
                    sat, ref = F.saturate(f), _round_robin(f)
                    assert list(sat.entries.items()) == \
                        list(ref.entries.items())
                    assert sat.blocks == ref.blocks
                    for img, recipe in sat.entries.items():
                        assert T.apply(f.bindings, recipe) == img
                    frames += 1
    assert frames == len(C.SCENARIOS) * 16


def test_saturate_revisits_only_shut_entries(monkeypatch):
    """One saturate call over the unlink_utx real frame splits no tuple
    twice and offers no entry to _opening again once it is opened, or when
    it has no opening. An entry offered again was shut, its key not
    deriving, at each earlier offer, and an entry was added in between: it
    is retried once per later round."""
    f = H.run_scenario(C.SCENARIOS["unlink_utx"]).frame
    events = []
    proj, opening, add = T.proj, F._opening, F.Saturated.add

    def spy_proj(i, recipe):
        events.append(("split", (i, recipe)))
        return proj(i, recipe)

    def spy_opening(img):
        got = opening(img)
        events.append(("offer", img, got is not None))
        return got

    def spy_add(self, recipe, image):
        new = add(self, recipe, image)
        events.append(("add", new))
        return new

    monkeypatch.setattr(T, "proj", spy_proj)
    monkeypatch.setattr(F, "_opening", spy_opening)
    monkeypatch.setattr(F.Saturated, "add", spy_add)
    F.saturate(f)
    monkeypatch.undo()

    splits = [e[1] for e in events if e[0] == "split"]
    assert splits and len(splits) == len(set(splits))
    last, retried = {}, 0
    for n, event in enumerate(events):
        if event[0] != "offer":
            continue
        _, img, openable = event
        k = last.get(img)
        last[img] = n
        if k is None:
            continue
        retried += 1
        assert openable
        assert events[k + 1][0] != "add"     # shut at the earlier offer
        assert ("add", True) in events[k + 1:n]
    assert retried > 0
    assert any(e[0] == "offer" and events[n + 1][0] == "add"
               for n, e in enumerate(events[:-1]))


def test_static_equiv_deterministic_witness():
    fa, _ = build([], [G, G])
    fb, _ = build([], [G, T.h(G)])
    w1 = F.static_equiv(fa, fb)
    w2 = F.static_equiv(fa, fb)
    assert (w1.left, w1.right) == (w2.left, w2.right)


# -- cross-validation against the blind oracles -------------------------------

def _random_frame(rng):
    secret = [T.name(f"s{i}", "scalar") for i in range(rng.randrange(1, 4))]
    pub = [T.name("p0"), T.name("p1", "scalar")]
    pool = secret + pub + [G, T.mm(0)]
    images = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(5)
        if kind == 0:
            images.append(T.enc(rng.choice(pool), rng.choice(pool)))
        elif kind == 1:
            images.append(T.tup(rng.choice(pool), rng.choice(pool)))
        elif kind == 2:
            images.append(T.smult(rng.choice(secret), rng.choice(pool)))
        elif kind == 3:
            images.append(T.h(rng.choice(pool)))
        else:
            images.append(rng.choice(pool))
    f, aliases = build(secret, images)
    return f, aliases, secret, pub


@pytest.mark.parametrize("seed", range(24))
def test_derive_matches_exhaustive_oracle(seed):
    rng = random.Random(f"drv{seed}")
    f, _, secret, pub = _random_frame(rng)
    bound = 2
    targets = [secret[0], T.h(G), T.enc(pub[0], secret[0])]
    for img in f.bindings.values():
        targets.append(img)
        if img[0] == T.ENC:
            targets.append(img[1])
    vals = oracle_values(f, bound, extra_atoms=pub)
    for target in targets:
        want = T.normalize(target) in vals
        got = F.derive(f, target)
        if want:
            # derive's cost never exceeds the oracle's (n-ary products count
            # once), so anything the oracle reaches derive must reach
            assert got is not None, T.to_text(T.normalize(target))
        if got is not None:
            assert F.recipe_value(f, got) == T.normalize(target)
            assert all(n[1] not in f.restricted for n in T.free_names(got))


def _deduction_case(rng):
    """A frame with product and [s]p blocks and entries that open under
    keys of varied reach, and targets built from its parts."""
    secret = [T.name(f"s{i}", "scalar") for i in range(3)]
    pub = [T.name("p0", "scalar"), T.name("p1")]
    scalars = secret + pub[:1]
    points = [G, T.smult(secret[0], G)]

    def product():
        return T.mult(*rng.sample(scalars, rng.randrange(2, 4)))

    makers = (
        product,
        lambda: T.smult(product(), rng.choice(points)),
        lambda: T.enc(T.tup(rng.choice(scalars), rng.choice(points)),
                      rng.choice(scalars + [T.h(secret[1])])),
        lambda: T.sig(rng.choice(secret), rng.choice(scalars)),
        lambda: T.pk(rng.choice(secret)),
        lambda: T.h(rng.choice(secret)),
        lambda: rng.choice(scalars),
    )
    images = [rng.choice(makers)() for _ in range(rng.randrange(3, 8))]
    f, _ = build(secret, images)
    targets = [*secret, *images, T.h(secret[1]), T.tup(images[0], pub[1])]
    targets += [T.smult(pub[0], img) for img in images[-2:]]
    targets += [product() for _ in range(4)]
    targets += [T.smult(product(), rng.choice(points)) for _ in range(4)]
    # derive takes normal forms; T.mult keeps its factors as given
    return f, [T.normalize(t) for t in targets]


@pytest.mark.parametrize("seed", range(16))
def test_shared_cost_memo_is_exact(seed, monkeypatch):
    """One saturation's shared cost memo gives every derive the recipe that
    a fresh memo gives, whatever the order of the questions."""
    rng = random.Random(f"memo{seed}")
    f, targets = _deduction_case(rng)
    sat = F.saturate(f)
    got = [F.derive(sat, t) for t in targets]
    assert any(r is not None and r[0] != T.VAR for r in got)
    order = list(range(len(targets)))
    rng.shuffle(order)
    shuffled = F.saturate(f)
    answers = {i: F.derive(shuffled, targets[i]) for i in order}
    assert [answers[i] for i in range(len(targets))] == got
    assert [F.derive(F.saturate(f), t) for t in targets] == got
    # a fresh memo for every search, saturate's key searches included: a
    # search is a _cost call from outside _cost
    cost, depth = F._cost, [0]

    def fresh_memo(s, t):
        if not depth[0]:
            s.memo.clear()
        depth[0] += 1
        try:
            return cost(s, t)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(F, "_cost", fresh_memo)
    ref = F.saturate(f)
    assert list(ref.entries.items()) == list(sat.entries.items())
    assert [F.derive(ref, t) for t in targets] == got


@pytest.mark.parametrize("seed", range(12))
def test_static_equiv_matches_exhaustive_oracle(seed):
    rng = random.Random(f"se{seed}")
    fa, _, secret, _ = _random_frame(rng)
    images = list(fa.bindings.values())
    if rng.random() < 0.5:
        i = rng.randrange(len(images))
        images[i] = T.h(images[i]) if rng.random() < 0.5 else T.tup(G, G)
    fb, _ = build(secret, images)
    bound = 2
    want = oracle_distinguishable(fa, fb, bound)
    got = F.static_equiv(fa, fb)
    if want:
        assert not bool(got), "oracle found a distinguishing pair"
    if not bool(got):
        la, ra = got.left, got.right
        ea = T.apply(fa.bindings, la) == T.apply(fa.bindings, ra)
        eb = T.apply(fb.bindings, la) == T.apply(fb.bindings, ra)
        assert ea != eb, "reported witness does not distinguish"


# -- incremental image evaluation ----------------------------------------------
#
# The distinguisher evaluates a composed candidate as its root over its
# parts' stored images, rewritten at the root by T.norm_root. That is exact
# only if it agrees with substituting and normalizing the whole recipe, term
# for term. No candidate shape is malformed (none raises MalformedTerm), so
# the distinguisher needs no guard for one.

_ATOMS = [G, T.OK, T.mm(0), T.name("k"), T.name("m"),
          T.name("a", "scalar"), T.name("b", "scalar")]
_PAIRED_OPS = [op for op in F._BINARY if op not in (T.MULT, T.TUP)]


def _compound(parts):
    return st.one_of(
        st.tuples(st.sampled_from(F._UNARY), parts),
        st.builds(lambda i, x: (T.PROJ, i, x), st.integers(1, 3), parts),
        st.builds(lambda op, x, y: (op, x, y),
                  st.sampled_from(_PAIRED_OPS), parts, parts),
        st.builds(lambda op, xs: (op, tuple(xs)),
                  st.sampled_from((T.MULT, T.TUP)),
                  st.lists(parts, min_size=2, max_size=3)))


_images = st.recursive(st.sampled_from(_ATOMS), _compound,
                       max_leaves=6).map(T.normalize)


@st.composite
def _image_pair(draw):
    """Two images; in half the draws the first is locked under a key and the
    second is that key or its public key, so that destructor shapes reduce."""
    k, m = draw(_images), draw(_images)
    s = T.name("a", "scalar")
    locked = st.sampled_from([
        ((T.ENC, m, k), k), ((T.SIG, k, m), (T.PK, k)),
        ((T.SIGV, k, m), (T.PKV, k)), ((T.SMULT, s, (T.SIGV, k, m)), (T.PKV, k)),
    ])
    a, b = draw(st.one_of(st.tuples(_images, _images), locked))
    return T.normalize(a), T.normalize(b)


def _distinguisher_shapes():
    """Every candidate shape static_equiv builds, over parts p and q; node
    is applied to each node the shape builds above the parts (the identity
    builds the recipe, T.norm_root rewrites each node as a pass does)."""
    for op in F._UNARY:
        yield lambda p, q, node, op=op: node((op, p))
        yield lambda p, q, node, op=op: node((op, q))
    for i in range(1, 5):
        yield lambda p, q, node, i=i: node((T.PROJ, i, p))
        yield lambda p, q, node, i=i: node((T.PROJ, i, q))
    for op in F._BINARY:
        if op in (T.MULT, T.TUP):
            yield lambda p, q, node, op=op: node((op, (p, q)))
            yield lambda p, q, node, op=op: node((op, (q, p)))
        else:
            yield lambda p, q, node, op=op: node((op, p, q))
            yield lambda p, q, node, op=op: node((op, q, p))
    yield lambda p, q, node: node((T.ENC, node((T.DEC, p, q)), p))
    yield lambda p, q, node: node((T.ENC, node((T.DEC, q, p)), q))


def _same(t):
    return t


@given(_image_pair())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_composed_image_equals_recipe_evaluation(pair):
    a, b = pair
    sigma = {"w0": a, "w1": b}
    x, y = T.var("w0"), T.var("w1")
    for shape in _distinguisher_shapes():
        recipe = shape(x, y, _same)
        want = T.apply(sigma, recipe)
        assert T.normalize(shape(a, b, _same)) == want, T.to_text(recipe)
        assert not T.free_vars(want)
        # the root rewrite over the parts' images agrees too
        assert shape(a, b, T.norm_root) == want, T.to_text(recipe)


def test_distinguisher_bypasses_the_memo(monkeypatch):
    """Composed candidates are rewritten at the root, never walked by
    T.normalize: a wrapper installed over T.normalize (as a tracer does)
    sees only the saturation's key searches, a small fraction of the tests
    made."""
    fa, fb, _ = _frame_pair("unlink_utx")
    calls = []
    inner = T.normalize

    def counting(t):
        calls.append(t)
        return inner(t)

    monkeypatch.setattr(T, "normalize", counting)
    verdict = F.static_equiv(fa, fb)
    assert isinstance(verdict, F.Equivalent)
    assert verdict.tests > 10_000
    assert len(calls) < verdict.tests // 20


# -- metamorphic properties ------------------------------------------------------
#
# Fixed-seed frame pairs: small random ones, and the final real/ideal frames
# of the built-in paired experiments. Renaming restricted names, swapping the
# two frames, or comparing a frame with itself must not move a verdict.

_PAIRED = ("unlink_utx", "bdh_2session", "ubdh_2session", "utxl_hi_probe")
_CASES = [f"random{k}" for k in range(48)] + list(_PAIRED)


@functools.lru_cache(maxsize=None)
def _frame_pair(case):
    """(fa, fb, targets) for a case; targets are (label, term) secrecy
    targets over fa. Odd random cases mutate one of fb's images."""
    if case in _PAIRED:
        real, ideal = H.run_paired(C.SCENARIOS[case])
        return real.frame, ideal.frame, real.secrets
    k = int(case[len("random"):])
    rng = random.Random(f"metamorphic{k}")
    fa, _, secret, _ = _random_frame(rng)
    images = list(fa.bindings.values())
    if k % 2:
        i = rng.randrange(len(images))
        images[i] = T.h(images[i]) if rng.random() < 0.5 else T.tup(G, G)
    fb, _ = build(secret, images)
    return fa, fb, [(n[1], n) for n in secret]


def _rename_term(t, ren):
    op = t[0]
    if op == T.NAME:
        return (T.NAME, ren.get(t[1], t[1]), t[2])
    if op < T.MULT:
        return t
    if op == T.MULT or op == T.TUP:
        return (op, tuple(_rename_term(x, ren) for x in t[1]))
    if op == T.PROJ:
        return (T.PROJ, t[1], _rename_term(t[2], ren))
    if op in (T.HASH, T.PK, T.PKV):
        return (op, _rename_term(t[1], ren))
    return (op, _rename_term(t[1], ren), _rename_term(t[2], ren))


def _renamed(f, ren):
    """f with every restricted name renamed; images are re-normalized, since
    renaming can reorder the factors of a product."""
    g = F.Frame({ren[n] for n in f.restricted})
    for img in f.bindings.values():
        g.bind(T.normalize(_rename_term(img, ren)))
    return g


def _renaming(*fs):
    """One injective renaming of the frames' restricted names onto fresh
    ids, which do not keep the names' order."""
    old = sorted(set().union(*(f.restricted for f in fs)), reverse=True)
    ren = {n: f"zr{i}" for i, n in enumerate(old)}
    for f in fs:
        for img in f.bindings.values():
            assert not any(n[1].startswith("zr") for n in T.free_names(img))
    return ren


def _kind(verdict):
    return type(verdict).__name__


@pytest.mark.parametrize("case", _CASES)
def test_static_equiv_metamorphic(case):
    fa, fb, _ = _frame_pair(case)
    for f in (fa, fb):
        assert isinstance(F.static_equiv(f, f), F.Equivalent)
    verdict = F.static_equiv(fa, fb)
    assert _kind(F.static_equiv(fb, fa)) == _kind(verdict)
    ren = _renaming(fa, fb)
    moved = F.static_equiv(_renamed(fa, ren), _renamed(fb, ren))
    assert (_kind(moved), moved.tests) == (_kind(verdict), verdict.tests)
    if not verdict:
        assert (moved.left, moved.right, moved.side) == \
            (verdict.left, verdict.right, verdict.side)


@pytest.mark.parametrize("case", _CASES)
def test_deduction_invariant_under_renaming(case):
    fa, _, targets = _frame_pair(case)
    ren = _renaming(fa)
    moved = _renamed(fa, ren)
    # renaming can reorder a product's factors, and derive and check_secrecy
    # read a target as a normal form
    moved_targets = [(label, T.normalize(_rename_term(t, ren)))
                     for label, t in targets]
    hashed = [T.h(img) for img in fa.bindings.values()]
    for t in [t for _, t in targets] + hashed:
        u = T.normalize(_rename_term(t, ren))
        assert (F.derive(fa, t) is None) == (F.derive(moved, u) is None)
    assert C.check_secrecy(fa, targets).status == \
        C.check_secrecy(moved, moved_targets).status


# -- pinned search counts ------------------------------------------------------
#
# Cutting the cost of a test must not move what the search reports: the
# kind, the witness, its side and the tests= count (also at a witness).
# Each pin's lines are committed as tests/golden/<pin>.txt, one line per
# verdict as _pinned_lines writes it; tests/record_pins.py re-records them
# from the builders in PINS (at the end of this module) and sorts every
# moved line by class.

def _pinned_lines(label, pairs):
    for x, y in pairs:
        v = F.static_equiv(x, y)
        if v:
            yield f"{label} Equivalent {v.tests}"
        else:
            yield f"{label} Distinguished {v.describe()} {v.tests}"


def _count_lines():
    lines = []
    for case in _CASES:
        fa, fb, _ = _frame_pair(case)
        lines += _pinned_lines(case, ((fa, fb), (fb, fa)))
    return lines


def test_static_equiv_counts_pinned():
    lines = _count_lines()
    assert_pinned("static_equiv_counts", lines)
    assert len(lines) == 104
    assert sum("Distinguished" in line for line in lines) == 48


def _corpus_lines(prefix):
    """Three verdicts, (fa, fb), (fb, fa) and (fa, fa), for each of 32 pairs
    that _CORPORA[prefix] draws, seeded f"{prefix}{k}"."""
    lines = []
    for k in range(32):
        fa, fb = _CORPORA[prefix](random.Random(f"{prefix}{k}"))
        lines += _pinned_lines(f"{prefix}{k}", ((fa, fb), (fb, fa), (fa, fa)))
    return lines


def _size(recipe, blocks):
    """A recipe's size: a building block (a pool entry's recipe) counts 1,
    an application 1 plus its parts."""
    if recipe in blocks:
        return 1
    return 1 + sum(_size(x, blocks) for x in T.fields(recipe))


def test_tested_candidates_fit_the_printed_bound(monkeypatch):
    """Over the pinned cases and corpora, in their pinned orders, every
    candidate tested after the seeds has size at most TEST_BOUND, the
    bound a pass line prints; the largest is the enc(dec(k, u), k) probe,
    at size 5."""
    seal, test, sizes = F._Bijection.seal, F._Bijection._test, []

    def spy_seal(self):
        seal(self)
        self.blocks = {r for r, _, _ in self.pool}

    def spy_test(self, recipe, ia, ib):
        if self.sealed:
            sizes.append(_size(recipe, self.blocks))
        return test(self, recipe, ia, ib)

    monkeypatch.setattr(F._Bijection, "seal", spy_seal)
    monkeypatch.setattr(F._Bijection, "_test", spy_test)
    for case in _CASES:
        fa, fb, _ = _frame_pair(case)
        F.static_equiv(fa, fb)
        F.static_equiv(fb, fa)
    for make in (_random_group_pair, _random_named_pair, _random_probe_pair,
                 _random_dh_pair):
        name = make.__name__[len("_random_"):-len("_pair")]
        for k in range(32):
            fa, fb = make(random.Random(f"{name}{k}"))
            for x, y in ((fa, fb), (fb, fa), (fa, fa)):
                F.static_equiv(x, y)
    assert max(sizes) == 5 <= F.TEST_BOUND
    assert {2, 3} <= set(sizes)


def test_static_equiv_witness_count_after_mirrored_pairs():
    """The witness pairs two seeds past the pool's first, so its tests=
    count includes the mirrored pairs its row counts before it."""
    a, b, p = T.name("a", "scalar"), T.name("b", "scalar"), T.name("p")
    fa, _ = build([a, b, p], [T.smult(a, p), a, p])
    fb, _ = build([a, b, p], [T.smult(b, p), a, p])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == \
            f"?w0 = (smult ?w1 ?w2) holds in the {side} frame only"
        assert verdict.tests == 3201


def test_static_equiv_witness_through_counted_candidate():
    """[a*b]gen is the image of w0 applied to gen, a pair candidate neither
    frame rewrites, and later of [a]([b]gen), which both frames rewrite:
    the witness joins the two, and the frame compared with itself passes."""
    a, b, c = (T.name(x, "scalar") for x in "abc")
    fa, _ = build([a, b, c], [T.mult(a, b), a, T.smult(b, G)])
    fb, _ = build([a, b, c], [T.mult(a, b), a, T.smult(c, G)])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"(smult ?w0 (gen)) = (smult ?w1 ?w2) "
            f"holds in the {side} frame only")
        assert verdict.tests == 3201
    verdict = F.static_equiv(fa, fa)
    assert isinstance(verdict, F.Equivalent)
    assert verdict.tests == 3447


def _admit(bij, recipe, ta, tb):
    """Test a candidate whose images in the two frames are the root
    rewrites of ta and tb, well-formed terms over normal parts, as a pass
    tests one."""
    return bij._test(recipe, T.norm_root(ta), T.norm_root(tb))


def test_counted_candidate_keeps_its_entry():
    """smult(w0, gen) is plain, [a*b]gen in both frames, so it would be
    counted; smult(w1, w2), [a]([b]gen), rewrites onto that image, which
    names it. The search tests it at its own position, in gen's row before
    w1's, so its entry stands and a clash names the plain recipe."""
    a, b, c = (T.name(x, "scalar") for x in "abc")
    f, _ = build([a, b, c], [T.mult(a, b), a, T.smult(b, G)])
    sat = F.saturate(f)
    bij = F._Bijection(f, f)
    for seed in F._seed_recipes(sat, sat, bij.atoms):
        assert bij.seed(*seed) is None
    bij.seal()
    blinded = T.normalize(T.smult(T.mult(a, b), G))
    assert blinded not in bij.by_a
    assert bij.search() is None
    assert T.to_text(bij.by_a[blinded][0]) == "(smult ?w0 (gen))"
    verdict = _admit(bij, T.var("w9"), blinded, T.smult(c, G))
    assert T.to_text(verdict.left) == "(smult ?w0 (gen))"
    assert verdict.side == "first"


def _alias_bijection(restricted, images):
    """A sealed _Bijection over a frame compared with itself,
    seeded with the frame's saturated entries only, so that pool entry n
    is wn for each alias wn."""
    f, aliases = build(restricted, images)
    bij = F._Bijection(f, f)
    for recipe in F.saturate(f).entries.values():
        assert bij.seed(recipe) is None
    bij.seal()
    assert [e[0] for e in bij.pool[:len(aliases)]] == \
        [T.var(x) for x in aliases]
    return bij


def test_counted_product_keeps_its_order():
    """b*a over w0 = b and w1 = a, neither a product, is plain. w3's image
    a*b names it in one frame, so it is tested in w0's row, built as that
    row builds it, the first entry first, and meets w3 there, on either
    side."""
    a, b, c = (T.name(x, "scalar") for x in "abc")
    fa, _ = build([a, b, c], [b, a, c, T.mult(a, b)])
    fb, _ = build([a, b, c], [b, a, c, T.mult(a, c)])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert _outcome(verdict) == ("Distinguished", 3144, (
            f"?w3 = (mult ?w0 ?w1) holds in the {side} frame only"))


def test_counted_one_field_candidates_keep_their_entries():
    """The one-field candidates over w0 are all plain, and so are those
    over the tuple w1 but its projections 1 and 2, which rewrite and meet
    w0 and the saturated entry proj 2 of w1: the search counts seven per
    entry and files no plain image. An image that names a plain one has
    it tested, and a clash names its recipe, on either side."""
    a, b, c = T.name("a"), T.name("b"), T.name("c")
    bij = _alias_bijection([a, b, c], [a, T.tup(a, b), c])
    start = bij.tests
    assert bij.search() is None
    # seven one-field candidates over each of w0, w1, w2 and proj 2 of w1,
    # then the pair candidates over each of the 4 x 4 slots
    assert len(bij.pool) == 4
    assert bij.tests == start + 28 + F._PAIR_TESTS * 16
    assert T.h(a) not in bij.by_a and T.proj(3, T.tup(a, b)) not in bij.by_a
    for named, other, recipe, tests in (
            (T.h(a), T.h(c), "(hash ?w0)", 99),
            (T.proj(3, T.tup(a, b)), T.h(b), "(proj 3 ?w1)", 111),
            (T.pkv(a), T.h(b), "(pkv ?w0)", 101)):
        fa, _ = build([a, b, c], [a, T.tup(a, b), c, named])
        fb, _ = build([a, b, c], [a, T.tup(a, b), c, other])
        for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
            verdict = F.static_equiv(x, y)
            assert _outcome(verdict) == ("Distinguished", tests, (
                f"?w3 = {recipe} holds in the {side} frame only"))


# Below, every ciphertext is under k0, which is never published, so no
# enc(dec(k, u), k) probe's dec rewrites: a probe is counted unless an
# image reached by another route has its image.

def test_static_equiv_frame_image_names_a_probe():
    """w2 is enc(dec(k1, w0), k1) in one frame: the probe over w0 and w1
    has that image there, so it is tested and meets w2."""
    m, k0, k1, k2 = (T.name(x) for x in ("m", "k0", "k1", "k2"))
    c = T.enc(m, k0)
    fa, _ = build([m, k0, k1, k2], [c, k1, T.enc(T.dec(k1, c), k1)])
    fb, _ = build([m, k0, k1, k2], [c, k1, T.enc(T.dec(k1, c), k2)])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"?w2 = (enc (dec ?w1 ?w0) ?w1) holds in the {side} frame "
            f"only")
        assert verdict.tests == 31
    assert F.static_equiv(fa, fa).tests == 3979


def test_static_equiv_candidate_meets_a_counted_probe():
    """w0 is the stuck dec(k1, w1) in one frame, so there enc(w0, w2) has
    the image of the plain probe over w1 and w2. The search names enc(w0,
    w2), whose image names the probe, and tests both: the candidate meets
    the probe, in either frame."""
    m, n, k0, k1 = (T.name(x) for x in ("m", "n", "k0", "k1"))
    c = T.enc(m, k0)
    fa, _ = build([m, n, k0, k1], [T.dec(k1, c), c, k1])
    fb, _ = build([m, n, k0, k1], [n, c, k1])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"(enc (dec ?w2 ?w1) ?w2) = (enc ?w0 ?w2) holds in the "
            f"{side} frame only")
        assert verdict.tests == 2975
    assert F.static_equiv(fa, fa).tests == 3461


def test_static_equiv_stuck_dec_names_its_enc_pair():
    """w0 is the stuck dec(k1, w1) in one frame and dec(k1, w2) in the
    other. Each names enc(w0, w3), whose image in each frame is that of a
    different counted probe: the candidate meets the first frame's."""
    m, m2, k0, k1 = (T.name(x) for x in ("m", "m2", "k0", "k1"))
    c, c2 = T.enc(m, k0), T.enc(m2, k0)
    fa, _ = build([m, m2, k0, k1], [T.dec(k1, c), c, c2, k1])
    fb, _ = build([m, m2, k0, k1], [T.dec(k1, c2), c, c2, k1])
    for x, y, u in ((fa, fb, "?w1"), (fb, fa, "?w2")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"(enc (dec ?w3 {u}) ?w3) = (enc ?w0 ?w3) holds in the "
            f"first frame only")
        assert verdict.tests == 3204
    assert F.static_equiv(fa, fa).tests == 3979


def _spy_search(monkeypatch, check):
    """Call check(bij, verdict) after each search, where bij.tested maps
    the position of each candidate tested so far, seeds included, to its
    images, and bij.yielded holds the positions _rewriting yielded."""
    init, test = F._Bijection.__init__, F._Bijection._test
    rewriting, search = F._Bijection._rewriting, F._Bijection.search

    def spy_init(self, *args):
        init(self, *args)
        self.tested, self.yielded = {}, set()

    def spy_test(self, recipe, ia, ib):
        self.tested[self.tests] = (ia, ib)
        return test(self, recipe, ia, ib)

    def spy_rewriting(self):
        for cand in rewriting(self):
            self.yielded.add(cand[0])
            yield cand

    def spy_search(self):
        verdict = search(self)
        check(self, verdict)
        return verdict

    monkeypatch.setattr(F._Bijection, "__init__", spy_init)
    monkeypatch.setattr(F._Bijection, "_test", spy_test)
    monkeypatch.setattr(F._Bijection, "_rewriting", spy_rewriting)
    monkeypatch.setattr(F._Bijection, "search", spy_search)


def _named(bij):
    """The keys that the images of bij's tested candidates locate."""
    return {key for ia, ib in bij.tested.values()
            for side, img in ((0, ia), (1, ib))
            for key in bij._locate(img, side)}


def _probe_key(bij, pos):
    """The key of the probe at position pos of a sealed _Bijection."""
    start, m = bij.starts[0], len(bij.pool)
    rank, k = divmod(pos - start, m)
    u = next(u for u, r in bij.enc.items() if r == rank)
    return T.ENC, (T.DEC, k, u), k


def test_probes_test_only_rewriting_or_named_keys(monkeypatch):
    """On the paired scenarios' final frames, _rewriting yields at most
    the two probes per ENC-rooted entry whose dec can rewrite, one per
    frame; every other probe the search tests is one that a seed's or a
    tested candidate's image names (_locate), and the rest are counted."""
    counted = []

    def check(bij, verdict):
        start, ones, _ = bij.starts
        yielded = {p for p in bij.yielded if start <= p < ones}
        assert len(yielded) <= 2 * len(bij.enc)
        probes = {p for p in bij.tested if start <= p < ones}
        named = _named(bij)
        for p in probes - yielded:
            assert _probe_key(bij, p) in named
        counted.append(ones - start - len(probes))

    _spy_search(monkeypatch, check)
    for case in _PAIRED:
        for seed in (0, 1):
            real, ideal = H.run_paired(replace(C.SCENARIOS[case], seed=seed))
            for x, y in ((real, ideal), (real, real), (ideal, ideal)):
                F.static_equiv(x.frame, y.frame)
    # a seed tells bdh_2session's and utxl_hi_probe's worlds apart
    assert len(counted) == 20 and min(counted) > 0


def _random_group_pair(rng):
    """A random frame of scalars, a product x*y, blinded points ([s]gen,
    [s]([t]gen), [x]sigv(k, gen)) and a verification key, which
    _random_frame never builds, and a copy with one secret renamed in one
    image. Factors, products and rebased points of the same scalars meet,
    so pair candidates collide with rewritten ones."""
    secret = [T.name(f"s{i}", "scalar") for i in range(rng.randrange(2, 4))]
    scalars = secret + [T.name("p1", "scalar")]
    x, y = rng.sample(scalars, 2)
    k = rng.choice(secret)
    menu = [x, y, T.smult(x, G), T.smult(y, G), T.smult(T.mult(x, y), G),
            T.smult(x, T.sigv(k, G)), T.pkv(k),
            T.smult(rng.choice(scalars), T.smult(rng.choice(scalars), G))]
    images = [T.mult(x, y)] + rng.sample(menu, rng.randrange(1, 5))
    rng.shuffle(images)
    fa, _ = build(secret, images)
    images = list(fa.bindings.values())
    i = rng.randrange(len(images))
    old, new = rng.sample(secret, 2)
    images[i] = _rename_term(images[i], {old[1]: new[1]})
    fb, _ = build(secret, images)
    return fa, fb


def test_static_equiv_group_corpus_pinned():
    lines = _corpus_lines("group")
    assert_pinned("group_corpus", lines)
    assert len(lines) == 96
    assert sum("Distinguished" in line for line in lines) == 26


def _random_named_pair(rng):
    """A random frame whose later images are two-factor products, hashes,
    keys and stuck projections of its earlier ones, and a copy with one of
    those images changed. Such an image names the product or one-field
    candidate that rebuilds it from the pool, so that candidate is tested
    where it would otherwise be counted."""
    secret = [T.name(f"s{i}", "scalar") for i in range(3)]
    secret += [T.name("d0"), T.name("d1")]
    atoms = secret + [T.name("p0"), G]
    base = rng.sample(secret, 2)
    base.append(T.tup(*rng.sample(atoms, rng.randrange(2, 4))))
    rng.shuffle(base)
    u, v = rng.sample(base, 2)
    menu = [T.mult(u, v), T.mult(u, u), T.h(u), T.h(v), T.pk(u), T.pkv(v),
            T.proj(3, base[0] if base[0][0] == T.TUP else T.tup(u, v)),
            T.proj(1, rng.choice([b for b in base if b[0] != T.TUP]))]
    images = base + rng.sample(menu, rng.randrange(2, 5))
    fa, _ = build(secret, images)
    images = list(fa.bindings.values())
    i = rng.randrange(len(base), len(images))
    fresh = [m for m in menu if T.normalize(m) not in images]
    images[i] = T.h(images[i]) if rng.random() < 0.5 or not fresh \
        else rng.choice(fresh)
    fb, _ = build(secret, images)
    return fa, fb


def test_static_equiv_named_corpus_pinned():
    lines = _corpus_lines("named")
    assert_pinned("named_corpus", lines)
    assert len(lines) == 96
    assert sum("Distinguished" in line for line in lines) == 58


def _random_probe_pair(rng):
    """A random frame of ciphertexts under several keys, some of those keys,
    stuck decryptions of the ciphertexts and images enc(dec(k, u), k) over
    them, in random order, and a copy with one image changed: hashed, or
    swapped for another key, decryption or enc(dec(k, u), k) image, so that
    a key can be a pool entry in one frame only. A stuck decryption names
    the enc candidate over it and its key, and an enc(dec(k, u), k) image
    the probe over u and k, so those are tested where they would otherwise
    be counted."""
    secret = [T.name("m0"), T.name("m1")]
    keys = [T.name(f"k{i}") for i in range(3)]
    secret += keys
    msgs = secret[:2] + [T.name("p0")]
    cts = [T.enc(rng.choice(msgs), k)
           for k in rng.sample(keys, rng.randrange(2, 4))]
    cts.append(T.enc(rng.choice(cts), rng.choice(keys)))

    def stuck():
        return T.dec(rng.choice(keys), rng.choice(cts))

    def probe():
        k = rng.choice(keys)
        return T.enc(T.dec(k, rng.choice(cts)), k)

    images = rng.sample(cts, rng.randrange(2, len(cts) + 1))
    images += rng.sample(keys, rng.randrange(1, 3))
    images += [rng.choice((stuck, probe))()
               for _ in range(rng.randrange(1, 4))]
    rng.shuffle(images)
    fa, _ = build(secret, images)
    images = list(fa.bindings.values())
    i = rng.randrange(len(images))
    images[i] = rng.choice((T.h(images[i]), rng.choice(keys), stuck(),
                            probe()))
    fb, _ = build(secret, images)
    return fa, fb


def test_static_equiv_probe_corpus_pinned():
    lines = _corpus_lines("probe")
    assert_pinned("probe_corpus", lines)
    assert len(lines) == 96
    assert sum("Distinguished" in line for line in lines) == 50


# -- the final pool -----------------------------------------------------------
#
# search names the candidate each seed image locates once the pool is
# final, so a seed image names a candidate over seeds that join after it. A
# pass counts an smult rebase e1 smult e2 untested where no factor of e1 is
# one of a joinable scalar's (_joinable's factors). That is exact only if
# every image that joins in a frame is an atom seed's image, in the frame's
# joinable set, or rooted at a destructor: then every SMULT-rooted pool
# image is joinable.

def _openings_closure(f):
    """f's bindings closed under the openings: a tuple's items, the body of
    enc, sig and sigv, and [s]m of a blinded [s]sigv(k, m)."""
    out, stack = set(), list(f.bindings.values())
    while stack:
        t = stack.pop()
        if t in out:
            continue
        out.add(t)
        if t[0] == T.TUP:
            stack += t[1]
        elif t[0] == T.ENC:
            stack.append(t[1])
        elif t[0] in (T.SIG, T.SIGV):
            stack.append(t[2])
        elif t[0] == T.SMULT and t[2][0] == T.SIGV:
            stack.append(T.normalize(T.smult(t[1], t[2][2])))
    return out


def test_static_equiv_image_waits_on_a_stuck_destructor():
    """proj 1 of w0 is a seed from the second frame's saturation and stuck
    in the first, where it is in no binding's openings. It joins the pool
    after w1, whose image there names the hash over it: the search names
    that candidate once the pool is final, and tests it."""
    p, x, y, z = (T.name(n) for n in "pxyz")
    fa, _ = build([p, x, y, z], [p, T.h(T.proj(1, p))])
    fb, _ = build([p, x, y, z], [T.tup(x, y), T.h(z)])
    for u, v, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(u, v)
        assert _outcome(verdict) == ("Distinguished", 109, (
            f"?w1 = (hash (proj 1 ?w0)) holds in the {side} frame only"))


def test_only_joinable_images_join_the_pool(monkeypatch):
    """Over the random, named, group, probe and DH corpora in both orders
    and the unlinkability battery, each image that joins the pool on a side
    is an atom seed's image, in that side's joinable set, or rooted at a
    destructor; each kind occurs. The smult rule reads that set through
    _joinable's factors: those of its [s]p scalars, None past a product."""
    init, test = F._Bijection.__init__, F._Bijection._test
    kinds = {"atom": 0, "joinable": 0, "destructor": 0}

    def spy_init(self, fa, fb):
        init(self, fa, fb)
        self.initial = (_openings_closure(fa), _openings_closure(fb))
        assert self.factors == tuple(
            None if any(t[0] == T.MULT for t in joinable)
            else {x for t in joinable if t[0] == T.SMULT
                  for x in T.m_factors(t[1])}
            for joinable in self.initial)

    def spy_test(self, recipe, ia, ib):
        n = len(self.pool)
        verdict = test(self, recipe, ia, ib)
        if len(self.pool) == n:
            return verdict
        assert self.pool[n] == (recipe, ia, ib)
        for side, img in enumerate((ia, ib)):
            if recipe[0] in (T.GEN, T.CONST, T.NAME) and img == recipe:
                kinds["atom"] += 1
            elif img in self.initial[side]:
                kinds["joinable"] += 1
            else:
                assert img[0] in F._DESTRUCTORS, (T.to_text(recipe), side)
                kinds["destructor"] += 1
        return verdict

    monkeypatch.setattr(F._Bijection, "__init__", spy_init)
    monkeypatch.setattr(F._Bijection, "_test", spy_test)
    pairs = [_frame_pair(f"random{k}")[:2] for k in range(48)]
    for make in (_random_named_pair, _random_group_pair, _random_probe_pair,
                 _random_dh_pair):
        name = make.__name__[len("_random_"):-len("_pair")]
        pairs += [make(random.Random(f"{name}{k}")) for k in range(32)]
    for fa, fb in pairs:
        F.static_equiv(fa, fb)
        F.static_equiv(fb, fa)
    C.run_suite("unlinkability", seed=0)
    assert min(kinds.values()) > 0


# -- the rebase rule -------------------------------------------------------------
#
# A pass counts an SMULT rebase e1 smult e2 over an [s]p entry untested in a
# frame where no factor of e1 is one of a joinable scalar's and no product
# is joinable, and a SIGV rebase sigv(e1, e2) where s can never be a pool
# image: the first's image is no other candidate's, and the second's is one
# that _locate's inverse step names it by. The cases and the DH corpus
# below, and the eight-session unlinkability battery in test_checks, were
# recorded before the rule.

def test_static_equiv_tested_smult_rebase_meets_a_counted_sigv_rebase():
    """sigv(w0, w1) is [r*c]sigv(chi, gen) in the first frame, and counted:
    r*c is no pool image there. [r]([c]sigv(chi, gen)) is tested, as r is a
    factor of a joinable scalar, and meets it through the inverse step."""
    chi, r, c, d = (T.name(x, "scalar") for x in ("chi", "r", "c", "d"))
    blinded = T.smult(c, T.sigv(chi, G))
    fa, _ = build([chi, r, c, d], [chi, T.smult(T.mult(r, c), G), blinded, r])
    fb, _ = build([chi, r, c, d], [chi, T.smult(d, G), blinded, r])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"(sigv ?w0 ?w1) = (smult ?w3 ?w2) holds in the {side} "
            f"frame only")
        assert verdict.tests == 3917


def test_static_equiv_rebase_by_a_public_factor_is_tested():
    """nn is public and a factor of w2's scalar in the first frame, so the
    rebase [nn]w1 is tested there and meets w2."""
    b, d, nn = (T.name(x, "scalar") for x in ("b", "d", "nn"))
    fa, _ = build([b, d], [nn, T.smult(b, G), T.smult(T.mult(nn, b), G)])
    fb, _ = build([b, d], [nn, T.smult(b, G), T.smult(d, G)])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == \
            f"?w2 = (smult $nn ?w1) holds in the {side} frame only"
        assert verdict.tests == 2947


def test_static_equiv_sigv_rebase_over_a_stuck_scalar_is_tested():
    """w3's scalar proj(1, h(m)) is stuck in the first frame, and joins the
    pool as a seed from the second frame's saturation, after w3: sigv(w0,
    w3) is tested there, and meets the plain smult over that seed and w1."""
    z, chi, d = (T.name(x, "scalar") for x in ("z", "chi", "d"))
    m, n = T.name("m"), T.name("n")
    hm, p = T.h(m), T.h(n)
    fa, _ = build([z, chi, d, m, n],
                  [chi, T.sigv(chi, p), hm, T.smult(T.proj(1, hm), p)])
    fb, _ = build([z, chi, d, m, n],
                  [chi, T.sigv(chi, p), T.tup(z, m), T.smult(d, p)])
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"(sigv ?w0 ?w3) = (smult (proj 1 ?w2) ?w1) holds in the "
            f"{side} frame only")
        assert verdict.tests == 4103


def _sealed_scalar_pair():
    """w0 hides the scalar s under k, which is never published, w1 is the
    point [s]h(n), w2 a scalar x, and w3 is sigv(x, h(n)) in the first
    frame and sigv(y, h(n)) in the second. s is in each frame's joinable
    set, but no pool image."""
    s, x, y = (T.name(v, "scalar") for v in "sxy")
    k, n = T.name("k"), T.name("n")
    base = [T.enc(s, k), T.smult(s, T.h(n)), x]
    fa, _ = build([s, x, y, k, n], base + [T.sigv(x, T.h(n))])
    fb, _ = build([s, x, y, k, n], base + [T.sigv(y, T.h(n))])
    return fa, fb


def test_static_equiv_sigv_rebase_over_a_sealed_scalar_is_counted():
    """s is no pool image, so the sigv rebases over w1 are counted; the
    witness rebuilds w3 in the first frame from the key w2 and w3's
    opening, a seed."""
    fa, fb = _sealed_scalar_pair()
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        verdict = F.static_equiv(x, y)
        assert verdict.describe() == (
            f"?w3 = (sigv ?w2 (checkv (pkv ?w2) ?w3)) holds in the "
            f"{side} frame only")
        assert verdict.tests == 3955


def _random_dh_pair(rng):
    """A random frame of Diffie-Hellman material and a copy with one image
    changed: renamed, swapped for a fresh [d]p, or h(m) opened to a tuple.
    It binds scalars that, with a public one, are factors of [s]p scalars,
    their product, chi and a blinded signature [s]sigv(chi, p) under it,
    and a point whose scalar proj(1, h(m)) is stuck, and joins the pool
    where h(m) is a tuple in the other frame. So rebases meet seeds, each
    other and plain candidates over a stuck scalar."""
    x, y, z, chi, d = (T.name(n, "scalar")
                       for n in ("x", "y", "z", "chi", "d"))
    m, n = T.name("m"), T.name("n")
    secret = [x, y, z, chi, d, m, n]
    u, v = rng.sample([x, y, T.name("nn", "scalar")], 2)
    hm, p = T.h(m), rng.choice([G, T.h(n)])
    menu = [T.mult(u, v), T.smult(u, G), T.smult(T.mult(u, v), G),
            T.smult(T.mult(u, z), p), T.sigv(chi, p),
            T.smult(rng.choice([u, z]), T.sigv(chi, p)),
            T.smult(T.proj(1, hm), p)]
    images = [t for t in (u, v) if t[1] != "nn"] + [chi, hm]
    images += rng.sample(menu, rng.randrange(2, 6))
    rng.shuffle(images)
    fa, _ = build(secret, images)
    images = list(fa.bindings.values())
    kind = rng.randrange(3)
    if kind == 0:
        images[images.index(hm)] = T.tup(z, m)
    else:
        i = rng.randrange(len(images))
        if kind == 1:
            old, new = rng.sample([x, y, z, d], 2)
            images[i] = _rename_term(images[i], {old[1]: new[1]})
        else:
            images[i] = T.smult(d, p)
    fb, _ = build(secret, images)
    return fa, fb


def test_static_equiv_dh_corpus_pinned():
    lines = _corpus_lines("dh")
    assert_pinned("dh_corpus", lines)
    assert len(lines) == 96
    assert sum("Distinguished" in line for line in lines) == 30


def test_counted_rebases_meet_only_images_that_name_them(monkeypatch):
    """Over the group and DH corpora in both orders, the four cases above
    and the unlinkability battery, in each search that ends Equivalent: no
    seed's or tested candidate's image equals in a frame the image of an
    SMULT or SIGV rebase the search counted, and each rebase it tests that
    _rewriting did not yield is one such an image names (_locate). Both
    kinds are counted, and such named rebases occur."""
    seen = {T.SMULT: 0, T.SIGV: 0, "met": 0}

    def check(bij, verdict):
        if verdict is not None:
            return
        images = {(img, side) for ia, ib in bij.tested.values()
                  for side, img in ((0, ia), (1, ib))}
        named = _named(bij)
        m = len(bij.pool)
        for key in {(op, i, j) for op in (T.SMULT, T.SIGV)
                    for i in range(m) for j in range(m)}:
            cand = bij._candidate(key)
            if cand[-1]:
                continue   # plain: no rebase
            if cand[0] not in bij.tested:
                seen[key[0]] += 1
                assert (cand[2], 0) not in images, T.to_text(cand[1])
                assert (cand[3], 1) not in images, T.to_text(cand[1])
            elif cand[0] not in bij.yielded:
                seen["met"] += 1
                assert key in named, T.to_text(cand[1])

    _spy_search(monkeypatch, check)
    pairs = [_random_group_pair(random.Random(f"group{k}"))
             for k in range(32)]
    pairs += [_random_dh_pair(random.Random(f"dh{k}")) for k in range(32)]
    for fa, fb in pairs:
        F.static_equiv(fa, fb)
        F.static_equiv(fb, fa)
    test_static_equiv_tested_smult_rebase_meets_a_counted_sigv_rebase()
    test_static_equiv_rebase_by_a_public_factor_is_tested()
    test_static_equiv_sigv_rebase_over_a_stuck_scalar_is_tested()
    test_static_equiv_sigv_rebase_over_a_sealed_scalar_is_counted()
    C.run_suite("unlinkability", seed=0)
    assert min(seen.values()) > 0, seen


# -- one pass over the seeds ------------------------------------------------
#
# Saturation opens every entry whose key derives, whatever the key's cost,
# so a destructor candidate that reduces in a frame reduces to a saturated
# entry, whose seed already has that image: nothing joins the pool after
# the seeds, and static_equiv runs one pass over them. A join after the
# seeds raises LateJoin.

def _hashed(x, times):
    for _ in range(times):
        x = T.h(x)
    return x


def _costly_key_pair(layers, body_a, body_b, order=(0, 1, 2)):
    """The second frame binds c under enc(., k) for each key k of layers in
    turn, k1, and body_b under c; the first binds a in c's place, k1, and
    body_a under the stuck decryption of a by the same layers. Where the
    layers are hashes of k1, the second frame opens them all, so c is an
    entry there, while the first frame's key costs the whole decryption
    chain, the image there of the second frame's recipe for c. Every name
    is restricted, and order permutes the three bindings."""
    k1, a, c = T.name("k1"), T.name("a"), T.name("c")
    key, layered = a, c
    for k in layers:
        layered = T.enc(layered, k)
    for k in reversed(layers):
        key = T.dec(k, key)
    restricted = {k1, a, c} | T.free_names(T.tup(body_a, body_b))
    images_a = [a, k1, T.enc(body_a, key)]
    images_b = [layered, k1, T.enc(body_b, c)]
    fa, _ = build(restricted, [images_a[i] for i in order])
    fb, _ = build(restricted, [images_b[i] for i in order])
    return fa, fb


def test_static_equiv_opens_with_a_costly_key():
    """Four layers under h(k1): the first frame's key costs 8. Its
    ciphertext opens to a tuple, and its projections rebuild it, which the
    second frame's opening does not allow. Both saturations open their
    third binding, so the witness is a pair over seeds."""
    s1, s2, n = T.name("s1"), T.name("s2"), T.name("n")
    fa, fb = _costly_key_pair([T.h(T.name("k1"))] * 4, T.tup(s1, s2), n)
    for x, y, side, tests in ((fa, fb, "first", 5916),
                              (fb, fa, "second", 7412)):
        verdict = F.static_equiv(x, y)
        assert (verdict.side, verdict.tests) == (side, tests)
        assert verdict.right[0] == T.TUP
        holds = [F.recipe_value(f, verdict.left) ==
                 F.recipe_value(f, verdict.right) for f in (x, y)]
        assert holds == [side == "first", side == "second"]


def test_secrecy_opens_with_a_costly_key():
    n, m = T.name("n"), T.name("m")
    f, _ = build([n, m], [n, T.enc(m, _hashed(n, 7))])
    verdict = C.check_secrecy(f, [("m", m)])
    assert verdict.line() == ("CHECK secrecy violated m<-(dec (hash (hash "
                              "(hash (hash (hash (hash (hash ?w0))))))) ?w1)")


def _random_costly_key_pair(rng):
    """A _costly_key_pair drawn at random: each layer's key is h(k1) or
    h(h(k1)), so that the first frame's key costs 7 to 9; the binding
    order and the bodies, over two disjoint sets of names, are drawn
    too."""
    k1 = T.name("k1")
    names = [T.name(f"{x}{i}") for x in "st" for i in range(3)]
    layers, cost = [], 0
    while cost < 7:     # a layer under h^j(k1) costs 1 + j to open
        j = rng.randrange(1, 3)
        layers.append(_hashed(k1, j))
        cost += 1 + j

    def body(msgs):     # mostly one that opens further
        return rng.choice((T.tup(*rng.sample(msgs, 2)), T.tup(*msgs),
                           T.enc(rng.choice(msgs), k1), rng.choice(msgs)))

    order = rng.sample(range(3), 3)
    return _costly_key_pair(layers, body(names[:3]), body(names[3:]), order)


_PAIR_MAKERS = {"group": _random_group_pair, "named": _random_named_pair,
                "probe": _random_probe_pair, "dh": _random_dh_pair,
                "costly": _random_costly_key_pair}


@given(st.sampled_from(sorted(_PAIR_MAKERS)), st.integers(0, 2**32))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_nothing_joins_the_pool_after_the_seeds(kind, seed):
    """Over random pairs from each corpus generator and from one whose key
    costs 7 to 9 in one frame, in both orders, no search raises LateJoin,
    and a witness tells its frames apart."""
    fa, fb = _PAIR_MAKERS[kind](random.Random(seed))
    for x, y in ((fa, fb), (fb, fa)):
        verdict = F.static_equiv(x, y)
        if not verdict:
            holds = [F.recipe_value(f, verdict.left) ==
                     F.recipe_value(f, verdict.right) for f in (x, y)]
            assert holds == [verdict.side == "first",
                             verdict.side == "second"]


def test_saturation_recipes_evaluate_in_either_frame():
    """static_equiv seeds each saturation recipe in the other frame too,
    with no fallback for one that fails to evaluate there. Over the paired
    battery scenarios' final frames at seeds 0-3, random frame pairs with
    equal domains, and one pair that check and checkv open, every recipe
    of either saturation evaluates in the other frame, to a term holding
    no variable."""
    paired = sorted({row.scenario for rows in C.suites().values()
                     for row in rows if row.paired})
    pairs = [(real.frame, ideal.frame) for real, ideal in (
        H.run_paired(replace(C.SCENARIOS[name], seed=seed))
        for name in paired for seed in range(4))]
    rng = random.Random("either frame")
    while len(pairs) < 4 * len(paired) + 100:
        fa, fb = _random_frame(rng)[0], _random_frame(rng)[0]
        if list(fa.bindings) == list(fb.bindings):
            pairs.append((fa, fb))
    k, n, s = T.name("k"), T.name("n"), T.name("s", "scalar")
    pairs.append(tuple(build([k, n, s], images)[0] for images in (
        [T.sig(k, n), T.pk(k), T.smult(s, T.sigv(k, n)), T.pkv(k)],
        [n, T.pk(k), T.smult(s, n), T.pkv(k)])))
    heads = set()
    for fa, fb in pairs:
        for f, g in ((fa, fb), (fb, fa)):
            for recipe in F.saturate(f).entries.values():
                heads.add(recipe[0])
                assert not T.free_vars(T.apply(g.bindings, recipe))
    assert heads == {T.VAR, T.PROJ, T.DEC, T.CHECK, T.CHECKV}


# -- the seeds' atoms ----------------------------------------------------------
#
# The months and public names among the seeds are read off the atoms
# _joinable meets as it walks the bindings, not found by walking every
# subterm of both saturations. The walk below is that reference.

def _walked_atoms(sa, sb):
    """The months and public names in the subterms of either saturation's
    entries."""
    restricted = sa.frame.restricted | sb.frame.restricted
    found, stack = set(), [*sa.entries, *sb.entries]
    while stack:
        x = stack.pop()
        if x[0] == T.CONST and x[1] == "mm" or (
                x[0] == T.NAME and x[1] not in restricted):
            found.add(x)
        else:
            stack.extend(T.fields(x))
    return found


def test_seed_atoms_match_the_saturation_walk():
    """Over the group, named, probe and DH corpora and the paired
    scenarios' frames at seeds 0 and 1, in both frame orders, the seeds'
    months and public names are those the reference walk finds, each
    once, in term order."""
    pairs = [make(random.Random(f"{label}{k}")) for label, make in (
        ("group", _random_group_pair), ("named", _random_named_pair),
        ("probe", _random_probe_pair), ("dh", _random_dh_pair))
        for k in range(32)]
    for case in _PAIRED:
        for seed in (0, 1):
            real, ideal = H.run_paired(replace(C.SCENARIOS[case], seed=seed))
            pairs.append((real.frame, ideal.frame))
    months = names = 0
    for fa, fb in pairs:
        for x, y in ((fa, fb), (fb, fa)):
            sx, sy = F.saturate(x), F.saturate(y)
            bij = F._Bijection(x, y)
            atoms = [r for r, _, _ in F._seed_recipes(sx, sy, bij.atoms)
                     if r[0] == T.NAME or r[0] == T.CONST and r[1] == "mm"]
            assert atoms == sorted(_walked_atoms(sx, sy))
            months += sum(r[0] == T.CONST for r in atoms)
            names += sum(r[0] == T.NAME for r in atoms)
    assert months > 0 and names > 0


# -- the full-scan rows, as an oracle -----------------------------------------
#
# _Bijection._rewriting visits only the pair slots that _slots reads off
# seal's indexes, where a rewrite can fire: each entry's key partners and
# broad partners. The oracle's _slots is every slot (n1, n2), n2 >= n1.
# Both must give the same verdict, tests= count and witness.

def _full_scan(monkeypatch):
    monkeypatch.setattr(F._Bijection, "_slots", lambda self: {
        (n1, n2) for n1 in range(len(self.pool))
        for n2 in range(n1, len(self.pool))})


def _outcome(verdict):
    detail = None if verdict else verdict.describe()
    return _kind(verdict), verdict.tests, detail


def _outcomes(pairs):
    return [_outcome(F.static_equiv(x, y))
            for fa, fb in pairs for x, y in ((fa, fb), (fb, fa))]


def _hashed_one_binding(case):
    """The paired scenario's real frame against its ideal frame with one
    structured binding hashed, for each such binding."""
    fa, fb, _ = _frame_pair(case)
    for alias, img in fb.bindings.items():
        if img[0] != T.NAME:
            bindings = dict(fb.bindings)
            bindings[alias] = T.normalize(T.h(img))
            yield fa, F.Frame(fb.restricted, bindings)


def _row_pairs():
    """The group, named, probe and DH corpora, 1,500 more random named and
    probe pairs and the paired scenarios with one binding hashed."""
    pairs = [make(random.Random(f"{label}{k}")) for label, make in (
        ("group", _random_group_pair), ("named", _random_named_pair),
        ("probe", _random_probe_pair), ("dh", _random_dh_pair))
        for k in range(32)]
    for k in range(750):
        pairs.append(_random_named_pair(random.Random(f"scan-named{k}")))
        pairs.append(_random_probe_pair(random.Random(f"scan-probe{k}")))
    for case in _PAIRED:
        pairs += _hashed_one_binding(case)
    return pairs


def test_row_matches_the_full_scan(monkeypatch):
    """Over _row_pairs, in both frame orders."""
    pairs = _row_pairs()
    got = _outcomes(pairs)
    with monkeypatch.context() as m:
        _full_scan(m)
        want = _outcomes(pairs)
    assert got == want
    assert sum(kind == "Distinguished" for kind, _, _ in got) > len(got) // 4


def _per_entry_slots(bij):
    """The slots of each row n1 of a sealed _Bijection, one entry at a
    time: n1's key partners, looked up both ways (the entries whose opening
    key is n1's image, and the entry whose image is n1's opening key), and
    its broad partners, each n2 >= n1."""
    pool, at, opens = bij.pool, bij.at, bij.opens
    openers = ({}, {})
    for n, (_, a, b) in enumerate(pool):
        for side, img in ((0, a), (1, b)):
            opening = F._opening(img)
            if opening is not None:
                openers[side].setdefault(opening[1], []).append(n)
    slots = set()
    for n1, (_, a, b) in enumerate(pool):
        visits = set()
        for side, img in ((0, a), (1, b)):
            visits.update(openers[side].get(img, ()))
            opening = F._opening(img)
            if opening is not None:
                visits.add(at[side].get(opening[1]))
        visits.discard(None)
        visits.update(n2 for n2 in range(len(pool))
                      if F._broad(opens[n1], opens[n2]))
        slots.update((n1, n2) for n2 in visits if n2 >= n1)
    return slots


def test_slots_match_the_per_entry_scan(monkeypatch):
    """Over _row_pairs and the paired scenarios' final frames, in both
    frame orders, _slots is the union that scanning each pool entry for
    its partners gives; among them are key partners in either order, the
    key's entry before or after the entry it opens."""
    pairs = _row_pairs() + [_frame_pair(case)[:2] for case in _PAIRED]
    got, want, orders, search = [], [], set(), F._Bijection.search

    def comparing_search(self):
        got.append(self._slots())
        want.append(_per_entry_slots(self))
        # whether a key's entry comes before the entry it opens
        for side, at in enumerate(self.at):
            for n, entry in enumerate(self.pool):
                opening = F._opening(entry[1 + side])
                k = None if opening is None else at.get(opening[1])
                if k is not None:
                    orders.add(k < n)
        return search(self)

    monkeypatch.setattr(F._Bijection, "search", comparing_search)
    for fa, fb in pairs:
        F.static_equiv(fa, fb)
        F.static_equiv(fb, fa)
    # a count and the first few indices: pytest's diff of every slot set,
    # which -v builds, runs for minutes
    n_got, n_want = len(got), len(want)
    differ = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert n_got == n_want and not differ, (
        f"{len(differ)} of {n_got} searches differ, first at {differ[:5]}")
    assert n_got > len(pairs) and orders == {False, True}


def test_static_equiv_opens_with_a_later_key():
    """A key's entry pairs with an entry it opens also when the key comes
    after it: w1 = sigv(k0, h(s0)) opens only under w2 = pkv(k0), and no
    seed or tested image names the slot (1, 2). Without that slot the
    pair reads Equivalent(tests=3447)."""
    s0, k0 = T.name("s0"), T.name("k0")
    fa, _ = build([s0, k0], [T.h(s0), T.sigv(k0, T.h(s0)), T.pkv(k0)])
    fb, _ = build([s0, k0], [T.h(s0), T.pk(k0), T.pkv(k0)])
    verdict = F.static_equiv(fa, fb)
    assert isinstance(verdict, F.Distinguished)
    assert verdict.describe() == \
        "?w0 = (checkv ?w2 ?w1) holds in the first frame only"


def _late_named_pair():
    """w0 is a scalar s, w1 the point [s]h(n), and w2 is sigv(s, h(n)) in
    the first frame and sigv(s, h(m)) in the second."""
    s, n, m = T.name("s", "scalar"), T.name("n"), T.name("m")
    fa, _ = build([s, n, m], [s, T.smult(s, T.h(n)), T.sigv(s, T.h(n))])
    fb, _ = build([s, n, m], [s, T.smult(s, T.h(n)), T.sigv(s, T.h(m))])
    return fa, fb


def test_row_visits_a_slot_named_during_the_row(monkeypatch):
    """In w0's row, the rebase sigv(w0, w1) is [s]sigv(s, h(n)) in both
    frames; the first frame's image names smult(w0, w2), a later slot of
    the same row that no key relation or rebase reaches. The search must
    still test it, as under the full scan, and meet the first frame's
    equality there, in either frame order."""
    fa, fb = _late_named_pair()
    for x, y, side in ((fa, fb, "first"), (fb, fa, "second")):
        with monkeypatch.context() as m:
            _full_scan(m)
            oracle = F.static_equiv(x, y)
        assert oracle.describe() == (
            f"(sigv ?w0 ?w1) = (smult ?w0 ?w2) holds in the {side} frame "
            f"only")
        verdict = F.static_equiv(x, y)
        assert _outcome(verdict) == _outcome(oracle) == \
            ("Distinguished", 3159, oracle.describe())


# -- every candidate tested, as an oracle -------------------------------------
#
# The search tests the candidates that a frame rewrites and those that an
# image names, and counts the rest by arithmetic. The oracle tests every
# candidate the enumeration holds, in enumeration order, and
# counts none. Both must give the same verdict, tests= count and witness.

def _every_candidate(self):
    m = len(self.pool)
    keys = [(T.ENC, (T.DEC, k, u), k) for u in range(m) for k in range(m)]
    keys += [(*head, n) for n in range(m) for head in F._ONE_POS]
    keys += [F._pair_key(op, i, j) for op in F._PAIR_OPS
             for i in range(m) for j in range(m)]
    for key in keys:
        cand = self._candidate(key)
        if cand is not None:
            yield cand


def test_search_matches_testing_every_candidate(monkeypatch):
    """Over the five pinned corpora, in both frame orders: every
    case, and the even-numbered half of the group, named, probe and DH
    corpora (all of them take the oracle about 3 s more)."""
    pairs = [_frame_pair(case)[:2] for case in _CASES]
    pairs += [make(random.Random(f"{label}{k}")) for label, make in (
        ("group", _random_group_pair), ("named", _random_named_pair),
        ("probe", _random_probe_pair), ("dh", _random_dh_pair))
        for k in range(0, 32, 2)]
    got = _outcomes(pairs)
    with monkeypatch.context() as m:
        m.setattr(F._Bijection, "_rewriting", _every_candidate)
        want = _outcomes(pairs)
    assert got == want
    assert 0 < sum(kind == "Distinguished" for kind, _, _ in got) < len(got)


# -- the exact _poolable, against testing every sigv rebase -------------------
#
# A pass counts sigv(e1, e2) over an [s]p entry where s is no pool image:
# _poolable reads the sealed pool. The oracle tests every sigv rebase, as if
# every scalar were a pool image. Both must give the same verdict, tests=
# count and witness, and the oracle must test more sigv candidates.

def test_exact_poolable_matches_testing_every_sigv_rebase(monkeypatch):
    """Over the group, named, probe, DH and costly-key corpora and the
    sealed-scalar pair, in both frame orders."""
    pairs = [make(random.Random(f"{label}{k}"))
             for label, make in sorted(_PAIR_MAKERS.items())
             for k in range(32)]
    pairs.append(_sealed_scalar_pair())
    sigv, test = [], F._Bijection._test

    def counting_test(self, recipe, ia, ib):
        sigv[-1] += recipe[0] == T.SIGV
        return test(self, recipe, ia, ib)

    monkeypatch.setattr(F._Bijection, "_test", counting_test)
    sigv.append(0)
    got = _outcomes(pairs)
    sigv.append(0)
    with monkeypatch.context() as m:
        m.setattr(F._Bijection, "_poolable", lambda self, x, side: True)
        want = _outcomes(pairs)
    assert got == want
    assert sigv[0] < sigv[1]


# -- pinned deduction ------------------------------------------------------------
#
# Reorganising saturation and deduction must not move which entries a
# saturation holds, the recipe each keeps, or the recipe derive returns,
# and so which of two equally cheap blocks wins a tie: the earliest. The
# blocks deduction looks up are the product and [s]p entries, grouped by
# point, in entries order; under a point, the [s]p entries are filed by the
# first factor of s, each with its entry number.

def _deduction_corpus():
    """(frame, secret targets): both frames of every random _CASES pair,
    and the final real and ideal frames of every built-in scenario at seeds
    0-1, each with its own trace's targets. The latter hold the _PAIRED
    cases' frames, so the first loop skips them."""
    for case in _CASES:
        if case in _PAIRED:
            continue
        fa, fb, targets = _frame_pair(case)
        for f in (fa, fb):
            yield f, [t for _, t in targets]
    for sc in C.SCENARIOS.values():
        for seed in (0, 1):
            for trace in H.run_paired(replace(sc, seed=seed)):
                yield trace.frame, [t for _, t in trace.secrets]


def _assert_blocks(sat):
    blocks = {}
    for n, (img, r) in enumerate(sat.entries.items()):
        if img[0] == T.MULT:
            blocks.setdefault(None, []).append((img[1], r))
        elif img[0] == T.SMULT:
            unit = T.m_factors(img[1])
            blocks.setdefault(img[2], {}).setdefault(
                unit[0] if unit else None, []).append((n, unit, r))
    assert sat.blocks == blocks


def test_deduction_pinned():
    a, b, c = (T.name(x, "scalar") for x in "abc")
    n1, n2 = T.name("n1", "scalar"), T.name("n2", "scalar")
    blinded = T.smult(T.mult(a, n1, n2), G)
    ties = [
        # two rebases of cost 1
        ([a], [T.smult(T.mult(a, n1), G), T.smult(T.mult(a, n2), G)],
         blinded, "(smult $n2 ?w0)"),
        ([a], [T.smult(T.mult(a, n2), G), T.smult(T.mult(a, n1), G)],
         blinded, "(smult $n1 ?w0)"),
        # a product block against the first factor on its own
        ([a, b, c], [T.mult(a, b), T.mult(b, c), T.mult(a, c), c, a],
         T.mult(a, b, c), "(mult ?w0 ?w3)"),
        # two product blocks that both hold the first factor
        ([a, b, c], [T.mult(a, b), T.mult(a, c), c, b],
         T.mult(a, b, c), "(mult ?w0 ?w2)"),
        # two [s]p blocks under gen, filed under different first factors:
        # the cheaper one lacks the target's first factor a ...
        ([a, b, n1], [T.smult(T.mult(a, b), G),
                      T.smult(T.mult(b, T.h(n1)), G), a, n1],
         T.smult(T.mult(a, b, T.h(n1)), G), "(smult ?w2 ?w1)"),
        # ... and at equal cost the earlier one wins, though it lacks a
        ([a, b, c], [T.smult(T.mult(b, c), G), T.smult(T.mult(a, b), G),
                     a, c],
         T.smult(T.mult(a, b, c), G), "(smult ?w2 ?w0)"),
    ]
    for restricted, images, target, want in ties:
        f, _ = build(restricted, images)
        sat = F.saturate(f)
        _assert_blocks(sat)
        assert T.to_text(F.derive(sat, target)) == want

    lines = _deduction_lines()
    assert_pinned("deduction", lines)
    assert len(lines) == 4006


def _deduction_lines():
    """Per frame of _deduction_corpus, each saturation entry and its recipe,
    then each secret target and each entry with the recipe derive finds for
    it, or None."""
    lines = []
    for f, secrets in _deduction_corpus():
        sat = F.saturate(f)
        _assert_blocks(sat)
        lines += [f"{T.to_text(img)} {T.to_text(r)}"
                  for img, r in sat.entries.items()]
        for t in secrets + list(sat.entries):
            r = F.derive(sat, t)
            lines.append(f"{T.to_text(T.normalize(t))} "
                         f"{None if r is None else T.to_text(r)}")
    return lines


_CORPORA = {"group": _random_group_pair, "named": _random_named_pair,
            "probe": _random_probe_pair, "dh": _random_dh_pair}
# the pins of this module: tests/golden/<name>.txt holds the lines of each
PINS = {"static_equiv_counts": _count_lines,
        **{f"{p}_corpus": functools.partial(_corpus_lines, p)
           for p in _CORPORA},
        "deduction": _deduction_lines}
