"""Message algebra tests: worked examples, the rewrite-order oracle, and
structural properties of normal forms."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import utxsim.terms as T
from utxsim.concrete import random_term

A = T.name("a", "scalar")
B = T.name("b", "scalar")
C = T.name("c", "scalar")
TT = T.name("t", "scalar")
CHI = T.name("chi", "scalar")
K = T.name("k")
K2 = T.name("k2")
M = T.name("m")
G = T.gen()


def is_stuck(t):
    """True if the normal form's root is an unreduced destructor."""
    return t[0] in (T.CHECK, T.CHECKV, T.PROJ, T.DEC)


NAME_POOL = [A, B, C, TT, CHI, K, K2, M]


# -- worked examples -------------------------------------------------------

def test_decrypt_with_matching_key():
    assert T.equal_mod_E(T.dec(K, T.enc(M, K)), M)


def test_blinding_accumulates_into_one_product():
    got = T.normalize(T.smult(A, T.smult(B, G)))
    assert got == (T.SMULT, (T.MULT, tuple(sorted((A, B)))), G)


def test_terminal_verification_of_blinded_signature():
    pc = T.name("pc")
    got = T.checkv(T.pkv(CHI), T.smult(A, T.sigv(CHI, pc)))
    assert T.equal_mod_E(got, T.smult(A, pc))


def test_blinded_signature_on_group_point():
    # verifying [a]vsig(chi, [c]g) yields [a·c]g
    e = T.checkv(T.pkv(CHI), T.smult(A, T.sigv(CHI, T.smult(C, G))))
    assert T.equal_mod_E(e, T.smult(T.mult(A, C), G))


def test_decrypt_with_wrong_key_is_stuck():
    got = T.normalize(T.dec(K2, T.enc(M, K)))
    assert got[0] == T.DEC
    assert is_stuck(got)


def test_product_commutes():
    assert T.equal_mod_E(T.mult(A, B), T.mult(B, A))


def test_session_key_agreement():
    lhs = T.h(T.smult(T.mult(A, C), T.smult(TT, G)))
    rhs = T.h(T.smult(TT, T.smult(A, T.smult(C, G))))
    assert T.equal_mod_E(lhs, rhs)


def test_hash_is_free():
    assert not T.equal_mod_E(T.h(M), M)


def test_apply_substitution():
    x = T.var("x")
    assert T.apply({"x": G}, T.smult(A, x)) == T.normalize(T.smult(A, G))
    assert T.apply({}, T.smult(A, T.smult(B, G))) == T.normalize(
        T.smult(A, T.smult(B, G)))
    assert T.apply({"x": T.enc(M, K)}, T.dec(K, x)) == M


def test_free_names():
    assert T.free_names(G) == set()
    assert T.free_names(T.mult(A, C)) == {A, C}
    pan = T.name("PAN")
    assert T.free_names(T.enc(pan, T.h(K))) == {pan, K}


def test_malformed():
    with pytest.raises(T.MalformedTerm):
        T.tup(M)
    with pytest.raises(T.MalformedTerm):
        T.proj(0, M)
    with pytest.raises(T.MalformedTerm):
        T.normalize((T.TUP, (M,)))
    for text in ("(enc m", "(proj 1", "(", "(mm x)", "(proj one m)",
                 "(proj 0 m)", "(hash (proj -1 m))"):
        with pytest.raises(T.MalformedTerm):
            T.parse(text)
    for text, message in ((")", "unexpected ')'"),
                          ("(gen m)", "gen takes no arguments"),
                          ("(mm 1 2)", "mm takes one index"),
                          ("(proj 1 m n)", "proj takes an index and a term"),
                          ("m n", "trailing tokens")):
        with pytest.raises(T.MalformedTerm, match=re.escape(message)):
            T.parse(text)
    for build, message in ((lambda: T.const("nope"), "unknown constant"),
                           (lambda: T.name("x", "bogus"), "bad name sort"),
                           (lambda: T.mult(A), "at least two factors")):
        with pytest.raises(T.MalformedTerm, match=message):
            build()
    with pytest.raises(ValueError, match="bad name hint 'w'"):
        T.FreshNames().data("w")


def test_out_of_range_projection_is_stuck():
    got = T.normalize(T.proj(3, T.tup(A, B)))
    assert got[0] == T.PROJ


# -- independent oracle: one-step rewriting in random order ----------------
#
# The oriented rule set below is applied at randomly chosen redex positions
# until no rule applies anywhere; the result must agree with normalize().

def _rewrite_root(t):
    op = t[0]
    if op == T.DEC and t[2][0] == T.ENC and t[2][2] == t[1]:
        return t[2][1]
    if op == T.PROJ and t[2][0] == T.TUP and 1 <= t[1] <= len(t[2][1]):
        return t[2][1][t[1] - 1]
    if op == T.CHECK and t[1][0] == T.PK and t[2][0] == T.SIG \
            and t[1][1] == t[2][1]:
        return t[2][2]
    if op == T.CHECKV and t[1][0] == T.PKV:
        if t[2][0] == T.SIGV and t[2][1] == t[1][1]:
            return t[2][2]
        if t[2][0] == T.SMULT and t[2][2][0] == T.SIGV \
                and t[2][2][1] == t[1][1]:
            return (T.SMULT, t[2][1], t[2][2][2])
    if op == T.SMULT and t[2][0] == T.SMULT:
        return (T.SMULT, (T.MULT, (t[1], t[2][1])), t[2][2])
    if op == T.SIGV and t[2][0] == T.SMULT:
        return (T.SMULT, t[2][1], (T.SIGV, t[1], t[2][2]))
    if op == T.MULT:
        if any(f[0] == T.MULT for f in t[1]):
            flat = []
            for f in t[1]:
                flat.extend(f[1] if f[0] == T.MULT else (f,))
            return (T.MULT, tuple(flat))
        if list(t[1]) != sorted(t[1]):
            return (T.MULT, tuple(sorted(t[1])))
    return None


def _children(t):
    op = t[0]
    if op in (T.MULT, T.TUP):
        return list(t[1])
    if op in (T.HASH, T.PK, T.PKV):
        return [t[1]]
    if op == T.PROJ:
        return [t[2]]
    if op >= T.MULT:
        return [t[1], t[2]]
    return []


def _replace_child(t, i, new):
    op = t[0]
    if op in (T.MULT, T.TUP):
        items = list(t[1])
        items[i] = new
        return (op, tuple(items))
    if op in (T.HASH, T.PK, T.PKV):
        return (op, new)
    if op == T.PROJ:
        return (T.PROJ, t[1], new)
    return (op, new, t[2]) if i == 0 else (op, t[1], new)


def _redexes(t, path=()):
    found = []
    if _rewrite_root(t) is not None:
        found.append(path)
    for i, ch in enumerate(_children(t)):
        found.extend(_redexes(ch, path + (i,)))
    return found


def _apply_at(t, path):
    if not path:
        return _rewrite_root(t)
    ch = _children(t)[path[0]]
    return _replace_child(t, path[0], _apply_at(ch, path[1:]))


def rewrite_random_order(t, rng, max_steps=3000):
    for _ in range(max_steps):
        spots = _redexes(t)
        if not spots:
            return t
        t = _apply_at(t, rng.choice(spots))
    raise AssertionError("rewriting did not terminate")


@pytest.mark.parametrize("seed", range(8))
def test_normalize_matches_random_order_rewriting(seed):
    rng = random.Random(f"order{seed}")
    for _ in range(250):
        t = random_term(rng, rng.randrange(1, 7), NAME_POOL)
        expect = rewrite_random_order(t, rng)
        assert T.normalize(t) == expect, T.to_text(t)
        # the root rewrite alone agrees, once the fields are normal forms
        u = t
        for i, ch in enumerate(_children(t)):
            u = _replace_child(u, i, T.normalize(ch))
        assert T.norm_root(u) == expect, T.to_text(t)


# -- the shape table against the independent references above -------------

def _all_nodes(t):
    yield t
    for ch in _children(t):
        yield from _all_nodes(ch)


def _subst_reference(t, env):
    if t[0] == T.VAR:
        return env.get(t[1], t)
    for i, ch in enumerate(_children(t)):
        t = _replace_child(t, i, _subst_reference(ch, env))
    return t


@pytest.mark.parametrize("seed", range(4))
def test_shape_table_matches_the_reference(seed):
    """fields and with_fields agree with _children and _replace_child on
    every node of random terms over every opcode, the walks built on them
    agree with recursive references, and apply agrees with normalizing the
    reference substitution."""
    rng = random.Random(f"shape{seed}")
    pool = NAME_POOL + [T.var("w0"), T.var("w1")]
    env = {"w0": T.h(A), "w9": B}
    ops = set()
    for _ in range(150):
        t = random_term(rng, rng.randrange(1, 6), pool)
        for x in _all_nodes(t):
            ops.add(x[0])
            assert T.fields(x) == tuple(_children(x)), T.to_text(x)
            assert T.with_fields(x, T.fields(x)) == x
            new = [T.h(ch) for ch in _children(x)]
            u = x
            for i, ch in enumerate(new):
                u = _replace_child(u, i, ch)
            assert T.with_fields(x, new) == u, T.to_text(x)
        nodes = list(_all_nodes(t))
        assert T.free_names(t) == {x for x in nodes if x[0] == T.NAME}
        assert T.free_vars(t) == {x[1] for x in nodes if x[0] == T.VAR}
        want = T.normalize(_subst_reference(t, env))
        assert T.apply(env, t) == want, T.to_text(t)
    assert ops == set(range(T.DEC + 1))
    # a binding is taken as given
    assert T.apply(env, T.var("w0")) is env["w0"]
    # where the reference is ill-formed, apply raises as normalize does
    w0, w9 = T.var("w0"), T.var("w9")
    for bad in ((T.TUP, (w0,)), (T.MULT, (w9,)), (T.PROJ, 0, w0),
                (T.DEC + 1, w0, w9)):
        with pytest.raises(T.MalformedTerm):
            T.normalize(_subst_reference(bad, env))
        with pytest.raises(T.MalformedTerm):
            T.apply(env, bad)


# opcodes whose root norm_root may rewrite; every other root is left alone
_ROOT_REWRITES = {T.MULT, T.SMULT, T.SIGV, T.CHECK, T.CHECKV, T.PROJ, T.DEC}


def test_norm_root_keeps_roots_without_a_rewrite():
    rng = random.Random("keep")

    def part():
        return T.normalize(random_term(rng, rng.randrange(4), NAME_POOL))

    atoms = {T.GEN: [G], T.CONST: [T.OK, T.mm(2)], T.NAME: NAME_POOL,
             T.VAR: [T.var("w0")]}
    for op in range(T.DEC + 1):
        if op in _ROOT_REWRITES:
            continue
        for _ in range(40):
            if op in atoms:
                t = rng.choice(atoms[op])
            elif op == T.TUP:
                t = (T.TUP, tuple(part() for _ in range(rng.randrange(2, 5))))
            elif op in (T.HASH, T.PK, T.PKV):
                t = (op, part())
            else:
                t = (op, part(), part())
            assert T.norm_root(t) is t, T.to_text(t)


# -- properties ------------------------------------------------------------

depths = st.integers(min_value=1, max_value=8)


@given(depths, st.integers())
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(depth, seed):
    t = random_term(random.Random(seed), depth, NAME_POOL)
    n = T.normalize(t)
    assert T.normalize(n) == n


@given(depths, st.integers())
@settings(max_examples=300, deadline=None)
def test_text_roundtrip_on_normal_forms(depth, seed):
    n = T.normalize(random_term(random.Random(seed), depth, NAME_POOL))
    assert T.parse(T.to_text(n)) == n


@given(st.integers(0, 3), st.integers())
@settings(max_examples=100, deadline=None)
def test_parse_all_reads_a_sequence(count, seed):
    rng = random.Random(seed)
    ts = tuple(T.normalize(random_term(rng, 3, NAME_POOL))
               for _ in range(count))
    assert T.parse_all(" ".join(map(T.to_text, ts))) == ts


@given(depths, st.integers())
@settings(max_examples=200, deadline=None)
def test_normal_form_shape_invariants(depth, seed):
    n = T.normalize(random_term(random.Random(seed), depth, NAME_POOL))
    _assert_shape(n)


def _assert_shape(t):
    op = t[0]
    if op == T.MULT:
        assert len(t[1]) >= 2
        assert list(t[1]) == sorted(t[1])
        for f in t[1]:
            assert f[0] != T.MULT
    if op == T.SMULT:
        point = t[2]
        assert point[0] != T.SMULT
        if point[0] == T.SIGV:
            assert point[2][0] != T.SMULT
    if op == T.SIGV:
        assert t[2][0] != T.SMULT
    for ch in _children(t):
        _assert_shape(ch)


@given(st.integers(), st.integers())
@settings(max_examples=200, deadline=None)
def test_integrity_decryption_requires_equal_keys(seed, seed2):
    rng = random.Random(f"{seed}.{seed2}")
    k1 = random_term(rng, 3, NAME_POOL)
    k2 = random_term(rng, 3, NAME_POOL)
    body = random_term(rng, 3, NAME_POOL)
    reduced = T.normalize(T.dec(k2, T.enc(body, k1)))
    if T.equal_mod_E(k1, k2):
        assert reduced == T.normalize(body)
    else:
        assert reduced[0] == T.DEC


def test_instrumentation_sees_only_entry_calls(monkeypatch):
    """A wrapper installed over T.normalize from outside (as a tracer does)
    counts entry calls only: the kernel's recursion bypasses the public
    name."""
    calls = []
    inner = T.normalize

    def counting(t):
        calls.append(t)
        return inner(t)

    monkeypatch.setattr(T, "normalize", counting)
    t = T.dec(K, T.enc(T.tup(T.smult(A, T.smult(B, G)), T.h(M)), K))
    assert T.normalize(t) == (T.TUP, (T.smult(T.mult(A, B), G), T.h(M)))
    assert len(calls) == 1


def test_the_kernel_retains_nothing():
    """normalize and apply keep no state between calls: thousands of
    distinct terms through each, their results dropped, leave the memory
    the process had."""
    env = {"w0": T.h(M)}

    def fresh(i):
        return T.h(T.tup(T.name(f"n{i}"), T.smult(A, T.smult(B, G))))

    tracemalloc.start()
    try:
        T.apply(env, T.tup(fresh(-1), T.var("w0")))
        before = tracemalloc.get_traced_memory()[0]
        for i in range(5000):
            T.normalize(fresh(i))
            T.apply(env, T.tup(fresh(i), T.var("w0")))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 32_000, retained
