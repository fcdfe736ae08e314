"""Numeric backend: worked evaluations against hand-computed arithmetic,
and the soundness direction of the differential test."""

import random

import pytest

import utxsim.concrete as K
import utxsim.terms as T

G = T.gen()


def env_for(*names):
    return K.GroupEnv.for_names(list(names), seed=1)


def test_point_multiplication_is_dlog_product():
    a = T.name("a", "scalar")
    env = env_for(a)
    va = env.valuation["a"]
    assert K.eval_term(T.smult(a, G), env) == va % K.Q


def test_key_agreement_sides_evaluate_equal():
    a, c, t = (T.name(x, "scalar") for x in "act")
    env = env_for(a, c, t)
    lhs = K.eval_term(T.h(T.smult(T.mult(a, c), T.smult(t, G))), env)
    rhs = K.eval_term(T.h(T.smult(t, T.smult(a, T.smult(c, G)))), env)
    assert lhs == rhs
    # independent arithmetic: digest of the product of the three logs
    prod = (env.valuation["a"] * env.valuation["c"] * env.valuation["t"]) % K.Q
    assert lhs == K._digest(["h", prod]) % K.Q


def test_blinded_signature_check_evaluates_to_blinded_key():
    a, c, chi = (T.name(x, "scalar") for x in ("a", "c", "chi"))
    env = env_for(a, c, chi)
    e = T.checkv(T.pkv(chi), T.smult(a, T.sigv(chi, T.smult(c, G))))
    want = (env.valuation["a"] * env.valuation["c"]) % K.Q
    assert K.eval_term(e, env) == want


def test_hash_differs_from_identity():
    m = T.name("m")
    env = env_for(m)
    assert K.eval_term(T.h(m), env) != K.eval_term(m, env)


def test_stuck_destructors():
    m, k1, k2 = T.name("m"), T.name("k1"), T.name("k2")
    env = env_for(m, k1, k2)
    v1 = K.eval_term(T.dec(k2, T.enc(m, k1)), env)
    assert isinstance(v1, K.Stuck)
    v2 = K.eval_term(T.dec(k2, T.enc(m, k1)), env)
    assert v1 == v2
    v3 = K.eval_term(T.proj(3, T.tup(m, k1)), env)
    assert v3 != v1


def test_unvalued_name_raises():
    with pytest.raises(K.UnvaluedName):
        K.eval_term(T.name("ghost"), K.GroupEnv())
    with pytest.raises(K.UnvaluedName):
        K.eval_term(T.var("x"), K.GroupEnv())


def test_tuples_evaluate_structurally():
    m, k = T.name("m"), T.name("k")
    env = env_for(m, k)
    v = K.eval_term(T.tup(m, k), env)
    assert v == ("tup", env.valuation["m"], env.valuation["k"])


def test_differential_soundness_small():
    rep = K.differential_test(samples=2000, seed=3)
    assert rep.samples == 2000
    assert not rep.soundness_violations
    assert rep.collision_rate < 0.01


def test_equal_variants_really_equal():
    rng = random.Random("var")
    names = [T.name(f"s{i}", "scalar") for i in range(4)]
    for _ in range(200):
        t = K.random_term(rng, 4, names)
        v = K.equal_variant(rng, t, names)
        assert T.equal_mod_E(t, v), (T.to_text(t), T.to_text(v))
