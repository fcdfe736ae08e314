"""Sensitivity controls for the bounded distinguisher.

A bounded search that never finds anything would still produce green
bounded-pass lines, so these tests feed it defects it must catch: mutated
frames from genuine paired runs, a card that reuses its blinding scalar,
and a credential shown unblinded. The search detects each. The
last tests break the distinguisher's search and pair rows, and the
property checks' join and secrecy targets, and check that the tests of
test_frames, test_checks and test_cli notice.
"""

import pytest

import test_checks
import test_cli
import test_frames
from test_frames import build

import utxsim.checks as C
import utxsim.frames as F
import utxsim.harness as H
import utxsim.terms as T

G = T.gen()


def paired(protocol="utx", strategy="probe_cards"):
    sc = H.Scenario(protocol=protocol, cards=1, sessions=2,
                    terminals=(("lo", None),),
                    strategy=strategy, seed=13,
                    replay_check=False)
    return H.run_paired(sc)


def test_self_comparison_is_equivalent():
    real, _ = paired()
    assert bool(F.static_equiv(real.frame, real.frame))


@pytest.mark.parametrize("idx_frac", [0.0, 0.3, 0.6, 0.9])
def test_mutated_ideal_binding_is_detected(idx_frac):
    # corrupt one structured message of a genuine ideal run; the search must
    # notice the divergence from the real run. (Opaque name
    # announcements are excluded: a fresh name and the hash of a never-seen
    # secret really are statically equivalent.)
    real, ideal = paired()
    structured = [a for a, img in ideal.frame.bindings.items()
                  if img[0] != T.NAME]
    alias = structured[int(idx_frac * (len(structured) - 1))]
    bindings = dict(ideal.frame.bindings)
    bindings[alias] = T.normalize(T.h(bindings[alias]))
    mutated = F.Frame(ideal.frame.restricted, bindings)
    verdict = F.static_equiv(real.frame, mutated)
    assert not bool(verdict), f"mutation at {alias} went unnoticed"


def test_blinding_reuse_is_detected():
    # a defective card that reuses its blinding scalar across sessions makes
    # consecutive handshake replies equal; fresh blinding does not
    fresh = T.FreshNames()
    c, a1, a2 = fresh.scalar("c"), fresh.scalar("a"), fresh.scalar("a")
    pk_c = T.smult(c, G)
    reused, _ = build([c, a1, a2], [T.smult(a1, pk_c), T.smult(a1, pk_c)])
    correct, _ = build([c, a1, a2], [T.smult(a1, pk_c), T.smult(a2, pk_c)])
    verdict = F.static_equiv(reused, correct)
    assert not bool(verdict)
    assert {verdict.left, verdict.right} == {T.var("w0"), T.var("w1")}


def test_unblinded_credential_is_detected():
    # showing the month signature without blinding pins the card identity:
    # two such sessions are linkable, two blinded ones are not
    fresh = T.FreshNames()
    c, chi, a1, a2 = (fresh.scalar(h) for h in ("c", "chi", "a", "a"))
    pk_c = T.smult(c, G)
    cert = T.sigv(chi, pk_c)
    secrets = [c, chi, a1, a2]
    leaky, _ = build(secrets, [cert, cert])
    blinded, _ = build(secrets, [T.smult(a, cert) for a in (a1, a2)])
    assert not bool(F.static_equiv(leaky, blinded))
    # and two honestly blinded sessions pass
    other, _ = build(secrets, [T.smult(a, cert) for a in (a2, a1)])
    assert bool(F.static_equiv(blinded, other))


def test_mutated_multimonth_run_detected():
    real, ideal = paired(protocol="utx_multimonth")
    bindings = dict(ideal.frame.bindings)
    # swap the two card handshake replies between sessions
    card_pos = [a for a, img in bindings.items() if img[0] == T.SMULT][:2]
    if len(card_pos) == 2:
        i, j = card_pos
        bindings[i], bindings[j] = bindings[j], bindings[i]
        # swapping alone preserves equivalence only if values differ freshly;
        # additionally hash one to force a structural divergence
        bindings[i] = T.normalize(T.pk(bindings[i]))
        mutated = F.Frame(ideal.frame.restricted, bindings)
        assert not bool(F.static_equiv(real.frame, mutated))


# -- defects in the search ----------------------------------------------------
#
# _Bijection.search names, from the seeds' images (the keys of by_a and
# by_b) and from the images of the candidates _rewriting yields, every
# candidate whose unrewritten image they are; _rewriting ends with the ENC
# pairs over a stuck dec, the only candidates it yields that need not
# rewrite. The search loses names if its worklist starts without the seeds'
# images, or with the first frame's only, and a probe's clash if those ENC
# pairs are dropped. Each defect returns the test that must catch it.

class _Unlisted(dict):
    """A dict that still answers lookups but lists no keys."""

    def __iter__(self):
        return iter(())


def _hiding(monkeypatch, *names):
    search = F._Bijection.search

    def search_blind(self):
        for name in names:
            setattr(self, name, _Unlisted(getattr(self, name)))
        return search(self)

    monkeypatch.setattr(F._Bijection, "search", search_blind)


def _no_seed_images(monkeypatch):
    _hiding(monkeypatch, "by_a", "by_b")
    return test_frames.test_static_equiv_image_waits_on_a_stuck_destructor


def _first_frame_seed_images_only(monkeypatch):
    _hiding(monkeypatch, "by_b")
    return test_frames.test_static_equiv_image_waits_on_a_stuck_destructor


def _no_stuck_dec_rule(monkeypatch):
    rewriting = F._Bijection._rewriting
    monkeypatch.setattr(F._Bijection, "_rewriting", lambda self: (
        cand for cand in rewriting(self) if not cand[-1]))
    return test_frames.test_static_equiv_stuck_dec_names_its_enc_pair


@pytest.mark.parametrize("defect", [
    _no_seed_images, _first_frame_seed_images_only, _no_stuck_dec_rule])
def test_search_defect_is_caught(monkeypatch, defect):
    check = defect(monkeypatch)
    with pytest.raises(AssertionError):
        check()


# -- defects in the pair rows -------------------------------------------------
#
# _Bijection._rewriting visits only the pair slots whose rewrite can fire,
# which _slots reads off seal's indexes. It loses slots if it skips the
# key lookup (no entry pairs with the entries its image opens as a key), or
# only its forward direction (a key's entry pairs only with the entries
# after it that it opens), which also moves a verdict.

def _skip_reverse_key_lookup(monkeypatch):
    seal = F._Bijection.seal

    def seal_without_openers(self):
        seal(self)
        for openers in self.openers:
            openers.clear()

    monkeypatch.setattr(F._Bijection, "seal", seal_without_openers)


def _skip_forward_key_lookup(monkeypatch):
    seal = F._Bijection.seal

    def seal_with_later_openers(self):
        seal(self)
        for at, openers in zip(self.at, self.openers):
            for key, opened in openers.items():
                k = at.get(key)
                opened[:] = [n for n in opened if k is None or k <= n]

    monkeypatch.setattr(F._Bijection, "seal", seal_with_later_openers)


def _later_key_verdict(monkeypatch):
    """The later-key verdict test, called as the scan checks are."""
    test_frames.test_static_equiv_opens_with_a_later_key()


@pytest.mark.parametrize("defect, check", [
    (_skip_reverse_key_lookup, test_frames.test_row_matches_the_full_scan),
    (_skip_forward_key_lookup,
     test_frames.test_slots_match_the_per_entry_scan),
    (_skip_forward_key_lookup, _later_key_verdict)])
def test_pair_pass_defect_is_caught(monkeypatch, defect, check):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)


# -- defects in the property checks -------------------------------------------
#
# An agreement's join tables are keyed on one argument, so the consistency
# test must still compare every other bound argument; and check_secrecy
# searches each target as given, so parse_trace must hand it a TARGET as
# its normal form.

def _join_skips_other_arguments(monkeypatch, tmp_path, capsys):
    join_tables = C._join_tables
    monkeypatch.setattr(C, "_join_tables", lambda corr, index: [
        join._replace(checks=())
        for join in join_tables(corr, index)])
    test_checks.test_join_compares_every_bound_argument()


def _targets_left_unnormalized(monkeypatch, tmp_path, capsys):
    parse_trace = H.parse_trace

    def parse_keeping_targets(text):
        tr = parse_trace(text)
        tr.secrets = [(label, T.parse(t)) for label, _, t in (
            line[len("TARGET "):].partition(" ")
            for line in text.splitlines() if line.startswith("TARGET "))]
        return tr

    monkeypatch.setattr(H, "parse_trace", parse_keeping_targets)
    test_cli.test_trace_targets_are_read_as_normal_forms(tmp_path, capsys)


@pytest.mark.parametrize("defect", [
    _join_skips_other_arguments, _targets_left_unnormalized])
def test_check_defect_is_caught(monkeypatch, tmp_path, capsys, defect):
    with pytest.raises(AssertionError):
        defect(monkeypatch, tmp_path, capsys)
