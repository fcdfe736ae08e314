"""Property verdicts over traces and paired frames.

check_agreement evaluates the four built-in injective-agreement
correspondences: a commit event must be justified by run events carrying
the same exchanged messages, and no run event justifies two commits.
check_secrecy asks the deduction engine for each secret. distinguish runs
the bounded static-equivalence search over a paired run's final frames.
run_suite bundles the named experiment batteries with their expected
verdicts; negative controls are expected to fail and the suite passes only
when they fail in exactly the advertised way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import frames, harness
from . import terms as T



@dataclass(frozen=True)
class Correspondence:
    name: str
    trigger: tuple            # (tag, var names)
    obligations: tuple        # ((tag, var names), ...)
    injective: bool = True


CORRESPONDENCES = (
    Correspondence(
        "terminal-agrees-card",
        ("TComC", ("z1", "z2", "ec", "emc", "etx", "eac")),
        (("CRun", ("z1", "z2", "ec", "emc", "etx", "eac")),),
    ),
    Correspondence(
        "terminal-agrees-bank-card",
        ("TComBC", ("req", "resp", "z1", "z2", "ec", "emc", "etx", "eac")),
        (("BRunT", ("req", "resp")),
         ("CRun", ("z1", "z2", "ec", "emc", "etx", "eac"))),
    ),
    Correspondence(
        "bank-agrees-terminal-card",
        ("BComTC", ("req",)),
        (("TRunBC", ("req", "z1", "z2", "ec", "emc", "etx", "eac")),
         ("CRun", ("z1", "z2", "ec", "emc", "etx", "eac"))),
    ),
    Correspondence(
        "bank-agrees-card",
        ("BComC", ("eac",)),
        (("CRunB", ("eac",)),),
    ),
)


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str               # holds | violated | bounded-pass
    witness: str = ""

    def line(self) -> str:
        tail = f" {self.witness}" if self.witness else ""
        return f"CHECK {self.name} {self.status}{tail}"


def _unify(args, varnames, binding):
    new = dict(binding)
    for value, vn in zip(args, varnames):
        if vn in new:
            if new[vn] != value:
                return None
        else:
            new[vn] = value
    return new


def _candidate_tuples(corr, binding, pools):
    """All ways to satisfy the obligation conjunction with consistent
    existential variables; yields tuples of event indices."""

    def go(i, bound, chosen):
        if i == len(corr.obligations):
            yield tuple(chosen)
            return
        tag, varnames = corr.obligations[i]
        for idx, ev in pools.get(tag, ()):
            if idx in chosen:
                continue
            nxt = _unify(ev.args, varnames, bound)
            if nxt is not None:
                yield from go(i + 1, nxt, chosen + [idx])

    yield from go(0, binding, [])


def check_agreement(trace, corr: Correspondence) -> Verdict:
    events = list(trace.events)
    pools: dict = {}
    for idx, ev in enumerate(events):
        pools.setdefault(ev.tag, []).append((idx, ev))
    triggers = pools.get(corr.trigger[0], [])
    candidates = []
    for idx, ev in triggers:
        binding = _unify(ev.args, corr.trigger[1], {})
        tuples = list(_candidate_tuples(corr, binding, pools))
        if not tuples:
            return Verdict(corr.name, "violated",
                           f"commit#{idx}:{ev.tag}@{ev.session_id} unmatched")
        candidates.append((idx, tuples))

    # injectivity: pick pairwise event-disjoint obligation tuples
    def assign(i, used):
        if i == len(candidates):
            return True
        _, tuples = candidates[i]
        for tup in tuples:
            if any(e in used for e in tup):
                continue
            if assign(i + 1, used | set(tup)):
                return True
        return False

    if corr.injective and not assign(0, set()):
        which = candidates[-1][0]
        return Verdict(corr.name, "violated",
                       f"no injective matching (commit#{which} contended)")
    return Verdict(corr.name, "holds")


def check_all_agreements(trace):
    return [check_agreement(trace, c) for c in CORRESPONDENCES]


def check_secrecy(frame: frames.Frame, targets, bound: int = frames.DERIVE_BOUND):
    """Violated iff any target is attacker-derivable within the bound."""
    sat = frames.saturate(frame)
    leaks = []
    for label, target in targets:
        recipe = frames.derive(sat, target, bound)
        if recipe is not None:
            leaks.append(f"{label}<-{T.to_text(recipe)}")
    if leaks:
        return Verdict("secrecy", "violated", "; ".join(leaks))
    return Verdict("secrecy", "holds", f"bound={bound}")


def distinguish(real, ideal, test_bound: int = frames.TEST_BOUND,
                pool_cap: int = frames.POOL_CAP) -> Verdict:
    """Bounded real-vs-ideal distinguishing experiment over final frames."""
    verdict = frames.static_equiv(real.frame, ideal.frame,
                                  test_bound=test_bound, pool_cap=pool_cap)
    if verdict:
        capped = " capped=1" if verdict.capped else ""
        return Verdict("distinguish", "bounded-pass",
                       f"bound={test_bound} tests={verdict.tests}{capped}")
    return Verdict("distinguish", "violated", verdict.describe())


# -- suites -----------------------------------------------------------------------

@dataclass
class Report:
    name: str
    lines: list = field(default_factory=list)    # (Verdict, expected status)

    def add(self, verdict: Verdict, expected: str):
        self.lines.append((verdict, expected))

    def ok(self) -> bool:
        return all(v.status == exp for v, exp in self.lines)

    def render(self):
        for v, exp in self.lines:
            marker = "" if v.status == exp else f"  [expected {exp}]"
            yield v.line() + marker
        yield f"SUITE {self.name} {'pass' if self.ok() else 'FAIL'}"


def _scn(**kw) -> harness.Scenario:
    opts = kw.pop("options", {})
    if isinstance(opts, dict):
        opts = harness.Options(**opts)
    return harness.Scenario(options=opts, **kw)


def _named(verdict: Verdict, name: str) -> Verdict:
    return replace(verdict, name=name)


def _paired_verdict(sc, test_bound=frames.TEST_BOUND, pool_cap=frames.POOL_CAP):
    try:
        real, ideal = harness.run_paired(sc)
    except harness.AlignmentFailure as e:
        return Verdict("distinguish", "violated", f"alignment step {e.step}")
    return distinguish(real, ideal, test_bound, pool_cap)


def suite_security(seed: int = 0) -> Report:
    rep = Report("security")
    for mode in ("onhi", "offhi", "lo"):
        tr = harness.run_scenario(_scn(
            cards=1, terminals=((mode, None),), sessions=1,
            strategy="passive", seed=seed))
        auths = sum(1 for r in tr.records
                    if r.kind == "output" and r.text == "auth")
        ok = not tr.aborts and auths >= 1
        rep.add(Verdict(f"honest-{mode}", "holds" if ok else "violated"),
                "holds")
        for v in check_all_agreements(tr):
            rep.add(_named(v, f"{v.name}[{mode}]"), "holds")
        rep.add(_named(check_secrecy(tr.frame, tr.secrets), f"secrecy[{mode}]"),
                "holds")
    for k in range(3):
        tr = harness.run_scenario(_scn(
            cards=3, terminals=(("onhi", None), ("offhi", None), ("lo", None)),
            sessions=4, strategy="fuzzer", strategy_arg=k, seed=seed + k))
        for v in check_all_agreements(tr):
            rep.add(_named(v, f"{v.name}[fuzz{k}]"), "holds")
        rep.add(_named(check_secrecy(tr.frame, tr.secrets), f"secrecy[fuzz{k}]"),
                "holds")
    # replay protection on and off
    on = harness.run_scenario(_scn(
        cards=1, terminals=(("lo", None),), sessions=1,
        strategy="replay_bank_request", seed=seed))
    rejected = any(reason == "Replay" for _, reason in on.aborts)
    rep.add(Verdict("replay-rejected", "holds" if rejected else "violated"),
            "holds")
    off = harness.run_scenario(_scn(
        cards=1, terminals=(("lo", None),), sessions=1,
        strategy="replay_bank_request", seed=seed,
        options=dict(replay_check=False)))
    v = check_agreement(off, CORRESPONDENCES[2])
    rep.add(_named(v, "replay-injectivity-break"), "violated")
    return rep


def suite_controls(seed: int = 0, test_bound: int = frames.TEST_BOUND) -> Report:
    rep = Report("controls")
    for proto, expected in (("bdh", "violated"), ("ubdh", "bounded-pass")):
        sc = _scn(protocol=proto, cards=1, sessions=2,
                  schedule=((0, 0), (0, 0)), terminals=(("lo", None),),
                  strategy="probe_cards", seed=seed,
                  options=dict(replay_check=False))
        rep.add(_named(_paired_verdict(sc, test_bound), f"{proto}-2-session"),
                expected)
    # terminal that skips certificate verification
    tr = harness.run_scenario(_scn(
        cards=1, terminals=(("lo", None), ("lo", None)), sessions=0,
        strategy="fake_card_cert_replay", seed=seed,
        options=dict(terminal_checks_month_cert=False)))
    for v, expected in zip(check_all_agreements(tr),
                           ("violated", "holds", "holds", "holds")):
        rep.add(_named(v, f"{v.name}[no-checkv]"), expected)
    honest = harness.run_scenario(_scn(
        cards=1, terminals=(("lo", None), ("lo", None)), sessions=0,
        strategy="fake_card_cert_replay", seed=seed))
    v = check_agreement(honest, CORRESPONDENCES[0])
    rep.add(_named(v, "checkv-defends-replay"), "holds")
    # leaked month key
    tr = harness.run_scenario(_scn(
        cards=1, terminals=(("lo", None),), sessions=0,
        strategy="chi_fake_card", seed=seed,
        options=dict(chi_leaked=1)))
    for v, expected in zip(check_all_agreements(tr),
                           ("violated", "holds", "holds", "holds")):
        rep.add(_named(v, f"{v.name}[chi-leak]"), expected)
    return rep


UNLINK_CATALOG = ("passive", "probe_cards", "drop", "replay_bank_request",
                  "replay_card_reply", "reflect", "harvest", "month_probe")


def unlink_strategies(n_fuzzers: int = 42):
    """The world-agnostic adversary battery: catalog plus seeded fuzzers."""
    return [(name, 0) for name in UNLINK_CATALOG] + \
        [("fuzzer", k) for k in range(n_fuzzers)]


def suite_unlinkability(seed: int = 0, sessions: int = 3,
                        test_bound: int = frames.TEST_BOUND,
                        n_fuzzers: int = 42,
                        pool_cap: int = frames.POOL_CAP) -> Report:
    rep = Report("unlinkability")
    for name, arg in unlink_strategies(n_fuzzers):
        sc = _scn(cards=1, sessions=sessions,
                  schedule=tuple((0, 0) for _ in range(sessions)),
                  terminals=(("lo", None), ("onhi", None)),
                  strategy=name, strategy_arg=arg, seed=seed,
                  options=dict(replay_check=False))
        rep.add(_named(_paired_verdict(sc, test_bound, pool_cap),
                       f"utx[{name}.{arg}]"), "bounded-pass")
    return rep


def suite_multimonth(seed: int = 0, test_bound: int = frames.TEST_BOUND) -> Report:
    from . import roles, setup_phase
    rep = Report("multimonth")
    # exhaustive two-month window matrix at a small horizon
    fresh = T.FreshNames()
    auth = setup_phase.make_authority(fresh, horizon=3)
    matrix_ok = True
    for pointer in range(3):
        for asked in range(3):
            card = setup_phase.issue_card(auth, fresh, pointer)
            outcome = roles._month_decision(card, asked, fresh)
            should_accept = asked in (pointer - 1, pointer) or asked > pointer
            if should_accept != (outcome is None):
                matrix_ok = False
            if outcome is None:
                expect_ptr = max(pointer, asked)
                matrix_ok &= card.pointer == expect_ptr
            elif asked < pointer - 1:
                matrix_ok &= outcome == "StaleMonth"
    rep.add(Verdict("window-matrix", "holds" if matrix_ok else "violated"),
            "holds")
    # stale month probe through the network
    tr = harness.run_scenario(_scn(
        cards=1, issue_months=(2,), horizon=4, current_month=2,
        terminals=(("lo", 0),), sessions=0, strategy="month_probe",
        seed=seed))
    stale = any(reason == "StaleMonth" for _, reason in tr.aborts)
    rep.add(Verdict("stale-month-abort", "holds" if stale else "violated"),
            "holds")
    # sliding-window shifts
    fresh = T.FreshNames()
    auth = setup_phase.make_authority(fresh, horizon=3)
    card = setup_phase.issue_card_multimonth(auth, fresh, (0, 1, 2))
    ok = (roles._month_decision(card, 1, fresh) is None
          and card.window == (0, 1, 2))
    ok &= roles._month_decision(card, 2, fresh) is None
    ok &= card.window == (1, 2, 3)
    ok &= roles._month_decision(card, 0, fresh) == "StaleMonth"
    rep.add(Verdict("window-shift", "holds" if ok else "violated"), "holds")
    # paired-world experiment for the multi-month model
    for name, arg in (("passive", 0), ("probe_cards", 0), ("fuzzer", 1)):
        sc = _scn(protocol="utx_multimonth", cards=1, sessions=2,
                  schedule=((0, 0), (0, 0)), terminals=(("lo", None),),
                  strategy=name, strategy_arg=arg, seed=seed,
                  options=dict(replay_check=False))
        rep.add(_named(_paired_verdict(sc, test_bound),
                       f"utxmm[{name}]"), "bounded-pass")
    return rep


def suite_utxl(seed: int = 0, test_bound: int = frames.TEST_BOUND) -> Report:
    rep = Report("utxl")
    base = dict(protocol="utxl", cards=1, sessions=2,
                schedule=((0, 0), (0, 0)), terminals=(("lo", None),),
                seed=seed)
    for name in ("passive", "probe_cards", "pin_probe"):
        sc = _scn(strategy=name,
                  options=dict(replay_check=False, pin_leaked=True,
                               contact=False), **base)
        v = _named(_paired_verdict(sc, test_bound),
                   f"utxl-hypothesis[{name}]")
        rep.add(v, "bounded-pass")
    # adding contact-capable (high-value) hardware re-enables PIN probing
    sc = _scn(strategy="pin_probe",
              options=dict(replay_check=False, pin_leaked=True, contact=True),
              **base)
    rep.add(_named(_paired_verdict(sc, test_bound), "utxl-with-hi-probe"),
            "violated")
    return rep


SUITES = {
    "security": suite_security,
    "controls": suite_controls,
    "unlinkability": suite_unlinkability,
    "multimonth": suite_multimonth,
    "utxl": suite_utxl,
}


def run_suite(name: str, **kw) -> Report:
    try:
        builder = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}") from None
    return builder(**kw)
