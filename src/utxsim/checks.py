"""Property verdicts over traces and paired frames.

check_agreement evaluates the four built-in injective-agreement
correspondences: a commit event must be justified by run events carrying
the same exchanged messages, and no run event justifies two commits. Each
obligation's events are hash-joined on one argument, the first whose
variable is bound before it, and each event of the bucket is tested on the
other bound arguments, so a commit meets only the events that can match it
and hashes one value to find them (for CRun, z1 rather than all six
arguments). The candidates are enumerated by recursion, one level per
obligation; only the injective choice, a backtracking search one level
per commit, keeps an explicit stack, so a trace of any length checks
without deep recursion. A violation names a commit: "commit#N:TAG@SID
unmatched" the first that no run events justify, "commit#N contended" the
first that no injective choice for the commits before it leaves a tuple
for. check_all_agreements groups a trace's events by tag once, into one
index for all four correspondences, and the index builds each join table
at most once, under its (tag, key position): CRun's table, keyed on z1,
serves three correspondences.
check_secrecy asks frames.derive for each secret, over one saturation of
the frame. Its targets must be normal forms holding no variable, as every
Trace holds them (the roles build them so, and parse_trace normalizes and
grounds each TARGET), so the search runs on each as given. distinguish
runs the bounded static-equivalence search over a paired run's final
frames; paired_verdict runs the paired experiment itself, for the suites
and the CLI alike.
Each violation certifies itself before it is returned: a leak's recipe is
evaluated in the frame and must give the secret, and a distinguishing
test's two recipes are evaluated in both frames and must be equal in the
named frame only. A failed re-check raises UncertifiedWitness.
SCENARIOS names the built-in scenarios, and suites() lays out every named
experiment battery as rows over them, each with its expected verdicts;
run_suite runs one battery's rows in order. Negative controls are expected
to fail, and the suite passes only when they fail in exactly the advertised
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import frames, harness, roles, setup_phase
from . import terms as T


@dataclass(frozen=True, slots=True)
class Correspondence:
    """A commit (the trigger) and the run events that must justify it, as
    (tag, variable names) patterns; no pattern names a variable twice."""
    name: str
    trigger: tuple            # (tag, var names)
    obligations: tuple        # ((tag, var names), ...)

    def __post_init__(self):
        for tag, varnames in (self.trigger, *self.obligations):
            if len(set(varnames)) != len(varnames):
                raise ValueError(f"{self.name}: {tag} repeats a variable")


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


class UncertifiedWitness(Exception):
    """A violated verdict's witness failed its independent re-check: an
    internal error of the search that found it, never a verdict."""


@dataclass(frozen=True, slots=True)
class Verdict:
    name: str
    status: str               # holds | violated | bounded-pass
    witness: str = ""

    def line(self) -> str:
        tail = f" {self.witness}" if self.witness else ""
        return f"CHECK {self.name} {self.status}{tail}"


class _EventIndex:
    """A trace's events grouped by tag, each tag's (index, event) pairs in
    event order, and the join tables built over them so far, each under
    its (tag, key position)."""
    __slots__ = ("pools", "tables")

    def __init__(self, events):
        self.pools: dict = {}
        for idx, ev in enumerate(events):
            self.pools.setdefault(ev.tag, []).append((idx, ev))
        self.tables: dict = {}


class _Join(NamedTuple):
    """How one obligation's events are looked up and tested against a
    binding: the arguments of the trigger and of each event chosen so far,
    concatenated, so that a variable's value sits at the slot of its first
    occurrence. The events are the table's bucket under the value at the
    key slot, or with no key (None) the whole pool. An event agrees when
    its argument at each position of checks equals the binding at the
    paired slot."""
    key: int | None
    events: object        # the table (dict) or, with no key, the pool
    checks: tuple         # (position, slot) of each other bound argument


def _join_tables(corr, index: _EventIndex) -> list:
    """Per obligation, its _Join: its tag's events keyed on one argument,
    the first whose variable the trigger or an earlier obligation binds,
    each bucket in event order. Keyed on that one value, CRun's table
    hashes z1 per event and per lookup, not all six arguments (ec, emc,
    etx and eac are deep). Every other bound argument is compared per
    event, so an obligation's agreeing events are those a scan of its tag
    would find, in the same order. An obligation with no bound argument
    reads its whole pool. A table is built at most once per index and
    shared by every correspondence that keys the same tag on the same
    position: CRun's, keyed on z1, serves three."""
    slot = {vn: j for j, vn in enumerate(corr.trigger[1])}
    width = len(slot)
    joins = []
    for tag, varnames in corr.obligations:
        key = next((j for j, vn in enumerate(varnames) if vn in slot), None)
        pool = index.pools.get(tag, [])
        if key is None:
            events = pool
        else:
            events = index.tables.get((tag, key))
            if events is None:
                events = index.tables[tag, key] = {}
                for pair in pool:
                    events.setdefault(pair[1].args[key], []).append(pair)
        checks = tuple((j, slot[vn]) for j, vn in enumerate(varnames)
                       if vn in slot and j != key)
        joins.append(_Join(None if key is None else slot[varnames[key]],
                           events, checks))
        for j, vn in enumerate(varnames):
            slot.setdefault(vn, width + j)
        width += len(varnames)
    return joins


def _agrees(args, join: _Join, binding) -> bool:
    """Whether an event's arguments agree with the binding at every bound
    position but the key; a test only, that builds nothing."""
    for j, s in join.checks:
        if binding[s] != args[j]:
            return False
    return True


def _candidate_tuples(binding, joins, chosen=()) -> list:
    """All ways to satisfy the obligation conjunction, with consistent
    existential variables, from a commit's binding (its arguments), as
    tuples of event indices in the order a scan of each obligation's
    events would find them: depth-first, one call per obligation, so the
    depth is the obligation count. chosen holds the events taken for the
    obligations before this one; only a level below the last extends the
    binding, by the chosen event's arguments."""
    level = len(chosen)
    if level == len(joins):
        return [chosen]
    join = joins[level]
    events = join.events if join.key is None else \
        join.events.get(binding[join.key], ())
    if level == len(joins) - 1:
        return [chosen + (idx,) for idx, ev in events
                if idx not in chosen and _agrees(ev.args, join, binding)]
    found = []
    for idx, ev in events:
        if idx not in chosen and _agrees(ev.args, join, binding):
            found += _candidate_tuples(binding + ev.args, joins,
                                       chosen + (idx,))
    return found


def _injective(candidates) -> int:
    """How far each commit, in order, can take one of its tuples, pairwise
    event-disjoint: depth-first over the commits, each trying its tuples
    in order, with one used set undone on backtrack. The deepest level the
    search reached: len(candidates) when every commit is placed, else the
    position of the first commit that no choice for the ones before it
    leaves a tuple for."""
    used: set = set()
    chosen: list = []              # the tuple taken at each level
    nxt = [0]                      # per open level, its next tuple to try
    deepest = 0
    while nxt:
        level = len(nxt) - 1
        if level == len(candidates):
            return level
        tuples = candidates[level][1]
        k = nxt[level]
        while k < len(tuples) and any(e in used for e in tuples[k]):
            k += 1
        if k < len(tuples):
            nxt[level] = k + 1
            chosen.append(tuples[k])
            used.update(tuples[k])
            nxt.append(0)
        else:                      # a failed search backs out of each level
            deepest = max(deepest, level)
            nxt.pop()
            if chosen:
                used.difference_update(chosen.pop())
    return deepest


def check_agreement(trace, corr: Correspondence,
                    index: _EventIndex | None = None) -> Verdict:
    """One correspondence's verdict; index is the trace's event index when
    the caller shares one across correspondences."""
    if index is None:
        index = _EventIndex(trace.events)
    joins = _join_tables(corr, index)
    candidates = []
    for idx, ev in index.pools.get(corr.trigger[0], ()):
        tuples = _candidate_tuples(ev.args, joins)
        if not tuples:
            return Verdict(corr.name, "violated",
                           f"commit#{idx}:{ev.tag}@{ev.session_id} unmatched")
        candidates.append((idx, tuples))

    # injectivity: pick pairwise event-disjoint obligation tuples
    placed = _injective(candidates)
    if placed < len(candidates):
        return Verdict(corr.name, "violated", "no injective matching "
                       f"(commit#{candidates[placed][0]} contended)")
    return Verdict(corr.name, "holds")


def check_all_agreements(trace):
    """The four correspondences' verdicts, from one event index."""
    index = _EventIndex(trace.events)
    return [check_agreement(trace, c, index) for c in CORRESPONDENCES]


def check_secrecy(frame: frames.Frame, targets):
    """Violated iff any target is attacker-derivable within the size bound
    frames.DERIVE_BOUND. Each target must be a normal form holding no
    variable, as every Trace holds them: the roles build them so and
    parse_trace normalizes and grounds each TARGET. So frames.derive
    searches each target as given, over one saturation of the frame, and a
    leak's recipe must evaluate to the target itself."""
    sat = frames.saturate(frame)
    leaks = []
    for label, target in targets:
        recipe = frames.derive(sat, target)
        if recipe is not None:
            if frames.recipe_value(frame, recipe) != target:
                raise UncertifiedWitness(
                    f"leak recipe {T.to_text(recipe)} does not give {label}")
            leaks.append(f"{label}<-{T.to_text(recipe)}")
    if leaks:
        return Verdict("secrecy", "violated", "; ".join(leaks))
    return Verdict("secrecy", "holds", f"bound={frames.DERIVE_BOUND}")


def distinguish(real, ideal) -> Verdict:
    """Bounded real-vs-ideal distinguishing experiment over final frames."""
    verdict = frames.static_equiv(real.frame, ideal.frame)
    if verdict:
        return Verdict("distinguish", "bounded-pass",
                       f"bound={frames.TEST_BOUND} tests={verdict.tests}")
    holds = [frames.recipe_value(f, verdict.left)
             == frames.recipe_value(f, verdict.right)
             for f in (real.frame, ideal.frame)]
    if holds != [verdict.side == "first", verdict.side == "second"]:
        raise UncertifiedWitness(
            f"the test does not tell the frames apart: {verdict.describe()}")
    return Verdict("distinguish", "violated", verdict.describe())


# -- scenarios and suites --------------------------------------------------------

LO, ONHI, OFFHI = ("lo", None), ("onhi", None), ("offhi", None)
# one card, two sessions at one low-value terminal: the paired-world setup
_TWO_SESSIONS = dict(sessions=2, terminals=(LO,), replay_check=False)
_mk = harness.Scenario

SCENARIOS = {
    "honest_onhi": _mk(terminals=(ONHI,), strategy="passive"),
    "honest_offhi": _mk(terminals=(OFFHI,), strategy="passive"),
    "honest_lo": _mk(terminals=(LO,), strategy="passive"),
    "wrong_pin_offhi": _mk(terminals=(OFFHI,), strategy="passive",
                           wrong_pin=(0,)),
    "mixed_fuzz": _mk(cards=3, sessions=4, strategy="fuzzer",
                      terminals=(ONHI, OFFHI, LO)),
    "replay_cryptogram": _mk(terminals=(LO,), strategy="replay_bank_request"),
    "replay_cryptogram_nocheck": _mk(terminals=(LO,),
                                     strategy="replay_bank_request",
                                     replay_check=False),
    "harvest_cert": _mk(terminals=(LO,), sessions=0, strategy="harvest"),
    "fake_card_no_checkv": _mk(terminals=(LO,), sessions=0,
                               strategy="fake_card_cert_replay",
                               terminal_cert_check=False),
    "chi_leak_fake_card": _mk(terminals=(LO,), sessions=0,
                              strategy="chi_fake_card", leak_chi=1),
    "month_probe_stale": _mk(horizon=4, current_month=2,
                             terminals=(("lo", 0),), sessions=0,
                             strategy="month_probe"),
    "unlink_utx": _mk(strategy="probe_cards", **_TWO_SESSIONS),
    "bdh_2session": _mk(protocol="bdh", strategy="probe_cards",
                        **_TWO_SESSIONS),
    "ubdh_2session": _mk(protocol="ubdh", strategy="probe_cards",
                         **_TWO_SESSIONS),
    "utxl_lo": _mk(protocol="utxl", strategy="pin_probe", leak_pin=True,
                   contact=False, **_TWO_SESSIONS),
    "utxl_hi_probe": _mk(protocol="utxl", strategy="pin_probe",
                         leak_pin=True, contact=True, **_TWO_SESSIONS),
    "multimonth_probe": _mk(protocol="utx_multimonth", strategy="probe_cards",
                            **_TWO_SESSIONS),
}


def paired_verdict(sc) -> Verdict:
    """The paired real/ideal experiment of a scenario: violated at the first
    step where the two worlds stop aligning, else distinguish's verdict
    over the final frames."""
    try:
        real, ideal = harness.run_paired(sc)
    except harness.AlignmentFailure as e:
        return Verdict("distinguish", "violated", f"alignment step {e.step}")
    return distinguish(real, ideal)


@dataclass(frozen=True, slots=True)
class Row:
    """One experiment of a battery: a SCENARIOS entry ("" runs nothing) with
    field overrides, seeded with the suite seed plus ``seed_offset``. Its
    result is the trace, or for a paired row the distinguish verdict. Each
    line (property, label, expected) maps the result to verdicts, names them
    (``{}`` is a verdict's own name) and expects one status of them all or
    one per verdict."""
    scenario: str
    lines: tuple
    overrides: dict = field(default_factory=dict)
    seed_offset: int = 0
    paired: bool = False


def _paired(scenario: str, label: str, expected: str, **overrides) -> Row:
    return Row(scenario, ((_distinguished, label, expected),), overrides,
               paired=True)


def _holds(ok: bool) -> Verdict:
    return Verdict("", "holds" if ok else "violated")


def _distinguished(verdict):
    return [verdict]


def _honest(tr):
    """Nothing aborted and the terminal authorised the payment: an auth
    output, found by its term among the trace's records."""
    auths = sum(1 for kind, _, shown, _ in tr.records
                if kind == "output" and shown == T.AUTH)
    return [_holds(not tr.aborts and auths >= 1)]


def _agreement(i: int):
    return lambda tr: [check_agreement(tr, CORRESPONDENCES[i])]


def _secrecy(tr):
    return [check_secrecy(tr.frame, tr.secrets)]


def _aborted(reason: str):
    return lambda tr: [_holds(any(r == reason for _, r in tr.aborts))]


def _window_matrix(_):
    """Two-month window: every (pointer, asked month) pair at horizon 3."""
    fresh = T.FreshNames()
    auth = setup_phase.make_authority(fresh, horizon=3)
    ok = True
    for pointer in range(3):
        for asked in range(3):
            card = setup_phase.issue_card(auth, fresh, pointer)
            outcome = roles._month_decision(card, asked, fresh)
            if asked >= pointer - 1:
                ok &= outcome is None and card.pointer == max(pointer, asked)
            else:
                ok &= outcome == "StaleMonth"
    return [_holds(ok)]


def _window_shift(_):
    """Sliding three-month window: shifts forward, refuses a stale month."""
    fresh = T.FreshNames()
    auth = setup_phase.make_authority(fresh, horizon=3)
    card = setup_phase.issue_card_multimonth(auth, fresh, (0, 1, 2))
    ok = (roles._month_decision(card, 1, fresh) is None
          and card.window == (0, 1, 2))
    ok &= roles._month_decision(card, 2, fresh) is None
    ok &= card.window == (1, 2, 3)
    ok &= roles._month_decision(card, 0, fresh) == "StaleMonth"
    return [_holds(ok)]


def _checked(tag: str) -> tuple:
    """The agreement and secrecy lines of a run tagged ``[tag]``."""
    return ((check_all_agreements, "{}[" + tag + "]", "holds"),
            (_secrecy, f"secrecy[{tag}]", "holds"))


UNLINK_CATALOG = ("passive", "probe_cards", "drop", "replay_bank_request",
                  "replay_card_reply", "reflect", "harvest", "month_probe")
# a forged card breaks terminal-agrees-card and nothing else
_FORGED = ("violated", "holds", "holds", "holds")


def suites(sessions: int = 3) -> dict:
    """Every battery as its rows, in report order. ``sessions`` shapes
    only the unlinkability battery: the catalog plus 42 seeded fuzzers,
    each against one card's ``sessions`` sessions."""
    unlink = [(name, 0) for name in UNLINK_CATALOG] + \
        [("fuzzer", k) for k in range(42)]
    return {
        "security": [
            *(Row(f"honest_{m}",
                  ((_honest, f"honest-{m}", "holds"), *_checked(m)))
              for m in ("onhi", "offhi", "lo")),
            *(Row("mixed_fuzz", _checked(f"fuzz{k}"), dict(strategy_arg=k),
                  seed_offset=k)
              for k in range(3)),
            Row("replay_cryptogram",
                ((_aborted("Replay"), "replay-rejected", "holds"),)),
            Row("replay_cryptogram_nocheck",
                ((_agreement(2), "replay-injectivity-break", "violated"),)),
        ],
        "controls": [
            _paired("bdh_2session", "bdh-2-session", "violated"),
            _paired("ubdh_2session", "ubdh-2-session", "bounded-pass"),
            Row("fake_card_no_checkv",
                ((check_all_agreements, "{}[no-checkv]", _FORGED),)),
            Row("fake_card_no_checkv",
                ((_agreement(0), "checkv-defends-replay", "holds"),),
                dict(terminal_cert_check=True)),
            Row("chi_leak_fake_card",
                ((check_all_agreements, "{}[chi-leak]", _FORGED),)),
        ],
        "unlinkability": [
            _paired("unlink_utx", f"utx[{name}.{arg}]", "bounded-pass",
                    sessions=sessions, strategy=name, strategy_arg=arg)
            for name, arg in unlink],
        "multimonth": [
            Row("", ((_window_matrix, "window-matrix", "holds"),)),
            Row("month_probe_stale",
                ((_aborted("StaleMonth"), "stale-month-abort", "holds"),)),
            Row("", ((_window_shift, "window-shift", "holds"),)),
            *(_paired("multimonth_probe", f"utxmm[{name}]", "bounded-pass",
                      strategy=name, strategy_arg=arg)
              for name, arg in (("passive", 0), ("probe_cards", 0),
                                ("fuzzer", 1))),
        ],
        "utxl": [
            *(_paired("utxl_lo", f"utxl-hypothesis[{name}]", "bounded-pass",
                      strategy=name)
              for name in ("passive", "probe_cards", "pin_probe")),
            # contact-capable (high-value) hardware re-enables PIN probing
            _paired("utxl_hi_probe", "utxl-with-hi-probe", "violated"),
        ],
    }


@dataclass(slots=True)
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


def _run_row(row: Row, seed: int):
    if not row.scenario:
        return None
    sc = replace(SCENARIOS[row.scenario], seed=seed + row.seed_offset,
                 **row.overrides)
    if not row.paired:
        return harness.run_scenario(sc)
    return paired_verdict(sc)


def run_suite(name: str, seed: int = 0, sessions: int = 3) -> Report:
    table = suites(sessions)
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(table)}")
    rep = Report(name)
    for row in table[name]:
        result = _run_row(row, seed)
        for prop, label, expected in row.lines:
            verdicts = prop(result)
            if isinstance(expected, str):
                expected = (expected,) * len(verdicts)
            for v, exp in zip(verdicts, expected):
                rep.add(replace(v, name=label.format(v.name)), exp)
    return rep
