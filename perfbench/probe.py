"""Instrumentation applied from outside the program.

Nothing here edits utxsim. Each hook replaces a module attribute (or a class
attribute) with a wrapper and puts the original back on exit. Every caller
inside utxsim reaches these entry points through the module (``T.apply``,
``frames.saturate``, ``roles.card_step``, a global looked up at call time),
so the replacement reaches them too.

Two layers of hooks:

* ``Experiments`` marks experiment boundaries and collects verdict rows. It
  is always on; it costs a few calls per experiment and one extra call per
  scheduler decision.
* ``Tracer`` records a span around every public entry point of ``terms``,
  ``frames``, ``harness``, ``strategies``, ``roles``, ``setup_phase`` and
  ``checks``. It is on only in a traced run.
"""

from __future__ import annotations

import contextlib
import gzip
import time

from utxsim import checks, frames, harness, roles, setup_phase
from utxsim import terms as T

clock = time.perf_counter

TERMS_ENTRIES = ("normalize", "apply", "free_vars", "free_names", "to_text")
FRAMES_ENTRIES = ("static_equiv", "saturate", "derive", "recipe_ok",
                  "recipe_value")
ROLES_ENTRIES = ("card_step", "terminal_step", "bank_step")
SETUP_ENTRIES = ("make_authority", "make_bank_credential", "issue_card",
                 "issue_card_multimonth", "provision_terminal",
                 "publish_bulletin")
CHECKS_ENTRIES = ("check_agreement", "check_all_agreements", "check_secrecy",
                  "distinguish")
MODULES = ("terms", "frames", "harness", "strategies", "roles", "setup_phase",
           "checks")


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class _Watched:
    """Strategy proxy: records whether the program stopped by itself (its
    decide returned None) rather than being cut off by ``max_steps``."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.stopped = False
        self.decide = (self._plain if tracer is None
                       else tracer.wrap("strategies.decide", self._plain,
                                        tracer.count_injection))

    def _plain(self, obs):
        action = self.inner.decide(obs)
        if action is None:
            self.stopped = True
        return action


class Experiments:
    """Experiment boundaries and verdict rows.

    An experiment is one top-level ``harness.run_scenario`` or
    ``harness.run_paired`` call together with the checks on its result. It
    starts when that call starts and ends at the last verdict row recorded
    before the next experiment starts (or before the round ends).
    """

    def __init__(self, before_start=None):
        self.before_start = before_start   # called, untimed, before each
        self.start = []       # per experiment: start time
        self.end = []         # per experiment: time of its last verdict row
        self.raised = []      # per experiment: it raised
        self.strategies = []  # per experiment: its _Watched strategies
        self.rows = []        # per experiment: verdict rows
        self.errors = []      # per experiment: rows off their expected status
        self.loose_rows = 0   # rows recorded while no experiment was open
        self.loose_errors = 0
        self._open = False
        self._depth = 0

    def __len__(self):
        return len(self.start)

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def failed(self, i):
        """Experiment i raised, hit max_steps before its program stopped, or
        has a verdict row off its expected status."""
        return (self.raised[i] or self.errors[i] > 0
                or any(not w.stopped for w in self.strategies[i]))

    def row(self, error: bool):
        """Record one verdict row; ``error`` is a status mismatch."""
        if self._open:
            self.end[-1] = clock()
            self.rows[-1] += 1
            self.errors[-1] += error
        else:
            self.loose_rows += 1
            self.loose_errors += error

    def fail(self):
        """The open experiment raised."""
        self.raised[-1] = True

    def close(self):
        """End the open experiment: later rows belong to no experiment."""
        self._open = False

    def _run_hook(self, fn):
        def run(*args, **kw):
            top = self._depth == 0
            if top:
                if self.before_start is not None:
                    self.before_start()
                self.start.append(clock())
                self.end.append(self.start[-1])
                self.raised.append(False)
                self.strategies.append([])
                self.rows.append(0)
                self.errors.append(0)
                self._open = True
            self._depth += 1
            try:
                return fn(*args, **kw)
            finally:
                self._depth -= 1
                if top:
                    self.end[-1] = clock()
        return run

    def hooks(self, tracer=None):
        make_strategy = harness.make_strategy

        def watched(sc):
            w = _Watched(make_strategy(sc), tracer)
            if self.strategies:
                self.strategies[-1].append(w)
            return w

        add = checks.Report.add

        def report_add(report, verdict, expected):
            add(report, verdict, expected)
            self.row(verdict.status != expected)

        run_scenario, run_paired = harness.run_scenario, harness.run_paired
        if tracer is not None:
            run_scenario = tracer.wrap("harness.run_scenario", run_scenario,
                                       tracer.count_trace)
            run_paired = tracer.wrap("harness.run_paired", run_paired)
        return [(harness, "make_strategy", watched),
                (checks.Report, "add", report_add),
                (harness, "run_scenario", self._run_hook(run_scenario)),
                (harness, "run_paired", self._run_hook(run_paired))]


class Tracer:
    """Spans around layer entry points, kept in memory.

    A span is (id, name, start, end, parent id, experiment id). A span's
    self time is its duration minus the time its child spans cover. The
    ``terms`` entry points run millions of times per round, so they are not
    kept one by one: each kept span carries the call count and self time of
    the ``terms`` calls made directly under it.
    """

    def __init__(self, experiments: Experiments):
        self.experiments = experiments
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {"frames.static_equiv.tests": 0,
                             "frames.saturate.entries": 0,
                             "frames.derive.found": 0,
                             "harness.aborts": 0,
                             "harness.frame_bindings": 0,
                             "strategies.injections": 0}
        self.spans: list = []
        self._stack: list = []    # open spans: [child time, owning span]

    # -- result counters ----------------------------------------------------

    def count_tests(self, verdict):
        self.counts["frames.static_equiv.tests"] += verdict.tests

    def count_entries(self, sat):
        self.counts["frames.saturate.entries"] += len(sat.entries)

    def count_found(self, recipe):
        self.counts["frames.derive.found"] += recipe is not None

    def count_trace(self, trace):
        self.counts["harness.aborts"] += len(trace.aborts)
        self.counts["harness.frame_bindings"] += len(trace.frame.bindings)

    def count_injection(self, action):
        if isinstance(action, (harness.Deliver, harness.DeliverBank)) \
                and not action.source_alias:
            self.counts["strategies.injections"] += 1

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        for table in (self.calls, self.self_s, self.total_s):
            table.setdefault(name, 0)
        if name.startswith("terms."):
            return self._wrap_leaf(name, fn)
        return self._wrap_span(name, fn, after)

    def _wrap_leaf(self, name, fn):
        stack, calls, self_s, total_s = (self._stack, self.calls,
                                         self.self_s, self.total_s)

        def traced(*args, **kw):
            frame = [0.0, None]
            if stack:
                frame[1] = stack[-1][1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kw)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[0]
                calls[name] += 1
                self_s[name] += own
                total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                owner = frame[1]
                if owner is not None:
                    owner[6] += 1
                    owner[7] += own
        return traced

    def _wrap_span(self, name, fn, after):
        stack, spans, exps = self._stack, self.spans, self.experiments
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kw):
            owner = stack[-1][1] if stack else None
            parent = owner[0] if owner is not None else -1
            # id, name, start, end, parent, experiment, terms calls, terms self
            span = [len(spans), name, 0.0, 0.0, parent, len(exps) - 1, 0, 0.0]
            spans.append(span)
            frame = [0.0, span]
            stack.append(frame)
            span[2] = start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                span[3] = end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(result)
            return result
        return traced

    def hooks(self):
        def wrapped(owner, prefix, names, after=None):
            after = after or {}
            return [(owner, n, self.wrap(f"{prefix}.{n}", getattr(owner, n),
                                         after.get(n)))
                    for n in names]

        return (wrapped(T, "terms", TERMS_ENTRIES)
                + wrapped(frames, "frames", FRAMES_ENTRIES,
                          {"static_equiv": self.count_tests,
                           "saturate": self.count_entries,
                           "derive": self.count_found})
                + wrapped(harness.Runner, "harness.Runner",
                          ("observe", "apply"))
                + wrapped(roles, "roles", ROLES_ENTRIES)
                + wrapped(setup_phase, "setup_phase", SETUP_ENTRIES)
                + wrapped(checks, "checks", CHECKS_ENTRIES))

    # -- results ----------------------------------------------------------------

    def module_self_s(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def terms_self_under(self, name):
        """Self time of terms calls made directly under spans named ``name``."""
        return sum(s[7] for s in self.spans if s[1] == name)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\texperiment"
                     "\tterms_calls\tterms_self_s\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def instrument(experiments: Experiments, tracer: Tracer | None = None):
    """Context manager installing the experiment hooks (and the tracer)."""
    hooks = experiments.hooks(tracer)
    if tracer is not None:
        hooks = tracer.hooks() + hooks
    return patched(hooks)
