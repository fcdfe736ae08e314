"""Per-layer metrics of a traced round.

``PER_LAYER`` lists every metric a traced run prints, with its unit and
which direction is better; BENCHMARK.json's ``per_layer`` list mirrors it.
Calls and self times come straight from the tracer. Derived ratios:

* ``terms.normalize.us_per_call``: normalize self time per call.
* ``frames.static_equiv.tests_per_s``: candidate tests per second of
  static_equiv span time (children included).
* ``frames.static_equiv.wall_share``: static_equiv self time plus the self
  time of the terms calls made directly under it, over traced wall time.
* ``frames.saturate.ms_per_frame``: saturate span time per call.
* ``harness.us_per_step``: harness self time per scheduler step (one step
  is one ``Runner.observe`` call).
* ``<module>.share``: the module's self time over traced wall time.
* ``trace.overhead_ratio``: traced wall time over untraced wall time of the
  same round.
"""

from __future__ import annotations

from probe import MODULES

_TIMED = (
    "terms.free_vars", "terms.apply", "terms.normalize",
    "frames.static_equiv", "frames.saturate", "frames.derive",
    "harness.Runner.observe", "harness.Runner.apply", "harness.run_scenario",
    "harness.run_paired", "strategies.decide",
    "roles.card_step", "roles.terminal_step", "roles.bank_step",
    "setup_phase.issue_card", "setup_phase.provision_terminal",
    "setup_phase.make_authority",
    "checks.check_agreement", "checks.check_secrecy", "checks.distinguish",
)
_COUNTS = ("frames.static_equiv.tests", "frames.saturate.entries",
           "frames.derive.found", "harness.aborts", "harness.frame_bindings",
           "strategies.injections")
_INVARIANT_HIGHER = ("frames.derive.found",)

PER_LAYER = (
    [(f"{n}.{k}", u, "lower") for n in _TIMED
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(n, "count", "higher" if n in _INVARIANT_HIGHER else "lower")
       for n in _COUNTS]
    + [("terms.normalize.us_per_call", "us", "lower"),
       ("frames.static_equiv.tests_per_s", "1/s", "higher"),
       ("frames.static_equiv.wall_share", "ratio", "lower"),
       ("frames.saturate.ms_per_frame", "ms", "lower"),
       ("harness.us_per_step", "us", "lower")]
    + [(f"{m}.share", "ratio", "lower") for m in MODULES]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """name -> (value, unit) for every PER_LAYER metric."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    values = {}
    for n in _TIMED:
        values[f"{n}.calls"] = calls.get(n, 0)
        values[f"{n}.self_s"] = self_s.get(n, 0.0)
    values.update(tracer.counts)
    module_self = tracer.module_self_s()
    se = "frames.static_equiv"
    values.update({
        "terms.normalize.us_per_call": _per(self_s["terms.normalize"],
                                            calls["terms.normalize"], 1e6),
        f"{se}.tests_per_s": _per(tracer.counts[f"{se}.tests"],
                                  total_s[se]),
        f"{se}.wall_share": _per(self_s[se] + tracer.terms_self_under(se),
                                 traced_wall),
        "frames.saturate.ms_per_frame": _per(total_s["frames.saturate"],
                                             calls["frames.saturate"], 1e3),
        "harness.us_per_step": _per(module_self["harness"],
                                    calls["harness.Runner.observe"], 1e6),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    for m in MODULES:
        values[f"{m}.share"] = module_self[m] / traced_wall
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
