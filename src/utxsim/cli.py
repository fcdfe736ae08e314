"""Command-line entry point.

Subcommands: run (execute a scenario, write the trace), check (agreement +
secrecy over a trace), distinguish (paired real/ideal experiment), suite
(named experiment battery), difftest (numeric backend cross-check).

Exit codes: 0 all expected verdicts, 1 property violation or unexpected
verdict, 2 usage error. Identical argv and seed give byte-identical output;
UTXSIM_SEED sets the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import checks, concrete, frames, harness
from . import terms as T
from .strategies import builtin_strategies


def builtin_scenarios() -> dict:
    mk = harness.Scenario
    opt = harness.Options
    lo2 = (("lo", None), ("lo", None))
    return {
        "honest_onhi": mk(terminals=(("onhi", None),), strategy="passive"),
        "honest_offhi": mk(terminals=(("offhi", None),), strategy="passive"),
        "honest_lo": mk(terminals=(("lo", None),), strategy="passive"),
        "wrong_pin_offhi": mk(terminals=(("offhi", None),),
                              strategy="passive",
                              options=opt(wrong_pin_sessions=(0,))),
        "mixed_fuzz": mk(cards=3, sessions=4, strategy="fuzzer",
                         terminals=(("onhi", None), ("offhi", None),
                                    ("lo", None))),
        "replay_cryptogram": mk(terminals=(("lo", None),),
                                strategy="replay_bank_request"),
        "replay_cryptogram_nocheck": mk(terminals=(("lo", None),),
                                        strategy="replay_bank_request",
                                        options=opt(replay_check=False)),
        "harvest_cert": mk(terminals=(("lo", None),), sessions=0,
                           strategy="harvest"),
        "fake_card_no_checkv": mk(terminals=lo2, sessions=0,
                                  strategy="fake_card_cert_replay",
                                  options=opt(terminal_checks_month_cert=False)),
        "chi_leak_fake_card": mk(terminals=(("lo", None),), sessions=0,
                                 strategy="chi_fake_card",
                                 options=opt(chi_leaked=1)),
        "month_probe_stale": mk(issue_months=(2,), horizon=4,
                                current_month=2, terminals=(("lo", 0),),
                                sessions=0, strategy="month_probe"),
        "unlink_utx": mk(sessions=2, schedule=((0, 0), (0, 0)),
                         terminals=(("lo", None),), strategy="probe_cards",
                         options=opt(replay_check=False)),
        "bdh_2session": mk(protocol="bdh", sessions=2,
                           schedule=((0, 0), (0, 0)),
                           terminals=(("lo", None),), strategy="probe_cards",
                           options=opt(replay_check=False)),
        "ubdh_2session": mk(protocol="ubdh", sessions=2,
                            schedule=((0, 0), (0, 0)),
                            terminals=(("lo", None),), strategy="probe_cards",
                            options=opt(replay_check=False)),
        "utxl_lo": mk(protocol="utxl", sessions=2, schedule=((0, 0), (0, 0)),
                      terminals=(("lo", None),), strategy="pin_probe",
                      options=opt(replay_check=False, pin_leaked=True,
                                  contact=False)),
        "utxl_hi_probe": mk(protocol="utxl", sessions=2,
                            schedule=((0, 0), (0, 0)),
                            terminals=(("lo", None),), strategy="pin_probe",
                            options=opt(replay_check=False, pin_leaked=True,
                                        contact=True)),
        "multimonth_probe": mk(protocol="utx_multimonth", sessions=2,
                               schedule=((0, 0), (0, 0)),
                               terminals=(("lo", None),),
                               strategy="probe_cards",
                               options=opt(replay_check=False)),
    }


def parse_scenario_text(text: str) -> harness.Scenario:
    """Line-oriented key/value scenario files; see README for the grammar."""
    fields: dict = {"terminals": [], "card_windows": [], "schedule": []}
    opts: dict = {}
    flags = {"on": True, "off": False, "true": True, "false": False}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        try:
            if key == "terminal":
                month = (None if len(args) < 2 or args[1] == "."
                         else int(args[1]))
                fields["terminals"].append((args[0], month))
            elif key == "card_window":
                fields["card_windows"].append(tuple(int(a) for a in args))
            elif key == "schedule":
                fields["schedule"] = [tuple(int(x) for x in a.split(":"))
                                      for a in args]
            elif key == "issue_months":
                fields["issue_months"] = tuple(int(a) for a in args)
            elif key == "wrong_pin":
                opts["wrong_pin_sessions"] = tuple(int(a) for a in args)
            elif key in ("replay_check", "terminal_cert_check", "leak_pin",
                         "contact"):
                val = flags[args[0]]
                opts[{"replay_check": "replay_check",
                      "terminal_cert_check": "terminal_checks_month_cert",
                      "leak_pin": "pin_leaked",
                      "contact": "contact"}[key]] = val
            elif key == "leak_chi":
                opts["chi_leaked"] = int(args[0])
            elif key == "strategy":
                fields["strategy"] = args[0]
                if len(args) > 1:
                    fields["strategy_arg"] = int(args[1])
            elif key in ("cards", "sessions", "seed", "current_month",
                         "horizon", "max_steps"):
                fields[key] = int(args[0])
            elif key in ("protocol", "world"):
                fields[key] = args[0]
            else:
                raise harness.ScenarioInvalid(f"unknown scenario key {key!r}")
        except (ValueError, IndexError, KeyError):
            raise harness.ScenarioInvalid(
                f"bad scenario line {lineno}: {line!r}") from None
    for k in ("terminals", "card_windows", "schedule"):
        fields[k] = tuple(fields[k])
    if not fields["terminals"]:
        del fields["terminals"]
    return harness.Scenario(options=harness.Options(**opts), **fields)


def load_scenario(spec: str) -> harness.Scenario:
    table = builtin_scenarios()
    if spec in table:
        return table[spec]
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_scenario_text(fh.read())
    raise harness.ScenarioInvalid(
        f"{spec!r} is neither a built-in scenario nor a file; "
        f"built-ins: {', '.join(sorted(table))}")


def _apply_overrides(sc: harness.Scenario, args) -> harness.Scenario:
    opts = sc.options
    if args.replay_check is not None:
        opts = replace(opts, replay_check=args.replay_check)
    if args.no_terminal_cert_check:
        opts = replace(opts, terminal_checks_month_cert=False)
    if args.leak_chi is not None:
        opts = replace(opts, chi_leaked=args.leak_chi)
    if args.leak_pin:
        opts = replace(opts, pin_leaked=True)
    sc = replace(sc, options=opts, seed=args.seed)
    if args.sessions is not None:
        sc = replace(sc, sessions=args.sessions, schedule=())
    if args.world:
        sc = replace(sc, world=args.world)
    if args.protocol:
        sc = replace(sc, protocol=args.protocol)
    return sc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    trace = harness.run_scenario(sc)
    _emit(trace.dump(), args.out)
    return 0


def cmd_check(args) -> int:
    if args.trace:
        with open(args.trace) as fh:
            trace = harness.parse_trace(fh.read())
    else:
        sc = _apply_overrides(load_scenario(args.scenario), args)
        trace = harness.run_scenario(sc)
    verdicts = checks.check_all_agreements(trace)
    verdicts.append(checks.check_secrecy(trace.frame, trace.secrets,
                                         args.derive_bound))
    lines = "".join(v.line() + "\n" for v in verdicts)
    _emit(lines, args.out)
    return 1 if any(v.status == "violated" for v in verdicts) else 0


def cmd_distinguish(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    try:
        real, ideal = harness.run_paired(sc)
    except harness.AlignmentFailure as e:
        _emit(f"CHECK distinguish violated alignment:{e.step}\n", args.out)
        return 1
    verdict = checks.distinguish(real, ideal, args.test_bound, args.pool_cap)
    _emit(verdict.line() + "\n", args.out)
    return 0 if verdict.status == "bounded-pass" else 1


def cmd_suite(args) -> int:
    kw = {"seed": args.seed}
    if args.name == "unlinkability":
        kw.update(test_bound=args.test_bound, sessions=args.sessions or 3,
                  n_fuzzers=args.fuzzers, pool_cap=args.pool_cap)
    elif args.name in ("controls", "multimonth", "utxl"):
        kw.update(test_bound=args.test_bound)
    report = checks.run_suite(args.name, **kw)
    _emit("".join(line + "\n" for line in report.render()), args.out)
    return 0 if report.ok() else 1


def cmd_difftest(args) -> int:
    rep = concrete.differential_test(args.samples, args.depth, args.seed)
    _emit("".join(line + "\n" for line in rep.lines()), args.out)
    return 1 if rep.soundness_violations else 0


def cmd_catalog(args) -> int:
    lines = ["scenarios:"]
    lines += [f"  {name}" for name in sorted(builtin_scenarios())]
    lines.append("strategies:")
    lines += [f"  {name}: {desc}"
              for name, desc in sorted(builtin_strategies().items())]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="utxsim",
        description="Symbolic engine and attacker harness for unlinkable "
                    "smart-card payments")
    default_seed = int(os.environ.get("UTXSIM_SEED", "0"))
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=False,
                            default="honest_onhi",
                            help="built-in scenario name or scenario file")
        sp.add_argument("--seed", type=int, default=default_seed)
        sp.add_argument("--sessions", type=int, default=None)
        sp.add_argument("--world", choices=("real", "ideal"), default=None)
        sp.add_argument("--protocol", default=None,
                        choices=("utx", "utx_multimonth", "utxl",
                                 "bdh", "ubdh"))
        sp.add_argument("--derive-bound", type=int,
                        default=frames.DERIVE_BOUND)
        sp.add_argument("--test-bound", type=int, default=frames.TEST_BOUND)
        sp.add_argument("--pool-cap", type=int, default=frames.POOL_CAP)
        sp.add_argument("--replay-check", dest="replay_check",
                        action="store_true", default=None)
        sp.add_argument("--no-replay-check", dest="replay_check",
                        action="store_false")
        sp.add_argument("--no-terminal-cert-check", action="store_true")
        sp.add_argument("--leak-chi", type=int, default=None, metavar="MONTH")
        sp.add_argument("--leak-pin", action="store_true")
        sp.add_argument("--out", default=None, help="output file (stdout)")

    sp = sub.add_parser("run", help="execute a scenario and write its trace")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("check",
                        help="agreement and secrecy verdicts over a trace")
    common(sp)
    sp.add_argument("--trace", default=None, help="previously dumped trace")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("distinguish",
                        help="paired real/ideal bounded distinguishing run")
    common(sp)
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser("suite", help="run a named experiment battery")
    sp.add_argument("name", choices=sorted(checks.SUITES))
    sp.add_argument("--fuzzers", type=int, default=42)
    common(sp, scenario=False)
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("difftest",
                        help="symbolic-vs-numeric differential test")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--seed", type=int, default=default_seed)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_difftest)

    sp = sub.add_parser("catalog",
                        help="list built-in scenarios and strategies")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (harness.ScenarioInvalid, harness.TraceInvalid, T.MalformedTerm,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
