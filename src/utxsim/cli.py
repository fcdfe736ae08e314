"""Command-line entry point.

Subcommands: run (execute a scenario, write the trace), check (agreement +
secrecy over a trace), distinguish (paired real/ideal experiment), suite
(named experiment battery), difftest (numeric backend cross-check),
catalog (built-in scenarios and strategies).
A scenario, a built-in name or a scenario file, is the one way to set a
run's fields; --seed and --sessions replace its seed and its sessions
only when given; harness.parse_scenario_text reads a scenario file, so
this module holds the command line only. suite and difftest seed with
--seed, else 0. The two searches take no size setting: a pass line's
bound=6 is frames.TEST_BOUND and a secrecy line's bound=8 is
frames.DERIVE_BOUND.

Exit codes: 0 all expected verdicts, 1 property violation or unexpected
verdict, 2 usage error, 3 internal error of a search (a witness that fails
its re-check, or a candidate joining the distinguisher's pool after the
seeds), with its traceback on stderr. Identical argv and scenario files
give byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from . import checks, concrete, frames, harness
from . import terms as T
from .strategies import builtin_strategies


def load_scenario(spec: str) -> harness.Scenario:
    if spec in checks.SCENARIOS:
        return checks.SCENARIOS[spec]
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return harness.parse_scenario_text(fh.read())
    raise harness.ScenarioInvalid(
        f"{spec!r} is neither a built-in scenario nor a file; "
        f"built-ins: {', '.join(sorted(checks.SCENARIOS))}")


def _scenario(args) -> harness.Scenario:
    """The named scenario, with --seed and --sessions applied when given."""
    sc = load_scenario(args.scenario or "honest_onhi")
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if args.sessions is not None:
        sc = replace(sc, sessions=args.sessions)
    return sc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    trace = harness.run_scenario(_scenario(args))
    _emit(trace.dump(), args.out)
    return 0


def cmd_check(args) -> int:
    if args.trace:
        if any(v is not None for v in (args.scenario, args.seed,
                                       args.sessions)):
            raise harness.ScenarioInvalid(
                "--trace takes no --scenario, --seed or --sessions")
        with open(args.trace, encoding="utf-8") as fh:
            trace = harness.parse_trace(fh.read())
    else:
        trace = harness.run_scenario(_scenario(args))
    verdicts = checks.check_all_agreements(trace)
    verdicts.append(checks.check_secrecy(trace.frame, trace.secrets))
    lines = "".join(v.line() + "\n" for v in verdicts)
    _emit(lines, args.out)
    return 1 if any(v.status == "violated" for v in verdicts) else 0


def cmd_distinguish(args) -> int:
    verdict = checks.paired_verdict(_scenario(args))
    _emit(verdict.line() + "\n", args.out)
    return 0 if verdict.status == "bounded-pass" else 1


def cmd_suite(args) -> int:
    report = checks.run_suite(args.name, seed=args.seed,
                              sessions=args.sessions)
    _emit("".join(line + "\n" for line in report.render()), args.out)
    return 0 if report.ok() else 1


def cmd_difftest(args) -> int:
    rep = concrete.differential_test(args.samples, args.seed)
    _emit("".join(line + "\n" for line in rep.lines()), args.out)
    return 1 if rep.soundness_violations else 0


def cmd_catalog(args) -> int:
    lines = ["scenarios:"]
    lines += [f"  {name}" for name in sorted(checks.SCENARIOS)]
    lines.append("strategies:")
    lines += [f"  {name}: {desc}"
              for name, desc in sorted(builtin_strategies().items())]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line instead of a usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)      # argparse reports "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="utxsim", allow_abbrev=False,
        description="Symbolic engine and attacker harness for unlinkable "
                    "smart-card payments")
    sub = p.add_subparsers(dest="cmd", required=True)

    def scenario_flags(sp):
        sp.add_argument("--scenario", default=None,
                        help="built-in scenario name or scenario file "
                             "(honest_onhi)")
        sp.add_argument("--seed", type=int, default=None,
                        help="(the scenario's own)")
        sp.add_argument("--sessions", type=_at_least(0), default=None,
                        help="(the scenario's own)")
        sp.add_argument("--out", default=None, help="output file (stdout)")

    sp = sub.add_parser("run", allow_abbrev=False,
                        help="execute a scenario and write its trace")
    scenario_flags(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("check", allow_abbrev=False,
                        help="agreement and secrecy verdicts over a trace")
    scenario_flags(sp)
    sp.add_argument("--trace", default=None,
                    help="previously dumped trace, in place of a scenario")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("distinguish", allow_abbrev=False,
                        help="paired real/ideal bounded distinguishing run")
    scenario_flags(sp)
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser("suite", allow_abbrev=False,
                        help="run a named experiment battery")
    sp.add_argument("name", choices=sorted(checks.suites()))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output file (stdout)")
    sp.add_argument("--sessions", type=_at_least(2), default=3,
                    help="sessions per unlinkability experiment (at least 2)")
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("difftest", allow_abbrev=False,
                        help="symbolic-vs-numeric differential test")
    sp.add_argument("--samples", type=_at_least(1), default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_difftest)

    sp = sub.add_parser("catalog", allow_abbrev=False,
                        help="list built-in scenarios and strategies")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (harness.ScenarioInvalid, harness.TraceInvalid, T.MalformedTerm,
            OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (checks.UncertifiedWitness, frames.LateJoin):
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
