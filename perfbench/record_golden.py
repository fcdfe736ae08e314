"""Record golden.json: the verdict-line digest of every round in the pools.

    python3 perfbench/record_golden.py [workload ...] [--show ROUND]

The benchmark fails a run whose verdict lines (status, witness, ``tests=``
counts) differ from these. Re-record only for a change meant to move a
verdict, and say so in its description; a speed-up must leave this file
unchanged. ``--show`` prints a round's lines instead of recording.
"""

from __future__ import annotations

import argparse
import json

from run import GOLDEN, load_program


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*")
    p.add_argument("--show", type=int, default=None, metavar="ROUND")
    args = p.parse_args()
    load_program()
    import probe
    import workloads as W

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for workload in args.workloads or W.WORKLOADS:
        rounds = ([args.show] if args.show is not None
                  else list(W.POOL) + list(W.HELD_OUT_POOL))
        if args.show is None:
            golden[workload] = {}
        for b in rounds:
            payload = W.campaign_scenarios(b) if workload == "campaign" else b
            exps = probe.Experiments()
            with probe.instrument(exps):
                result = W.run_round(workload, payload, exps)
            failed = [i for i in range(len(exps)) if exps.failed(i)]
            if args.show is not None:
                print("\n".join(result.lines))
                continue
            if failed or exps.loose_errors:
                raise SystemExit(f"{workload} round {b}: failed experiments "
                                 f"{failed}; not recording")
            golden[workload][str(b)] = result.digest()
            print(workload, b, len(exps), result.digest()[:12], flush=True)
        if args.show is None:
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    main()
