"""Command-line interface.

    paramck check --leader F --contributor F --property F
                  [--mode M] [--contributors K] [--stack-bound B]
                  [--witness OUT] [--json]
    paramck replay --witness F --leader F --contributor F --property F

--contributors and --stack-bound are refused outside --mode explicit.
Explicit mode with a PDM contributor refuses --witness: its witnesses refer
to the PDM, and replay to the contributor's window restriction.
Exit codes for check: 0 decided (NONEMPTY or EMPTY), 2 input error,
3 budget exceeded, 4 internal error (a model found but no witness built).
For replay: 0 valid, 1 invalid, 2 parse/input error, 3 budget exceeded
(by the window restriction of a pushdown contributor).  Both exit 141, as
SIGPIPE would, when stdout is closed early (paramck check ... | head -1).
Machine and witness files are read as UTF-8, a leading byte-order mark
skipped: a file that cannot be read, is not UTF-8 or does not parse is an
input error, reported with its path, and so is a --witness OUT that cannot
be written (a missing directory, a directory); check then prints no
report.
The PARAMCK_BUDGET environment variable caps each state exploration:
abstract configurations, the pdm-fsm saturation's pivots and triples,
window states, stem moves or explicit configurations (see the README for
the default); solves have no budget.  It is read once per
command, and a value that is not an integer of at least 1, written in
ASCII digits, exits 2.
BUDGET and ERROR verdicts carry statistics.reason, and every verdict on
a restricted pushdown contributor carries statistics.window_bound (N).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .machines import (BudgetExceeded, Fsm, Pdm, LEADER, CONTRIBUTOR,
                       buchi_product, make_network, validate)
from .explicit import replay
from .fileformat import (ParseError, parse_machine_file, parse_witness,
                         print_witness)
from .api import MODES, run_check, replay_network


class InputError(Exception):
    pass


def _parse_file(path, parse, *args):
    """parse(the text of path, *args), a leading byte-order mark skipped (as
    utf-8-sig would, whose decoder is Python); a read error, bytes that are
    not UTF-8 (at their offset in the file) or a parse error is an
    InputError."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8").removeprefix("\ufeff")
        return parse(text, *args)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8: {e.reason} at byte {e.start}")
    except ParseError as e:
        raise InputError(f"{path}: {e}")


def _load_machine(path, role, want_buchi=None):
    machine, values = _parse_file(path, parse_machine_file, role)
    if want_buchi is True and machine.accepting is None:
        raise InputError(f"{path}: a Buchi acceptance set is required here")
    if want_buchi is False and machine.accepting is not None:
        raise InputError(f"{path}: unexpected Buchi acceptance set")
    diags = validate(machine, values)
    errors = [d for d in diags if d.startswith("error:")]
    if errors:
        raise InputError(f"{path}: " + "; ".join(errors))
    for d in diags:
        if d.startswith("warning:"):
            print(f"{path}: {d}", file=sys.stderr)
    return machine, values


def _load_network(args):
    prop, pvals = _load_machine(args.property, LEADER, want_buchi=True)
    if not isinstance(prop, Fsm):
        raise InputError(f"{args.property}: the property must be a Buchi FSM")
    leader, lvals = _load_machine(args.leader, LEADER)
    contributor, cvals = _load_machine(args.contributor, CONTRIBUTOR,
                                       want_buchi=False)
    values = sorted(set(pvals) | set(lvals) | set(cvals))
    return make_network(values, buchi_product(prop, leader), contributor)


def _witness_json(w):
    out = {"k": w.k, "stem": [list(s) for s in w.stem],
           "cycle": [list(s) for s in w.cycle]}
    if w.pivot is not None:
        out["pivot"] = str(w.pivot)
    return out


def _cmd_check(args):
    if args.mode != "explicit" and \
            (args.contributors, args.stack_bound) != (None, None):
        raise InputError("--contributors and --stack-bound are for"
                         " --mode explicit only")
    net = _load_network(args)
    if args.mode == "explicit":
        if args.contributors is None:
            raise InputError("explicit mode needs --contributors")
        if (isinstance(net.leader, Pdm) or isinstance(net.contributor, Pdm)) \
                and args.stack_bound is None:
            raise InputError("explicit mode with a PDM needs --stack-bound")
        if isinstance(net.contributor, Pdm) and args.witness:
            raise InputError("explicit mode with a PDM contributor writes no"
                             " witness file (replay checks witnesses against"
                             " the contributor's window restriction)")
    try:
        verdict, mode = run_check(net, args.mode, k=args.contributors,
                                  stack_bound=args.stack_bound)
    except ValueError as e:
        raise InputError(str(e))

    if verdict.witness is not None and args.witness:
        try:
            with open(args.witness, "w", encoding="utf-8") as f:
                f.write(print_witness(verdict.witness))
        except OSError as e:
            raise InputError(f"{args.witness}: {e.strerror or e}")
    if args.json:
        report = {"verdict": verdict.kind, "mode": mode,
                  "statistics": verdict.stats}
        if verdict.witness is not None:
            report["witness"] = _witness_json(verdict.witness)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(verdict.kind)
        if verdict.stats:
            for key in sorted(verdict.stats):
                print(f"  {key}: {verdict.stats[key]}", file=sys.stderr)
    if verdict.kind == "BUDGET":
        return 3
    if verdict.kind == "ERROR":
        return 4
    return 0


def _cmd_replay(args):
    net = _load_network(args)
    try:
        net = replay_network(net)
    except ValueError as e:
        raise InputError(str(e))
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    status, detail = replay(net, _parse_file(args.witness, parse_witness))
    if status == "valid":
        print("valid")
        return 0
    idx, reason = detail
    print(f"invalid at step {idx}: {reason}")
    return 1


@functools.cache
def _parser():
    """The whole parser, for help and errors, and each command's own one,
    twice as fast; built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="paramck",
        description="Liveness checker for leader/contributor register networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide the parameterized property")
    p_replay = sub.add_parser("replay", help="validate a witness file")
    p_replay.add_argument("--witness", required=True)
    for p in (p_check, p_replay):
        for machine in ("--leader", "--contributor", "--property"):
            p.add_argument(machine, required=True)
    p_check.add_argument("--mode", choices=MODES, default="auto")
    p_check.add_argument("--contributors", type=int,
                         help="population size (explicit mode)")
    p_check.add_argument("--stack-bound", type=int,
                         help="stack cap, at least 1 (explicit mode with PDMs)")
    p_check.add_argument("--witness", help="write the witness here")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)
    p_replay.set_defaults(func=_cmd_replay)
    return parser, {"check": p_check, "replay": p_replay}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:     # to devnull, or the flush at exit fails too
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
