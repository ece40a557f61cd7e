import io
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import paramck
from paramck import cyclesearch, parikh, pushdown
from paramck.cli import main
from differential import bench_nets, draw_nets, written_nets
from fixtures import turn_taking_network


RING_LEADER = """\
kind = fsm
values = 1 2 3
states = p0 p1 p2
initial = p0
trans = p0 r(1) p1
trans = p1 r(2) p2
trans = p2 r(3) p0
"""

RING_CONTRIB = """\
kind = fsm
values = 1 2 3
states = A B C D E F G
initial = A
trans = A w(1) B
trans = B r(3) C
trans = C r(1) A
trans = A w(2) D
trans = D r(1) E
trans = E r(2) A
trans = A w(3) F
trans = F r(2) G
trans = G r(3) A
"""

RING_PROP = """\
kind = buchi-fsm
values = 1 2 3
states = s0 s1
initial = s0
accepting = s1
trans = s0 r(1) s1
trans = s0 r(2) s0
trans = s0 r(3) s0
trans = s1 r(1) s1
trans = s1 r(2) s0
trans = s1 r(3) s0
"""

COUNTER_LEADER = """\
kind = pdm
values = 1 2
states = d0 d1
initial = d0
stack = Z A
rule = d0 r(1) Z -> d1 push A
rule = d0 r(1) A -> d1 push A
rule = d1 r(1) A -> d1 push A
rule = d1 r(2) A -> d1 pop
rule = d1 r(2) Z -> d0 push A
"""

COUNTER_CONTRIB = """\
kind = fsm
values = 1 2
states = q0 q1
initial = q0
trans = q0 w(1) q1
trans = q1 w(2) q0
"""

COUNTER_PROP = """\
kind = buchi-fsm
values = 1 2
states = s
initial = s
accepting = s
trans = s r(1) s
trans = s r(2) s
"""


def write_net(tmp_path, leader, contrib, prop):
    paths = {}
    for name, text in (("leader", leader), ("contrib", contrib),
                       ("prop", prop)):
        p = tmp_path / f"{name}.mk"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def check_args(paths, *extra):
    return ["check", "--leader", paths["leader"],
            "--contributor", paths["contrib"],
            "--property", paths["prop"], *extra]


def replay_args(paths, witness):
    return ["replay", "--witness", witness,
            "--leader", paths["leader"],
            "--contributor", paths["contrib"],
            "--property", paths["prop"]]


def test_check_plain_output(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONEMPTY"


def test_check_json_report(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths, "--json")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NONEMPTY"
    assert report["mode"] == "fsm-fsm"
    assert isinstance(report["statistics"], dict)
    w = report["witness"]
    assert w["k"] >= 1 and w["cycle"]
    actor, tid = w["cycle"][0]
    assert isinstance(actor, int) and isinstance(tid, str)


def test_check_writes_replayable_witness(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--witness", out)) == 0
    capsys.readouterr()
    assert main(replay_args(paths, out)) == 0
    assert capsys.readouterr().out.strip() == "valid"


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as in paramck check ... | head -1:
    the named method raises BrokenPipeError."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, text):
        if self.method == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("extra", [["--json"], []])
def test_a_closed_stdout_exits_141(tmp_path, monkeypatch, method, extra):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    witness = str(tmp_path / "out.wit")
    monkeypatch.setattr(sys, "stdout", ClosedStdout(method))
    assert main(check_args(paths, "--witness", witness, *extra)) == 141
    # the witness file is written all the same
    assert main(replay_args(paths, witness)) == 141
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(replay_args(paths, witness)) == 0


def test_a_closed_pipe_ends_the_process_quietly(tmp_path):
    # the reader of stdout is gone before the first write: the process
    # exits 141 with nothing on stderr, also after the flush at exit
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    src = os.path.dirname(os.path.dirname(paramck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "paramck.cli",
                               *check_args(paths, "--json")],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, code, stream, first, last", [
    ([], 2, "err", "usage: paramck [-h] {check,replay} ...",
     "paramck: error: the following arguments are required: command"),
    (["-h"], 0, "out", "usage: paramck [-h] {check,replay} ...",
     "  -h, --help      show this help message and exit"),
    (["--help"], 0, "out", "usage: paramck [-h] {check,replay} ...",
     "  -h, --help      show this help message and exit"),
    (["bogus"], 2, "err", "usage: paramck [-h] {check,replay} ...",
     "paramck: error: argument command: invalid choice: 'bogus' (choose"
     " from 'check', 'replay')"),
    (["replay", "-h"], 0, "out", "usage: paramck replay [-h] --witness"
     " WITNESS --leader LEADER --contributor", "  --property PROPERTY"),
    (["replay", "--witness", "w"], 2, "err", "usage: paramck replay [-h]"
     " --witness WITNESS --leader LEADER --contributor",
     "paramck replay: error: the following arguments are required:"
     " --leader, --contributor, --property"),
    (["replay", "--witness", "w", "--leader", "l", "--contributor", "c",
      "--property", "p", "extra"], 2, "err", "usage: paramck replay [-h]"
     " --witness WITNESS --leader LEADER --contributor",
     "paramck replay: error: unrecognized arguments: extra"),
], ids=["none", "h", "help", "bogus", "replay-h", "missing", "extra"])
def test_help_and_usage_errors_exit_as_argparse_does(
        capsys, monkeypatch, argv, code, stream, first, last):
    # each command is parsed by its own parser, the rest by the whole one
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    lines = (out if stream == "out" else err).splitlines()
    assert exit_.value.code == code
    assert (lines[0], lines[-1]) == (first, last)


def test_check_explicit_mode(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths, "--mode", "explicit",
                           "--contributors", "4")) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONEMPTY"
    # k = 1 is too few contributors to feed the ring
    assert main(check_args(paths, "--mode", "explicit",
                           "--contributors", "1")) == 0
    assert capsys.readouterr().out.splitlines()[0] == "EMPTY"


def test_explicit_mode_needs_contributor_count(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths, "--mode", "explicit")) == 2
    assert "explicit mode needs" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--contributors", "2"),
    ("--stack-bound", "3"),
    ("--mode", "pdm-fsm", "--contributors", "2", "--stack-bound", "3"),
], ids=["contributors", "stack-bound", "both"])
def test_explicit_flags_are_refused_in_other_modes(tmp_path, capsys, flags):
    # the parameterized modes decide every population size and keep the
    # whole stack, so these flags would do nothing there
    paths = write_net(tmp_path, COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP)
    assert main(check_args(paths, *flags)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "for --mode explicit only" in captured.err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_explicit_mode_refuses_a_stack_bound_below_one(tmp_path, capsys,
                                                       bound):
    # a PDM stack always holds its bottom symbol, so such a bound blocks
    # moves and gives a meaningless verdict
    paths = write_net(tmp_path, COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP)
    assert main(check_args(paths, "--mode", "explicit", "--contributors",
                           "2", "--stack-bound", bound)) == 2
    assert "stack bound must be at least 1" in capsys.readouterr().err
    assert main(check_args(paths, "--mode", "explicit", "--contributors",
                           "2", "--stack-bound", "3")) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONEMPTY"


def test_pdm_leader_end_to_end(tmp_path, capsys):
    paths = write_net(tmp_path, COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--json", "--witness", out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NONEMPTY"
    assert report["mode"] == "pdm-fsm"
    assert "pivot" in report["witness"]
    text = (tmp_path / "out.wit").read_text()
    assert "pivot =" in text
    assert main(replay_args(paths, out)) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_replay_rejects_wrong_pivot_symbol(tmp_path, capsys):
    paths = write_net(tmp_path, COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--witness", out)) == 0
    capsys.readouterr()
    text = (tmp_path / "out.wit").read_text()
    assert "pivot = " in text
    symbol = text.split("pivot = ")[1].split()[0]
    other = "A" if symbol == "Z" else "Z"
    tampered = tmp_path / "bad.wit"
    tampered.write_text(text.replace(f"pivot = {symbol}", f"pivot = {other}"))
    assert main(replay_args(paths, str(tampered))) == 1
    assert "invalid" in capsys.readouterr().out


def test_replay_rejects_a_pivot_for_an_fsm_leader(tmp_path, capsys):
    # the pivot line is for pushdown leaders only, like its absence there
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = tmp_path / "out.wit"
    assert main(check_args(paths, "--witness", str(out))) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "pivot" not in text
    out.write_text(text.replace("stem:\n", "pivot = Z\nstem:\n"))
    assert main(replay_args(paths, str(out))) == 1
    assert capsys.readouterr().out.endswith(
        ": FSM-leader witness takes no pivot\n")


@pytest.mark.parametrize("old,new", [
    (r"^k = (\d+)$", r"k = \1_0"),                  # int() reads 10 * k
    (r"^1 (c\d+)$", "\N{ARABIC-INDIC DIGIT ONE} \\1"),  # int() reads 1
])
def test_replay_reads_only_ascii_decimal_numbers(tmp_path, capsys, old, new):
    # a count or actor index that int() reads but that is not ASCII decimal
    # digits is a parse error on its line, not a witness that replays
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = tmp_path / "out.wit"
    assert main(check_args(paths, "--witness", str(out))) == 0
    capsys.readouterr()
    text = out.read_text()
    m = re.search(old, text, flags=re.M)
    out.write_text(text[:m.start()] + m.expand(new) + text[m.end():])
    assert main(replay_args(paths, str(out))) == 2
    line = text.count("\n", 0, m.start()) + 1
    assert f"error: {out}: line {line}: bad " in capsys.readouterr().err


def test_replay_rejects_tampered_cycle(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--witness", out)) == 0
    capsys.readouterr()
    lines = (tmp_path / "out.wit").read_text().splitlines()
    lines = lines[: lines.index("cycle:") + 1] + ["0 c0"]
    tampered = tmp_path / "bad.wit"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(replay_args(paths, str(tampered))) == 1
    assert "invalid at step" in capsys.readouterr().out


def test_replay_malformed_witness(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    bad = tmp_path / "bad.wit"
    bad.write_text("k = 1\n0 d0\n")
    assert main(replay_args(paths, str(bad))) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_machine_file(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    paths["leader"] = str(tmp_path / "nope.mk")
    assert main(check_args(paths)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["leader", "contrib", "prop"])
def test_machine_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys,
                                                          role):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    path = tmp_path / f"{role}.mk"
    text = path.read_bytes().replace(b"states = ", b"states = q\xff0 ", 1)
    path.write_bytes(text)
    assert main(check_args(paths, "--json")) == 2
    out, err = capsys.readouterr()
    assert out == ""
    at = text.index(b"\xff")
    assert err == f"error: {path}: not UTF-8: invalid start byte at byte {at}\n"
    assert main(replay_args(paths, str(tmp_path / "none.wit"))) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")


def test_witness_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = tmp_path / "out.wit"
    assert main(check_args(paths, "--witness", str(out))) == 0
    capsys.readouterr()
    out.write_bytes(out.read_bytes().replace(b"cycle:", b"cycle: # \xe9", 1))
    assert main(replay_args(paths, str(out))) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: not UTF-8")


@pytest.mark.parametrize("role", ["leader", "contrib", "prop"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, role):
    # a machine file and a witness file that start with the UTF-8 BOM read
    # as they do without it
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = tmp_path / "out.wit"
    assert main(check_args(paths, "--json", "--witness", str(out))) == 0
    report = capsys.readouterr().out
    for path in (tmp_path / f"{role}.mk", out):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(check_args(paths, "--json")) == 0
    assert capsys.readouterr() == (report, "")
    assert main(replay_args(paths, str(out))) == 0
    assert capsys.readouterr() == ("valid\n", "")
    # bytes that are not UTF-8 after the mark are an input error, reported
    # at their offset in the file
    path = tmp_path / f"{role}.mk"
    text = path.read_bytes().replace(b"states = ", b"states = q\xff0 ", 1)
    path.write_bytes(text)
    at = text.index(b"\xff")
    assert main(check_args(paths)) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: not UTF-8: invalid start byte at byte {at}\n"


@pytest.mark.parametrize("where, reason", [
    ("missing/out.wit", "No such file or directory"),
    ("", "Is a directory")], ids=["missing-directory", "directory"])
def test_witness_path_that_cannot_be_written_is_an_input_error(
        tmp_path, capsys, where, reason):
    # the check decides, but the witness cannot be written: exit 2 with
    # the path and the reason, and no report
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    out = str(tmp_path / where)
    assert main(check_args(paths, "--json", "--witness", out)) == 2
    assert capsys.readouterr() == ("", f"error: {out}: {reason}\n")


def test_property_must_be_buchi(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB,
                      RING_PROP.replace("kind = buchi-fsm", "kind = fsm")
                               .replace("accepting = s1\n", ""))
    assert main(check_args(paths)) == 2
    assert "Buchi" in capsys.readouterr().err


def test_mode_mismatch_is_an_input_error(tmp_path, capsys):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths, "--mode", "pdm-fsm")) == 2
    assert "pdm-fsm mode needs" in capsys.readouterr().err


def test_budget_env_variable(tmp_path, capsys, monkeypatch):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    monkeypatch.setenv("PARAMCK_BUDGET", "3")
    assert main(check_args(paths)) == 3
    assert "BUDGET" in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["-3", "0", "lots"])
def test_invalid_budget_is_an_input_error(tmp_path, capsys, monkeypatch,
                                          raw):
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    monkeypatch.setenv("PARAMCK_BUDGET", raw)
    assert main(check_args(paths, "--json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PARAMCK_BUDGET" in captured.err


@pytest.mark.parametrize("raw", ["\u0661\u0660", "1" * 5000],
                         ids=["arabic-indic-digits", "5000-digits"])
def test_budget_in_other_digits_or_too_long_is_an_input_error(
        tmp_path, capsys, monkeypatch, raw):
    # Arabic-Indic digits are not ASCII ones, and 5,000 digits are more
    # than int converts: both get paramck's own message
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    monkeypatch.setenv("PARAMCK_BUDGET", raw)
    assert main(check_args(paths, "--json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: PARAMCK_BUDGET must be an integer of at"
                            f" least 1, not {raw!r}\n")


WINDOW_LEADER = """\
kind = fsm
values = 1
states = p
initial = p
trans = p r(1) p
"""

WINDOW_CONTRIB = """\
kind = pdm
values = 1
states = q
initial = q
stack = Z A
rule = q w(1) Z -> q push A
rule = q w(1) A -> q push A
rule = q w(1) A -> q pop
"""

WINDOW_PROP = """\
kind = buchi-fsm
values = 1
states = a
initial = a
accepting = a
trans = a r(1) a
"""


def test_budget_in_window_restriction_is_json(tmp_path, capsys, monkeypatch):
    # under auto the PDM contributor is restricted before any checker runs,
    # and the restriction's BudgetExceeded must still give a JSON report
    paths = write_net(tmp_path, WINDOW_LEADER, WINDOW_CONTRIB, WINDOW_PROP)
    monkeypatch.setenv("PARAMCK_BUDGET", "3")
    assert main(check_args(paths, "--json")) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "BUDGET"
    assert report["mode"] == "fsm-fsm"
    assert report["statistics"]["reason"] == "5-restriction exceeds 3 states"
    assert report["statistics"]["window_bound"] == 5


def test_restricted_contributor_reports_its_window_bound(tmp_path, capsys):
    paths = write_net(tmp_path, WINDOW_LEADER, WINDOW_CONTRIB, WINDOW_PROP)
    assert main(check_args(paths, "--json")) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["mode"]) == ("NONEMPTY", "fsm-fsm")
    assert report["statistics"]["window_bound"] == 5


def test_requested_mode_may_be_the_one_auto_picks(tmp_path, capsys):
    # auto runs fsm-fsm on an FSM leader with a PDM contributor, so asking
    # for fsm-fsm by name runs the same check
    paths = write_net(tmp_path, WINDOW_LEADER, WINDOW_CONTRIB, WINDOW_PROP)
    assert main(check_args(paths, "--json")) == 0
    auto = capsys.readouterr().out
    assert main(check_args(paths, "--json", "--mode", "fsm-fsm")) == 0
    assert capsys.readouterr().out == auto
    for mode, needs in (("pdm-fsm", "a PDM leader and an FSM contributor"),
                        ("pdm-pdm", "PDM leader and contributor")):
        assert main(check_args(paths, "--mode", mode)) == 2
        assert f"{mode} mode needs {needs}" in capsys.readouterr().err


def test_replay_reports_a_window_past_the_budget(tmp_path, capsys,
                                                 monkeypatch):
    paths = write_net(tmp_path, WINDOW_LEADER, WINDOW_CONTRIB, WINDOW_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--witness", out)) == 0
    assert main(replay_args(paths, out)) == 0
    capsys.readouterr()
    monkeypatch.setenv("PARAMCK_BUDGET", "3")
    assert main(replay_args(paths, out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 5-restriction exceeds 3 states\n"
    monkeypatch.setenv("PARAMCK_BUDGET", "-3")
    assert main(replay_args(paths, out)) == 2
    assert "PARAMCK_BUDGET" in capsys.readouterr().err


# The pop rule on B comes first, so the PDM's transition ids are not those
# of its window restriction.
POP_FIRST_CONTRIB = """\
kind = pdm
values = 1
states = q
initial = q
stack = Z B
rule = q w(1) B -> q pop
rule = q w(1) Z -> q push B
rule = q w(1) B -> q push B
"""


def test_explicit_mode_writes_no_witness_for_a_pdm_contributor(tmp_path,
                                                                capsys):
    # an explicit-mode witness names the PDM's transitions, and replay reads
    # them as the window restriction's: this one would not replay
    paths = write_net(tmp_path, WINDOW_LEADER, POP_FIRST_CONTRIB, WINDOW_PROP)
    out = tmp_path / "out.wit"
    explicit = ("--mode", "explicit", "--contributors", "2",
                "--stack-bound", "3")
    assert main(check_args(paths, *explicit, "--witness", str(out))) == 2
    assert "writes no witness file" in capsys.readouterr().err
    assert not out.exists()
    assert main(check_args(paths, *explicit)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NONEMPTY"


def test_bench_witness_files_replay(tmp_path, capsys):
    # every witness file of both benchmark corpora at seed 1 (with their
    # warm-up nets) replays, and a pushdown leader's stops replaying once
    # its pivot line is gone
    written = []
    for name, *texts in bench_nets():
        directory = tmp_path / name
        directory.mkdir(parents=True)
        paths = write_net(directory, *texts)
        out = directory / "out.wit"
        assert main(check_args(paths, "--witness", str(out))) == 0
        if out.exists():
            written.append((name.split("/")[0], paths, out))
    assert Counter(w for w, _, _ in written) == {"fsm": 40, "pushdown": 18}
    for workload, paths, out in written:
        assert main(replay_args(paths, str(out))) == 0
        if workload == "pushdown":
            text, n = re.subn(r"^pivot = \S+\n", "", out.read_text(),
                              flags=re.M)
            assert n == 1
            out.write_text(text)
            assert main(replay_args(paths, str(out))) == 1
    capsys.readouterr()


def solving_nets():
    """(name, leader, contributor, property) texts of fsm-fsm nets that
    still need a solve, since every cycle through the configuration that
    decides each moves two contributors or more: the ring, draw248 of the
    differential set and the turn-taking nets of 2 to 9 values."""
    yield "ring", RING_LEADER, RING_CONTRIB, RING_PROP
    yield next(net for net in draw_nets() if net[0] == "draw248")
    yield from written_nets(None, [
        ("turns", lambda _, n=n: turn_taking_network(n))
        for n in range(2, 10)])


def test_bench_reports_do_not_depend_on_the_checks_before(tmp_path, capsys):
    # both benchmark corpora at seed 1, then the nets that still need a
    # solve, checked twice in one process, the second pass in reverse
    # order: every report is byte-identical, so no state of a check, such
    # as solve's index of points, outlives it
    nets = []
    for name, *texts in (*bench_nets(), *solving_nets()):
        directory = tmp_path / name
        directory.mkdir(parents=True)
        nets.append((name, write_net(directory, *texts)))
    reports, solves = {}, 0
    for order in (nets, nets[::-1]):
        for name, paths in order:
            assert main(check_args(paths, "--json")) == 0
            out = capsys.readouterr().out
            assert reports.setdefault(name, out) == out
            solves += json.loads(out)["statistics"].get("solves", 0)
    assert len(reports) == len(nets) and solves >= 30


@pytest.mark.parametrize("net,extra,stats", [
    ((RING_LEADER, RING_CONTRIB, RING_PROP), (),
     {"reason": "more than 3 abstract configurations"}),
    ((COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP), (),
     {"reason": "more than 3 pivots and triples"}),
    ((COUNTER_LEADER, WINDOW_CONTRIB, COUNTER_PROP), (),
     {"reason": "5-restriction exceeds 3 states", "window_bound": 5}),
    ((RING_LEADER, RING_CONTRIB, RING_PROP),
     ("--mode", "explicit", "--contributors", "2"),
     {"reason": "more than 3 configurations"}),
], ids=["fsm-fsm", "pdm-fsm", "pdm-pdm", "explicit"])
def test_budget_verdict_carries_a_reason(tmp_path, capsys, monkeypatch, net,
                                         extra, stats):
    paths = write_net(tmp_path, *net)
    monkeypatch.setenv("PARAMCK_BUDGET", "3")
    assert main(check_args(paths, "--json", *extra)) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "BUDGET"
    assert report["statistics"] == stats


def test_failed_concretization_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise AssertionError("broken on purpose")
    monkeypatch.setattr(cyclesearch, "concretize", broken)
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    assert main(check_args(paths, "--json")) == 4
    assert len(calls) == 1            # concretized once, never rescaled
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["mode", "statistics", "verdict"]
    assert report["verdict"] == "ERROR" and report["mode"] == "fsm-fsm"
    reason = report["statistics"].pop("reason")
    assert not report["statistics"]
    assert reason.startswith("could not concretize a feasible cycle at ")
    assert reason.endswith(": broken on purpose")
    assert main(check_args(paths)) == 4
    assert capsys.readouterr().out == "ERROR\n"


def test_failed_pdm_witness_is_an_internal_error(tmp_path, capsys,
                                                 monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise AssertionError("broken on purpose")
    monkeypatch.setattr(pushdown, "lasso", broken)
    paths = write_net(tmp_path, COUNTER_LEADER, COUNTER_CONTRIB, COUNTER_PROP)
    assert main(check_args(paths, "--json")) == 4
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "ERROR" and report["mode"] == "pdm-fsm"
    assert report["statistics"]["reason"].startswith(
        "could not concretize a feasible loop at ")


# A NONEMPTY net whose abstract stem takes the contributor self-loop
# q0 w(0) q0 (c5) twice.  The stem's demand pass used to reserve no token
# at q0 for the second one, so with k = 3 the three firings of c0 emptied
# q0 and the check ended in ERROR.
SELF_LOOP_LEADER = """\
kind = fsm
values = 0 1
states = p0 p1 p2 p3 p4
initial = p0
trans = p0 r(0) p1
trans = p1 r(0) p2
trans = p2 w(0) p3
trans = p3 w(1) p4
trans = p4 r(0) p0
trans = p2 r(1) p1
trans = p1 r(0) p2
trans = p2 r(1) p4
trans = p1 r(1) p4
trans = p3 r(1) p0
"""

SELF_LOOP_CONTRIB = """\
kind = fsm
values = 0 1
states = q0 q1 q2
initial = q0
trans = q0 r(1) q1
trans = q1 r(1) q2
trans = q2 w(1) q0
trans = q2 r(1) q0
trans = q0 r(1) q0
trans = q0 w(0) q0
"""

READS_ONE_PROP = """\
kind = buchi-fsm
values = 0 1
states = s0 s1
initial = s0
accepting = s1
trans = s0 r(0) s0
trans = s0 w(0) s0
trans = s0 r(1) s1
trans = s0 w(1) s0
trans = s1 r(0) s0
trans = s1 w(0) s0
trans = s1 r(1) s1
trans = s1 w(1) s0
"""


def test_stem_through_contributor_self_loop_replays(tmp_path, capsys):
    paths = write_net(tmp_path, SELF_LOOP_LEADER, SELF_LOOP_CONTRIB,
                      READS_ONE_PROP)
    assert main(check_args(paths, "--json")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NONEMPTY" and report["mode"] == "fsm-fsm"
    assert [1, "c5"] in report["witness"]["stem"]
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--witness", out)) == 0
    capsys.readouterr()
    assert main(replay_args(paths, out)) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_self_loop_net_needs_no_solve(tmp_path, capsys, monkeypatch):
    # the contributor self-loop c4 is a closed walk through the first
    # accepting configuration that moves no token, so it is the cycle and
    # no system is solved
    calls = []
    monkeypatch.setattr(parikh, "solve", lambda *args, **kwargs:
                        calls.append(args))
    paths = write_net(tmp_path, SELF_LOOP_LEADER, SELF_LOOP_CONTRIB,
                      READS_ONE_PROP)
    out = str(tmp_path / "out.wit")
    assert main(check_args(paths, "--json", "--witness", out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NONEMPTY" and calls == []
    assert report["statistics"]["solves"] == 0
    assert main(replay_args(paths, out)) == 0
    assert capsys.readouterr().out.strip() == "valid"


# Two random nets whose witness followed PYTHONHASHSEED while the
# constraint order of the Parikh systems followed set iteration order.
HASH_FSM_LEADER = """\
kind = fsm
values = 0 1 2
states = p0 p1 p2
initial = p0
trans = p0 r(1) p1
trans = p1 r(1) p2
trans = p2 w(0) p0
trans = p1 w(2) p2
trans = p1 w(0) p0
trans = p1 w(1) p2
"""

HASH_FSM_CONTRIB = """\
kind = fsm
values = 0 1 2
states = q0 q1 q2 q3
initial = q0
trans = q0 w(1) q1
trans = q1 r(0) q2
trans = q2 w(0) q3
trans = q3 r(0) q0
trans = q0 r(0) q1
trans = q2 w(2) q0
trans = q3 r(2) q3
trans = q2 w(0) q0
"""

HASH_FSM_PROP = """\
kind = buchi-fsm
values = 0 1 2
states = s0 s1
initial = s0
accepting = s1
trans = s0 r(0) s0
trans = s0 w(0) s0
trans = s0 r(1) s0
trans = s0 w(1) s1
trans = s0 r(2) s0
trans = s0 w(2) s0
trans = s1 r(0) s0
trans = s1 w(0) s0
trans = s1 r(1) s0
trans = s1 w(1) s1
trans = s1 r(2) s0
trans = s1 w(2) s0
"""

HASH_PDM_LEADER = """\
kind = pdm
values = 0 1
states = p0 p1 p2
initial = p0
stack = Z A B
rule = p0 w(1) Z -> p2 push B
rule = p0 w(1) A -> p0 push B
rule = p0 r(0) B -> p2 push A
rule = p1 r(1) Z -> p2 push B
rule = p1 r(1) A -> p1 pop
rule = p1 r(1) B -> p2 push A
rule = p2 r(0) Z -> p1 push A
rule = p2 w(0) A -> p2 pop
rule = p2 r(0) B -> p2 pop
rule = p2 w(0) A -> p0 push B
rule = p0 w(0) Z -> p2 push A
rule = p1 r(1) A -> p2 pop
"""

HASH_PDM_CONTRIB = """\
kind = fsm
values = 0 1
states = q0 q1 q2
initial = q0
trans = q0 r(0) q1
trans = q1 r(0) q2
trans = q2 w(0) q0
trans = q1 r(0) q1
trans = q0 w(1) q2
"""

HASH_PDM_PROP = """\
kind = buchi-fsm
values = 0 1
states = s0 s1
initial = s0
accepting = s1
trans = s0 r(0) s0
trans = s0 w(0) s0
trans = s0 r(1) s1
trans = s0 w(1) s0
trans = s1 r(0) s0
trans = s1 w(0) s0
trans = s1 r(1) s1
trans = s1 w(1) s0
"""


@pytest.mark.parametrize("net", [
    (HASH_FSM_LEADER, HASH_FSM_CONTRIB, HASH_FSM_PROP),
    (HASH_PDM_LEADER, HASH_PDM_CONTRIB, HASH_PDM_PROP),
], ids=["fsm-fsm", "pdm-fsm"])
def test_report_does_not_depend_on_the_hash_seed(tmp_path, net):
    paths = write_net(tmp_path, *net)
    src = os.path.dirname(os.path.dirname(paramck.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        env.pop("PARAMCK_BUDGET", None)
        proc = subprocess.run(
            [sys.executable, "-m", "paramck.cli",
             *check_args(paths, "--json")],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["verdict"] == "NONEMPTY"
    assert outputs[0] == outputs[1]


def test_successive_calls_match_separate_processes(tmp_path, capsys,
                                                   monkeypatch):
    # main builds its parser once per process; no option of one call may
    # reach the next, so each call prints what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")       # the help text's width
    monkeypatch.delenv("PARAMCK_BUDGET", raising=False)
    paths = write_net(tmp_path, RING_LEADER, RING_CONTRIB, RING_PROP)
    witness = str(tmp_path / "out.wit")
    calls = [check_args(paths, "--json", "--witness", witness),
             check_args(paths),
             check_args(paths, "--mode", "explicit", "--contributors", "2",
                        "--json"),
             replay_args(paths, witness),
             check_args(paths, "--mode", "fsm-fsm"),
             check_args(paths, "--mode", "bogus"),
             ["check", "--leader", paths["leader"]],
             ["--help"],
             check_args(paths, "--json")]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    src = os.path.dirname(os.path.dirname(paramck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

    def separate(argv):
        proc = subprocess.run([sys.executable, "-m", "paramck.cli", *argv],
                              env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    together = [in_process(argv) for argv in calls]
    with open(witness, encoding="utf-8") as f:
        written = f.read()
    apart = [separate(argv) for argv in calls]
    with open(witness, encoding="utf-8") as f:
        assert f.read() == written
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 0, 2, 2, 0, 0]
    assert together == apart
