"""CLI behaviour: exit codes, determinism, scenario files, trace checking."""

import contextlib
import io
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

import utxsim.checks as C
import utxsim.cli as cli
import utxsim.frames as F
import utxsim.harness as H
import utxsim.terms as T
from record_pins import assert_pinned


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "tr.txt"
    code, _ = run_cli(capsys, "run", "--scenario", "honest_onhi",
                      "--seed", "7", "--out", str(out))
    assert code == 0
    text = out.read_text()
    # the SCEN line is the run's scenario file, its lines joined by "; "
    sc = replace(C.SCENARIOS["honest_onhi"], seed=7)
    assert text.startswith(f"SCEN {'; '.join(H.scenario_lines(sc))}\n")
    assert "EV TAccept" in text


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(capsys, "run", "--scenario", "mixed_fuzz", "--seed", "5",
            "--out", str(a))
    run_cli(capsys, "run", "--scenario", "mixed_fuzz", "--seed", "5",
            "--out", str(b))
    assert a.read_text() == b.read_text()
    run_cli(capsys, "run", "--scenario", "mixed_fuzz", "--seed", "6",
            "--out", str(b))
    assert a.read_text() != b.read_text()


def test_check_on_trace_file(tmp_path, capsys):
    out = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(out))
    code, text = run_cli(capsys, "check", "--trace", str(out))
    assert code == 0
    assert "CHECK terminal-agrees-card holds" in text
    assert "CHECK secrecy holds" in text


def test_check_empty_trace_vacuous(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("")
    code, text = run_cli(capsys, "check", "--trace", str(f))
    assert code == 0
    assert text.count("holds") == 5


def test_distinguish_exit_codes(capsys):
    code, text = run_cli(capsys, "distinguish", "--scenario", "bdh_2session")
    assert code == 1 and "violated" in text
    code, text = run_cli(capsys, "distinguish", "--scenario", "ubdh_2session")
    assert code == 0 and "bounded-pass" in text


def test_distinguish_counts_at_small_bounds(capsys):
    """The README's count for unlink_utx: 83 seed runs, then the probes,
    one-field and pair candidates over a pool of 45, all within bound 6."""
    code, text = run_cli(capsys, "distinguish", "--scenario", "unlink_utx")
    assert (code, text) == (
        0, "CHECK distinguish bounded-pass bound=6 tests=35138\n")


def test_alignment_failure_reads_alike_in_cli_and_suite(monkeypatch, capsys):
    """Paired worlds that stop aligning give one verdict line, whether the
    CLI or a suite row runs the experiment, and the CLI exits 1."""
    def misaligned(sc):
        raise H.AlignmentFailure(3, "forced")

    monkeypatch.setattr(H, "run_paired", misaligned)
    code, text = run_cli(capsys, "distinguish", "--scenario", "ubdh_2session")
    assert (code, text) == (1, "CHECK distinguish violated alignment step 3\n")
    rows = [v for v, _ in C.run_suite("controls").lines
            if v.name == "ubdh-2-session"]
    assert [replace(v, name="distinguish").line() + "\n" for v in rows] == [text]


def test_controls_battery_exit_zero(capsys):
    code, text = run_cli(capsys, "suite", "controls")
    assert code == 0
    assert "SUITE controls pass" in text


def test_difftest(capsys):
    code, text = run_cli(capsys, "difftest", "--samples", "500",
                         "--seed", "2")
    assert code == 0
    assert "difftest-soundness holds" in text


_SCENARIO_TEXT = """
# two low-value sessions with the same card, no replay check
protocol utx
cards 1
sessions 2
terminal lo .
strategy probe_cards
replay_check off
seed 3
"""

def _readme_example():
    """README's scenario-file example, the one copy of a file that sets
    every key: the fenced block of its "Scenario files" section."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Scenario files\n", 1)[1]
    return section.split("```\n", 2)[1]


_EVERY_KEY_TEXT = _readme_example()


def test_readme_example_sets_every_key():
    """README's example sets each key that a scenario file can hold: the
    name of each Scenario field but terminals and strategy_arg, which the
    terminal and strategy lines set, and terminal."""
    keys = {words[0] for line in _EVERY_KEY_TEXT.splitlines()
            if (words := line.split("#", 1)[0].split())}
    names = {f.name for f in fields(H.Scenario)}
    assert keys == names - {"terminals", "strategy_arg"} | {"terminal"}
    assert len(keys) == 16


def test_scenario_file(tmp_path, capsys):
    f = tmp_path / "scen.txt"
    f.write_text(_SCENARIO_TEXT)
    code, _ = run_cli(capsys, "run", "--scenario", str(f),
                      "--out", str(tmp_path / "t.txt"))
    assert code == 0
    body = (tmp_path / "t.txt").read_text()
    assert "; strategy probe_cards 0; " in body.splitlines()[0]


def test_scenario_file_seed_applies_unless_seed_given(tmp_path, capsys):
    """A file's seed line sets the run's seed; --seed replaces it."""
    f = tmp_path / "scen.txt"
    f.write_text(_SCENARIO_TEXT.replace("seed 3", "seed 5"))
    for flags, seed in (([], 5), (["--seed", "7"], 7)):
        code, text = run_cli(capsys, "run", "--scenario", str(f), *flags)
        assert code == 0
        assert f"; seed {seed}; " in text.splitlines()[0]


def test_scenario_file_reaches_every_builtin_and_flipped_field():
    """Every built-in scenario reads back from its file text, and so does
    each one with a field flipped that only a file sets: world, protocol,
    replay_check, terminal_cert_check, leak_chi and leak_pin."""
    for name, sc in sorted(C.SCENARIOS.items()):
        variants = [sc, replace(sc, world={"real": "ideal",
                                           "ideal": "real"}[sc.world]),
                    replace(sc, replay_check=not sc.replay_check),
                    replace(sc, terminal_cert_check=not
                            sc.terminal_cert_check),
                    replace(sc, leak_chi=0 if sc.leak_chi is None else None),
                    replace(sc, leak_pin=not sc.leak_pin)]
        variants += [replace(sc, protocol=p) for p in H.PROTOCOLS]
        for v in variants:
            text = "\n".join(H.scenario_lines(v))
            assert H.parse_scenario_text(text) == v, (name, v)


@pytest.mark.parametrize("strategy", ["month_probe", "fake_card_cert_replay"])
def test_script_starting_a_missing_card_ends(tmp_path, capsys, strategy):
    """A script ends at the start of a card the scenario does not have, as
    at a delivery to a session that has ended: each command runs the
    scenario through, with no traceback."""
    f = tmp_path / "scen.txt"
    f.write_text(f"strategy {strategy}\ncards 0\nsessions 0\nterminal lo\n")
    code, text = run_cli(capsys, "run", "--scenario", str(f))
    assert code == 0 and "|start|T0|" in text and "|start|C" not in text
    for cmd, last in (("check", "CHECK secrecy holds bound=8"),
                      ("distinguish", "CHECK distinguish bounded-pass "
                                      "bound=6 tests=9212")):
        code, text = run_cli(capsys, cmd, "--scenario", str(f))
        assert (code, text.splitlines()[-1]) == (0, last), cmd


def test_usage_errors(capsys):
    assert cli.main(["run", "--scenario", "no_such_scenario"]) == 2
    assert cli.main(["bogus"]) == 2


def test_catalog(capsys):
    code, text = run_cli(capsys, "catalog")
    assert code == 0
    assert "probe_cards" in text and "honest_onhi" in text


def test_wrong_pin_scenario_checks(capsys):
    code, text = run_cli(capsys, "check", "--scenario", "wrong_pin_offhi")
    assert code == 0  # a rejected payment violates nothing
    assert "holds" in text


def test_adversarial_trace_roundtrip(tmp_path, capsys):
    # a trace full of aborts, injected recipes and bank rejections must
    # survive dump -> parse -> re-check
    out = tmp_path / "adv.txt"
    code, _ = run_cli(capsys, "run", "--scenario", "fake_card_no_checkv",
                      "--out", str(out))
    assert code == 0
    code, text = run_cli(capsys, "check", "--trace", str(out))
    assert code == 1
    assert "CHECK terminal-agrees-card violated" in text
    assert "CHECK bank-agrees-card holds" in text


def _exits_cleanly(capsys, argv, label):
    """The command exits 0, 1 or 2, and exit 2 prints one line."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), label
    if code == 2:
        assert captured.out == "", label
        assert captured.err.startswith("error: "), label
        assert captured.err.count("\n") == 1, label
    else:
        assert captured.err == "", label
    return code, captured.err


def _mutate(rng, text, alphabet="()|= _.-0129wxmT\n"):
    """One fixed-seed mutation: duplicate a line, delete a line, or
    substitute one character drawn from alphabet."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(len(lines))
        return "".join(lines[:i + 1] + lines[i:]), f"dup line {i + 1}"
    if kind == 1:
        i = rng.randrange(len(lines))
        return "".join(lines[:i] + lines[i + 1:]), f"del line {i + 1}"
    i = rng.randrange(len(text))
    ch = rng.choice(alphabet)
    return text[:i] + ch + text[i + 1:], f"sub {ch!r} at {i}"


def test_mutated_scenario_text_exits_cleanly(tmp_path, capsys):
    # each text goes to a fresh file: rewriting one just written can wait
    # on the file system for tens of milliseconds a time
    for i, text in enumerate((_SCENARIO_TEXT, _EVERY_KEY_TEXT)):
        f = tmp_path / f"scen{i}.txt"
        f.write_text(text)
        assert _exits_cleanly(capsys, ["check", "--scenario", str(f)],
                              "unmutated")[0] in (0, 1)
    # the fixed seed draws, among others, a terminal line with a stray third
    # value and keys cut short by a comment or a line break
    rng = random.Random("scenario-mutations8")
    codes = set()
    for k in range(200):
        text = (_SCENARIO_TEXT, _EVERY_KEY_TEXT)[k % 2]
        mutated, how = _mutate(rng, text, alphabet="0129-:# .\nx")
        f = tmp_path / f"mutated{k}.txt"
        f.write_text(mutated)
        codes.add(_exits_cleanly(capsys, ["check", "--scenario", str(f)],
                                 f"{k}: {how}")[0])
    assert codes == {0, 1, 2}


def test_truncated_trace_exits_cleanly(tmp_path, capsys):
    full = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_onhi", "--seed", "0",
            "--out", str(full))
    text = full.read_text()
    cut = tmp_path / "cut.txt"
    # ends inside a BIND term
    cut.write_text(text[:text.index("BIND w7 (") + 9])
    code = cli.main(["check", "--trace", str(cut)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        "error: bad trace line 10 (BIND): unexpected end of input\n"
    # each cut or mutation goes to a fresh file, as in the test above
    for n in range(0, len(text), 7):
        cut = tmp_path / f"cut{n}.txt"
        cut.write_text(text[:n])
        code, err = _exits_cleanly(capsys, ["check", "--trace", str(cut)], n)
        if code == 2:
            assert err.startswith("error: bad trace line "), n
    # mutated, not only cut, traces of a few built-ins
    rng = random.Random("trace-mutations")
    for name in ("honest_onhi", "replay_cryptogram", "fake_card_no_checkv",
                 "utxl_lo"):
        full = tmp_path / f"{name}.txt"
        run_cli(capsys, "run", "--scenario", name, "--out", str(full))
        text = full.read_text()
        for k in range(40):
            mutated, how = _mutate(rng, text)
            cut = tmp_path / f"{name}.mutated{k}.txt"
            cut.write_text(mutated)
            _exits_cleanly(capsys, ["check", "--trace", str(cut)],
                           f"{name}: {how}")


def test_deep_trace_terms_exit_cleanly(tmp_path, capsys):
    """A trace term nested as deep as the parser accepts checks normally;
    one level deeper exits 2 with one line, not a RecursionError."""
    trace = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_onhi", "--out", str(trace))
    text = trace.read_text()
    lineno = text.count("\n") + 1

    def nested(depth):
        t = "a0"
        for _ in range(depth):
            t = f"(enc {t} k0)"
        return t

    for line in ("BIND w99 {}", "TARGET deep {}", "EV TAccept T0 T0 {} b0"):
        for depth in (T.MAX_NESTING, T.MAX_NESTING + 1):
            trace.write_text(text + line.format(nested(depth)) + "\n")
            code = cli.main(["check", "--trace", str(trace)])
            out, err = capsys.readouterr()
            if depth == T.MAX_NESTING:
                assert (code, err, out.count("CHECK")) == (0, "", 5)
            else:
                head = line.split()[0]
                assert (code, out, err) == (2, "", (
                    f"error: bad trace line {lineno} ({head}): "
                    f"term nested deeper than {T.MAX_NESTING}\n"))


def _scen_line(**kw):
    """The SCEN line that a dump of a Scenario(**kw) run begins with."""
    return next(H.Trace(H.Scenario(**kw)).to_lines())


@pytest.mark.parametrize("line", ["BIND w0 (proj 0 a)",
                                  "TARGET x (proj 0 a)"])
def test_projection_index_below_one_in_trace_exits_cleanly(tmp_path, capsys,
                                                          line):
    path = tmp_path / "tr.txt"
    path.write_text(f"{_scen_line()}\nREST a\n{line}\n")
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    head = line.split()[0]
    assert (code, captured.out, captured.err) == (2, "", (
        f"error: bad trace line 3 ({head}): "
        "projection index must be positive\n"))


def test_trace_bind_images_are_read_as_normal_forms(tmp_path, capsys):
    """A BIND image is the message it equals: (proj 1 (tuple m k)) is m,
    so a trace that binds it leaks m."""
    path = tmp_path / "tr.txt"
    path.write_text(f"{_scen_line(cards=0, sessions=0)}\nREST m k\n"
                    "BIND w0 (proj 1 (tuple m k))\nTARGET s m\n")
    code = cli.main(["check", "--trace", str(path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "CHECK secrecy violated s<-?w0"


def test_trace_event_arguments_are_read_as_normal_forms(tmp_path, capsys):
    """An EV argument is the message it equals: a terminal commit whose
    first argument is written as (proj 1 (tuple z1 bot)) still matches the
    card's run on z1."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_onhi", "--seed", "0",
            "--out", str(path))
    z1 = "(smult $t0 (gen))"
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("EV TComC"))
    assert lines[i].split(" ", 4)[4].startswith(z1 + " ")
    lines[i] = lines[i].replace(z1, f"(proj 1 (tuple {z1} bot))", 1)
    path.write_text("".join(lines))
    code, text = run_cli(capsys, "check", "--trace", str(path))
    assert code == 0
    assert "CHECK terminal-agrees-card holds" in text.splitlines()


def test_trace_targets_are_read_as_normal_forms(tmp_path, capsys):
    """A TARGET is the message it equals: a leaked pin written as
    (proj 1 (tuple PIN0 mk0)) still reads violated, with the recipe the
    run's own target gets, though mk0 is secret."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "utxl_lo", "--seed", "0",
            "--out", str(path))
    code, want = run_cli(capsys, "check", "--trace", str(path))
    assert code == 1
    assert "CHECK secrecy violated card0.pin<-?w4" in want.splitlines()
    text = path.read_text()
    old = "TARGET card0.pin PIN0\n"
    assert old in text
    path.write_text(text.replace(
        old, "TARGET card0.pin (proj 1 (tuple PIN0 mk0))\n"))
    assert run_cli(capsys, "check", "--trace", str(path)) == (1, want)


def test_rebound_alias_in_trace_exits_cleanly(tmp_path, capsys):
    # a frame binds each alias once; a repeated BIND line is not a trace
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_onhi", "--out", str(path))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[3].startswith("BIND w1 ")
    path.write_text("".join(lines[:4] + lines[3:]))
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        "error: bad trace line 5 (BIND): alias w1 is bound twice\n"


@pytest.mark.parametrize("head", ["SCEN", "REST"])
def test_second_header_line_in_trace_exits_cleanly(tmp_path, capsys, head):
    """A trace has one SCEN and one REST line: a second REST m after REST
    k would otherwise make k public and read as a secrecy violation."""
    path = tmp_path / "tr.txt"
    scen = _scen_line(cards=0, sessions=0)
    second = {"SCEN": scen, "REST": "REST m"}[head]
    path.write_text(f"{scen}\nREST k\nBIND w0 (enc m k)\n{second}\n"
                    "TARGET s m\n")
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", (
        f"error: bad trace line 4 ({head}): a second {head} line\n"))


def test_unknown_trace_record_exits_cleanly(tmp_path, capsys):
    """A line whose first word is no record type is not a trace: a
    misspelt BIND would otherwise drop its binding and check as holds."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(path))
    text = path.read_text()
    assert text.splitlines()[5] == "BIND w3 cht0"
    scen = text.splitlines()[0]
    for bad, lineno, head in (
            (text.replace("BIND w3 cht0", "BIDN w3 cht0"), 6, "BIDN"),
            (f"{scen}\nHELLO world\n", 2, "HELLO")):
        path.write_text(bad)
        code = cli.main(["check", "--trace", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", (
            f"error: bad trace line {lineno} ({head}): unknown record\n"))


@pytest.mark.parametrize("line", ["ABORT", "ABORT C0", "ABORT  Replay"])
def test_abort_without_session_or_reason_exits_cleanly(tmp_path, capsys,
                                                       line):
    """An ABORT record names the session that aborted and why, as a dump
    writes it."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(path))
    scen = path.read_text().splitlines()[0]
    path.write_text(f"{scen}\n{line}\n")
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", (
        "error: bad trace line 2 (ABORT): want a session id and a reason\n"))


def test_trace_header_with_unknown_strategy_exits_cleanly(tmp_path, capsys):
    """A SCEN header names one of the built-in attacker programs."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(path))
    text = path.read_text()
    assert "; strategy passive 0; " in text.splitlines()[0]
    path.write_text(text.replace("; strategy passive 0; ",
                                 "; strategy nosuch 0; ", 1))
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", (
        "error: bad trace line 1 (SCEN): unknown strategy 'nosuch'\n"))


def _check_rec_line(tmp_path, capsys, old, new):
    """check --trace of honest_lo's dump with one REC line changed."""
    path = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(path))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[19] == old + "\n"
    lines[19] = new + "\n"
    path.write_text("".join(lines))
    code = cli.main(["check", "--trace", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_record_out_of_place_exits_cleanly(tmp_path, capsys):
    """A record's index is its position, as a dump writes it: a file with
    another index would not dump back to the same text."""
    for idx in ("4", "2", "03", "x"):
        assert _check_rec_line(
            tmp_path, capsys, "REC 3|start|T0||terminal lo month=1",
            f"REC {idx}|start|T0||terminal lo month=1") == (2, "", (
                f"error: bad trace line 20 (REC): index {idx} is not 3\n"))


def test_trace_record_of_unknown_kind_exits_cleanly(tmp_path, capsys):
    assert _check_rec_line(
        tmp_path, capsys, "REC 3|start|T0||terminal lo month=1",
        "REC 3|bogus|T0||terminal lo month=1") == (2, "", (
            "error: bad trace line 20 (REC): unknown kind 'bogus'\n"))


def test_trace_term_holding_a_variable_exits_cleanly(tmp_path, capsys):
    """A run's frame, events and targets hold no variable, and a dump
    writes none: a TARGET ?w0 would otherwise check as secret, though w0
    is public. A BIND image or an EV argument holding one is rejected the
    same way."""
    full = tmp_path / "tr.txt"
    run_cli(capsys, "run", "--scenario", "honest_lo", "--out", str(full))
    lines = full.read_text().splitlines(keepends=True)
    for head, old, new, var in (
            ("TARGET", "TARGET card0.pin PIN0", "TARGET card0.pin ?w0", "w0"),
            ("BIND", "BIND w0 (pk $s0)", "BIND w0 (pk ?w1)", "w1"),
            ("EV", "EV TAccept T0 T0 kbt0 (tuple TXdata0 lo)",
             "EV TAccept T0 T0 kbt0 (tuple ?w2 lo)", "w2")):
        i = lines.index(old + "\n")
        path = tmp_path / f"{head}.txt"
        path.write_text("".join(lines[:i] + [new + "\n"] + lines[i + 1:]))
        code = cli.main(["check", "--trace", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", (
            f"error: bad trace line {i + 1} ({head}): variable ?{var} "
            f"in a term\n"))


def test_every_builtin_dump_checks(tmp_path, capsys):
    """The header check leaves every valid dump alone: each built-in
    scenario's trace checks as the scenario itself does (utxl dumps
    included, whose header records their lo terminals)."""
    path = tmp_path / "tr.txt"
    for name in sorted(C.SCENARIOS):
        run_cli(capsys, "run", "--scenario", name, "--seed", "0",
                "--out", str(path))
        live = cli.main(["check", "--scenario", name, "--seed", "0"])
        capsys.readouterr()
        assert _exits_cleanly(capsys, ["check", "--trace", str(path)],
                              name)[0] == live != 2, name


@pytest.mark.parametrize("line", [
    "cards x", "strategy", "replay_check maybe",
    # a switch is on or off, in no other spelling
    "replay_check true",
    # more values than the key takes: one, or two for terminal and strategy
    "cards 2 junk", "terminal onhi . extra", "strategy passive 3 4",
    "leak_pin on off", "protocol utx extra",
])
def test_malformed_scenario_line_exits_cleanly(tmp_path, capsys, line):
    f = tmp_path / "scen.txt"
    f.write_text(f"protocol utx\n{line}\n")
    with pytest.raises(H.ScenarioInvalid, match=f"line 2: '{line}'"):
        H.parse_scenario_text(f.read_text())
    code = cli.main(["run", "--scenario", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def assert_usage_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("line, message", [
    ("leak_chi 99", "leak_chi 99 is not a month of horizon 3"),
    ("leak_chi -9", "leak_chi -9 is not a month of horizon 3"),
    ("terminal xx .", "unknown terminal mode 'xx'"),
    ("current_month 9", "current_month 9 is not a month of horizon 3"),
    ("horizon 0", "current_month 1 is not a month of horizon 0"),
    ("terminal lo 7", "terminal month 7 is not a month of horizon 3"),
    ("sessions -1", "sessions -1 is negative"),
    ("schedule 0:0", "unknown scenario key 'schedule'"),
    ("issue_months 9", "unknown scenario key 'issue_months'"),
    ("card_window 0 1 2", "unknown scenario key 'card_window'"),
    ("cards 0\nsessions 2", "sessions 2 need a card; cards is 0"),
    ("cards -2\nsessions 0", "cards -2 is negative"),
    ("max_steps -7", "max_steps -7 is negative"),
    ("wrong_pin -1", "wrong_pin -1 is negative"),
    ("horizon 62", "horizon 62 is above 61"),
    # a message names a setting by the key that sets it
    ("leak_chi 5", "leak_chi 5 is not a month of horizon 3"),
])
def test_out_of_range_scenario_values_exit_cleanly(tmp_path, capsys, line,
                                                   message):
    """Each file exits 2 with one line, the whole message of the rule it
    breaks: the parser's bad scenario line quotes the line, so a part of
    the message would not tell the two apart."""
    f = tmp_path / "scen.txt"
    f.write_text(f"protocol utx\n{line}\n")
    code = cli.main(["run", "--scenario", str(f)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["distinguish", "--test-bound", "-1"],
    ["check", "--derive-bound", "-1"],
    ["distinguish", "--pool-cap", "-1"],
    ["run", "--sessions", "x"],
    ["suite", "unlinkability", "--sessions", "-1"],
    ["suite", "unlinkability", "--fuzzers", "-1"],
    ["difftest", "--samples", "0"],
    ["difftest", "--depth", "0"],
    ["bogus"],
    # flags no battery reads
    ["suite", "security", "--leak-pin"],
    ["suite", "security", "--leak-chi", "1"],
    ["suite", "security", "--world", "real"],
    ["suite", "security", "--protocol", "utx"],
    ["suite", "security", "--derive-bound", "3"],
    ["suite", "security", "--replay-check"],
    ["suite", "security", "--no-replay-check"],
    ["suite", "security", "--no-terminal-cert-check"],
    # flags a scenario command does not read
    ["run", "--test-bound", "3"],
    ["run", "--pool-cap", "1"],
    ["run", "--derive-bound", "2"],
    ["check", "--test-bound", "3"],
    ["check", "--pool-cap", "1"],
    ["distinguish", "--derive-bound", "1"],
    ["distinguish", "--world", "ideal"],
    # a dumped trace fixes its own scenario
    ["check", "--trace", "tr.txt", "--scenario", "honest_lo"],
    ["check", "--trace", "tr.txt", "--seed", "0"],
    ["check", "--trace", "tr.txt", "--sessions", "2"],
    ["check", "--trace", "tr.txt", "--world", "ideal"],
    ["check", "--trace", "tr.txt", "--leak-pin"],
    # search settings that no longer exist, each at a value once accepted
    ["distinguish", "--pool-cap", "40"],
    ["suite", "unlinkability", "--pool-cap", "40"],
    ["check", "--derive-bound", "8"],
    # a flag is named in full: no prefix of it is accepted
    ["distinguish", "--scenario", "unlink_utx", "--test", "2"],
    ["check", "--scen", "honest_lo"],
    ["suite", "security", "--fuzz", "1"],
    # at one session a card, an experiment has no two sessions to link
    ["suite", "unlinkability", "--sessions", "1"],
    # the searches take no size setting, not even at its printed value
    ["distinguish", "--test-bound", "6"],
    ["suite", "security", "--test-bound", "6"],
    # a scenario file sets these fields, and no flag does: each deleted
    # flag on each command that took it, at a value once accepted
    *([cmd, *flag] for cmd in ("run", "check", "distinguish")
      for flag in (["--world", "real"], ["--protocol", "utx"],
                   ["--replay-check"], ["--no-replay-check"],
                   ["--no-terminal-cert-check"], ["--leak-chi", "1"],
                   ["--leak-pin"])
      if [cmd, *flag] != ["distinguish", "--world", "real"]),
    # the battery is always 42 fuzzers, and difftest's terms 1 to 6 deep
    ["suite", "unlinkability", "--fuzzers", "42"],
    ["difftest", "--depth", "6"],
])
def test_bad_flags_exit_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)     # a real trace, so only the flags are wrong
    (tmp_path / "tr.txt").write_text(H.run_scenario(H.Scenario()).dump())
    assert_usage_error(capsys, cli.main(argv))


@pytest.mark.parametrize("argv", [
    ["check", "--trace", "dir"],
    ["run", "--scenario", "dir"],
    ["run", "--out", "dir"],
    ["check", "--trace", "latin1.txt"],
    ["run", "--scenario", "latin1.txt"],
])
def test_unreadable_files_exit_with_one_line(tmp_path, monkeypatch, capsys,
                                             argv):
    """A directory, or a file that is not UTF-8 text, is bad input."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.txt").write_bytes(b"protocol utx # \xe9\n")
    assert_usage_error(capsys, cli.main(argv))


def test_suite_flags_reach_every_experiment(capsys):
    code, text = run_cli(capsys, "suite", "unlinkability", "--sessions", "2")
    lines = text.splitlines()
    assert code == 0 and len(lines) == 51       # 8 catalog + 42 fuzzer rows
    assert all(" bound=6 tests=" in line for line in lines[:-1])
    code, text = run_cli(capsys, "suite", "utxl")
    assert "utxl-hypothesis[passive] bounded-pass bound=6 tests=" in text


@pytest.mark.parametrize("error", [C.UncertifiedWitness, F.LateJoin])
def test_internal_search_error_exits_3(capsys, monkeypatch, error):
    """An internal error of a search is neither a violation (exit 1) nor
    bad input (exit 2): it exits 3 with its traceback on stderr."""
    def fail(*args, **kwargs):
        raise error("the search broke its own rule")

    monkeypatch.setattr(F, "static_equiv", fail)
    code = cli.main(["distinguish", "--scenario", "unlink_utx"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.rstrip().endswith(
        f"{error.__name__}: the search broke its own rule")


def _cli_lines():
    """Each command's ``$ argv -> exit code`` line, then its stdout: check
    and distinguish of every built-in scenario at seeds 0 to 3, the
    unlinkability battery at 16 sessions, seeds 0 to 2, and at 8, seeds 1
    and 2, then two dumps whose SCEN lines show a leak_chi unset and set,
    switches on and off, and an empty wrong_pin. The other run dumps are
    pinned by hash in traces, and each battery at seed 0 in its suite
    pin."""
    argvs = [[cmd, "--scenario", name, "--seed", str(seed)]
             for name in sorted(C.SCENARIOS) for seed in range(4)
             for cmd in ("check", "distinguish")]
    argvs += [["suite", "unlinkability", "--sessions", str(n), "--seed",
               str(seed)]
              for n, seeds in ((16, range(3)), (8, range(1, 3)))
              for seed in seeds]
    argvs += [["run", "--scenario", name, "--seed", "0"]
              for name in ("utxl_lo", "chi_leak_fake_card")]
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        yield f"$ {' '.join(argv)} -> {code}"
        yield from out.getvalue().splitlines()


def test_cli_output_pinned():
    assert_pinned("cli", _cli_lines())


# the pin of this module: tests/golden/cli.txt holds its lines
PINS = {"cli": _cli_lines}
