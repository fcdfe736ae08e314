"""The re-pin classifier of record_pins.py: each moved line of a battery,
corpus, deduction or dump pin falls in its class, and only a violated ->
pass or other move makes the script exit non-zero."""

import pytest

import record_pins as R

WIT = "(hash (hash ?w0)) = ?w2 holds in the first frame only"
WIT2 = "(hash ?w1) = ?w2 holds in the second frame only"
SHA, SHA2 = "0" * 64, "f" * 64

# (pinned line, new line, class) of one line moved under the same key
MOVED = [
    # battery
    ("CHECK utx[passive.0] bounded-pass bound=6 tests=21232",
     "CHECK utx[passive.0] bounded-pass bound=6 tests=24991", R.TESTS),
    ("CHECK terminal-agrees-card[lo] holds",
     "CHECK terminal-agrees-card[lo] violated commit#2:TComC@T1 unmatched"
     "  [expected holds]", R.BROKE),
    ("CHECK bdh-2-session violated " + WIT,
     "CHECK bdh-2-session violated " + WIT2, R.WITNESS),
    ("CHECK utxl-with-hi-probe violated " + WIT,
     "CHECK utxl-with-hi-probe bounded-pass bound=6 tests=9  "
     "[expected violated]", R.HEALED),
    ("CHECK utx[passive.0] bounded-pass bound=6 tests=21232",
     "CHECK utx[passive.0] bounded-pass bound=7 tests=21232", R.OTHER),
    ("SUITE controls pass", "SUITE controls FAIL", R.BROKE),
    # corpus
    ("named20 Equivalent 3447", "named20 Equivalent 3500", R.TESTS),
    ("named20 Equivalent 3447", f"named20 Distinguished {WIT} 3500",
     R.BROKE),
    (f"dh3 Distinguished {WIT} 40", f"dh3 Distinguished {WIT2} 41",
     R.WITNESS),
    (f"dh3 Distinguished {WIT} 40", f"dh3 Distinguished {WIT} 39", R.TESTS),
    (f"dh3 Distinguished {WIT} 40", "dh3 Equivalent 3447", R.HEALED),
    # deduction
    ("PIN0 None", "PIN0 (proj 2 (dec ?w1 ?w0))", R.BROKE),
    ("(mult $a $b) (mult ?w0 ?w3)", "(mult $a $b) (mult ?w3 ?w0)",
     R.WITNESS),
    ("(smult $n2 gen) ?w4", "(smult $n2 gen) None", R.HEALED),
    # dump
    (f"honest_lo real 0 {SHA}", f"honest_lo real 0 {SHA2}", R.DUMP),
]


@pytest.mark.parametrize("old,new,cls", MOVED)
def test_a_moved_line_falls_in_its_class(old, new, cls):
    moves = R.compare(["SUITE x pass", old], ["SUITE x pass", new])
    assert moves == [R.Move(cls, 2, 2, old, new)]
    assert R.status(moves) == (cls in (R.HEALED, R.OTHER))


# one pin's lines of each kind, and which of them one test below drops
LINES = [
    ["CHECK a holds", "CHECK b bounded-pass bound=6 tests=5", "SUITE s pass"],
    ["case0 Equivalent 3", "case0 Equivalent 4", "case1 Equivalent 5"],
    ["PIN0 None", "(tuple $a $b) ?w0", "(tuple $a $c) ?w1"],
    [f"a real 0 {SHA}", f"a ideal 0 {SHA}", f"b real 0 {SHA}"],
]


@pytest.mark.parametrize("lines", LINES)
def test_added_and_dropped_lines_are_other(lines):
    dropped = R.compare(lines, lines[:1] + lines[2:])
    assert dropped == [R.Move(R.OTHER, 2, None, lines[1], None)]
    added = R.compare(lines[:1] + lines[2:], lines)
    assert added == [R.Move(R.OTHER, None, 2, None, lines[1])]
    assert R.status(dropped) == R.status(added) == 1


def test_a_changed_key_is_other():
    old, new = "CHECK a holds", "CHECK b holds"
    assert R.classify(old, new) == R.OTHER
    assert {m.cls for m in R.compare([old], [new])} == {R.OTHER}


def test_lines_after_an_insert_keep_their_keys():
    old = [f"case{k} Equivalent {k}" for k in range(50)]
    new = old[:10] + ["extra Equivalent 1"] + old[10:]
    new[40] = "case39 Equivalent 40"
    assert [(m.cls, m.old_no, m.new_no) for m in R.compare(old, new)] == \
        [(R.OTHER, None, 11), (R.TESTS, 40, 41)]


def test_status_blocks_only_a_lost_violation_or_other():
    for cls in R.CLASSES:
        move = R.Move(cls, 1, 1, "a", "b")
        assert R.status([move]) == (cls in (R.HEALED, R.OTHER)), cls
    assert R.status([]) == 0


def test_a_failing_pin_names_its_lines_in_a_bounded_message(tmp_path,
                                                           monkeypatch):
    pinned = [f"case{k} Equivalent {k}" for k in range(4000)]
    (tmp_path / "p.txt").write_text("".join(x + "\n" for x in pinned))
    monkeypatch.setattr(R, "GOLDEN", tmp_path)
    R.assert_pinned("p", pinned)
    got = [f"case{k} Equivalent {k + 1}" for k in range(4000)]
    with pytest.raises(pytest.fail.Exception) as err:
        R.assert_pinned("p", got)
    msg = str(err.value)
    assert msg.startswith("golden/p.txt: 4000 of 4000 lines moved "
                          "(tests= only 4000)")
    assert "line 1: case0 Equivalent 0" in msg
    assert "... and 3995 more" in msg
    assert len(msg.splitlines()) < 20
