"""Record the pinned output under tests/golden/, and sort what moved.

    python tests/record_pins.py

Each ``tests/golden/<name>.txt`` holds one pin: the lines a test builds,
one per line, from the builder named ``<name>`` in that test module's
``PINS``. The tests compare their lines with these files through
``assert_pinned``. This script rebuilds every file from the same builders
and sorts each moved line into one class:

- ``tests= only``: only the count of tests moved;
- ``pass -> violated``: Equivalent -> Distinguished, holds or bounded-pass
  -> violated, or for deduction None -> a recipe;
- ``witness changed``: the same violation, found by another witness or
  recipe;
- ``violated -> pass``: the reverse of ``pass -> violated``;
- ``other``: any other change, added and dropped lines included, and a
  pass line whose text moved beyond its count (its bound, say);
- ``dump moved``: a trace pin's run gave another dump.

It prints every moved line by file and class and exits 1 when a line is
``violated -> pass`` or ``other``: a change to the search may add tests
and find new or other witnesses, but must not lose one. A new file is
written and reported, with nothing to compare it with.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from difflib import SequenceMatcher
from pathlib import Path
from typing import NamedTuple

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
# the test modules whose PINS name the builders
MODULES = ("test_checks", "test_cli", "test_frames", "test_harness")

TESTS = "tests= only"
BROKE = "pass -> violated"
WITNESS = "witness changed"
HEALED = "violated -> pass"
OTHER = "other"
DUMP = "dump moved"
CLASSES = (TESTS, BROKE, WITNESS, HEALED, OTHER, DUMP)
BLOCKING = (HEALED, OTHER)

_PASS = {"holds", "bounded-pass", "pass", "Equivalent", "None"}
_VIOLATED = {"violated", "FAIL", "Distinguished", "recipe"}
# moved lines a failing pin test shows
_SHOWN = 5


class Pin(NamedTuple):
    """A pinned line read as what it pins: its kind, the key that names
    its subject, its status, and its text beyond the status with any count
    of tests taken out."""
    kind: str
    key: str
    status: str = ""
    witness: str = ""


class Move(NamedTuple):
    """One moved line: its class, its 1-based number in the pinned and in
    the new lines (None where added or dropped) and the two texts."""
    cls: str
    old_no: int | None
    new_no: int | None
    old: str | None
    new: str | None


def _terms(line):
    """A line's top-level terms: the spans between spaces outside
    parentheses."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        depth += (ch == "(") - (ch == ")")
        if ch == " " and depth == 0:
            out.append(line[start:i])
            start = i + 1
    out.append(line[start:])
    return out


def parse(line: str) -> Pin:
    """Read one pinned line. Battery lines are ``CHECK name status
    [witness]`` or ``SUITE name pass|FAIL``; corpus lines ``label
    Equivalent n`` or ``label Distinguished witness n``; dump lines
    ``label world seed sha256``; deduction lines two terms, a target or
    saturation entry and its recipe or None."""
    f = line.split(" ")
    if f[0] in ("CHECK", "SUITE") and len(f) >= 3:
        witness = " ".join("tests=" if w.startswith("tests=") else w
                           for w in f[3:])
        return Pin("battery", " ".join(f[:2]), f[2], witness)
    if len(f) >= 3 and f[1] in ("Equivalent", "Distinguished"):
        return Pin("corpus", f[0], f[1], " ".join(f[2:-1]))
    if len(f) == 4 and f[1] in ("real", "ideal") and len(f[3]) == 64:
        return Pin("dump", " ".join(f[:3]), witness=f[3])
    terms = _terms(line)
    if len(terms) == 2:
        target, recipe = terms
        return Pin("deduction", target,
                   "None" if recipe == "None" else "recipe", recipe)
    return Pin("other", line)


def classify(old: str, new: str) -> str:
    """The class of a line that moved from old to new under one key."""
    a, b = parse(old), parse(new)
    if a.kind != b.kind or a.key != b.key or a.kind == "other":
        return OTHER
    if a.kind == "dump":
        return DUMP
    if a.status == b.status:
        if a.witness == b.witness:
            return TESTS
        # a pass has no witness: its text beyond the count is its bound
        return WITNESS if a.status in _VIOLATED else OTHER
    if a.status in _PASS and b.status in _VIOLATED:
        return BROKE
    if a.status in _VIOLATED and b.status in _PASS:
        return HEALED
    return OTHER


def _blocks(a, b):
    return SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def compare(old: list, new: list) -> list:
    """Every moved line. The lines that did not move are matched first;
    between them, old and new are aligned on their keys. A line whose key
    keeps its place is classified against its old text, and a line whose
    key is new or gone is added or dropped (other)."""
    moves = []
    for tag, i1, i2, j1, j2 in _blocks(old, new):
        if tag == "equal":
            continue
        a, b = old[i1:i2], new[j1:j2]
        keys = _blocks([parse(x).key for x in a], [parse(x).key for x in b])
        for tag, k1, k2, l1, l2 in keys:
            if tag == "equal":
                moves += [Move(classify(a[k], b[m]), i1 + k + 1, j1 + m + 1,
                               a[k], b[m])
                          for k, m in zip(range(k1, k2), range(l1, l2))
                          if a[k] != b[m]]
                continue
            moves += [Move(OTHER, i1 + k + 1, None, a[k], None)
                      for k in range(k1, k2)]
            moves += [Move(OTHER, None, j1 + m + 1, None, b[m])
                      for m in range(l1, l2)]
    return moves


def status(moves) -> int:
    """The exit status for these moves: 1 if any blocks, else 0."""
    return int(any(m.cls in BLOCKING for m in moves))


def _render(move: Move) -> list:
    if move.new is None:
        return [f"line {move.old_no} dropped: {move.old}"]
    if move.old is None:
        return [f"line {move.new_no} added: {move.new}"]
    return [f"line {move.old_no}: {move.old}",
            f"{' ' * len(str(move.old_no))}   -> {move.new}"]


def summary(name: str, n_old: int, moves: list, limit=None) -> list:
    """The lines that report ``moves`` of pin ``name``, grouped by class;
    with ``limit``, only the first that many moves in file order."""
    tally = Counter(m.cls for m in moves)
    head = f"golden/{name}.txt: {len(moves)} of {n_old} lines moved"
    if tally:
        head += " (" + ", ".join(f"{c} {tally[c]}" for c in CLASSES
                                 if tally[c]) + ")"
    shown = moves[:limit] if limit is not None else \
        sorted(moves, key=lambda m: CLASSES.index(m.cls))
    return [head] + [f"  [{m.cls}] {text}" for m in shown
                     for text in _render(m)]


def read(name: str) -> list:
    return (GOLDEN / f"{name}.txt").read_text().splitlines()


def assert_pinned(name: str, lines) -> None:
    """Fail unless ``lines`` are golden/<name>.txt, line for line, naming
    the first few moved lines and their classes. The message is built from
    the aligned moves, never from a diff of the whole lists."""
    lines = list(lines)
    want = read(name)
    if lines == want:
        return
    moves = compare(want, lines)
    msg = summary(name, len(want), moves, limit=_SHOWN)
    if len(moves) > _SHOWN:
        msg.append(f"  ... and {len(moves) - _SHOWN} more")
    msg.append("if the move is meant, re-pin with: python tests/record_pins.py")
    pytest.fail("\n".join(msg), pytrace=False)


def pins():
    """(name, builder) of every pin, from each test module's PINS."""
    found = {}
    for mod in MODULES:
        for name, build in importlib.import_module(mod).PINS.items():
            if name in found:
                raise SystemExit(f"pin {name} is named twice")
            found[name] = build
    return sorted(found.items())


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    code = 0
    for name, build in pins():
        path = GOLDEN / f"{name}.txt"
        old = read(name) if path.exists() else None
        new = list(build())
        path.write_text("".join(line + "\n" for line in new))
        if old is None:
            print(f"golden/{name}.txt: new, {len(new)} lines")
            continue
        moves = compare(old, new)
        print("\n".join(summary(name, len(old), moves)), flush=True)
        code |= status(moves)
    if code:
        print(f"a line moved {HEALED} or {OTHER}: see above")
    return code


if __name__ == "__main__":
    sys.exit(main())
