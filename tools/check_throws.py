#!/usr/bin/env python3
"""Fail when a source file under src/ throws outside the allowlist.

Engine failures return a Status that names their cause (ROADMAP item 4),
so new code reports errors as statuses, not exceptions. The throws left are
the two accessors whose callers have already checked for success:
Result::value() and RowSerde::SerializeToBytes(). Each allowlist entry is a
file and the message its throw carries. Throws inside comments and string
literals are not counted.

Exit status is the number of throws found outside the allowlist, so CI
fails on any.

Usage: python3 tools/check_throws.py [repo_root]
"""
import os
import re
import sys

ALLOWLIST = [
    # Result::value() on an error result.
    ("src/common/status.h", '"Result::value on error: "'),
    # RowSerde::SerializeToBytes(), the throwing convenience over Serialize().
    ("src/serde/serde.h", '"serialize failed: "'),
]

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.S)
STRING = re.compile(r'"(?:\\.|[^"\\\n])*"')
THROW = re.compile(r"\bthrow\b")


def code_lines(text):
    """Lines of `text` with comments and string literals blanked."""
    text = BLOCK_COMMENT.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for line in text.split("\n"):
        line = STRING.sub('""', line)
        yield line.split("//", 1)[0]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    problems = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                text = f.read()
            raw = text.split("\n")
            for number, code in enumerate(code_lines(text), start=1):
                if not THROW.search(code):
                    continue
                line = raw[number - 1]
                if any(rel == f and msg in line for f, msg in ALLOWLIST):
                    continue
                print(f"{rel}:{number}: throw outside the allowlist: {line.strip()}")
                problems += 1
    return problems


if __name__ == "__main__":
    sys.exit(main())
