#!/usr/bin/env python3
"""Fail on dead intra-repo links and undefined config keys in the docs.

Scans the top-level docs (README.md, DESIGN.md, EXPERIMENTS.md,
ROADMAP.md) and everything under docs/ for Markdown inline links
[text](target) and checks that

  - relative file targets exist in the repository, and
  - fragment targets (#anchor, in the same or another file) resolve to a
    heading, using GitHub's anchor slug rules (lowercase, punctuation
    stripped, spaces to hyphens, -N suffixes for duplicates).

External links (http/https/mailto) are not fetched. Links inside fenced
code blocks and inline code spans are ignored.

It also checks that the docs document no key the engine lacks: every
backticked dotted key (`task.delivery`, `log.fsync.interval.ms`) in the
first cell of a table row must appear as a string literal somewhere in
src/. Crash-point names are string literals there too, so they count as
defined; names with placeholders (`lag.<topic>.<partition>`) are skipped.

Exit status is the number of problems found, so CI fails on any.

Usage: python3 tools/check_docs_links.py [repo_root]
"""
import os
import re
import sys

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
DOC_DIRS = ["docs"]

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
CONFIG_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
TABLE_CELL_SEP_RE = re.compile(r"(?<!\\)\|")


def github_anchor(heading, seen):
    """GitHub's heading -> anchor id translation."""
    # Inline markup does not contribute to the slug text.
    text = CODE_SPAN_RE.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    slug = "".join(c for c in text.lower() if c.isalnum() or c in " -_")
    slug = slug.strip().replace(" ", "-")
    if slug in seen:
        seen[slug] += 1
        slug = f"{slug}-{seen[slug]}"
    else:
        seen[slug] = 0
    return slug


def collect_anchors(path):
    anchors, seen, in_fence = set(), {}, False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if m:
                anchors.add(github_anchor(m.group(2).strip(), seen))
    return anchors


def iter_links(path):
    """Yield (lineno, target) for links outside code blocks/spans."""
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            stripped = CODE_SPAN_RE.sub("", line)
            for m in LINK_RE.finditer(stripped):
                yield lineno, m.group(2)


def source_literals(root):
    """Every string literal in the C++ sources under src/."""
    literals = set()
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    literals.update(STRING_LITERAL_RE.findall(f.read()))
    return literals


def iter_table_keys(path):
    """Yield (lineno, key) for config keys in the first cell of table rows."""
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            stripped = line.strip()
            if in_fence or not stripped.startswith("|"):
                continue
            first_cell = TABLE_CELL_SEP_RE.split(stripped[1:])[0]
            for span in CODE_SPAN_RE.findall(first_cell):
                key = span.strip("`")
                if CONFIG_KEY_RE.match(key):
                    yield lineno, key


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    files = [os.path.join(root, f) for f in DOC_FILES]
    for d in DOC_DIRS:
        dirpath = os.path.join(root, d)
        if os.path.isdir(dirpath):
            files += [os.path.join(dirpath, f)
                      for f in sorted(os.listdir(dirpath)) if f.endswith(".md")]
    files = [f for f in files if os.path.isfile(f)]

    anchor_cache = {}
    errors = 0
    for path in files:
        rel = os.path.relpath(path, root)
        for lineno, target in iter_links(path):
            if EXTERNAL_RE.match(target):
                continue
            file_part, _, frag = target.partition("#")
            if file_part:
                dest = os.path.normpath(
                    os.path.join(os.path.dirname(path), file_part))
                if not os.path.exists(dest):
                    print(f"{rel}:{lineno}: dead link: {target} "
                          f"({os.path.relpath(dest, root)} does not exist)")
                    errors += 1
                    continue
            else:
                dest = path
            if frag:
                if not dest.endswith(".md") or not os.path.isfile(dest):
                    continue  # anchors into non-markdown targets: not checked
                if dest not in anchor_cache:
                    anchor_cache[dest] = collect_anchors(dest)
                if frag not in anchor_cache[dest]:
                    print(f"{rel}:{lineno}: dead anchor: {target} "
                          f"(no heading '#{frag}' in "
                          f"{os.path.relpath(dest, root)})")
                    errors += 1

    literals = source_literals(root)
    keys = 0
    for path in files:
        rel = os.path.relpath(path, root)
        for lineno, key in iter_table_keys(path):
            keys += 1
            if key not in literals:
                print(f"{rel}:{lineno}: undefined key: `{key}` "
                      f"(no string literal \"{key}\" in src/)")
                errors += 1

    print(f"checked {len(files)} file(s), {keys} documented key(s): "
          f"{errors} problem(s)" if errors else
          f"checked {len(files)} file(s), {keys} documented key(s): "
          f"all links and keys ok")
    return min(errors, 125)


if __name__ == "__main__":
    sys.exit(main())
