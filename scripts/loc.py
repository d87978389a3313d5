#!/usr/bin/env python3
"""Prints the non-test Rust line count under crates/, per crate and in total.

A line counts when it is in a `.rs` file outside every `tests/`
directory and outside every item marked `#[cfg(test)]` (the attribute
line included). Blank lines, comments and docs count like code.

Usage: python3 scripts/loc.py [ROOT]    (ROOT defaults to the current
directory and must contain crates/)
"""

import pathlib
import re
import sys

CFG_TEST = re.compile(r"^[ \t]*#\[cfg\(test\)\]", re.M)
CHAR = re.compile(r"'(\\(x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^\\'])'")
RAW = re.compile(r'b?r(#*)"')


def skip(text, i):
    """The index just past the comment, string or char literal at `i`,
    or `i` itself when none starts there."""
    if text.startswith("//", i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if text.startswith("/*", i):
        depth, i = 1, i + 2
        while depth and i < len(text):
            if text.startswith("/*", i):
                depth, i = depth + 1, i + 2
            elif text.startswith("*/", i):
                depth, i = depth - 1, i + 2
            else:
                i += 1
        return i
    raw = RAW.match(text, i)
    if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
        end = text.find('"' + raw.group(1), raw.end())
        return len(text) if end < 0 else end + 1 + len(raw.group(1))
    if text[i] == '"':
        i += 1
        while i < len(text) and text[i] != '"':
            i += 2 if text[i] == "\\" else 1
        return i + 1
    if text[i] == "'":
        char = CHAR.match(text, i)
        return char.end() if char else i + 1
    return i


def item_end(text, i):
    """The index of the `;` or closing `}` that ends the item whose
    attributes start at `i`."""
    depth = 0
    while i < len(text):
        j = skip(text, i)
        if j != i:
            i = j
            continue
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
        elif c == ";" and depth == 0:
            return i
        i += 1
    return len(text)


def counted_lines(text):
    excluded = 0
    for match in CFG_TEST.finditer(text):
        start = match.start()
        if start < excluded:
            continue
        end = item_end(text, match.end())
        excluded_lines = text.count("\n", start, end) + 1
        excluded = end
        yield -excluded_lines
    yield text.count("\n") + (0 if text.endswith("\n") or not text else 1)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".") / "crates"
    totals = {}
    for path in sorted(root.rglob("*.rs")):
        relative = path.relative_to(root)
        if "tests" in relative.parts[1:-1]:
            continue
        lines = sum(counted_lines(path.read_text(encoding="utf-8")))
        totals[relative.parts[0]] = totals.get(relative.parts[0], 0) + lines
    for crate, lines in sorted(totals.items()):
        print(f"{crate:<12}{lines:>7}")
    print(f"{'total':<12}{sum(totals.values()):>7}")


if __name__ == "__main__":
    main()
