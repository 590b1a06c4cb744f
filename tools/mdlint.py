#!/usr/bin/env python3
"""Markdown link-and-anchor checker (stdlib, plus the repo's own table).

Validates every markdown file it is given (or discovers):

* **relative links** — ``[text](path)`` and ``[text](path#anchor)``
  must point at a file or directory that exists relative to the
  linking file;
* **anchors** — ``#fragment`` targets (same-file or cross-file) must
  match a heading slug in the target file, using GitHub's slug rules
  (lowercase; spaces to hyphens; punctuation stripped; duplicate
  slugs suffixed ``-1``, ``-2``, …);
* **reference definitions** — ``[text][ref]`` uses must have a
  matching ``[ref]: target`` definition, whose target is checked the
  same way;
* **the contract grid** — the block between ``<!-- contract-grid:begin
  -->`` and ``<!-- contract-grid:end -->`` must equal
  :func:`contract_grid`, the rendering of ``repro.core.contracts``: the
  docs quote the table, they do not restate it (on a mismatch the
  error carries the rendering to paste);
* **schema tags** — every ``repro.<family>/<N>`` quoted anywhere in a
  file must be a tag ``repro.obs.schemas`` knows, and outside the
  change logs (``CHANGES.md``, ``ISSUE.md``: what an entry calls
  current was current then, and a retired family or version existed
  then) it must be the family's *current* tag unless it opens a version
  range (``repro.run_report/5..6``);
* **documented commands** — in README.md and docs/handbook.md, every
  ``python -m repro.cli …`` line of a fenced code block (``$``
  prompt, environment assignments, ``\\`` continuations and their
  ``>`` prompts allowed; cut at a ``#`` comment or a shell
  redirection) must parse under ``repro.cli.build_parser()`` —
  nothing is simulated.

External targets (``http:``, ``https:``, ``mailto:``) are recorded
but never fetched — CI must not depend on the network. Bare URLs in
prose are ignored.

Usage::

    python tools/mdlint.py                 # *.md at repo root + docs/
    python tools/mdlint.py README.md docs  # explicit files/dirs

Exit codes: 0 clean, 1 broken links/anchors, 2 usage error.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex
import sys
from typing import Dict, Iterable, List, Optional, Tuple

# Inline links/images: [text](target "title") — target ends at the
# first unescaped ')' or whitespace-before-title. Non-greedy text, no
# nested brackets (enough for this repo's prose).
_INLINE_LINK = re.compile(r"!?\[[^\]\n]*\]\(\s*<?([^)<>\s]+)>?"
                          r"(?:\s+\"[^\"]*\")?\s*\)")
_REF_USE = re.compile(r"\[[^\]\n]+\]\[([^\]\n]+)\]")
_REF_DEF = re.compile(r"^\s{0,3}\[([^\]\n]+)\]:\s+(\S+)", re.MULTILINE)
_HEADING = re.compile(r"^(#{1,6})\s+(.+?)\s*#*\s*$", re.MULTILINE)
_CODE_FENCE = re.compile(r"^(```|~~~).*$", re.MULTILINE)
# GitHub drops everything but word characters, hyphens, and spaces
# when slugging a heading (underscores survive as word characters).
_SLUG_DROP = re.compile(r"[^\w\- ]", re.UNICODE)
# Underscores stay: GitHub keeps them in slugs (they are word chars,
# and in-word underscores are not emphasis).
_MD_DECORATION = re.compile(r"[*`]|\[|\]\([^)]*\)|\]")

_CONTRACT_GRID = re.compile(r"<!-- contract-grid:begin -->\n(.*?)\n"
                            r"<!-- contract-grid:end -->", re.DOTALL)

# A quoted artifact schema tag, and whether a version range follows it.
_SCHEMA_TAG = re.compile(r"\b(repro\.[a-z_]+)/(\d+)(\.\.|…)?")
_CHANGE_LOGS = ("CHANGES.md", "ISSUE.md")
# Families no writer emits any more; only a change log may name them.
_RETIRED_FAMILIES = ("repro.kernel_profile",)

# A documented CLI invocation: an optional "$ " prompt and environment
# assignments, then the module run; the rest of the line is its argv.
_CLI_COMMAND = re.compile(r"^\s*(?:\$\s+)?(?:\w+=\S*\s+)*"
                          r"python3?\s+-m\s+repro\.cli\b(.*)$")
_CLI_DOCS = ("README.md", "handbook.md")
# A shell word that ends the command's argv (redirection, pipe, list).
_SHELL_CUT = re.compile(r"^(?:\d*[<>]|\||&|;)")

EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def _use_checkout_src() -> None:
    """Make ``repro`` importable from this checkout's ``src``."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def contract_grid() -> str:
    """The contract table of this checkout's ``src``, as the 5×5 grid
    the handbook quotes.  ``no_phantom`` and the row's history checker,
    owed by every cell, are left to the handbook's caption."""
    _use_checkout_src()
    from repro.core.contracts import PROBES, contract_for
    from repro.core.model import Consistency, DdpModel, Persistency

    def ticks(ids):
        return ", ".join(f"`{i}`" for i in ids) or "—"

    def title(member):
        return member.value.replace("_", "-").title()

    lines = ["| | " + " | ".join(map(title, Persistency)) + " |",
             "|---" * (len(Persistency) + 1) + "|"]
    for c in Consistency:
        cells = []
        for p in Persistency:
            row = contract_for(DdpModel(c, p))
            withheld = [i for i in PROBES if i not in row.probes]
            cells.append(ticks(row.durability[1:] + row.session)
                         + (f" (*{row.name}*)" if row.name else "")
                         + (f"; not probed: {ticks(withheld)}"
                            if withheld else ""))
        lines.append(f"| **{title(c)}** | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _retired(family: str, version: int) -> bool:
    """A family no writer emits, or a version older than any the
    registry still reads."""
    from repro.obs.schemas import SCHEMAS

    known = SCHEMAS.get(family)
    return (family in _RETIRED_FAMILIES
            or known is not None and version < known.versions[0])


def schema_tag_errors(text: str, is_change_log: bool) -> List[Tuple[int, str]]:
    """``(line, complaint)`` for every quoted schema tag that
    ``repro.obs.schemas`` does not know or that has been superseded."""
    _use_checkout_src()
    from repro.obs.schemas import SchemaError, parse_schema_tag, schema_tag

    errors = []
    for match in _SCHEMA_TAG.finditer(text):
        family, version, is_range = match.groups()
        tag = f"{family}/{version}"
        try:
            parse_schema_tag(tag)
        except SchemaError as exc:
            if is_change_log and _retired(family, int(version)):
                continue
            complaint = str(exc)
        else:
            current = schema_tag(family)
            if tag == current or is_change_log or is_range:
                continue
            complaint = f"stale schema tag {tag!r}: current is {current!r}"
        errors.append((text.count("\n", 0, match.start()) + 1, complaint))
    return errors


def cli_command_errors(text: str) -> List[Tuple[int, str]]:
    """``(line, complaint)`` for every ``python -m repro.cli …`` line of
    a fenced code block that ``repro.cli.build_parser()`` rejects."""
    _use_checkout_src()
    from repro.cli import build_parser

    errors = []
    lines = text.splitlines()
    in_fence = False
    index = 0
    while index < len(lines):
        start, line = index + 1, lines[index]
        index += 1
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        match = _CLI_COMMAND.match(line) if in_fence else None
        if match is None:
            continue
        command = match.group(1)
        while command.rstrip().endswith("\\") and index < len(lines):
            command = (command.rstrip()[:-1] + " "
                       + re.sub(r"^\s*>\s?", "", lines[index]))
            index += 1
        words = shlex.split(command, comments=True)
        for cut, word in enumerate(words):
            if _SHELL_CUT.match(word):
                words = words[:cut]
                break
        output = io.StringIO()
        try:
            with contextlib.redirect_stdout(output), \
                    contextlib.redirect_stderr(output):
                build_parser().parse_args(words)
        except SystemExit as exc:
            if exc.code:
                complaint = output.getvalue().strip().splitlines()[-1]
                errors.append((start, f"`repro {' '.join(words)}` does "
                                      f"not parse: {complaint}"))
    return errors


def strip_code_blocks(text: str, inline: bool = True) -> str:
    """Blank out fenced code blocks — and, unless ``inline=False``,
    inline code spans — so links in example snippets are not checked
    (they are often placeholders). Heading slugging keeps inline code:
    GitHub slugs the text *inside* backticks."""
    out: List[str] = []
    in_fence = False
    for line in text.splitlines(keepends=True):
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            out.append("\n")
        elif in_fence:
            out.append("\n")
        elif inline:
            out.append(re.sub(r"`[^`\n]*`", "", line))
        else:
            out.append(line)
    return "".join(out)


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """Slug a heading the way GitHub's anchor generator does."""
    text = _MD_DECORATION.sub("", heading)
    slug = _SLUG_DROP.sub("", text.lower()).replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def heading_slugs(text: str) -> List[str]:
    seen: Dict[str, int] = {}
    return [github_slug(m.group(2), seen)
            for m in _HEADING.finditer(strip_code_blocks(text,
                                                         inline=False))]


def iter_links(text: str) -> Iterable[Tuple[int, str]]:
    """Yield ``(line_number, target)`` for every checkable link."""
    cleaned = strip_code_blocks(text)
    defs = {m.group(1).lower(): m.group(2)
            for m in _REF_DEF.finditer(cleaned)}
    for match in _INLINE_LINK.finditer(cleaned):
        line = cleaned.count("\n", 0, match.start()) + 1
        yield line, match.group(1)
    for match in _REF_USE.finditer(cleaned):
        line = cleaned.count("\n", 0, match.start()) + 1
        ref = match.group(1).lower()
        if ref in defs:
            yield line, defs[ref]
        else:
            yield line, f"\0missing-ref:{match.group(1)}"


class Checker:
    def __init__(self) -> None:
        self._slug_cache: Dict[pathlib.Path, List[str]] = {}
        self.errors: List[str] = []
        self.links_checked = 0

    def slugs_for(self, path: pathlib.Path) -> Optional[List[str]]:
        path = path.resolve()
        if path not in self._slug_cache:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                return None
            self._slug_cache[path] = heading_slugs(text)
        return self._slug_cache[path]

    def check_file(self, path: pathlib.Path) -> None:
        text = path.read_text(encoding="utf-8")
        for match in _CONTRACT_GRID.finditer(text):
            grid = contract_grid()
            if match.group(1) != grid:
                line = text.count("\n", 0, match.start()) + 1
                self.errors.append(
                    f"{path}:{line}: contract grid differs from "
                    f"repro.core.contracts; it renders as\n{grid}")
        for line, complaint in schema_tag_errors(
                text, is_change_log=path.name in _CHANGE_LOGS):
            self.errors.append(f"{path}:{line}: {complaint}")
        if path.name in _CLI_DOCS:
            for line, complaint in cli_command_errors(text):
                self.errors.append(f"{path}:{line}: {complaint}")
        for line, target in iter_links(text):
            self.links_checked += 1
            if target.startswith("\0missing-ref:"):
                ref = target.split(":", 1)[1]
                self.errors.append(f"{path}:{line}: reference [{ref}] "
                                   f"has no definition")
                continue
            if target.startswith(EXTERNAL_SCHEMES):
                continue
            file_part, _, anchor = target.partition("#")
            if file_part:
                dest = (path.parent / file_part).resolve()
                if not dest.exists():
                    self.errors.append(f"{path}:{line}: broken link "
                                       f"{target!r} ({file_part} does "
                                       f"not exist)")
                    continue
            else:
                dest = path.resolve()
            if anchor:
                if dest.is_dir() or dest.suffix.lower() != ".md":
                    continue  # anchors into non-markdown: not checkable
                slugs = self.slugs_for(dest)
                if slugs is not None and anchor not in slugs:
                    self.errors.append(f"{path}:{line}: broken anchor "
                                       f"{target!r} (no heading slugs "
                                       f"to {anchor!r} in {dest.name})")


def discover(args: List[str], root: pathlib.Path) -> List[pathlib.Path]:
    if not args:
        files = sorted(root.glob("*.md"))
        docs = root / "docs"
        if docs.is_dir():
            files.extend(sorted(docs.rglob("*.md")))
        return files
    files = []
    for arg in args:
        path = pathlib.Path(arg)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.is_file():
            files.append(path)
        else:
            raise SystemExit(f"mdlint: no such file or directory: {arg}")
    return files


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = discover(argv, pathlib.Path.cwd())
    if not files:
        print("mdlint: no markdown files found", file=sys.stderr)
        return 2
    checker = Checker()
    for path in files:
        checker.check_file(path)
    for error in checker.errors:
        print(error)
    status = "FAILED" if checker.errors else "clean"
    print(f"mdlint: {status} — {len(files)} file(s), "
          f"{checker.links_checked} link(s), "
          f"{len(checker.errors)} error(s)")
    return 1 if checker.errors else 0


if __name__ == "__main__":
    sys.exit(main())
