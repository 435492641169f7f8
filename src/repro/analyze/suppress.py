"""Inline ``# noqa`` suppressions shared by every source-level engine.

A finding is suppressed when the flagged physical line carries a ``noqa``
comment — either blanket (``# noqa``) or listing the code (``# noqa:
RPD301,RPD502``).  Directives that suppress nothing are themselves reported
as ``RPD590`` notices (visible under ``--strict``), so stale suppressions
don't silently outlive the code they were written for.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Optional

from .diagnostics import Diagnostic

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<sep>\s*:\s*(?P<codes>[A-Z0-9][A-Z0-9, ]*))?",
    re.IGNORECASE)


class NoqaDirective:
    """One ``# noqa`` comment: its location and the codes it names."""

    __slots__ = ("line", "col", "codes", "used")

    def __init__(self, line: int, col: int, codes: Optional[frozenset]):
        self.line = line            # 1-based physical line
        self.col = col              # 0-based column of the comment
        self.codes = codes          # None = blanket suppression
        self.used = False

    def suppresses(self, code: str) -> bool:
        return self.codes is None or code in self.codes


def collect_noqa(source: str) -> dict[int, NoqaDirective]:
    """Map line number -> directive for every ``# noqa`` comment.

    Tokenizes so that ``noqa`` text inside string literals is not
    misread as a directive; on tokenization errors (the linter reports
    those files as RPD300 anyway) returns no directives.
    """
    directives: dict[int, NoqaDirective] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            codes: Optional[frozenset] = None
            if m.group("codes"):
                codes = frozenset(
                    c.strip().upper()
                    for c in m.group("codes").split(",") if c.strip())
                if not any(c.startswith("RPD") for c in codes):
                    continue  # another tool's directive (e.g. noqa: E402)
            line, col = tok.start
            directives[line] = NoqaDirective(line, col + m.start(), codes)
    except (tokenize.TokenError, IndentationError, SyntaxError,
            ValueError):
        return {}
    return directives


def apply_suppressions(findings, path: str, source: Optional[str] = None):
    """Filter ``findings`` for one file through its noqa directives.

    Returns ``(kept, notices)`` where ``notices`` are the ``RPD590``
    unused-suppression diagnostics.  ``source`` may be passed when already
    in hand; otherwise the file is read from disk.
    """
    if source is None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError):
            return list(findings), []
    directives = collect_noqa(source)
    if not directives:
        return list(findings), []
    kept = []
    for diag in findings:
        directive = directives.get(diag.line)
        if directive is not None and directive.suppresses(diag.code):
            directive.used = True
        else:
            kept.append(diag)
    notices = []
    for directive in sorted(directives.values(), key=lambda d: d.line):
        if directive.used:
            continue
        what = "blanket 'noqa'" if directive.codes is None else \
            f"'noqa: {', '.join(sorted(directive.codes))}'"
        notices.append(Diagnostic(
            "RPD590",
            f"unused {what} suppression: nothing to suppress on this line",
            hint="remove the stale noqa comment",
            file=path, line=directive.line, col=directive.col))
    return kept, notices


def suppress_files(findings, files, sources=None) -> list[Diagnostic]:
    """:func:`apply_suppressions` over every file in ``files``.

    Findings attributed to no listed file pass through untouched;
    ``sources`` optionally maps a path to its already-read text.
    """
    by_file: dict = {path: [] for path in files}
    out: list[Diagnostic] = []
    for diag in findings:
        by_file.get(diag.file, out).append(diag)
    for path, per_file in by_file.items():
        kept, notices = apply_suppressions(
            per_file, path, source=(sources or {}).get(path))
        out += kept + notices
    return out
