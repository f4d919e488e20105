"""Formal geometry fact language and LaTeX table well-formedness checks.

Grammar for fact lists, whitespace-insensitive between tokens:

    fact_list := fact (',' fact)* | <empty>
    fact      := IDENT '(' arg (',' arg)* ')'
    arg       := IDENT | NUMBER
    IDENT     := letter (letter | digit | '_')*
    NUMBER    := digits ('.' digits)?

Identifiers are atomic: the AB in Line(AB, 5) is one symbol, not two
points. Canonical serialization joins facts with ", " and arguments with
", ", so parse and serialize are mutually inverse up to whitespace.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Iterable, Mapping, NamedTuple

# Known predicate arities; unknown predicates are allowed any arity.
DEFAULT_ARITY: Mapping[str, int] = {
    "Triangle": 3,
    "Angle": 2,
    "Line": 2,
    "Circle": 2,
    "Point": 1,
    "Parallel": 2,
    "Perpendicular": 2,
}


class ParseError(ValueError):
    """Syntax error at a byte offset, with the token set that was expected."""

    def __init__(self, offset: int, expected: frozenset[str], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        want = ", ".join(sorted(expected))
        super().__init__(f"at byte {offset}: expected {want}, found {found}")


class Symbol(NamedTuple):
    name: str

    def render(self) -> str:
        return self.name


class Number(NamedTuple):
    value: Decimal

    def render(self) -> str:
        # fixed-point, as NUMBER allows no exponent; strip trailing zeros: 4.50 -> 4.5, 45.0 -> 45
        text = f"{self.value:f}"
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text


Arg = Symbol | Number


class GeometryFact(NamedTuple):
    predicate: str
    args: tuple[Arg, ...]

    def render(self) -> str:
        return f"{self.predicate}({', '.join(a.render() for a in self.args)})"


FactList = tuple[GeometryFact, ...]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,))"
)
_TOKEN_KINDS = {"ident": "IDENT", "number": "NUMBER", "lparen": "(", "rparen": ")", "comma": ","}
_NON_SPACE_RE = re.compile(r"\S")  # the same code points as `not str.isspace()`


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, character offset) per token, then EOF; a stray character raises."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # a gap: what lies at pos is no token
            break
        kind = m.lastgroup
        tokens.append((_TOKEN_KINDS[kind], m.group(kind), m.start(kind)))
        pos = m.end()
    stray = _NON_SPACE_RE.search(text, pos)
    if stray is not None:
        raise ParseError(
            _byte_offset(text, stray.start()), frozenset(_TOKEN_KINDS.values()), repr(stray.group())
        )
    return tokens + [("EOF", "", len(text))]


def parse_facts(text: str) -> FactList:
    """Parse a comma-separated fact list; empty or whitespace-only gives ()."""
    tokens = _tokenize(text)
    pos = 0

    def take(*kinds: str) -> tuple[str, str]:
        """The next token's kind and text; a ParseError expecting kinds if it is none of them."""
        nonlocal pos
        kind, token, offset = tokens[pos]
        if kind not in kinds:
            found = "end of input" if kind == "EOF" else repr(token)
            raise ParseError(_byte_offset(text, offset), frozenset(kinds), found)
        pos += 1
        return kind, token

    if tokens[0][0] == "EOF":
        return ()
    facts = []
    while True:
        predicate = take("IDENT")[1]
        take("(")
        args = []
        while True:
            kind, token = take("IDENT", "NUMBER")
            args.append(Symbol(token) if kind == "IDENT" else Number(Decimal(token)))
            if tokens[pos][0] != ",":
                break
            pos += 1
        take(")")
        facts.append(GeometryFact(predicate=predicate, args=tuple(args)))
        if take(",", "EOF")[0] == "EOF":
            return tuple(facts)


def serialize_facts(facts: Iterable[GeometryFact]) -> str:
    """Canonical rendering: facts joined with ', '."""
    return ", ".join(f.render() for f in facts)


class ArityViolation(NamedTuple):
    fact_index: int
    predicate: str
    expected: int
    actual: int


def validate_arity(
    facts: Iterable[GeometryFact],
    arity: Mapping[str, int] = DEFAULT_ARITY,
) -> list[ArityViolation]:
    """Check known predicates against the arity table; unknown ones pass."""
    violations = []
    for i, fact in enumerate(facts):
        expected = arity.get(fact.predicate)
        if expected is not None and len(fact.args) != expected:
            violations.append(
                ArityViolation(i, fact.predicate, expected, len(fact.args))
            )
    return violations


# --- LaTeX table checking -------------------------------------------------

TABULAR_ENVIRONMENTS = frozenset(
    {"tabular", "tabular*", "tabularx", "array", "longtable"}
)


class TableFinding(NamedTuple):
    offset: int  # character offset into the checked text
    message: str


class TableReport(NamedTuple):
    ok: bool
    findings: list[TableFinding]
    columns: int | None
    environments: list[str]


_ENV_RE = re.compile(r"\\(begin|end)\{([A-Za-z*]+)\}")
_RULE_RE = re.compile(r"\\(?:hline|toprule|midrule|bottomrule)\b|\\cline\{[^{}]*\}")
# an escaped character (\{, \}, \&, ...) is one match, so it is skipped as a pair
_BRACE_RE = re.compile(r"\\.|[{}]", re.S)
_CELL_RE = re.compile(r"\\.|&", re.S)


def _brace_findings(text: str) -> list[TableFinding]:
    findings = []
    stack: list[int] = []
    for m in _BRACE_RE.finditer(text):
        if m.group() == "{":
            stack.append(m.start())
        elif m.group() == "}":
            if stack:
                stack.pop()
            else:
                findings.append(TableFinding(m.start(), "unmatched '}'"))
    return findings + [TableFinding(off, "unmatched '{'") for off in stack]


def _env_spans(text: str):
    """Match begin/end pairs. Returns (spans, findings).

    Each span is (name, body_start, body_end) for a properly closed
    environment; body excludes the begin/end markers themselves.
    """
    findings = []
    spans = []
    stack: list[tuple[str, int, int]] = []  # (name, begin_offset, body_start)
    for m in _ENV_RE.finditer(text):
        word, name = m.group(1), m.group(2)
        if word == "begin":
            stack.append((name, m.start(), m.end()))
        else:
            if not stack:
                findings.append(
                    TableFinding(m.start(), f"\\end{{{name}}} without matching \\begin")
                )
            elif stack[-1][0] != name:
                open_name = stack[-1][0]
                findings.append(
                    TableFinding(
                        m.start(),
                        f"\\end{{{name}}} closes \\begin{{{open_name}}}",
                    )
                )
                stack.pop()
            else:
                _, _, body_start = stack.pop()
                spans.append((name, body_start, m.start()))
    for name, begin_off, _ in stack:
        findings.append(TableFinding(begin_off, f"unclosed \\begin{{{name}}}"))
    return spans, findings


def _mask_spans(body: str, base: int, spans) -> str:
    """Blank out nested environment bodies so their cells are not counted."""
    for _, s, e in spans:
        if s >= base and e <= base + len(body):
            s, e = s - base, e - base
            body = body[:s] + _NON_SPACE_RE.sub(" ", body[s:e]) + body[e:]
    return body


def _strip_env_args(body: str) -> tuple[str, int]:
    """Drop leading [..] and {..} argument groups after \\begin{...}.

    Only a {..} group skips escaped characters, so its end may lie one
    past the body when the body ends in a backslash.
    """
    i = 0
    for _ in range(3):
        while i < len(body) and body[i].isspace():
            i += 1
        if i >= len(body) or body[i] not in "[{":
            break
        opener = body[i]
        closer = "]" if opener == "[" else "}"
        depth = 0
        while i < len(body):
            if body[i] == "\\" and opener == "{":
                i += 2
                continue
            if body[i] == opener:
                depth += 1
            elif body[i] == closer:
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
    return body[i:], i


def _count_cells(row: str) -> int:
    return 1 + _CELL_RE.findall(row).count("&")


def _row_findings(name: str, body: str, body_start: int, all_spans):
    findings = []
    masked = _mask_spans(body, body_start, all_spans)
    content, skipped = _strip_env_args(masked)
    offset0 = body_start + skipped
    expected: int | None = None
    pos = 0
    rows = re.split(r"\\\\", content)
    for chunk in rows:
        chunk_off = offset0 + pos
        pos += len(chunk) + 2  # 2 for the row terminator
        cleaned = _RULE_RE.sub("", chunk).strip()
        if not cleaned:
            continue
        cells = _count_cells(cleaned)
        if expected is None:
            expected = cells
        elif cells != expected:
            findings.append(
                TableFinding(
                    chunk_off,
                    f"{name} row has {cells} cells, expected {expected}",
                )
            )
    return findings, expected


def check_latex_table(text: str) -> TableReport:
    """Report-style well-formedness check; never raises on any input.

    Checks brace balance, begin/end nesting, presence of at least one
    tabular-like environment, and consistent cell counts across rows.
    Offsets are character offsets into the input.
    """
    findings = _brace_findings(text)
    spans, env_findings = _env_spans(text)
    findings.extend(env_findings)

    table_spans = [s for s in spans if s[0] in TABULAR_ENVIRONMENTS]
    # keep only outermost table spans; nested ones are cell content
    outer = [
        s for s in table_spans
        if not any(o is not s and o[1] < s[1] and s[2] <= o[2] for o in table_spans)
    ]
    outer.sort(key=lambda s: s[1])

    if not outer:
        findings.append(TableFinding(0, "no tabular-like environment found"))

    columns: int | None = None
    for span in outer:
        name, body_start, body_end = span
        nested = [s for s in spans if s is not span]
        row_findings, expected = _row_findings(
            name, text[body_start:body_end], body_start, nested
        )
        findings.extend(row_findings)
        if columns is None and expected is not None and not row_findings:
            columns = expected

    findings.sort(key=lambda f: f.offset)
    return TableReport(
        ok=not findings,
        findings=findings,
        columns=columns,
        environments=[s[0] for s in spans],
    )
