#!/usr/bin/env python3
"""Write the synthetic reference dataset to a JSONL file.

The generated corpus mirrors the marginal statistics of the benchmark
snapshot the evaluation harness was tuned against: 2500 samples with
fixed question-type and error-category counts, step counts, and
question lengths. Construction is deterministic, so reruns produce
byte-identical output.
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mathagent import (
    ParseError,
    Symbol,
    check_latex_table,
    dataset_stats,
    match_question_type,
    parse_facts,
    write_dataset,
)
from mathagent.interpreter import TYPE_SYNONYMS
from mathagent.synth import synthetic_reference_dataset

PHASE2_SEED = 7

_IDENTS = ["Triangle", "Angle", "Line", "Point", "Circle", "A", "AB", "BAC", "x_1", "Q9"]
_NUMBERS = ["5", "45", "4.5", "4.50", "007", "0.0000001", "\u0663", "\uff15"]
_FACT_NOISE = [
    "(", ")", ",", " ", "\t", "\n", "\u00a0", "\u3000", "4.", ".5", "\u03b8", "\u00e9", "-", "=",
    "$", "\u0130", "\\", "",
]
_ENVS = ["tabular", "array", "tabular*", "longtable", "itemize", "Tabular"]
_LATEX_NOISE = [
    "\\begin{tabular}", "\\end{tabular}", "\\end{array}", "\\begin{itemize}", "{cc}", "{c|c}",
    "[t]", "[", "]", "{", "}", "\\{", "\\}", "\\", "\\\\", "&", "\\&", " & ", "a", "1", " ", "\n",
    "\u00a0", "\u2003", "\\hline", "\\toprule", "\\cline{1-2}", "\\textbf{b}", "$x$", "\u00e9",
]
_TYPE_NOISE = [
    "The answer is", "I think", "plane", "geometry", "solid", "common", "sense", "math",
    "diagra", "algebr", "not", ",", ".", "\n", "\u0130", "\u00df", "\u212a", "",
]


def _mutate(rng: random.Random, text: str, noise: list[str]) -> str:
    """Delete one character, insert a noise piece, or repeat a slice, 1 to 3 times."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 6))
        text = rng.choice((
            text[:i] + text[i + 1:],
            text[:i] + rng.choice(noise) + text[i:],
            text[:j] + text[i:j] + text[j:],
        ))
    return text


def _fact_reply(rng: random.Random) -> str:
    pieces = _IDENTS + _NUMBERS + _FACT_NOISE
    if rng.random() < 0.2:
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
    gap = lambda: rng.choice(("", "", " ", "  ", "\n", "\t"))  # noqa: E731
    facts = [
        rng.choice(_IDENTS) + gap() + "(" + gap()
        + ("," + gap()).join(rng.choice(_IDENTS + _NUMBERS) + gap() for _ in range(rng.randint(1, 4)))
        + ")"
        for _ in range(rng.randint(0, 4))
    ]
    text = gap() + ("," + gap()).join(facts) + gap()
    return text if rng.random() < 0.4 else _mutate(rng, text, pieces)


def _table(rng: random.Random, depth: int = 0) -> str:
    env = rng.choice(_ENVS)
    args = rng.choice(("", "[t]", "{10cm}", " [h] ")) + rng.choice(("{cc}", "{ccc}", "{|c|c|}", ""))
    cells = lambda: rng.choice(("a", "1", " x ", "\\&", "\\{", "", "\u00a0"))  # noqa: E731
    rows = []
    for _ in range(rng.randint(0, 4)):
        row = [cells() for _ in range(rng.randint(1, 3))]
        if depth < 2 and rng.random() < 0.2:
            row[0] = _table(rng, depth + 1)
        rows.append(rng.choice(("", "\\hline ")) + " & ".join(row))
    body = rng.choice((" \\\\ ", " \\\\\n")).join(rows) + rng.choice(("", " \\\\"))
    return f"\\begin{{{env}}}{args}\n{body}\n\\end{{{env}}}"


def _latex_reply(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return "".join(rng.choice(_LATEX_NOISE) for _ in range(rng.randint(0, 14)))
    text = rng.choice(("", "Here is the table:\n")) + _table(rng)
    return text if rng.random() < 0.3 else _mutate(rng, text, _LATEX_NOISE)


def _type_reply(rng: random.Random) -> str:
    pieces = [s for synonyms in TYPE_SYNONYMS.values() for s in synonyms] + _TYPE_NOISE
    words = []
    for _ in range(rng.randint(0, 6)):
        word = rng.choice(pieces)
        words.append("".join(c.upper() if rng.random() < 0.3 else c for c in word))
    return rng.choice((" ", "", ", ")).join(words)


def _arg(arg) -> list[str]:
    return ["Symbol", arg.name] if isinstance(arg, Symbol) else ["Number", str(arg.value)]


def read_facts(text: str):
    """parse_facts' facts, or its ParseError's offset, expected set and found text."""
    try:
        facts = parse_facts(text)
    except ParseError as exc:
        return {"offset": exc.offset, "expected": sorted(exc.expected), "found": exc.found}
    return [[fact.predicate, [_arg(a) for a in fact.args]] for fact in facts]


def read_latex(text: str) -> dict:
    """Every TableReport field of check_latex_table's report."""
    report = check_latex_table(text)
    return {
        "ok": report.ok,
        "findings": [[f.offset, f.message] for f in report.findings],
        "columns": report.columns,
        "environments": report.environments,
    }


def read_type(text: str) -> str | None:
    matched = match_question_type(text)
    return None if matched is None else matched.value


READERS = {"facts": read_facts, "latex": read_latex, "type": read_type}

# hand-picked cases first: scans that step past the end of a body or reply, and
# escapes in [..] and {..} argument groups
_PHASE2_EDGES = {
    "facts": ["", " \u3000 ", "Line(AB", "Line(AB, 5)\\", "Angle(\u03b8\u03b8(", "Point(\u0663)"],
    "latex": [
        "\\begin{tabular}{c\\\\end{tabular}",
        "\\begin{tabular}[t\\end{tabular}",
        "\\begin{tabular}{cc} a & b \\",
        "\\begin{tabular}[\\]& x] a & b \\\\ 1 & 2 \\end{tabular}",
        "\\begin{tabular}{c\\}&c} a & b \\\\ 1 & 2 \\end{tabular}",
        "\\begin{tabular}{cc} a\u00a0& \\begin{array}{c} x\u2003y \\end{array} \\\\ 1 & 2 \\end{tabular}",
    ],
    "type": ["\u0130plane geometry", "math commonsense", "common sense algebra"],
}


def phase2_readers_json() -> str:
    """The phase-2 reader fixture: one JSON case per line, reader, text and result.

    tests/fixtures/phase2_readers.json holds these bytes, written before
    the readers were last rewritten; a test checks that they still come out.
    """
    rng = random.Random(PHASE2_SEED)
    makers = {"facts": (_fact_reply, 300), "latex": (_latex_reply, 300), "type": (_type_reply, 200)}
    cases = []
    for reader, (make, count) in makers.items():
        texts = _PHASE2_EDGES[reader] + [make(rng) for _ in range(count)]
        cases += [{"reader": reader, "text": t, "result": READERS[reader](t)} for t in texts]
    lines = (json.dumps(case, ensure_ascii=True, sort_keys=True) for case in cases)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("out/synthetic_reference.jsonl"),
        help="Destination JSONL path (parents created as needed).",
    )
    args = parser.parse_args()

    samples = synthetic_reference_dataset()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(samples, args.out)

    stats = dataset_stats(samples)
    types = {k.value if k else "unlabeled": v for k, v in stats.by_question_type.items()}
    categories = {k.value: v for k, v in stats.by_error_category.items()}
    print(f"wrote {stats.total} samples to {args.out}")
    print(f"question types: {dict(sorted(types.items()))}")
    print(f"error categories: {dict(sorted(categories.items()))}")
    print(
        f"steps: mean={stats.step_count_mean} min={stats.step_count_min} "
        f"max={stats.step_count_max}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
