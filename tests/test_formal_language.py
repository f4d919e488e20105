"""Formal fact language: grammar, round-trip, arity, LaTeX table checks."""

import importlib.util
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, REPO, load_corpus
from latex_corpus import CASES as LATEX_CASES
from mathagent import (
    DEFAULT_ARITY,
    formal_language,
    GeometryFact,
    Number,
    ParseError,
    Symbol,
    check_latex_table,
    parse_facts,
    serialize_facts,
    validate_arity,
)

CANONICAL = "Triangle(A, B, C), Angle(BAC, 45), Line(AB, 5)"


class TestParse:
    def test_canonical_example(self):
        facts = parse_facts(CANONICAL)
        assert len(facts) == 3
        assert facts[0] == GeometryFact("Triangle", (Symbol("A"), Symbol("B"), Symbol("C")))
        assert facts[1] == GeometryFact("Angle", (Symbol("BAC"), Number(Decimal("45"))))
        assert facts[2] == GeometryFact("Line", (Symbol("AB"), Number(Decimal("5"))))
        assert serialize_facts(facts) == CANONICAL

    def test_empty_and_whitespace_input(self):
        assert parse_facts("") == ()
        assert parse_facts("   \n\t ") == ()

    def test_whitespace_insensitive(self):
        assert parse_facts("Line( AB ,5 )") == parse_facts("Line(AB, 5)")
        assert parse_facts("Point(A),Point(B)") == parse_facts("Point(A), Point(B)")

    def test_identifiers_are_atomic(self):
        (fact,) = parse_facts("Line(AB, 5)")
        assert fact.args[0] == Symbol("AB")

    def test_decimal_numbers(self):
        (fact,) = parse_facts("Angle(ABC, 4.5)")
        assert fact.args[1] == Number(Decimal("4.5"))

    def test_prose_fails_at_byte_2(self):
        with pytest.raises(ParseError) as err:
            parse_facts("a triangle drawn freehand")
        assert err.value.offset == 2
        assert "(" in err.value.expected

    def test_offsets_are_bytes_not_chars(self):
        # the theta occupies two UTF-8 bytes but one character
        with pytest.raises(ParseError) as err:
            parse_facts("Angle(θ, 45)")
        assert err.value.offset == 6
        with pytest.raises(ParseError) as err2:
            parse_facts("Angle(θθ(")
        assert err2.value.offset == 6

    @pytest.mark.parametrize(
        "text",
        [
            "Line(AB",
            "Line AB, 5)",
            "Line(AB,)",
            "(A, B)",
            "Line(AB, 5)) ",
            "Line(AB, 5), ",
            "Line(,5)",
            "5(A)",
        ],
    )
    def test_malformed_inputs_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_facts(text)

    def test_error_reports_expected_set_and_found(self):
        with pytest.raises(ParseError) as err:
            parse_facts("Line(AB")
        assert err.value.expected == frozenset({",", ")"}) or err.value.expected == frozenset({")"})
        assert "end of input" in str(err.value)


idents = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
numbers = st.one_of(
    st.integers(0, 99999).map(lambda n: Number(Decimal(n))),
    # leading zeros reach values below 1e-6, which str(Decimal) would write with an exponent
    st.tuples(st.integers(0, 999), st.integers(0, 12), st.integers(0, 10**12)).map(
        lambda t: Number(Decimal(f"{t[0]}.{'0' * t[1]}{t[2]}").normalize())
    ),
)
args = st.one_of(idents.map(Symbol), numbers)
facts_strategy = st.lists(
    st.builds(
        GeometryFact,
        predicate=idents,
        args=st.lists(args, min_size=1, max_size=5).map(tuple),
    ),
    max_size=8,
).map(tuple)


class TestRoundTrip:
    @given(facts_strategy)
    @settings(max_examples=200)
    def test_parse_serialize_identity(self, facts):
        assert parse_facts(serialize_facts(facts)) == facts

    @given(facts_strategy)
    def test_serialize_is_canonical_fixed_point(self, facts):
        text = serialize_facts(facts)
        assert serialize_facts(parse_facts(text)) == text

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("Angle(A, 0.0000001)", "Angle(A, 0.0000001)"),
            ("Angle(A, 0.0000000)", "Angle(A, 0)"),
            ("Line(AB, 120.000000000)", "Line(AB, 120)"),
        ],
    )
    def test_small_and_zero_decimals_stay_fixed_point(self, text, canonical):
        assert serialize_facts(parse_facts(text)) == canonical
        assert parse_facts(canonical) == parse_facts(text)

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_parse_is_total_up_to_parse_error(self, text):
        try:
            result = parse_facts(text)
        except ParseError:
            return
        assert isinstance(result, tuple)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokenizer as one match call per token: what formal_language._tokenize must equal."""
    tokens = []
    pos = 0
    while (m := formal_language._TOKEN_RE.match(text, pos)) is not None:
        kind = m.lastgroup
        tokens.append((formal_language._TOKEN_KINDS[kind], m.group(kind), m.start(kind)))
        pos = m.end()
    stray = formal_language._NON_SPACE_RE.search(text, pos)
    if stray is not None:
        raise ParseError(
            formal_language._byte_offset(text, stray.start()),
            frozenset(formal_language._TOKEN_KINDS.values()),
            repr(stray.group()),
        )
    return tokens + [("EOF", "", len(text))]


def tokenized(tokenize, text: str):
    """tokenize's tokens for text, or the offset, expected set and found of its ParseError."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.offset, exc.expected, exc.found


# the grammar's characters, stray ones, and the Unicode spaces and digits that \s and \d match
TOKEN_CHARS = (
    list("ABLinexyz_0159.,() \t\n#-+é")
    + ["\u00a0", "\u2003", "\u3000", "\u0663", "\u096d", "\uff11"]
)
TOKEN_PIECES = ["Line", "AB", "(", ")", ",", "12", "4.5", "7.", ".5", " ", "\u2003", "\u0663",
                "#", "é"]


class TestTokenize:
    @given(st.one_of(
        st.text(alphabet=st.sampled_from(TOKEN_CHARS), max_size=40),
        st.lists(st.sampled_from(TOKEN_PIECES), max_size=16).map("".join),
    ))
    @settings(max_examples=400)
    def test_tokens_and_errors_match_the_reference(self, text):
        assert tokenized(formal_language._tokenize, text) == tokenized(reference_tokenize, text)


class TestArity:
    def test_default_table_matches_documented_predicates(self):
        assert DEFAULT_ARITY["Triangle"] == 3
        assert DEFAULT_ARITY["Point"] == 1
        assert DEFAULT_ARITY["Angle"] == 2

    def test_violations_found(self):
        facts = parse_facts("Triangle(A, B), Point(A, B), Line(AB, 5)")
        violations = validate_arity(facts)
        assert [(v.fact_index, v.predicate, v.expected, v.actual) for v in violations] == [
            (0, "Triangle", 3, 2),
            (1, "Point", 1, 2),
        ]

    def test_unknown_predicates_pass(self):
        facts = parse_facts("Pentagon(A, B, C, D, E)")
        assert validate_arity(facts) == []

    @given(facts_strategy)
    def test_matches_naive_recheck(self, facts):
        naive = [
            i
            for i, f in enumerate(facts)
            if f.predicate in DEFAULT_ARITY and len(f.args) != DEFAULT_ARITY[f.predicate]
        ]
        assert [v.fact_index for v in validate_arity(facts)] == naive


class TestLatexCorpus:
    def test_corpus_size(self):
        assert len(LATEX_CASES) == 51

    @pytest.mark.parametrize("case", LATEX_CASES, ids=lambda c: c["text"][:34])
    def test_labeled_case(self, case):
        report = check_latex_table(case["text"])
        messages = [f.message for f in report.findings]
        assert report.ok == case["ok"], messages
        assert report.columns == case["columns"]
        assert len(report.findings) == case["n_findings"], messages
        for sub in case["findings"]:
            assert any(sub in m for m in messages), (sub, messages)
        if "environments" in case:
            assert report.environments == case["environments"]

    def test_findings_sorted_by_offset(self):
        text = r"\begin{tabular}{ccc} a & b & c \\ 1 & 2 \\ 3 \end{tabular}"
        report = check_latex_table(text)
        offsets = [f.offset for f in report.findings]
        assert offsets == sorted(offsets)

    def test_ok_iff_no_findings(self):
        for case in LATEX_CASES:
            report = check_latex_table(case["text"])
            assert report.ok == (not report.findings)

    @given(st.text(alphabet="\\begin{}tabular&end \n", max_size=80))
    @settings(max_examples=300)
    def test_checker_is_total(self, text):
        report = check_latex_table(text)
        assert isinstance(report.ok, bool)


def load_make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", REPO / "scripts" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPhase2ReadersFixture:
    """tests/fixtures/phase2_readers.json: seeded fuzzed replies and what each reader made of them."""

    CASES = load_corpus("phase2_readers.json")

    @pytest.mark.parametrize("reader", ["facts", "latex", "type"])
    def test_replays(self, reader):
        read = load_make_fixtures().READERS[reader]
        cases = [c for c in self.CASES if c["reader"] == reader]
        assert len(cases) >= 200
        mismatches = [c["text"] for c in cases if read(c["text"]) != c["result"]]
        assert mismatches == []

    def test_the_generator_rewrites_it_byte_for_byte(self):
        fixture = (FIXTURES / "phase2_readers.json").read_bytes()
        assert load_make_fixtures().phase2_readers_json().encode("ascii") == fixture
