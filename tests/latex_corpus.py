"""Hand-labeled corpus for the LaTeX table checker.

Each case records the expected verdict, the column count the checker
should derive (None when no clean outer table exists), the exact number
of findings, and substrings that must appear among the finding messages.
Labels follow the checker's documented semantics, quirks included: only
outermost tabular-like environments get row analysis (case 25), and a
clean-rowed table still yields a column count when an unrelated brace
finding fails the verdict (cases 21, 47, 50).
"""

CASES = [
    # --- well-formed tables -------------------------------------------------
    {
        "text": "\\begin{tabular}{cc}\na & b \\\\\n1 & 2 \\\\\n\\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{array}{cc} x & y \\ 1 & 2 \end{array}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{longtable}{ccc} a & b & c \\ 1 & 2 & 3 \end{longtable}",
        "ok": True, "columns": 3, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabularx}{\textwidth}{ccc} a & b & c \\ 1 & 2 & 3 \end{tabularx}",
        "ok": True, "columns": 3, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular*}{10cm}{cc} a & b \\ 1 & 2 \end{tabular*}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{c} a \\ b \end{tabular}",
        "ok": True, "columns": 1, "n_findings": 0, "findings": [],
    },
    {
        "text": "\\begin{tabular}{|c|c|}\n\\hline\na & b \\\\\n\\hline\n1 & 2 \\\\\n\\hline\n\\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": "\\begin{tabular}{cc}\n\\toprule\na & b \\\\\n\\midrule\n1 & 2 \\\\\n\\bottomrule\n\\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\ \cline{1-2} 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\ 1 & 2 \\ \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc}\end{tabular}",
        "ok": True, "columns": None, "n_findings": 0, "findings": [],
    },
    # --- missing or broken environments -------------------------------------
    {
        "text": r"a & b \\ 1 & 2",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["no tabular-like environment found"],
    },
    {
        "text": "The table shows three columns of data.",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["no tabular-like environment found"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\ 1 & 2",
        "ok": False, "columns": None, "n_findings": 2,
        "findings": ["unclosed \\begin{tabular}", "no tabular-like environment found"],
    },
    {
        "text": r"\end{tabular}",
        "ok": False, "columns": None, "n_findings": 2,
        "findings": ["\\end{tabular} without matching \\begin",
                     "no tabular-like environment found"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\ \end{array}",
        "ok": False, "columns": None, "n_findings": 2,
        "findings": ["\\end{array} closes \\begin{tabular}",
                     "no tabular-like environment found"],
    },
    # --- ragged rows ---------------------------------------------------------
    {
        "text": "\\begin{tabular}{cc}\na & b \\\\\n1 & 2 & 3 \\\\\n\\end{tabular}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["tabular row has 3 cells, expected 2"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\ 1 & 2 \\ x \\ 3 & 4 \end{tabular}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["tabular row has 1 cells, expected 2"],
    },
    {
        "text": r"\begin{tabular}{ccc} a & b & c \\ 1 & 2 \\ 3 \end{tabular}",
        "ok": False, "columns": None, "n_findings": 2,
        "findings": ["row has 2 cells, expected 3", "row has 1 cells, expected 3"],
    },
    # --- brace problems ------------------------------------------------------
    {
        "text": r"\begin{tabular}{cc a & b \\ 1 & 2 \\ \end{tabular}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["unmatched '{'"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b} \\ 1 & 2 \end{tabular}",
        "ok": False, "columns": 2, "n_findings": 1,
        "findings": ["unmatched '}'"],
    },
    {
        "text": r"\begin{tabular}{cc} \{a\} & b \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} a \& b & c \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    # --- nesting -------------------------------------------------------------
    {
        "text": r"\begin{tabular}{cc} a & \begin{tabular}{ccc} p & q & r \end{tabular} \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["tabular", "tabular"],
    },
    {
        # nested table bodies are cell content; their rows are not checked
        "text": r"\begin{tabular}{cc} a & \begin{tabular}{cc} p & q \\ x \end{tabular} \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": "\\begin{tabular}{cc} a & b \\end{tabular}\n\\begin{tabular}{ccc} 1 & 2 & 3 \\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["tabular", "tabular"],
    },
    {
        "text": "\\begin{tabular}{cc} a & b \\\\ 1 \\end{tabular}\n\\begin{tabular}{ccc} 1 & 2 & 3 \\end{tabular}",
        "ok": False, "columns": 3, "n_findings": 1,
        "findings": ["tabular row has 1 cells, expected 2"],
    },
    {
        "text": r"\begin{array}{cc} x & y \end{array} and \begin{tabular}{c} z \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["array", "tabular"],
    },
    {
        "text": r"\begin{center}\begin{tabular}{cc} a & b \\ 1 & 2 \end{tabular}\end{center}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["tabular", "center"],
    },
    {
        "text": r"\begin{table}\begin{tabular}{cc} a & b \end{tabular}\end{table}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["tabular", "table"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \begin{center} \\ 1 & 2 \end{tabular} \end{center}",
        "ok": False, "columns": None, "n_findings": 3,
        "findings": ["\\end{tabular} closes \\begin{center}",
                     "\\end{center} closes \\begin{tabular}",
                     "no tabular-like environment found"],
    },
    {
        "text": r"\begin{TABULAR}{cc} a & b \end{TABULAR}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["no tabular-like environment found"],
        "environments": ["TABULAR"],
    },
    # --- realistic cell content ----------------------------------------------
    {
        "text": r"\begin{tabular}{cc} \multirow{2}{*}{a} & b \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{array}{cc} x^2 & \frac{1}{2} \\ 1 & 2 \end{array}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": "% intro\n\\begin{tabular}{cc} a & b \\\\ 1 & 2 \\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": "Here is the table:\n\\begin{tabular}{cc} a & b \\end{tabular}\nDone.",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": "\\begin{tabular}{cc}\n\na & b \\\\\n\n1 & 2\n\n\\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cccc} a & b & c & d \\ 1 & 2 & 3 & 4 \end{tabular}",
        "ok": True, "columns": 4, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{ccc} a & b & c \end{tabular}",
        "ok": True, "columns": 3, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{longtable}[c]{cc} a & b \\ 1 & 2 \end{longtable}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} a & \begin{array}{c} x \\ 1 & 2 \end{tabular}",
        "ok": False, "columns": None, "n_findings": 3,
        "findings": ["\\end{tabular} closes \\begin{array}",
                     "unclosed \\begin{tabular}",
                     "no tabular-like environment found"],
    },
    {
        "text": r"\begin{tabular}{cc} a & b \\\\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} & \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{ccc} a & b & c \\ 1 & 2 3 \end{tabular}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["tabular row has 2 cells, expected 3"],
    },
    {
        "text": "x & y\n\\begin{tabular}{cc} a & b \\end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\end{tabular}\end{array}",
        "ok": False, "columns": None, "n_findings": 3,
        "findings": ["\\end{tabular} without matching \\begin",
                     "\\end{array} without matching \\begin",
                     "no tabular-like environment found"],
    },
    {
        "text": r"{ \begin{tabular}{cc} a & b \end{tabular}",
        "ok": False, "columns": 2, "n_findings": 1,
        "findings": ["unmatched '{'"],
    },
    {
        "text": r"\begin{tabular}{c} a\&b \\ c \end{tabular}",
        "ok": True, "columns": 1, "n_findings": 0, "findings": [],
    },
    {
        "text": r"\begin{tabular}{cc} a & \begin{center} x & y \end{center} \\ 1 & 2 \end{tabular}",
        "ok": True, "columns": 2, "n_findings": 0, "findings": [],
        "environments": ["center", "tabular"],
    },
    {
        "text": r"\begin{tabular}cc} a & b \end{tabular}",
        "ok": False, "columns": 2, "n_findings": 1,
        "findings": ["unmatched '}'"],
    },
    {
        # the {..} group after \begin skips "\\" as an escape and runs past the body
        "text": r"\begin{tabular}{c\\end{tabular}",
        "ok": False, "columns": None, "n_findings": 1,
        "findings": ["unmatched '{'"],
        "environments": ["tabular"],
    },
]
