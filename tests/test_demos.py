"""Smoke test: each narrative script in demos/ and the README's quick-start run and say what they should."""

import ast
import io
import runpy
import tokenize
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"

EXPECTED = {
    "enumeration_tour.py": ["oxplow  (agrees with the geometric walk)",
                            "cantor         n=1..12: 1,1 1,2 2,1 1,3"],
    "tiling_tour.py": ["tiling:ramp:1+1x1+1:parity-diag  (ok)",
                       "1 2 4 5 3 13 6 14 7 16 15 10 17 8"],
    "transform_tour.py": ["1 1 2 1 2 3 1 2 3 4 1 2 3 4 5",
                          "111 112 121 113 122 211 114 123 212 131",
                          "segment-shift-angle k=1: A004739: match (100 terms, offset 1)"],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out
    assert "BROKEN" not in out and "mismatch" not in out


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


def _leading_literal(comment):
    """(True, value) if the comment's text opens with a Python literal, else (False, None).

    The literal is the first token (a number, a string, True, False or
    None, after an optional minus sign) or the first bracketed group.
    """
    text = comment.lstrip("#").strip()
    depth = 0
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.string in ("(", "[", "{"):
                depth += 1
            elif tok.string in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and tok.string == "-" and tok.start[1] == 0:
                continue
            if depth == 0:
                return True, ast.literal_eval(text[:tok.end[1]])
    except (ValueError, SyntaxError, tokenize.TokenError):
        pass
    return False, None


def test_readme_quick_start():
    # the README's python block runs statement by statement; a statement whose
    # last line has a comment that opens with a Python literal must be an
    # expression, and its value must equal that literal
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        is_literal, expected = _leading_literal(comments.get(node.end_lineno, ""))
        if not is_literal:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), ast.get_source_segment(block, node)
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == expected, ast.get_source_segment(block, node)
        checked += 1
    assert checked >= 10
