"""The README's library quick tour runs as printed: every expression line
with a trailing comment gives the value the comment shows."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def quick_tour() -> str:
    match = re.search(r"## Library quick tour\s+```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no python quick-tour block"
    return match.group(1)


def test_readme_quick_tour_runs_as_shown():
    source = quick_tour()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = comments.get(stmt.end_lineno)
        if not isinstance(stmt, ast.Expr) or comment is None:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        # a comment is a Python literal compared by equality, or else the
        # text the value prints as
        want = comment
        if not isinstance(value, str):
            try:
                want = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                value = str(value)
        assert value == want, (code, comment)
        checked += 1
    assert checked >= 8
