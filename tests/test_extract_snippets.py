"""Unit tests for extraction and snippet generation (reference-parity
semantics, no Ray needed — they run on plain Arrow tables)."""

import pyarrow as pa
import pytest

from clonehunter_ray.config import WindowConfig
from clonehunter_ray.stages.extract import (
    extract_python_units,
    extract_text_unit,
    extract_units_batch,
)
from clonehunter_ray.stages.snippets import (
    generate_snippets_batch,
    normalize_source,
    strip_docstrings,
)

PY_SRC = '''"""module doc"""


def top(a):
    return a + 1


class Box:
    def method(self):
        return 2

    class Inner:
        def deep(self):
            return 3


async def coro():
    pass
'''


def _files_batch(rows):
    return pa.Table.from_pydict(
        {
            "repo": [r.get("repo", "r") for r in rows],
            "path": [r["path"] for r in rows],
            "commit": [r.get("commit", "c" * 40) for r in rows],
            "lang": [r.get("lang") for r in rows],
            "content": [r["content"] for r in rows],
        }
    )


def test_python_qualified_names_and_spans():
    units = extract_python_units("m.py", PY_SRC)
    names = [u["qualified_name"] for u in units]
    # nested names via class/function stack (reference python_ast.py:24-67)
    assert names == ["top", "Box.method", "Box.Inner.deep", "coro"]
    top = units[0]
    assert top["start_line"] == 4 and top["end_line"] == 5
    assert top["code"] == "def top(a):\n    return a + 1"


def test_python_syntax_error_yields_zero_units():
    assert extract_python_units("bad.py", "def broken(:\n  pass") == []


# every place a def can sit, nested in each other
WALK_SRC = """\
import os


def outer(a=lambda x: x + 1, *, b=(lambda: 0)):
    if a:
        def in_if():
            pass
    elif b:
        def in_elif():
            pass
    else:
        def in_else():
            pass
    for i in range(3):
        def in_for():
            pass
    else:
        def in_for_else():
            pass
    while False:
        def in_while():
            pass
    else:
        def in_while_else():
            pass
    class Local:
        def method(self):
            def inner():
                return lambda: 1
            return inner

    return Local


@decorator
@other(1)
async def decorated(x):
    try:
        def in_try():
            pass
    except ValueError:
        def in_except():
            pass
    except (KeyError, TypeError) as e:
        class InExcept:
            async def m(self):
                pass
    else:
        def in_try_else():
            pass
    finally:
        def in_finally():
            pass
    try:
        pass
    except* OSError:
        def in_except_star():
            pass
    with open(x) as f:
        def in_with():
            pass
    async with x as y:
        async def in_async_with():
            pass
    async for z in y:
        def in_async_for():
            pass
    match x:
        case [1, *rest] if rest:
            def in_case():
                pass
        case {"k": v}:
            class InCase:
                def m(self):
                    pass
        case _:
            def in_default():
                pass


class A(Base, metaclass=Meta):
    x = [lambda: 0 for _ in range(2)]

    @property
    def p(self):
        def q():
            pass
        return q

    class B:
        if True:
            def c(self):
                pass


if __name__ == "__main__":
    def main():
        pass
"""


def _reference_units(path: str, source: str) -> list[dict]:
    """The reference's walk (parsing/python_ast.py:24-67): every child
    of every node, expressions included — the oracle for
    extract_python_units' statement-only walk; ``func_text`` is
    ``normalize_source(code)``, the FUNC text's oracle."""
    import ast

    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError):
        return []
    lines = source.splitlines()
    out: list[dict] = []
    stack: list[str] = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = child.lineno
                end = child.end_lineno
                code = "\n".join(lines[start - 1 : end])
                out.append(
                    {
                        "qualified_name": ".".join([*stack, child.name]),
                        "start_line": start,
                        "end_line": end,
                        "code": code,
                        "func_text": normalize_source(code),
                    }
                )
                stack.append(child.name)
                visit(child)
                stack.pop()
            elif isinstance(child, ast.ClassDef):
                stack.append(child.name)
                visit(child)
                stack.pop()
            else:
                visit(child)

    visit(tree)
    return out


@pytest.mark.parametrize(
    "source",
    [WALK_SRC, PY_SRC, "def broken(:\n  pass", "", "x = 1\n"],
    ids=["every-block", "nested-classes", "syntax-error", "empty", "no-defs"],
)
def test_statement_walk_matches_reference_walk(source):
    want = _reference_units("m.py", source)
    assert extract_python_units("m.py", source) == want
    if source is WALK_SRC:
        assert [u["qualified_name"] for u in want] == [
            "outer",
            *(
                f"outer.{n}"
                for n in (
                    "in_if", "in_elif", "in_else", "in_for", "in_for_else",
                    "in_while", "in_while_else", "Local.method",
                    "Local.method.inner",
                )
            ),
            "decorated",
            *(
                f"decorated.{n}"
                for n in (
                    "in_try", "in_except", "InExcept.m", "in_try_else",
                    "in_finally", "in_except_star", "in_with",
                    "in_async_with", "in_async_for", "in_case", "InCase.m",
                    "in_default",
                )
            ),
            "A.p",
            "A.p.q",
            "A.B.c",
            "main",
        ]


def test_statement_walk_matches_reference_walk_on_corpus(tiny_corpus):
    files, _ = tiny_corpus
    n = 0
    for path, content in zip(
        files["path"].to_pylist(), files["content"].to_pylist()
    ):
        if path.endswith(".py") and content is not None:
            want = _reference_units(path, content)
            assert extract_python_units(path, content) == want, path
            n += len(want)
    assert n > 0


def test_text_unit_whole_file_and_blank_dropped():
    assert extract_text_unit("a.txt", "  \n \n") == []
    u = extract_text_unit("dir/a.txt", "x\ny\nz\n")
    assert u[0]["qualified_name"] == "a.txt"
    assert u[0]["start_line"] == 1 and u[0]["end_line"] == 3


def test_extract_units_batch_flatmap_and_lang_fallback():
    batch = _files_batch(
        [
            {"path": "a.py", "content": PY_SRC, "lang": None},
            {"path": "b.js", "content": "var x = 1;\n", "lang": None},
        ]
    )
    units = extract_units_batch(batch)
    langs = set(units["lang"].to_pylist())
    assert langs == {"python", "text"}
    assert units.num_rows == 5  # 4 python functions + 1 text unit
    # unit identity format (reference core/types.py:27-29)
    assert units["unit_id"][0].as_py() == "a.py:top:4:5"


def test_strip_docstrings_semantics():
    src = 'def f():\n    """doc"""\n    return 1\n'
    out = strip_docstrings(src)
    assert '"""doc"""' not in out
    assert "pass" in out  # docstring replaced by pass, not removed
    assert "return 1" in out
    # unparseable text passes through verbatim
    frag = "    if x:\n        y += 1"
    assert normalize_source(frag) == frag
    # module docstring also stripped
    mod = '"""m"""\nx = 1\n'
    out2 = strip_docstrings(mod)
    assert '"""m"""' not in out2


def test_docstring_variants_normalize_equal():
    a = 'def f(x):\n    """one"""\n    return x * 2\n'
    b = 'def f(x):\n    "completely different"\n    return x * 2\n'
    assert normalize_source(a) == normalize_source(b)


def _units_for(src, path="m.py", lang="python"):
    return extract_units_batch(_files_batch([{"path": path, "content": src, "lang": lang}]))


def test_func_snippets_python_only():
    units = _units_for(PY_SRC)
    snips = generate_snippets_batch(units, WindowConfig(12, 6, 1))
    kinds = snips["kind"].to_pylist()
    assert kinds.count("FUNC") == 4
    t_units = _units_for("line1\nline2\nline3\nline4\nline5\n", "a.txt", "text")
    t_snips = generate_snippets_batch(t_units, WindowConfig(12, 6, 1))
    assert "FUNC" not in t_snips["kind"].to_pylist()  # text: windows only


def test_window_generation_stride_and_min_nonempty():
    code = "\n".join(f"l{i} = {i}" for i in range(1, 21))  # 20 lines
    units = _units_for("def f():\n    pass\n", "x.txt", "text")
    # build a fake unit directly for precise control
    unit = pa.Table.from_pydict(
        {
            "unit_id": ["u"],
            "repo": ["r"],
            "path": ["x.txt"],
            "commit": ["c"],
            "lang": ["text"],
            "qualified_name": ["x.txt"],
            "start_line": [1],
            "end_line": [20],
            "code": [code],
            "code_hash": ["h"],
        }
    )
    snips = generate_snippets_batch(unit, WindowConfig(12, 6, 4))
    spans = [
        (s, e)
        for s, e in zip(
            snips["start_line"].to_pylist(), snips["end_line"].to_pylist()
        )
    ]
    # windows at idx 0,6,12 -> [1,12],[7,18],[13,20]; [19,20] dropped (<4 nonempty)
    assert spans == [(1, 12), (7, 18), (13, 20)]


def test_window_params_validated():
    unit = pa.Table.from_pydict(
        {
            "unit_id": ["u"], "repo": ["r"], "path": ["p"], "commit": ["c"],
            "lang": ["text"], "qualified_name": ["q"], "start_line": [1],
            "end_line": [1], "code": ["x"], "code_hash": ["h"],
        }
    )
    with pytest.raises(ValueError):
        generate_snippets_batch(unit, WindowConfig(0, 6, 4))
    with pytest.raises(ValueError):
        generate_snippets_batch(unit, WindowConfig(12, 0, 4))


def test_window_line_numbers_offset_by_function_start():
    code = "\n".join(f"x{i} = {i}" for i in range(1, 15))
    unit = pa.Table.from_pydict(
        {
            "unit_id": ["u"], "repo": ["r"], "path": ["p"], "commit": ["c"],
            "lang": ["text"], "qualified_name": ["q"], "start_line": [100],
            "end_line": [113], "code": [code], "code_hash": ["h"],
        }
    )
    snips = generate_snippets_batch(unit, WindowConfig(12, 6, 4))
    # snippet lines are file-absolute (reference generators.py:26-27)
    assert snips["start_line"][0].as_py() == 100
    assert snips["end_line"][0].as_py() == 111


# top-level chunks of Python for the FUNC/WIN text oracle: decorated,
# async and nested defs, methods, class and nested docstrings,
# match/case, try/except*, tabs, continuation lines, and string
# bodies whose lines open windows with an indented comment, an indented
# token or a line at column 0
_FUZZ_PARTS = [
    '@decorator\n@other(1, k="v")\ndef decorated(a, b=2):\n'
    '    """doc"""\n    return a + b\n',
    'async def coro(x):\n    """doc"""\n    async with x as y:\n'
    "        await y\n    return [i async for i in x]\n",
    'def outer():\n    """outer doc"""\n    def inner():\n        "inner doc"\n'
    '        return 1\n    class Local:\n        """class doc stays"""\n'
    '        def m(self):\n            """method doc"""\n            return 2\n'
    "    return inner\n",
    'class Box:\n    """class doc"""\n\n    @staticmethod\n    def method(x):\n'
    '        """m doc"""\n        return x\n\n    async def amethod(self):\n'
    "        return 3\n",
    "def matcher(cmd):\n    match cmd:\n        case [x, y]:\n"
    '            """not a docstring"""\n            return x\n'
    '        case {"k": v}:\n            def in_case():\n'
    '                "case doc"\n                return v\n'
    "            return in_case\n        case _:\n            return None\n",
    "def trier():\n    try:\n        pass\n    except* ValueError:\n"
    '        def handler():\n            """h doc"""\n            return 1\n'
    "    return 0\n",
    'def tabbed(x):\n\t"""tab doc"""\n\tif x:\n\t\treturn 1\n\treturn 2\n',
    'def stringy():\n    s = """\n    # looks like a comment\nx = 1\ny = 2\n'
    '"""\n    t = """\n\n    \nz = 3\n        indented = 1\n"""\n    return s + t\n',
    "def cont(a,\n         b):\n    return a + \\\n        b\n",
    "def trailing():\n    return 1 \\\n\nafter = 2\n",
    "def commented():\n    # a comment\n\n    x = 1  # trailing\n    return x\n",
    "def one_liner(): return 1\n",
    "@property\ndef prop(self): return self._p\n",
    "x = [1,\n     2]\n",
]
_FUZZ_SEPARATORS = ["\n", "\n\n", "# comment\n", "\x0c\n"]


def _fuzz_files(n: int, seed: int) -> pa.Table:
    """``n`` files of randomly chosen parts and separators, with LF or
    CRLF line ends; every fourth one is a text file, whose windows are
    normalized as Python too."""
    import random

    rng = random.Random(seed)
    rows = []
    for i in range(n):
        parts = rng.sample(_FUZZ_PARTS, rng.randint(1, 5))
        seps = [rng.choice(_FUZZ_SEPARATORS) for _ in parts]
        src = "".join(p + s for p, s in zip(parts, seps))
        if rng.random() < 0.3:
            src = src.replace("\n", "\r\n")
        text = i % 4 == 3
        rows.append(
            {
                "path": f"f{i}.txt" if text else f"f{i}.py",
                "lang": "text" if text else "python",
                "content": src,
            }
        )
    return _files_batch(rows)


def _assert_texts_match_oracle(files: pa.Table, window: WindowConfig) -> dict:
    """Every FUNC and WIN text equals ``normalize_source`` of its code
    (the units' ``func_text`` too); returns how many snippets took each
    path."""
    import ast

    units = extract_units_batch(files)
    codes = dict(zip(units["unit_id"].to_pylist(), units["code"].to_pylist()))
    for code, func_text, lang in zip(
        units["code"].to_pylist(),
        units["func_text"].to_pylist(),
        units["lang"].to_pylist(),
    ):
        assert func_text == (normalize_source(code) if lang == "python" else None)
    seen = {"FUNC": 0, "WIN": 0, "verbatim": 0, "indented_parsed": 0}
    for row in generate_snippets_batch(units, window).to_pylist():
        code = codes[row["unit_id"]]
        if row["kind"] == "FUNC":
            text = code
        else:
            lo = row["start_line"] - row["unit_start"]
            text = "\n".join(
                code.splitlines()[lo : row["end_line"] - row["unit_start"] + 1]
            )
        assert row["text"] == normalize_source(text), (row["unit_id"], text)
        seen[row["kind"]] += 1
        seen["verbatim"] += row["text"] == text
        if text[:1] in (" ", "\t"):
            try:
                ast.parse(text)
                seen["indented_parsed"] += 1
            except SyntaxError:
                pass
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_func_and_win_text_equal_normalize_source_on_fuzzed_files(seed):
    """FUNC text comes from the file's AST and a window that opens with
    an indented token skips its parse; both must stay equal to the
    parse-and-unparse oracle ``normalize_source``, including decorated
    defs (decorators are not FUNC text), methods (verbatim), tabs, CRLF,
    form feeds and windows that open with a comment or blank line."""
    files = _fuzz_files(40, seed)
    for window in (WindowConfig(), WindowConfig(3, 1, 1)):
        seen = _assert_texts_match_oracle(files, window)
        assert seen["FUNC"] > 0 and seen["WIN"] > 0 and seen["verbatim"] > 0
    # the fuzzed windows include indented openers that parse
    assert seen["indented_parsed"] > 0


def test_func_and_win_text_equal_normalize_source_on_corpus(tiny_corpus):
    files, _ = tiny_corpus
    seen = _assert_texts_match_oracle(files, WindowConfig())
    assert seen["FUNC"] > 0 and seen["WIN"] > 0
