"""Snippet generation: units -> snippets (FUNC + WIN), with docstring
normalization.

Reference semantics reproduced:
* ``normalize_source`` / ``strip_docstrings``: AST round-trip replacing
  leading string-constant statements of Module / FunctionDef /
  AsyncFunctionDef bodies with ``pass``, then ``ast.unparse`` (which
  also normalizes formatting/quotes); unparseable text returned
  verbatim (reference snippets/normalization.py:6-37).
* FUNC snippet per unit with hash recipe
  ``FUNC:{path}:{start}:{end}:{code_hash}``
  (reference snippets/generators.py:34-50).
* WIN sliding windows of ``window_lines`` step ``stride_lines`` over
  the unit's code lines, kept when >= ``min_nonempty`` non-blank lines;
  hash recipe includes kind/path/function-span/code-hash/window-span/
  normalized text (reference snippets/generators.py:17-31,53-74).
* FUNC snippets are generated for python units only; WIN windows for
  every unit (reference core/pipeline.py:143-165).

Each text is parsed at most once: the FUNC text is the unit's
``func_text``, which ``stages/extract`` normalized from the file's AST
(``strip_docstring_nodes``), a window spanning the whole unit reuses
it, and a window that opens with an indented token is verbatim without
a parse (its parse always raises "unexpected indent").
``normalize_source`` stays the definition of every text
(tests/test_extract_snippets.py compares against it).

Engine shape: stateless flat-map, ``map_batches(generate_snippets_batch,
batch_format="pyarrow")`` — 1 unit row -> 1 FUNC row + K WIN rows.
"""

from __future__ import annotations

import ast
import re

import pyarrow as pa

from clonehunter_ray.config import WindowConfig
from clonehunter_ray.functions.hashing import sha256_hex

SNIPPETS_SCHEMA = pa.schema(
    [
        ("snippet_id", pa.string()),
        ("kind", pa.string()),  # FUNC | WIN | EXP
        ("unit_id", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("qualified_name", pa.string()),
        ("unit_start", pa.int32()),
        ("unit_end", pa.int32()),
        ("start_line", pa.int32()),
        ("end_line", pa.int32()),
        ("text", pa.string()),
    ]
)


def strip_docstring_nodes(root: ast.AST) -> ast.AST:
    """``root`` with ``strip_docstrings``' rule applied to its subtree in
    place: the leading string-constant statement of every Module /
    FunctionDef / AsyncFunctionDef body becomes ``pass``.

    Traverses STATEMENT lists only (function defs can never live inside
    an expression), instead of ``ast.walk`` visiting every expression
    node, and copies the replaced docstring's location onto the
    inserted ``Pass`` instead of a whole-tree ``fix_missing_locations``
    pass — measured 2.6x on the per-snippet normalize."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body:
                first = body[0]
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    body[0] = ast.copy_location(ast.Pass(), first)
        for attr in ("body", "orelse", "finalbody", "handlers"):
            children = getattr(node, attr, None)
            if children:
                stack.extend(children)
        cases = getattr(node, "cases", None)  # match statements
        if cases:
            stack.extend(cases)
    return root


def strip_docstrings(source: str) -> str:
    """Docstring-strip + format normalization via AST round-trip
    (reference snippets/normalization.py:6-31 semantics); unparseable
    text is returned verbatim."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return source
    return ast.unparse(strip_docstring_nodes(tree))


# per-process memo: clone-heavy corpora repeat snippet texts verbatim,
# and the AST round-trip is ~2 ms a call; bounded so a worker holds at
# most ~tens of MB of normalized text
_NORM_CACHE: dict[str, str] = {}
_NORM_CACHE_MAX = 20_000


def normalize_source(source: str) -> str:
    out = _NORM_CACHE.get(source)
    if out is None:
        out = strip_docstrings(source)
        if len(_NORM_CACHE) >= _NORM_CACHE_MAX:
            _NORM_CACHE.clear()
        _NORM_CACHE[source] = out
    return out


# text that opens with an indent and then a token: its first token is
# INDENT, so ``ast.parse`` raises "unexpected indent" and
# ``normalize_source`` returns it verbatim. A comment or a line end
# after the indent does not count toward indentation, ``\f`` resets the
# indent column and a backslash joins lines, so those go to the parse.
_INDENTED_TOKEN = re.compile(r"[ \t]+[^ \t#\\\f\r\n]")


def generate_snippets_batch(batch: pa.Table, window: WindowConfig) -> pa.Table:
    """units batch -> snippets batch (FUNC for python + WIN for all).

    Each text is normalized once: a unit's FUNC text is its
    ``func_text`` (``extract_python_units`` normalized it from the
    file's AST), which a WIN window spanning the whole unit reuses, and a window
    that opens with an indented token is verbatim without a parse."""
    window.validate()
    cols: dict[str, list] = {name: [] for name in SNIPPETS_SCHEMA.names}

    def emit(kind, sid, row, start, end, text):
        cols["snippet_id"].append(sid)
        cols["kind"].append(kind)
        cols["unit_id"].append(row["unit_id"])
        cols["repo"].append(row["repo"])
        cols["path"].append(row["path"])
        cols["qualified_name"].append(row["qualified_name"])
        cols["unit_start"].append(row["start_line"])
        cols["unit_end"].append(row["end_line"])
        cols["start_line"].append(start)
        cols["end_line"].append(end)
        cols["text"].append(text)

    for row in batch.to_pylist():
        code = row["code"]
        fn_start, fn_end = row["start_line"], row["end_line"]
        path, code_hash = row["path"], row["code_hash"]
        func_text = None
        if row["lang"] == "python":
            # FUNC snippet (reference generators.py:34-50)
            func_text = row["func_text"]
            sid = sha256_hex(f"FUNC:{path}:{fn_start}:{fn_end}:{code_hash}")
            emit("FUNC", sid, row, fn_start, fn_end, func_text)
        # WIN windows (reference generators.py:53-74)
        lines = code.splitlines()
        if not lines:
            continue
        idx = 0
        while idx < len(lines):
            start = idx + 1
            end = min(idx + window.window_lines, len(lines))
            window_lines = lines[start - 1 : end]
            nonempty = sum(1 for line in window_lines if line.strip())
            if nonempty >= window.min_nonempty:
                snippet_text = "\n".join(window_lines)
                if func_text is not None and snippet_text == code:
                    normalized = func_text
                elif _INDENTED_TOKEN.match(snippet_text):
                    normalized = snippet_text
                else:
                    normalized = normalize_source(snippet_text)
                sid = sha256_hex(
                    f"WIN:{path}:{fn_start}:{fn_end}:{code_hash}:{start}:{end}:{normalized}"
                )
                emit(
                    "WIN",
                    sid,
                    row,
                    fn_start + start - 1,
                    fn_start + end - 1,
                    normalized,
                )
            idx += window.stride_lines
    return pa.Table.from_pydict(cols, schema=SNIPPETS_SCHEMA)
