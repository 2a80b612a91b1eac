"""Line counts of the package's modules: total and code lines.

    python tools/counts.py [SRC_DIR]

For each module of ``src/transport_nare`` (or of SRC_DIR) prints its total
lines and its code lines, then the sums.  A code line is a physical line
that holds a token of a statement: blank lines, comment-only lines and
docstrings (a string literal standing alone as a statement) do not count,
and a statement or literal spread over several lines counts each of them.
It runs by hand, not under pytest.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "transport_nare"

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    """The number of physical lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    src = Path(argv[0]) if argv else SRC
    total = code = 0
    print("%-24s %6s %6s" % ("module", "lines", "code"))
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        n, c = len(source.splitlines()), code_lines(source)
        total, code = total + n, code + c
        print("%-24s %6d %6d" % (path.name, n, c))
    print("%-24s %6d %6d" % ("total", total, code))


if __name__ == "__main__":
    main(sys.argv[1:])
