"""Print the parser-token count of each Python file named on the command line.

    python3 tools/parser_tokens.py src/dwellgain/*.py

A token is one of `tokenize`'s, comments and blank-line NL tokens left out:
what the compiler's parser reads.  The parser's token array grows by
doubling, and peak memory at import was seen to step when a module crossed
4,096 or 8,192 such tokens; a log that prints these counts shows a crossing.
"""

import sys
import tokenize


def parser_tokens(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.generate_tokens(fh.readline))


if __name__ == "__main__":
    for path in sys.argv[1:]:
        print(f"{parser_tokens(path):8d} {path}")
