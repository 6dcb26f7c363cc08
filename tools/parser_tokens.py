"""Print the parser-token count of each Python file named on the command line,
and its headroom below the next step.

    python3 tools/parser_tokens.py src/dwellgain/*.py

A token is one of `tokenize`'s, comments and blank-line NL tokens left out:
what the compiler's parser reads.  The parser's token array grows by
doubling, and peak memory at import was seen to step when a module crossed
4,096 or 8,192 such tokens.  Each line reads

    <tokens> <headroom> below <step> <path>

where step is the first of 4,096, 8,192, 16,384, ... above the count, so a
log that prints these lines shows a crossing, and how close each module is
to the next one.
"""

import sys
import tokenize


def parser_tokens(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.generate_tokens(fh.readline))


def next_step(count: int) -> int:
    """The first of 4,096, 8,192, 16,384, ... above count."""
    step = 4096
    while step <= count:
        step *= 2
    return step


if __name__ == "__main__":
    for path in sys.argv[1:]:
        count = parser_tokens(path)
        step = next_step(count)
        print(f"{count:8d} {step - count:6d} below {step:5d} {path}")
