"""The one line reader behind every text format the package reads.

In every format a line whose first token starts with `#` is a comment;
DIMACS also skips its `c` lines.  A tagged format (DIMACS, mcol, vsi)
names the shape of each line it allows, such as `"e U V"`.
"""

from __future__ import annotations

from typing import IO, Iterator


def text_lines(
    fp: IO[str], shapes: tuple[str, ...] = (), skip: str | None = None
) -> Iterator[list[str]]:
    """Tokens of each line of fp that is not blank, a comment or tagged
    skip, one line at a time; with shapes, a line whose tag is not one of
    theirs or whose field count differs from its shape's is a ValueError."""
    shape = {s.split()[0]: s for s in shapes}
    fields = {tag: len(s.split()) for tag, s in shape.items()}
    for line in fp:
        tok = line.split()
        if not tok or tok[0][0] == "#" or tok[0] == skip:
            continue
        if fields and len(tok) != fields.get(tok[0]):
            if tok[0] in shape:
                raise misfit(shape[tok[0]], tok)
            raise ValueError(f"unrecognized line {' '.join(tok)!r}")
        yield tok


def misfit(shape: str, tok: list[str]) -> ValueError:
    return ValueError(f"expected '{shape}' line, got {' '.join(tok)!r}")
