"""The one line reader behind every text format the package reads.

In every format a line whose first token starts with `#` is a comment;
DIMACS also skips its `c` lines.  A tagged format (DIMACS, mcol, vsi)
names the shape of each line it allows, such as `"e U V"`, header first;
the header is the first line and appears once.
"""

from __future__ import annotations

from typing import IO, Iterator


def text_lines(
    fp: IO[str], shapes: tuple[str, ...] = (), skip: str | None = None
) -> Iterator[list[str]]:
    """Tokens of each line of fp that is not blank, a comment or tagged
    skip, one line at a time.  With shapes, each line needs a listed tag
    and its shape's field count, and shapes[0] is the header: the first
    line must fit it, lowercase words included, and no later line may
    carry its tag.  Anything else is a ValueError."""
    shape = {s.split()[0]: s for s in shapes}
    fields = {tag: len(s.split()) for tag, s in shape.items()}
    lines = iter(fp)
    if shapes:
        head = shapes[0].split()
        tok = next(text_lines(lines, skip=skip), None)
        if tok is None:
            raise ValueError(f"missing '{shapes[0]}' line")
        if len(tok) != len(head) or any(w.islower() and w != t for w, t in zip(head, tok)):
            raise misfit(shapes[0], tok)
        del fields[head[0]]
        yield tok
    for line in lines:
        tok = line.split()
        if not tok or tok[0][0] == "#" or tok[0] == skip:
            continue
        if fields and len(tok) != fields.get(tok[0]):
            if tok[0] not in shape:
                raise ValueError(f"unrecognized line {' '.join(tok)!r}")
            if tok[0] not in fields:
                raise ValueError(f"second '{tok[0]}' line")
            raise misfit(shape[tok[0]], tok)
        yield tok


def misfit(shape: str, tok: list[str]) -> ValueError:
    return ValueError(f"expected '{shape}' line, got {' '.join(tok)!r}")
