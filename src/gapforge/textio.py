"""The one line reader behind every text format the package reads.

In every format a line whose first token starts with `#` is a comment;
DIMACS also skips its `c` lines.  A tagged format (DIMACS, mcol, vsi)
names the shape of each line it allows, such as `"e U V"`, header first;
the header is the first line and appears once.  Every int field goes
through `int_fields`, which refuses a field longer than int() reads with
the format's malformed-line error.  An error quotes a refused line cut
short (`_quoted`), so it stays one short line.

`int_blocks` reads such a format in bulk, CHUNK characters at a time: a
chunk whose lines all have the canonical form `e 12 345\\n` matches one
regular expression and is parsed by numpy as one string, and any other
chunk goes through the same line rule as `text_lines`, line by line.
"""

from __future__ import annotations

import re
import sys
from typing import IO, Callable, Iterable, Iterator

import numpy as np

# characters per bulk read; a read ends at the first line end past it
CHUNK = 1 << 16
# digits of the longest field the bulk parse reads into an int64
_MAX_DIGITS = 18


def text_lines(
    fp: IO[str], shapes: tuple[str, ...] = (), skip: str | None = None
) -> Iterator[list[str]]:
    """Tokens of each line of fp that is not blank, a comment or tagged
    skip, one line at a time.  With shapes, each line needs a listed tag
    and its shape's field count, and shapes[0] is the header: the first
    line must fit it, lowercase words included, and no later line may
    carry its tag.  Anything else is a ValueError."""
    lines = iter(fp)
    if shapes:
        yield _header(lines, shapes[0], skip)
    yield from _body(lines, shapes, skip)


def int_blocks(
    fp: IO[str], shapes: tuple[str, str], skip: str | None = None
) -> Iterator[list[str] | list[int] | np.ndarray]:
    """text_lines(fp, shapes, skip) for a format of one header and body
    lines of shape shapes[1] (a one-letter tag and int fields), read in
    bulk.  Yields the header's tokens, then the fields after each body
    line's tag, in file order: one (lines, fields) int64 array per chunk
    of canonical lines, and a list of ints per line of any other chunk.
    A chunk is CHUNK characters and the rest of the line they end in; it
    is canonical when every line is the tag, then each field as one space
    and 1 to _MAX_DIGITS ASCII digits, then a newline, a form that passes
    text_lines' rule and that int() reads to the same values.  A line
    text_lines rejects, or a field int_fields rejects, raises the same
    ValueError once the lines before it are yielded."""
    tag, *fields = shapes[1].split()
    width = len(fields)
    # [0-9], not \d: int() reads other digits too, np.fromstring does not
    field = f" [0-9]{{1,{_MAX_DIGITS}}}"
    canonical = re.compile(f"(?:{tag}{field * width}\n)*")
    yield _header(iter(fp), shapes[0], skip)
    while text := fp.read(CHUNK) + fp.readline():
        if canonical.fullmatch(text):
            yield np.fromstring(text.replace(tag, " "), dtype=np.int64, sep=" ").reshape(-1, width)
        else:
            # split("\n"), not splitlines(): a file line ends only at \n
            for tok in _body(text.split("\n"), shapes, skip):
                yield int_fields(tok[1:], lambda: misfit(shapes[1], tok))


def _header(lines: Iterator[str], shape: str, skip: str | None) -> list[str]:
    head = shape.split()
    tok = next(_body(lines, (), skip), None)
    if tok is None:
        raise ValueError(f"missing '{shape}' line")
    if len(tok) != len(head) or any(w.islower() and w != t for w, t in zip(head, tok)):
        raise misfit(shape, tok)
    return tok


def _body(lines: Iterable[str], shapes: tuple[str, ...], skip: str | None) -> Iterator[list[str]]:
    """text_lines' rule for the lines after the header, whose tag may not
    appear again; with no shapes, only blank lines and comments go."""
    shape = {s.split()[0]: s for s in shapes}
    fields = {tag: len(s.split()) for tag, s in shape.items()}
    if shapes:
        del fields[shapes[0].split()[0]]
    for line in lines:
        tok = line.split()
        if not tok or tok[0][0] == "#" or tok[0] == skip:
            continue
        if fields and len(tok) != fields.get(tok[0]):
            if tok[0] not in shape:
                raise ValueError(f"unrecognized line {_quoted(tok)}")
            if tok[0] not in fields:
                raise ValueError(f"second '{tok[0]}' line")
            raise misfit(shape[tok[0]], tok)
        yield tok


def int_fields(fields: list[str], malformed: Callable[[], ValueError]) -> list[int]:
    """int() of each field.  A field of more characters than int() reads
    (sys.get_int_max_str_digits(), when set) raises malformed(), the
    format's error for its line, so every int read stays printable."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, fields), default=0) > limit:
        raise malformed()
    return list(map(int, fields))


def misfit(shape: str, tok: list[str]) -> ValueError:
    return ValueError(f"expected '{shape}' line, got {_quoted(tok)}")


# tokens, and characters of a token, that an error quotes of a line
_QUOTED_TOKENS = 20
_QUOTED_CHARS = 16


def _quoted(tok: list[str]) -> str:
    """The line's tokens, quoted for an error: a longer token is cut to
    its first _QUOTED_CHARS characters and a longer line to its first
    _QUOTED_TOKENS tokens, each cut marked with the full length, so the
    error stays one short line whatever the input."""
    shown = [
        t if len(t) <= _QUOTED_CHARS else f"{t[:_QUOTED_CHARS]}...[{len(t)} chars]"
        for t in tok[:_QUOTED_TOKENS]
    ]
    if len(tok) > _QUOTED_TOKENS:
        shown.append(f"...[{len(tok)} tokens]")
    return repr(" ".join(shown))
