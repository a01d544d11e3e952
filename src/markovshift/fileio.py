"""Text formats for transition matrices and window functions.

Matrix files: the first significant line holds the size N, the next N
lines hold N space-separated nonnegative integers each.  Function files:
a ``window k`` header, then one ``word value`` line per admissible k-word.
Everything after ``#`` on a line is a comment.
"""

from __future__ import annotations

from .cohomology import LocallyConstantFn
from .errors import ParseError
from .shifts import NonNegMatrix, ZeroOneMatrix


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from None


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def parse_matrix_rows(text: str) -> list[list[int]]:
    """Raw rows of a matrix file; structural validation happens elsewhere."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("file contains no matrix")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected the matrix size, got {head!r}", lineno) from None
    if n < 1:
        raise ParseError(f"matrix size must be positive, got {n}", lineno)
    if len(lines) - 1 < n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    if len(lines) - 1 > n:
        raise ParseError("unexpected content after the matrix", lines[n + 1][0])
    rows = []
    for lineno, body in lines[1:]:
        try:
            row = list(map(int, body.split()))
        except ValueError:
            raise ParseError(f"row is not a list of integers: {body!r}", lineno) from None
        if len(row) != n:
            raise ParseError(f"expected {n} entries, found {len(row)}", lineno)
        # int() reads a sign only as an ASCII "-" or "+", so a row without
        # "-" holds no negative entry
        if "-" in body and min(row) < 0:
            raise ParseError("matrix entries must be nonnegative", lineno)
        rows.append(row)
    return rows


def read_matrix_rows(path) -> list[list[int]]:
    return parse_matrix_rows(_read_text(path))


def matrix_from_rows(rows) -> NonNegMatrix:
    """Typed matrix for parsed rows: 0/1 contents give the stricter type."""
    if len(rows) >= 2 and max(map(max, rows)) <= 1:
        return ZeroOneMatrix.from_rows(rows)
    return NonNegMatrix.from_rows(rows)


def format_matrix(matrix: NonNegMatrix) -> str:
    lines = [str(matrix.size)]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def write_matrix_file(path, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(matrix))


# byte s, for s in 0..9, to the ASCII digit s
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_words(words, alphabet_size: int) -> list[str]:
    """Digit strings for alphabets up to 9 symbols, comma-separated numbers beyond.

    A word over at most 9 symbols is read as the bytes of its symbols and
    translated to digits in one call.
    """
    if alphabet_size <= 9:
        return [bytes(w).translate(_DIGITS).decode("ascii") for w in words]
    names = [str(s) for s in range(alphabet_size + 1)]
    return [",".join(map(names.__getitem__, w)) for w in words]


def parse_word(token: str, alphabet_size: int) -> tuple[int, ...]:
    if "," in token:
        parts = token.split(",")
    elif alphabet_size <= 9:
        parts = list(token)
    else:
        parts = [token]
    try:
        symbols = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"cannot read word {token!r}") from None
    if any(not 1 <= s <= alphabet_size for s in symbols):
        raise ParseError(f"word {token!r} uses symbols outside 1..{alphabet_size}")
    return symbols


def parse_function_text(text: str, matrix: ZeroOneMatrix) -> LocallyConstantFn:
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("file contains no function")
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "window":
        raise ParseError(f"expected 'window k' header, got {head!r}", lineno)
    try:
        window = int(parts[1])
    except ValueError:
        raise ParseError(f"window size is not an integer: {parts[1]!r}", lineno) from None
    if window < 1:
        raise ParseError("window size must be at least 1", lineno)
    table = {}
    for lineno, body in lines[1:]:
        tokens = body.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'word value', got {body!r}", lineno)
        try:
            word = parse_word(tokens[0], matrix.size)
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        if len(word) != window:
            raise ParseError(f"word {tokens[0]!r} does not have window length {window}", lineno)
        try:
            value = int(tokens[1])
        except ValueError:
            raise ParseError(f"value is not an integer: {tokens[1]!r}", lineno) from None
        if word in table:
            raise ParseError(f"duplicate word {tokens[0]!r}", lineno)
        table[word] = value
    return LocallyConstantFn.over(matrix, window, table)


def read_function_file(path, matrix: ZeroOneMatrix) -> LocallyConstantFn:
    return parse_function_text(_read_text(path), matrix)
