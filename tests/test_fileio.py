import pytest

from markovshift import NonNegMatrix, ParseError, ZeroOneMatrix
from markovshift.fileio import (
    format_matrix,
    format_words,
    matrix_from_rows,
    parse_function_text,
    parse_matrix_rows,
    parse_word,
)

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])


class TestMatrixParsing:
    def test_round_trip(self):
        text = format_matrix(FULL2)
        assert parse_matrix_rows(text) == [[1, 1], [1, 1]]

    def test_an_entry_past_the_str_digit_limit_is_written(self):
        # 10^5000 has 5,001 digits, more than Python 3.11's str() converts
        text = format_matrix(NonNegMatrix([[10**5000, 1], [1, 1]]))
        assert text == f"2\n1{'0' * 5000} 1\n1 1\n"

    def test_comments_and_blanks(self):
        text = "# transition matrix\n\n2   # size\n1 1\n1 0  # golden mean\n"
        assert parse_matrix_rows(text) == [[1, 1], [1, 0]]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_matrix_rows("2\n1 1\n1 x\n")
        assert info.value.line == 3

    def test_wrong_row_width(self):
        with pytest.raises(ParseError):
            parse_matrix_rows("2\n1 1 1\n1 1\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_matrix_rows("3\n1 1 1\n1 1 1\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_matrix_rows("2\n1 1\n1 1\n5\n")

    def test_negative_entries(self):
        with pytest.raises(ParseError):
            parse_matrix_rows("2\n1 -1\n1 1\n")

    def test_negative_entry_on_last_row(self):
        with pytest.raises(ParseError) as info:
            parse_matrix_rows("3\n1 1 0\n0 1 1\n1 0 -2  # last\n")
        assert info.value.line == 4
        assert str(info.value) == "line 4: matrix entries must be nonnegative"

    def test_signed_zero_and_plus_sign(self):
        assert parse_matrix_rows("2\n-0 +1\n1 +0\n") == [[0, 1], [1, 0]]

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_matrix_rows("# nothing here\n")

    def test_classification(self):
        assert isinstance(matrix_from_rows([[1, 1], [1, 1]]), ZeroOneMatrix)
        m = matrix_from_rows([[2, 1], [1, 2]])
        assert isinstance(m, NonNegMatrix) and not isinstance(m, ZeroOneMatrix)
        assert isinstance(matrix_from_rows([[3]]), NonNegMatrix)


class TestWordFormat:
    def test_compact_digits_small_alphabet(self):
        assert format_words([(1, 2, 1), (), (4,)], 4) == ["121", "", "4"]
        assert format_words([(9, 1)], 9) == ["91"]
        assert parse_word("121", 4) == (1, 2, 1)

    def test_commas_large_alphabet(self):
        assert format_words([(10, 2), (12,)], 12) == ["10,2", "12"]
        assert parse_word("10,2", 12) == (10, 2)

    def test_symbol_out_of_range(self):
        with pytest.raises(ParseError):
            parse_word("3", 2)


class TestFunctionParsing:
    def test_round_trip(self):
        text = "window 1\n1 1\n2 -1\n"
        fn = parse_function_text(text, FULL2)
        assert fn.window == 1
        assert fn.values == {(1,): 1, (2,): -1}

    def test_window_two(self):
        text = "window 2\n11 0\n12 1\n21 -1\n22 0\n"
        fn = parse_function_text(text, FULL2)
        assert fn.values[(2, 1)] == -1

    def test_missing_word_rejected(self):
        from markovshift import DomainError

        with pytest.raises(DomainError):
            parse_function_text("window 1\n1 1\n", FULL2)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_function_text("widths 1\n1 1\n2 2\n", FULL2)

    def test_duplicate_word(self):
        with pytest.raises(ParseError) as info:
            parse_function_text("window 1\n1 1\n1 2\n2 0\n", FULL2)
        assert info.value.line == 3

    def test_wrong_word_length(self):
        with pytest.raises(ParseError):
            parse_function_text("window 2\n1 1\n", FULL2)
