"""Sectioned key = value parsing."""

import pytest

from envtheory.errors import InputError
from envtheory.kvfile import parse_sections


def test_basic_document():
    text = """
    # leading comment
    [system]
    type = identical   # trailing comment
    N = 3

    [state]
    mode = bgs
    """
    sections = parse_sections(text)
    assert sections == {"system": {"type": "identical", "N": "3"},
                        "state": {"mode": "bgs"}}


def test_values_keep_internal_spaces_and_equals():
    sections = parse_sections("[a]\nexpr = x = y\nname = two words\n")
    assert sections["a"]["expr"] == "x = y"
    assert sections["a"]["name"] == "two words"


def test_section_order_is_preserved():
    sections = parse_sections("[z]\nk = 1\n[a]\nk = 2\n")
    assert list(sections) == ["z", "a"]


def test_empty_text():
    assert parse_sections("") == {}
    assert parse_sections("# only comments\n\n") == {}


@pytest.mark.parametrize("text,fragment", [
    ("[a]\n[a]\nk = 1\n", "duplicate section"),
    ("[a]\nk = 1\nk = 2\n", "duplicate key"),
    ("k = 1\n", "outside any"),
    ("[a]\njust words\n", "expected"),
    ("[]\nk = 1\n", "empty section"),
    ("[a]\n= 1\n", "empty key or value"),
    ("[a]\nk =\n", "empty key or value"),
    ("[a\nk = 1\n", "expected"),
    ("a]\nk = 1\n", "expected"),
])
def test_malformed_input(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_sections(text)


def test_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 3"):
        parse_sections("[a]\nk = 1\nk = 2\n")
