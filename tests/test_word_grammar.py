"""Property tests of the presentation word grammar: generated words parse to
the letters they denote, accepted words round-trip through render_word, and
any string over the token alphabet parses or raises ParseError."""
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiforge.fpgroup import Word
from orbiforge.presfile import ParseError, parse_presentation, parse_word, render_word

NAMES = ("a", "b", "x_1", "_c")
PRES = parse_presentation("group t\ngens " + " ".join(NAMES) + "\n")
GRAMMAR = settings(derandomize=True, max_examples=150, deadline=None)

# optional spacing between tokens; a space never splits a power's sign or digits
_SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _word(draw, depth=0):
    """Text of a word from the grammar, with the letters it denotes."""
    texts, letters = [], []
    for _ in range(draw(st.integers(0, 3))):
        if depth < 3 and draw(st.booleans()):
            inner_text, inner = draw(_word(depth + 1))
            text = f"({draw(_SPACE)}{inner_text}{draw(_SPACE)})"
        else:
            gen = draw(st.integers(1, len(NAMES)))
            text, inner = NAMES[gen - 1], [gen]
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "-"]))
            power = draw(st.integers(0, 3))
            zeros = "0" * draw(st.integers(0, 2))
            text += f"{draw(_SPACE)}^{sign}{zeros}{power}"
            if sign:
                inner = [-x for x in reversed(inner)]
            inner = inner * power
        texts.append(text)
        letters += inner
    # two names run together without a space, so terms always get one
    return " ".join(t + draw(_SPACE) for t in texts), letters


@GRAMMAR
@given(_word())
def test_generated_words_parse_to_their_letters(written):
    text, letters = written
    word = parse_word(text, PRES)
    assert word == Word(tuple(letters))
    assert parse_word(render_word(word, PRES), PRES) == word


TOKENS = ["a", "b", "x_1", "_c", "d", "(", ")", "^", "-", "0", "7", "^2", "^-01",
          " ", " ", "*", "é"]


@GRAMMAR
@given(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))
def test_any_token_string_parses_or_raises_parse_error(text):
    try:
        word = parse_word(text, PRES)
    except ParseError as err:
        assert err.line == 1 and 1 <= err.col <= len(text) + 1
    else:
        assert parse_word(render_word(word, PRES), PRES) == word
