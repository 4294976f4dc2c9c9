"""Unit tests for tokenizers and phonetic codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import qgrams, soundex, word_tokens


class TestWordTokens:
    def test_splits_on_punctuation(self):
        assert word_tokens("Canon-EOS 5D!") == ["canon", "eos", "5d"]

    def test_empty(self):
        assert word_tokens("") == []
        assert word_tokens("!!!") == []


class TestQgrams:
    def test_padded_bigrams(self):
        assert qgrams("abc", q=2) == ["#a", "ab", "bc", "c$"]

    def test_unpadded(self):
        assert qgrams("abcd", q=3, pad=False) == ["abc", "bcd"]

    def test_q1_equals_characters(self):
        assert qgrams("ab", q=1) == ["a", "b"]

    def test_short_string(self):
        assert qgrams("a", q=3, pad=False) == ["a"]

    def test_empty_string(self):
        assert qgrams("", q=3, pad=False) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    @given(st.text(max_size=20), st.integers(min_value=1, max_value=5))
    def test_count_formula_unpadded(self, text, q):
        grams = qgrams(text, q=q, pad=False)
        lowered = text.lower()
        if len(lowered) >= q:
            assert len(grams) == len(lowered) - q + 1


class TestSoundex:
    @pytest.mark.parametrize(
        "word,code",
        [
            ("Robert", "R163"),
            ("Rupert", "R163"),
            ("Ashcraft", "A261"),
            ("Tymczak", "T522"),
            ("Pfister", "P236"),
            ("Honeyman", "H555"),
        ],
    )
    def test_reference_values(self, word, code):
        assert soundex(word) == code

    def test_sound_alikes_collide(self):
        assert soundex("smith") == soundex("smyth")

    def test_non_alpha(self):
        assert soundex("123") == "0000"
        assert soundex("") == "0000"

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=1, max_size=12))
    def test_always_four_characters(self, word):
        code = soundex(word)
        assert len(code) == 4
        assert code[0].isalpha() and code[0].isupper()
