"""Porter stemmer.

Self-contained implementation of the classic five-step suffix stripping
algorithm for English. Operates on single lowercase words; callers are
expected to lowercase and tokenize first.

``stem`` is a pure function of its argument and is memoized: a corpus
repeats each word many times (about 100 stem calls per distinct word on
a news stream of 6800 documents), so every word after its first
occurrence costs one dictionary lookup. The cache keeps each distinct
word and its stem for the life of the process.
"""

import functools

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a consonant only when not preceded by a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the [C](VC)^m[V] decomposition."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, last not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_if(word: str, suffix: str, repl: str, min_measure: int) -> tuple[str, bool]:
    if word.endswith(suffix):
        stem = word[: len(word) - len(suffix)]
        if _measure(stem) > min_measure:
            return stem + repl, True
        return word, True  # suffix matched; rule consumed even if condition failed
    return word, False


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.cache
def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _contains_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _contains_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _contains_vowel(w[:-1]):
        w = w[:-1] + "i"

    # steps 2 and 3: the first matching suffix of each table
    for table in (_STEP2, _STEP3):
        for suffix, repl in table:
            w, matched = _replace_if(w, suffix, repl, 0)
            if matched:
                break

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem_part = w[: len(w) - len(suffix)]
            if _measure(stem_part) > 1:
                if suffix == "ion" and stem_part and stem_part[-1] not in "st":
                    break
                w = stem_part
            break

    # step 5a
    if w.endswith("e"):
        stem_part = w[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            w = stem_part

    # step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w
