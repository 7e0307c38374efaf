"""The text and JSON front door against the Fraction-tuple references.

parse and from_json build integer keys straight from int pairs, and
format_series and to_json write each exponent from its key; the references
in oracles.py are the earlier versions, which built a Fraction per token and
a Fraction tuple per term.  On seeded random texts both sides must give the
same series (keys, ramification, precision and Laurent flag) and the same
text and JSON, and on mutated texts the same error at the same position.
"""

import random
from fractions import Fraction as F

from oracles import (
    format_series_reference,
    from_json_reference,
    parse_reference,
    to_json_reference,
)
from puiseux import INF, PuiseuxError, PuiseuxSeries, parse
from puiseux.series import format_series

BARE = ["x", "y", "t", "u", "v", "w"]


def _space(rng):
    return rng.choice(["", "", " ", "  "])


def _rational_text(rng, num, den, unreduced):
    if unreduced and rng.random() < 0.5:
        k = rng.randrange(2, 4)
        num, den = num * k, den * k
    text = f"{num}" if den == 1 and rng.random() < 0.7 else f"{num}/{den}"
    if unreduced and rng.random() < 0.3:
        text = "0" + text
    return text


def _factor(rng, name, laurent):
    lo = -4 if laurent else 0
    num, den = rng.randrange(lo, 9), rng.choice([1, 1, 2, 3, 4, 6])
    if num == den and rng.random() < 0.5:
        return name
    s = _space(rng)
    return f"{name}{s}^{s}({s}{_rational_text(rng, num, den, True)}{s})"


def random_text(rng, h, laurent):
    """A random series text in h variables, its keyword arguments and
    whether one term cancels another."""
    if h == 1 and rng.random() < 0.7:
        names = [rng.choice(BARE)]
    else:
        prefix = rng.choice(["x", "t", "u"])
        names = [f"{prefix}{i + 1}" for i in range(h)]
    terms = []
    for _ in range(rng.randrange(0, 6)):
        parts = []
        if rng.random() < 0.6:
            parts.append(_rational_text(rng, rng.randrange(0, 7), rng.choice([1, 2, 3]), True))
        for _ in range(rng.randrange(0, 4)):
            parts.append(_factor(rng, rng.choice(names), laurent))
            if rng.random() < 0.2:
                # a coefficient between factors, 2*x1*3
                parts.append(str(rng.randrange(1, 5)))
        if not parts:
            parts.append(str(rng.randrange(1, 5)))
        s = _space(rng)
        terms.append((rng.choice("+-"), f"{s}*{s}".join(parts)))
    cancels = bool(terms) and rng.random() < 0.3
    if cancels:
        sign, term = rng.choice(terms)
        terms.append(("-" if sign == "+" else "+", term))
    text = ""
    for sign, term in terms:
        if not text:
            text = ("-" if sign == "-" else rng.choice(["", "+"])) + term
        else:
            text += f"{_space(rng)}{sign}{_space(rng)}{term}"
    kwargs = {"laurent": laurent}
    marker = rng.random()
    if marker < 0.4 or not text:
        num, den = rng.randrange(0, 12), rng.choice([1, 2, 3])
        glue = f"{_space(rng)}+{_space(rng)}" if text else rng.choice(["", "+"])
        text += f"{glue}O(total={_rational_text(rng, num, den, False)})"
    elif marker < 0.7:
        kwargs["precision"] = rng.choice([INF, F(rng.randrange(0, 20), rng.choice([1, 2])), 5, "7/2"])
    if rng.random() < 0.2 and not (h == 1 and not names[0][-1].isdigit()):
        kwargs["num_vars"] = h + rng.randrange(0, 2)
    return text, kwargs, cancels


def outcome(fn, *args, **kwargs):
    """fn's result, or the class, message and position of its refusal."""
    try:
        return "ok", fn(*args, **kwargs)
    except PuiseuxError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def check_writers(s):
    assert format_series(s) == format_series_reference(s)
    if s.num_vars > 1:
        names = [f"v{i + 1}" for i in range(s.num_vars)]
        assert format_series(s, names) == format_series_reference(s, names)
    js = s.to_json()
    assert js == to_json_reference(s)
    back = PuiseuxSeries.from_json(js)
    assert back == from_json_reference(js) == s


def test_parse_and_writers_match_the_references_on_random_texts():
    rng = random.Random(2201)
    seen = {"h": set(), "laurent": 0, "cancelled": 0, "unreduced": 0, "exact": 0}
    for _ in range(600):
        h = rng.choice([1, 1, 2, 3])
        laurent = h == 1 and rng.random() < 0.25
        text, kwargs, cancels = random_text(rng, h, laurent)
        got = outcome(parse, text, **kwargs)
        want = outcome(parse_reference, text, **kwargs)
        assert got == want, text
        if got[0] != "ok":
            continue
        s = got[1]
        seen["h"].add(s.num_vars)
        seen["laurent"] += s.laurent and any(g[0] < 0 for g in s._keys)
        seen["exact"] += s.precision is INF
        seen["unreduced"] += "/04" in text or "/06" in text or "(0" in text
        seen["cancelled"] += cancels
        check_writers(s)
        # the written text reads back as the same series on both sides
        kw = {"num_vars": s.num_vars, "laurent": s.laurent, "precision": INF}
        assert parse(format_series(s), **kw) == parse_reference(format_series(s), **kw) == s
    assert {1, 2, 3} <= seen["h"]
    assert min(seen["laurent"], seen["exact"], seen["unreduced"], seen["cancelled"]) > 10, seen


def test_from_json_reads_unreduced_and_unusual_rationals_as_the_reference():
    blobs = [
        {"vars": 1, "terms": [{"exp": ["08/04"], "coef": "2/4"}, {"exp": ["3/2"], "coef": "-1"}],
         "precision": "010/4"},
        {"vars": 1, "terms": [{"exp": ["-1/2"], "coef": "1"}, {"exp": ["0"], "coef": "3"}],
         "precision": None},
        {"vars": 2, "terms": [{"exp": ["1/2", "0/3"], "coef": "1"}, {"exp": ["1/2", "0"], "coef": "-1"},
                              {"exp": ["2", "5/3"], "coef": "7/3"}], "precision": "6"},
        {"vars": 1, "terms": [{"exp": [" 3/2 "], "coef": "+1.5"}, {"exp": [2], "coef": F(1, 3)}],
         "precision": "1e1"},
        {"vars": 1, "terms": [{"exp": ["1"], "coef": "0"}], "precision": "2", "laurent": True},
        {"vars": 2, "terms": [{"exp": ["1"], "coef": "1"}], "precision": None},
        {"vars": 0, "terms": [], "precision": None},
        {"vars": 2, "terms": [{"exp": ["-1", "0"], "coef": "1"}], "precision": None},
    ]
    for blob in blobs:
        assert outcome(PuiseuxSeries.from_json, blob) == outcome(from_json_reference, blob)


MUTATION_CHARS = list("()^*/+-=O01239xyt ") + ["x1", "x0", "@", "total", "c", "."]


def mutate(rng, text):
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0 and text:
        return text[:pos] + text[pos + 1:]
    if kind == 1:
        return text[:pos] + rng.choice(MUTATION_CHARS) + text[pos:]
    if kind == 2 and text:
        return text[:pos] + rng.choice(MUTATION_CHARS) + text[pos + 1:]
    return text[:pos]


def test_mutated_texts_fail_alike():
    rng = random.Random(2202)
    refused = set()
    for _ in range(1500):
        h = rng.choice([1, 1, 2, 3])
        laurent = h == 1 and rng.random() < 0.25
        text, kwargs, _ = random_text(rng, h, laurent)
        for _ in range(rng.randrange(1, 4)):
            text = mutate(rng, text)
        # options that the text may break: the Laurent flag and the variables
        if rng.random() < 0.2:
            kwargs["laurent"] = not kwargs["laurent"]
        if rng.random() < 0.2:
            kwargs["num_vars"] = rng.randrange(1, 4)
        got = outcome(parse, text, **kwargs)
        want = outcome(parse_reference, text, **kwargs)
        assert got == want, text
        if got[0] != "ok":
            refused.add(got[1][:12])
    # every raise site of the grammar is reached
    assert len(refused) >= 16, sorted(refused)
