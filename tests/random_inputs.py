"""Seeded random inputs shared by the tests and the command-line corpus
(``cli_corpus``): orientations, intervals and barcodes drawn from small
position sets.  Plain Python, with no pytest, so that the corpus script
runs under any interpreter."""

import random
from fractions import Fraction

from aquiver.intervals import BarMultiset, Interval, NEG_INF, POS_INF
from aquiver.orientation import Orientation

POSITIONS = [Fraction(s) for s in
             ("-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2", "5/2", "3")]
ENDPOINTS = [Fraction(e) for e in (-2, -1, 0, 1, 2, 3)]


def random_orientation(rng: random.Random, max_criticals: int = 4) -> Orientation:
    k = rng.randint(0, max_criticals)
    if k == 0:
        return Orientation.make([], rng.choice(["descending", "ascending"]))
    pos = sorted(rng.sample(POSITIONS, k))
    first = rng.choice(["sink", "source"])
    other = "source" if first == "sink" else "sink"
    kinds = [first if i % 2 == 0 else other for i in range(k)]
    return Orientation.make(list(zip(pos, kinds)))


def random_interval(rng: random.Random, allow_infinite: bool = True) -> Interval:
    while True:
        lo = rng.choice(([NEG_INF] if allow_infinite else []) + ENDPOINTS)
        hi = rng.choice(ENDPOINTS + ([POS_INF] if allow_infinite else []))
        if lo == NEG_INF or hi == POS_INF:
            lo_c = False if lo == NEG_INF else rng.random() < 0.5
            hi_c = False if hi == POS_INF else rng.random() < 0.5
            if lo == NEG_INF and hi == POS_INF and rng.random() < 0.8:
                continue  # keep the full line rare
            return Interval(lo, hi, lo_c, hi_c)
        if lo > hi:
            continue
        if lo == hi:
            return Interval(lo, hi, True, True)
        return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def random_bars(rng: random.Random, max_bars: int = 8, max_mult: int = 3) -> BarMultiset:
    n = rng.randint(1, max_bars)
    return BarMultiset((random_interval(rng), rng.randint(1, max_mult))
                       for _ in range(n))


def interval_in_segment(rng: random.Random, o: Orientation) -> Interval:
    """A random interval strictly inside one segment of the orientation."""
    pos = o.positions
    bounds = [(NEG_INF, pos[0] if pos else POS_INF)]
    for a, b in zip(pos, pos[1:]):
        bounds.append((a, b))
    if pos:
        bounds.append((pos[-1], POS_INF))
    lo_b, hi_b = rng.choice(bounds)
    lo_ref = Fraction(lo_b) if lo_b != NEG_INF else Fraction(hi_b) - 2 if hi_b != POS_INF else Fraction(-1)
    hi_ref = Fraction(hi_b) if hi_b != POS_INF else lo_ref + 2
    width = hi_ref - lo_ref
    a = lo_ref + width * Fraction(rng.randint(1, 3), 8)
    b = lo_ref + width * Fraction(rng.randint(5, 7), 8)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
