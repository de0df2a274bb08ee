import importlib
import random
from fractions import Fraction

import pytest

from conftest import cell_representative, random_bars, random_invertible, random_orientation
from oracle import enumerate_f2_instances, oracle_decompose
from sweep_reference import reference_cell_bars
from aquiver import linalg
from aquiver.decompose import (_cell_bars, decompose, indecomposable_direct,
                               is_indecomposable, iso, multiplicity)
from aquiver.intervals import BarMultiset, Interval
from aquiver.linalg import Matrix, PrimeField, QQ
from aquiver.orientation import Orientation
from aquiver.tamerep import (DOWN, UP, TameRep, conjugate, direct_sum, dual, from_bars,
                             scramble, zero_rep)

EMPTY_DESC = Orientation.make([], "descending")
F5 = PrimeField(5)


def bars(*specs):
    return BarMultiset(specs)


def test_zero_rep_decomposes_empty():
    assert decompose(zero_rep(EMPTY_DESC)) == BarMultiset()


def test_canonical_roundtrip(rng):
    for _ in range(40):
        o = random_orientation(rng)
        b = random_bars(rng)
        assert decompose(from_bars(o, b)) == b


def test_scramble_roundtrip(rng):
    for i in range(40):
        o = random_orientation(rng)
        b = random_bars(rng)
        v = scramble(from_bars(o, b), 5000 + i)
        assert decompose(v) == b


def test_field_independence(rng):
    for i in range(15):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=5)
        got_q = decompose(scramble(from_bars(o, b, QQ), i))
        got_5 = decompose(scramble(from_bars(o, b, F5), i))
        assert got_q == got_5 == b


def test_zero_middle_map_splits_into_two_bars():
    # dims (1,1,1) with a zero map on one junction: connected support but
    # not indecomposable
    o = EMPTY_DESC
    grid = [Fraction(0)]
    maps = [Matrix.zero(QQ, 1, 1), Matrix.identity(QQ, 1)]
    v = TameRep(o, QQ, grid, [1, 1, 1], maps)
    got = decompose(v)
    assert got.total() == 2
    assert not is_indecomposable(v)


def test_is_indecomposable_examples():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1)))
    assert is_indecomposable(v)
    w = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1),
                                   (Interval.make(2, 3, True, True), 1)))
    assert not is_indecomposable(w)
    assert not is_indecomposable(zero_rep(EMPTY_DESC))


def test_direct_criterion_matches(rng):
    for _ in range(30):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=3, max_mult=2)
        v = scramble(from_bars(o, b), 17)
        assert is_indecomposable(v) == (b.total() == 1)
        assert indecomposable_direct(from_bars(o, b)) == (b.total() == 1)


def test_multiplicity():
    iv = Interval.make(0, 1, True, True)
    v = from_bars(EMPTY_DESC, bars((iv, 3)))
    assert multiplicity(v, iv) == 3
    assert multiplicity(v, Interval.make(0, 2, True, True)) == 0


def test_multiplicity_scramble_invariant(rng):
    for i in range(10):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=4)
        v = from_bars(o, b)
        s = scramble(v, 31 + i)
        for iv, m in b:
            assert multiplicity(s, iv) == m


def test_iso():
    b1 = bars((Interval.make(0, 1, True, False), 1))
    b2 = bars((Interval.make(0, 1, True, True), 1))
    v1 = from_bars(EMPTY_DESC, b1)
    v2 = from_bars(EMPTY_DESC, b2)
    assert iso(v1, scramble(v1, 4))
    assert not iso(v1, v2)
    a = from_bars(EMPTY_DESC, b1)
    b = from_bars(EMPTY_DESC, b2)
    assert iso(direct_sum(a, b), direct_sum(b, a))
    with pytest.raises(ValueError, match="orientation"):
        iso(v1, zero_rep(Orientation.make([(0, "sink")])))


def test_decompose_additive_over_direct_sum(rng):
    for _ in range(10):
        o = random_orientation(rng)
        b1, b2 = random_bars(rng, max_bars=4), random_bars(rng, max_bars=4)
        v = direct_sum(scramble(from_bars(o, b1), 1), scramble(from_bars(o, b2), 2))
        assert decompose(v) == b1.union(b2)


def test_duality(rng):
    for i in range(20):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=5)
        v = scramble(from_bars(o, b), 400 + i)
        assert decompose(dual(v)) == b
        assert iso(dual(dual(v)), v)


def test_oracle_parity_sample():
    count = 0
    for v in enumerate_f2_instances(600):
        assert decompose(v) == oracle_decompose(v)
        count += 1
    assert count == 600


def test_conservation_of_dimension(rng):
    for _ in range(20):
        o = random_orientation(rng)
        b = random_bars(rng)
        v = scramble(from_bars(o, b), 8)
        got = decompose(v)
        for c in range(v.ncells):
            x = cell_representative(v.grid, c)
            covering = sum(m for iv, m in got if iv.contains(x))
            assert covering == v.dims[c]


def _scaled_maps(v, rng):
    """v with each junction map scaled by its own random rational in
    (-1, 1): isomorphic to v, since a zigzag is a tree quiver, and with
    non-integral entries."""
    maps = [m.scale(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(31, 60)))
            for m in v.maps]
    return TameRep(v.orientation, v.field, v.grid, v.dims, maps)


def _mixed_conjugate(v, rng):
    """v conjugated by one random invertible per cell, each row scaled by
    its own rational, so that one map mixes several denominators."""
    mats = []
    for d in v.dims:
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                  for _ in range(d)]
        g = random_invertible(QQ, d, rng)
        mats.append(Matrix(QQ, d, d, [[c * x for x in row] for c, row in zip(scales, g.rows)]))
    return conjugate(v, mats)


def _denominators(m):
    return {x.denominator for row in m.rows for x in row}


SWEEP_FIELDS = [QQ, PrimeField(2), F5, PrimeField(2**61 - 1)]


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=["Q", "F2", "F5", "F2^61-1"])
def test_sweep_matches_reference_sweep(field):
    rng = random.Random(2024)
    fractional = mixed = 0
    for i in range(150):
        o = random_orientation(rng)
        b = random_bars(rng)
        v = scramble(from_bars(o, b, field), 700 + i)
        if field is QQ:
            v = _scaled_maps(v, rng) if i % 2 else _mixed_conjugate(v, rng)
            fractional += any(x.denominator > 1 for m in v.maps for row in m.rows for x in row)
            mixed += any(len(_denominators(m) - {1}) >= 2 for m in v.maps)
        assert sorted(_cell_bars(v)) == sorted(reference_cell_bars(v))
        assert decompose(v) == b
    assert field is not QQ or (fractional >= 120 and mixed >= 60)


def test_sweep_eliminates_once_per_backward_junction_only(monkeypatch):
    # forward junctions are read off one product and one column reduction,
    # backward ones off one elimination of [A | M] and one column
    # reduction; the integer elimination loop runs only there
    rng = random.Random(55)
    cases = []
    for i in range(30):
        o = random_orientation(rng)
        v = scramble(from_bars(o, random_bars(rng)), 900 + i)
        cases.append((v, sum(d == DOWN for d in v.dirs)))
    ascending = Orientation.make([], "ascending")
    all_forward = scramble(from_bars(ascending, random_bars(rng, max_bars=8)), 3)
    assert all_forward.dirs and DOWN not in all_forward.dirs
    cases.append((all_forward, 0))
    real = linalg.integer_row_echelon
    calls = []

    def counting(field, rows):
        calls.append(len(rows))
        return real(field, rows)

    # the loop under its name in linalg and where the sweep imported it
    monkeypatch.setattr(linalg, "integer_row_echelon", counting)
    monkeypatch.setattr(importlib.import_module("aquiver.decompose"),
                        "integer_row_echelon", counting)
    total = 0
    for v, backward in cases:
        calls.clear()
        decompose(v)
        assert len(calls) <= backward
        total += len(calls)
    assert total and any(backward for _, backward in cases)


def test_sweep_does_no_fraction_or_matrix_work(monkeypatch):
    # the sweep reads each map once as integer rows (as_integer_ratio) and
    # then works on Python ints alone
    rng = random.Random(56)
    cases = []
    for i in range(12):
        o = random_orientation(rng)
        b = random_bars(rng)
        v = _scaled_maps(scramble(from_bars(o, b), 950 + i), rng)
        cases.append((v if i % 2 else _mixed_conjugate(v, rng), b))
    assert any(x.denominator > 1 for v, _ in cases for m in v.maps for row in m.rows for x in row)
    assert {d for v, _ in cases for d in v.dirs} == {DOWN, UP}
    counted = []

    def counter(name, real):
        def counting(*args, **kwargs):
            counted.append(name)
            return real(*args, **kwargs)
        return counting

    for name in ("__new__", "__add__", "__mul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, counter(name, getattr(Fraction, name)))
    for name, attr in vars(Matrix).items():
        if isinstance(attr, staticmethod):
            monkeypatch.setattr(Matrix, name, staticmethod(counter(name, attr.__func__)))
        elif callable(attr):
            monkeypatch.setattr(Matrix, name, counter(name, attr))
    bars = [_cell_bars(v) for v, _ in cases]
    assert counted == []
    Fraction(1, 3) + 1
    Matrix.identity(QQ, 1)
    assert "__new__" in counted and "__add__" in counted and "identity" in counted
    monkeypatch.undo()
    for got, (v, b) in zip(bars, cases):
        assert sorted(got) == sorted(reference_cell_bars(v))
        assert decompose(v) == b
