import importlib
import json
import random
from fractions import Fraction

import pytest

from conftest import cell_representative, count_rows_reads, random_invertible
from oracle import enumerate_f2_instances, oracle_decompose
from random_inputs import random_bars, random_orientation
from sweep_reference import reference_cell_bars
from aquiver import linalg
from aquiver.decompose import _cell_bars, decompose, iso
from aquiver.intervals import BarMultiset, Interval
from aquiver.jsonio import Document, document_to_json, parse_document
from aquiver.linalg import Matrix, PrimeField, QQ, RationalField
from aquiver.orientation import Orientation
from aquiver.tamerep import (DOWN, UP, TameRep, cells_to_interval, conjugate, dual, from_bars,
                             scramble)

EMPTY_DESC = Orientation.make([], "descending")
F5 = PrimeField(5)


def bars(*specs):
    return BarMultiset(specs)


def test_zero_rep_decomposes_empty():
    assert decompose(from_bars(EMPTY_DESC, BarMultiset())) == BarMultiset()


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


def test_is_indecomposable_examples():
    # indecomposable means a barcode of one bar
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1)))
    assert decompose(v).total() == 1
    w = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1),
                                   (Interval.make(2, 3, True, True), 1)))
    assert decompose(w).total() != 1
    assert decompose(from_bars(EMPTY_DESC, BarMultiset())).total() != 1


def test_multiplicity():
    iv = Interval.make(0, 1, True, True)
    v = from_bars(EMPTY_DESC, bars((iv, 3)))
    assert decompose(v).count(iv) == 3
    assert decompose(v).count(Interval.make(0, 2, True, True)) == 0


def test_multiplicity_scramble_invariant(rng):
    for i in range(10):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=4)
        v = from_bars(o, b)
        s = scramble(v, 31 + i)
        for iv, m in b:
            assert decompose(s).count(iv) == m


def test_iso():
    b1 = bars((Interval.make(0, 1, True, False), 1))
    b2 = bars((Interval.make(0, 1, True, True), 1))
    v1 = from_bars(EMPTY_DESC, b1)
    v2 = from_bars(EMPTY_DESC, b2)
    assert iso(v1, scramble(v1, 4))
    assert not iso(v1, v2)
    both = from_bars(EMPTY_DESC, b1.union(b2))
    assert iso(both, scramble(both, 5))
    with pytest.raises(ValueError, match="orientation"):
        iso(v1, from_bars(Orientation.make([(0, "sink")]), BarMultiset()))


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
        mats.append(Matrix.from_rows(QQ, [[c * x for x in row] for c, row in zip(scales, g.rows)]))
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


def test_cell_pair_order_is_the_canonical_bar_order():
    # decompose sorts (birth cell, death cell) pairs as ints and lists the
    # bars in that order, so on one grid the pairs b <= d must sort under
    # Interval.sort_key exactly as they sort as pairs
    rng = random.Random(58)
    grids = [[]] + [sorted(rng.sample([Fraction(k, 4) for k in range(-12, 13)], rng.randint(1, 7)))
                    for _ in range(40)]
    for grid in grids:
        pairs = [(b, d) for d in range(2 * len(grid) + 1) for b in range(d + 1)]
        rng.shuffle(pairs)
        ivs = {bd: cells_to_interval(grid, *bd) for bd in pairs}
        assert len(set(ivs.values())) == len(pairs)
        assert sorted(pairs, key=lambda bd: ivs[bd].sort_key()) == sorted(pairs), grid


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_barcode_lists_bars_as_from_intervals_does(field):
    # BarMultiset == ignores order, so the listing and the JSON are
    # compared with the multiset the sorting constructor builds from the
    # same bars
    rng = random.Random(59)
    repeated = 0
    for i in range(60):
        o = random_orientation(rng)
        v = scramble(from_bars(o, random_bars(rng), field), 1000 + i)
        got = decompose(v)
        want = BarMultiset.from_intervals(cells_to_interval(v.grid, b, d)
                                          for b, d in _cell_bars(v))
        assert list(got) == list(want)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        repeated += any(m > 1 for _, m in got)
    assert repeated >= 20


def test_barcode_round_trip_reads_no_fraction_rows(monkeypatch):
    # from_bars -> scramble -> document_to_json -> parse_document ->
    # decompose over Q on integral maps: every step builds and reads the
    # maps' integer rows, so no map's Fraction rows are read and no map is
    # converted by field.integer_rows
    rng = random.Random(57)
    cases = [(random_orientation(rng), random_bars(rng)) for _ in range(12)]
    counted = []
    real_integer_rows = RationalField.integer_rows

    def integer_rows(self, rows):
        counted.append("integer_rows")
        return real_integer_rows(self, rows)

    count_rows_reads(monkeypatch, counted)
    monkeypatch.setattr(RationalField, "integer_rows", integer_rows)
    got, maps = [], []
    for i, (o, b) in enumerate(cases):
        v = scramble(from_bars(o, b), 980 + i)
        text = json.dumps(document_to_json(Document(o, QQ, tame=v)))
        w = parse_document(text).rep()
        maps += v.maps + w.maps
        got.append(decompose(w))
    assert counted == []
    # both counters see a matrix built from Fraction rows
    m = Matrix.from_rows(QQ, [[Fraction(1, 2)]])
    assert m.ints == [[1]] and m.rows == [[Fraction(1, 2)]]
    assert counted == ["integer_rows", "rows"]
    monkeypatch.undo()
    assert len(maps) >= 200 and {m.den for m in maps} == {1}
    assert got == [b for _, b in cases]
