"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Every tolerance is exact (multiset equality, integer bounds);
the two timed criteria assert their stated wall-clock budgets.
"""

import os
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from conftest import (dense_hom_space_dim, interval_in_segment, random_bars,
                      random_interval, random_orientation)
from oracle import enumerate_f2_instances, hom_basis, oracle_decompose
from aquiver.ar import EXISTS, PROVEN_NONEXISTENT, ar_ending_at, standard_probes, verify_almost_split
from aquiver.cli import main as cli_main
from aquiver.decompose import decompose, iso
from aquiver.homological import (ProjectiveLabel, OPEN_LEFT, OPEN_RIGHT, POINT,
                                 ext_dim, hom_dim,
                                 injective_composites_criterion,
                                 is_projective_rep, kernel_of_projective_map,
                                 proj_presentation, realize_projective)
from aquiver.intervals import BarMultiset, Interval
from aquiver.linalg import Matrix, PrimeField, QQ, rank
from aquiver.orientation import Orientation, segment_index
from aquiver.tamerep import RepMorphism, dual, from_bars, scramble

HERE = os.path.dirname(__file__)
F5 = PrimeField(5)


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_decomposition_round_trip():
    rng = random.Random(20250809)
    t0 = time.monotonic()
    for i in range(200):
        o = random_orientation(rng, max_criticals=4)
        b = random_bars(rng, max_bars=8, max_mult=3)
        for field in (QQ, F5):
            v = scramble(from_bars(o, b, field), seed=i)
            assert decompose(v) == b, f"instance {i} over {field}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f}s (budget 30s)"
    _report(1, f"200 scrambled round trips exact over Q and F5 ({elapsed:.1f}s)")


def test_criterion_2_oracle_parity():
    n = 0
    for v in enumerate_f2_instances(5000):
        assert decompose(v) == oracle_decompose(v), \
            f"mismatch on grid={v.grid} dims={v.dims} over {v.orientation}"
        n += 1
    assert n == 5000
    _report(2, "5000 exhaustive F2 instances agree with the idempotent-search oracle")


def test_criterion_3_hom_bound():
    rng = random.Random(333)
    for i in range(500):
        o = random_orientation(rng)
        i_iv = random_interval(rng)
        j_iv = random_interval(rng)
        v = from_bars(o, BarMultiset([(i_iv, 1)]))
        w = from_bars(o, BarMultiset([(j_iv, 1)]))
        d = dense_hom_space_dim(v, w)
        assert d in (0, 1), f"hom dim {d} at instance {i}"
        assert hom_dim(o, i_iv, i_iv) == 1
    _report(3, "500 hom dimensions in {0,1}; identity endomorphism always present")


def test_criterion_4_ext_bound_and_presentation():
    rng = random.Random(444)
    for i in range(300):
        o = random_orientation(rng)
        v_iv = random_interval(rng)
        w_iv = random_interval(rng)
        e = ext_dim(o, v_iv, w_iv)
        assert e in (0, 1), f"ext dim {e} at instance {i}"
        pres = proj_presentation(o, v_iv)
        f = pres.realized
        for c in range(f.dom.ncells):
            assert rank(f.mats[c]) == f.dom.dims[c], "presentation map not injective"
        miv = from_bars(o, BarMultiset([(v_iv, 1)]))
        grid = f.dom.grid
        lo = Fraction(grid[0]) - 2 if grid else Fraction(-2)
        hi = Fraction(grid[-1]) + 2 if grid else Fraction(2)
        for _ in range(20):
            den = rng.randint(1, 7)
            x = Fraction(rng.randint(int(lo * den), int(hi * den)), den)
            assert f.cod.dim_at(x) - f.dom.dim_at(x) == miv.dim_at(x), \
                f"dimension count fails at {x}"
        wrep = from_bars(o, BarMultiset([(w_iv, 1)]))
        h = hom_dim(o, v_iv, w_iv)
        h0 = dense_hom_space_dim(f.cod, wrep)
        h1 = dense_hom_space_dim(f.dom, wrep)
        assert h - e == h0 - h1, "Euler pairing identity fails"
    _report(4, "300 ext dimensions in {0,1}; presentations exact at 20 probes each; "
               "Euler pairing exact")


def test_criterion_5_projectives_table_golden():
    runner = CliRunner()
    orientation = ('{"criticals":[{"pos":"0","kind":"sink"},'
                   '{"pos":"1","kind":"source"}],"empty_direction":"descending"}')
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(orientation)
        path = fh.name
    try:
        res = runner.invoke(cli_main, ["projectives", path])
        assert res.exit_code == 0
        with open(os.path.join(HERE, "data", "projectives_zigzag_table.txt")) as fh:
            golden = fh.read()
        assert res.output == golden, "projectives table drifted from the golden file"
        assert len(golden.strip().splitlines()) == 11
    finally:
        os.unlink(path)
    _report(5, "projectives table reproduces the 11-form golden file byte for byte")


def test_criterion_6_projectivity_criterion():
    rng = random.Random(666)
    checked = 0
    while checked < 100:
        o = random_orientation(rng)
        iv = interval_in_segment(rng, o)
        lo, hi = Fraction(iv.lo), Fraction(iv.hi)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            x = lo + (hi - lo) * Fraction(rng.randint(0, 4), 8)
            y = hi - (hi - lo) * Fraction(rng.randint(0, 4), 8)
            if x > y:
                x, y = y, x
            if x == y:
                pieces.append((Interval.point(x), 1))
            else:
                pieces.append((Interval(x, y, rng.random() < 0.5, rng.random() < 0.5),
                               rng.randint(1, 2)))
        v = scramble(from_bars(o, BarMultiset(pieces)), 7000 + checked)
        assert injective_composites_criterion(v) == is_projective_rep(v), \
            f"criteria disagree on {pieces} over {o}"
        checked += 1
    _report(6, "100 single-segment representations: direct criterion matches "
               "decompose-and-classify")


def test_criterion_7_duality():
    rng = random.Random(777)
    for i in range(100):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=6)
        v = scramble(from_bars(o, b), 900 + i)
        assert decompose(dual(v)) == b, f"dual changed the barcode at instance {i}"
        assert iso(dual(dual(v)), v), f"double dual not isomorphic at instance {i}"
    _report(7, "100 duals preserve barcodes; double dual isomorphic to the identity")


def test_criterion_8_ar_sequences():
    t0 = time.monotonic()
    rng = random.Random(888)
    verified = 0
    for o in (Orientation.make([(0, "sink"), (1, "source")]),
              Orientation.make([(0, "source")]),
              Orientation.make([], "descending")):
        pos = o.positions
        segs = [(pos[0] - 2, pos[0])] if pos else [(Fraction(-1), Fraction(1))]
        if pos:
            segs += list(zip(pos, pos[1:])) + [(pos[-1], pos[-1] + 2)]
        for lo, hi in segs:
            a = Fraction(lo) + Fraction(hi - lo) / 4
            b = Fraction(hi) - Fraction(hi - lo) / 4
            inc = segment_index(o, a).increasing
            w = Interval(a, b, False, True) if inc else Interval(a, b, True, False)
            ans = ar_ending_at(o, w)
            assert ans.status == EXISTS
            probes = standard_probes(o, ans.sequence, 50)
            assert len(probes) == 50
            assert verify_almost_split(ans.sequence, probes), f"verification fails over {o}"
            verified += 1
    o = Orientation.make([(0, "sink"), (1, "source")])
    points = 0
    while points < 10:
        x = Fraction(rng.randint(-40, 40), 8)
        if o.is_critical(x):
            continue
        assert ar_ending_at(o, Interval.point(x)).status == PROVEN_NONEXISTENT
        points += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"AR suite took {elapsed:.1f}s (budget 10s)"
    _report(8, f"{verified} sequences verified against 50-interval probe families; "
               f"10 point summands proven nonexistent ({elapsed:.1f}s)")


def test_criterion_9_hereditary_kernels():
    rng = random.Random(999)
    done = 0
    while done < 100:
        o = random_orientation(rng)
        labels = []
        while len(labels) < rng.randint(1, 3) + 3:
            x = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
            form = rng.choice((POINT, OPEN_RIGHT, OPEN_LEFT))
            lab = ProjectiveLabel(form, x)
            if realize_projective(o, lab) is not None:
                labels.append(lab)
        n_dom = rng.randint(1, 3)
        dom_ivs = [realize_projective(o, l) for l in labels[:n_dom]]
        cod_ivs = [realize_projective(o, l) for l in labels[n_dom:]]
        dom = from_bars(o, BarMultiset((iv, 1) for iv in dom_ivs))
        cod = from_bars(o, BarMultiset((iv, 1) for iv in cod_ivs))
        basis = hom_basis(dom, cod)
        if not basis:
            continue
        mats = [Matrix.zero(QQ, m.nrows, m.ncols) for m in basis[0].mats]
        for phi in basis:
            c = QQ.from_int(rng.choice((-1, 0, 1)))
            if c != 0:
                mats = [m.add(p.scale(c)) for m, p in zip(mats, phi.mats)]
        f = RepMorphism(basis[0].dom, basis[0].cod, mats)
        k = kernel_of_projective_map(f)
        assert is_projective_rep(k), f"non-projective kernel at instance {done}"
        done += 1
    _report(9, "100 kernels of maps between sums of projectives classify projective")
