"""The brute-force homological oracle against closed forms and known values."""

import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentkoszul.closed import (
    betti_closed,
    euler_check,
    hilbert_closed,
    projective_dimension,
)
from momentkoszul.fields import GF, QQ
from momentkoszul.grading import _Grading, _keeps_ideal, _swaps_p_and_q, _torus_grading
from momentkoszul.ideals import family
from momentkoszul import ideals, oracle
from momentkoszul.linalg import Echelon, InvalidInputError, axpy, kernel_of_columns
from momentkoszul.monomials import bidegrees_up_to_total, total
from momentkoszul.oracle import (
    KoszulOracle,
    default_workers,
    depth_zero_witness,
    hilbert_oracle,
    socle,
    tor_over_S,
)
from momentkoszul.polynomials import Polynomial, format_polynomial
from momentkoszul.quotient import QuotientRing, ring_for_family
from momentkoszul.verify import ORACLE_RANGE

from helpers import (
    brute_rank,
    column_with_a_flipped_sign,
    direct_dd,
    series_coeffs_one_var,
)


def test_tor_hypersurface():
    t = tor_over_S(family("gl", 1))
    assert t.entries == {(0, (0, 0)): 1, (1, (1, 1)): 1}
    assert not t.boundary_hits


def test_tor_sl2_totals_and_support():
    t = tor_over_S(family("sl", 2))
    assert t.totals() == [1, 3, 5, 4, 1]
    assert t.top(1) == 2
    # homological degree 2 sits entirely in total degree 4
    assert {v for (i, v) in t.entries if i == 2} == {(1, 3), (2, 2), (3, 1)}


def test_tor_sp2_strand_entry():
    t = tor_over_S(family("sp", 2), max_i=2)
    assert t.total_beta(2) == 100


def test_tor_boundary_reporting():
    # with the bound forced down to the support itself, the boundary is flagged
    t = tor_over_S(family("gl", 1), max_i=1, max_total_degree=2)
    assert (1, (1, 1)) in t.boundary_hits


def test_differential_squares_to_zero():
    oracle = KoszulOracle(ring_for_family(family("sl", 2)))
    for v in [(2, 2), (3, 2), (2, 3)]:
        for i in range(2, 5):
            oracle.check_dd(i, v)


def test_hilbert_oracle_matches_closed_gl2():
    f = family("gl", 2)
    assert hilbert_oracle(f, 6).coefficients == hilbert_closed(f, 6).coefficients


def test_hilbert_oracle_sp1_vanishing():
    h = hilbert_oracle(family("sp", 1), 4)
    assert h.coefficient((2, 1)) == 0
    assert h.coefficient((1, 2)) == 0
    assert h.coefficient((1, 1)) == 1


def test_hilbert_oracle_so3_collapsed():
    h = hilbert_oracle(family("so", 3), 8).collapse("s")
    expected = series_coeffs_one_var([1, 2], [1, -4, 6, -4, 1], 8)  # (1+2s)/(1-s)^4
    assert [h.coefficient((k,)) for k in range(9)] == expected


def test_socle_sp_concentrated_in_one_bidegree():
    assert socle(family("sp", 1), 4) == {(1, 1): 1}
    assert socle(family("sp", 2), 4) == {(1, 1): 6}


def test_socle_sl2_contains_the_mixed_class():
    soc = socle(family("sl", 2), 4)
    assert soc.get((1, 1), 0) >= 1


def test_socle_gl2_vanishes():
    assert socle(family("gl", 2), 4) == {}


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind,n", ORACLE_RANGE)
def test_socle_equals_the_dense_annihilator(kind, n, fld):
    # dim (S/I)_v minus the rank of v's multiplication maps stacked densely
    ring = ring_for_family(family(kind, n), fld)
    expected = {}
    for v in bidegrees_up_to_total(4):
        if v == (0, 0) or not ring.dim(v):
            continue
        maps = [ring.mult_by_var(x, v) for x in range(ring.nvars)]
        sizes = [ring.dim((v[0] + a, v[1] + b))
                 for a, b in map(ring.var_bidegree, range(ring.nvars))]
        rows = []  # row k: x times the k-th basis monomial, for every x
        for k in range(ring.dim(v)):
            rows.append([cols[k].get(j, 0)
                         for cols, size in zip(maps, sizes) for j in range(size)])
        kernel = ring.dim(v) - brute_rank(rows, fld.p)
        if kernel:
            expected[v] = kernel
    assert socle(family(kind, n), 4, fld) == expected


def small_artinian_ring(fld) -> QuotientRing:
    """S/I on p1, p2, q1 with I = (p1^2 - p2^2, p1*p2, q1^2, p1*q1 + 2*p2*q1):
    zero above total degree 2, and the maps of p and of q out of (1, 0) both
    land in nonzero pieces, so rows stacked at a wrong offset collide."""
    terms = [{(2, 0, 0): 1, (0, 2, 0): -1}, {(1, 1, 0): 1}, {(0, 0, 2): 1},
             {(1, 0, 1): 1, (0, 1, 1): 2}]
    return QuotientRing([Polynomial.from_dict(2, 1, t) for t in terms], 2, 1, fld)


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("case", [*ORACLE_RANGE, "small"],
                         ids=lambda case: "%s_%d" % case if case != "small" else case)
def test_annihilator_is_the_kernel_of_the_top_koszul_differential(case, fld):
    # d_N on K_N = (S/I)_v stacks the same maps with signs and in another
    # row order, so the reduced row echelon, and the kernel basis, agree
    ring = (small_artinian_ring(fld) if case == "small"
            else ring_for_family(family(*case), fld))
    whole = KoszulOracle(ring)
    nonzero = 0
    for v in bidegrees_up_to_total(4):
        top = (v[0] + ring.num_p, v[1] + ring.num_q)
        kernel = ring.annihilator(v)
        assert kernel == kernel_of_columns(whole.columns(ring.nvars, top), fld), v
        nonzero += bool(kernel)
    if case == "small":
        assert nonzero == 2  # (2, 0) and (1, 1), each spanned by its one monomial


def test_depth_witnesses():
    assert depth_zero_witness(family("sl", 2)) is not None
    assert depth_zero_witness(family("sp", 2)) is not None
    assert depth_zero_witness(family("gl", 2)) is None
    assert depth_zero_witness(family("so", 3)) is None
    v, text = depth_zero_witness(family("sl", 2))
    assert v == (1, 1) and text  # the class of the diagonal quadric


# socle(f, 4) and depth_zero_witness(f), recorded when both read the kernel
# of the top Koszul differential of a whole-complex oracle
PINNED_SOCLES = {
    ("gl", 1): ({}, None), ("gl", 2): ({}, None), ("gl", 3): ({}, None),
    ("sl", 1): ({}, None),
    ("sl", 2): ({(1, 1): 1}, ((1, 1), "p2*q2")),
    ("sl", 3): ({(1, 1): 1}, ((1, 1), "p3*q3")),
    ("sl", 4): ({(1, 1): 1}, ((1, 1), "p4*q4")),
    ("so", 1): ({}, None), ("so", 2): ({}, None), ("so", 3): ({}, None),
    ("so", 4): ({}, None),
    ("sp", 1): ({(1, 1): 1}, ((1, 1), "p21*q21")),
    ("sp", 2): ({(1, 1): 6}, ((1, 1), "p12*q21")),
    ("sp", 3): ({(1, 1): 15}, ((1, 1), "p12*q21")),
}


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind, n", PINNED_SOCLES)
def test_socle_and_depth_witness_keep_their_pinned_values(kind, n, fld):
    assert {*ORACLE_RANGE, ("sl", 4), ("so", 4), ("sp", 3)} == set(PINNED_SOCLES)
    f = family(kind, n)
    assert (socle(f, 4, fld), depth_zero_witness(f, fld)) == PINNED_SOCLES[(kind, n)]


def test_depth_witness_prints_its_vector_as_a_polynomial(monkeypatch):
    # a vector with a negative coefficient, printed as the generators are
    f = family("sp", 2)
    basis = ring_for_family(f).piece((1, 1)).basis
    monkeypatch.setattr(QuotientRing, "annihilator",
                        lambda self, v: [{0: 1, 1: -2}] if v == (1, 1) else [])
    poly = Polynomial.from_dict(f.num_p, f.num_q, {basis[0]: 1, basis[1]: -2})
    text = format_polynomial(poly, f.doubled_names)
    assert " - 2*" in text
    assert depth_zero_witness(f) == ((1, 1), text)


@pytest.mark.parametrize("kind", ["sl", "sp"])
def test_depth_witness_kernels_are_killed_by_every_variable(monkeypatch, kind):
    f = family(kind, 2)
    ring = ring_for_family(f)
    built = []  # [(v, kernel vectors)] as depth_zero_witness builds them
    annihilator = QuotientRing.annihilator

    def recording_annihilator(self, v):
        kernel = annihilator(self, v)
        built.append((v, kernel))
        return kernel

    monkeypatch.setattr(QuotientRing, "annihilator", recording_annihilator)
    assert depth_zero_witness(f) is not None
    assert built[-1][1]
    for v, kernel in built:
        for vec in kernel:
            for x in range(ring.nvars):
                mult = ring.mult_by_var(x, v)
                image = {}
                for pos, c in vec.items():
                    axpy(image, c, mult[pos])
                assert not image, (v, vec, x)


def test_oracle_equals_closed_small_over_both_fields():
    for kind, n in [("gl", 2), ("sl", 2), ("so", 2), ("sp", 1)]:
        f = family(kind, n)
        closed = betti_closed(f)
        for fld in (QQ, GF(32003)):
            t = tor_over_S(f, fld=fld)
            assert not closed.diff(t), (kind, n, str(fld))
            assert not t.boundary_hits


def test_euler_check_on_oracle_tables():
    for kind, n in [("gl", 2), ("sl", 2), ("so", 3), ("sp", 1)]:
        f = family(kind, n)
        ok, mismatch = euler_check(f, 10, table=tor_over_S(f))
        assert ok, (kind, n, mismatch)


def test_oracle_tables_are_symmetric():
    for kind, n in [("gl", 2), ("sl", 3), ("so", 3), ("sp", 1)]:
        assert tor_over_S(family(kind, n)).is_symmetric()


def _direct_betti(f, fld, bidegrees):
    """{(i, v): beta} of every key ``tor_over_S`` scans by default with v in
    ``bidegrees``, each bidegree by ``_bidegree_betti`` on one fresh ring."""
    ring = ring_for_family(f, fld)
    scan = {}
    for i in range(min(projective_dimension(f), ring.nvars) + 1):
        for v in bidegrees_up_to_total(i + 3):
            if v in bidegrees:
                scan.setdefault(v, []).append(i)
    out = {}
    for task in scan.items():
        v, betti = oracle._bidegree_betti(ring, task)
        out.update(((i, v), b) for i, b in betti.items())
    return out


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind, n", [("gl", 2), ("sl", 3), ("so", 3), ("sp", 2)])
def test_mirrored_entries_equal_their_direct_ranks(kind, n, fld):
    # tor_over_S reads each beta_i(a, b) with a < b off (b, a); computed
    # directly instead, every one of them must come out the same
    f = family(kind, n)
    assert _swaps_p_and_q(ring_for_family(f, fld))
    table = tor_over_S(f, fld=fld, workers=1)
    below = {v for v in bidegrees_up_to_total(f.num_p + f.num_q + 3) if v[0] < v[1]}
    direct = _direct_betti(f, fld, below)
    assert any(direct.values())
    assert {key: table.beta(*key) for key in direct} == direct


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_a_ring_that_fails_the_swap_check_ranks_every_bidegree(monkeypatch, fld):
    # gl_2 without p1*q2 keeps p2*q1, whose swap p1*q2 is then not in I
    p1q2 = Polynomial.from_dict(2, 2, {(1, 0, 0, 1): 1})
    real = ideals.generators
    monkeypatch.setattr(ideals, "generators",
                        lambda f: [g for g in real(f) if g != p1q2])
    f = family("gl", 2)
    ring = ring_for_family(f, fld)
    assert len(ring.generators) == 3
    assert not _swaps_p_and_q(ring)
    ranked = set()
    rank = KoszulOracle.rank

    def recording_rank(self, i, v):
        ranked.add((i, v))
        return rank(self, i, v)

    monkeypatch.setattr(KoszulOracle, "rank", recording_rank)
    table = tor_over_S(f, fld=fld, workers=1)
    through_tor = set(ranked)
    ranked.clear()
    direct = _direct_betti(f, fld, set(bidegrees_up_to_total(f.num_p + f.num_q + 3)))
    assert through_tor == ranked
    assert any(v[0] < v[1] for _, v in through_tor)
    assert table.entries == {key: b for key, b in direct.items() if b}


def _direct_table(f, fld):
    """The entries and boundary hits of ``tor_over_S(f, fld=fld)`` in its
    default scan, every bidegree ranked whole by ``_direct_betti``."""
    direct = _direct_betti(f, fld, set(bidegrees_up_to_total(f.num_p + f.num_q + 3)))
    entries = {key: b for key, b in direct.items() if b}
    boundary = [(i, v) for i in range(min(projective_dimension(f), f.num_p + f.num_q) + 1)
                for v in bidegrees_up_to_total(i + 3)
                if (i, v) in entries and total(v) == i + 3]
    return entries, boundary


# sp_3 runs over F_32003 alone: its whole-bidegree reference takes about 3 s
# per field
ORBIT_CASES = [(kind, n, fld) for kind in ("gl", "sl", "so", "sp") for n in (1, 2, 3)
               for fld in (QQ, GF(32003)) if (kind, n) != ("sp", 3) or fld.p]
ORBIT_CASES += [(kind, 4, fld) for kind in ("gl", "sl") for fld in (QQ, GF(32003))]


@pytest.mark.parametrize("kind, n, fld", ORBIT_CASES, ids=str)
def test_orbit_weighted_ranks_equal_the_whole_bidegree_ranks(kind, n, fld):
    # tor_over_S ranks one dominant weight per S_n orbit and counts it with
    # the orbit's size; ranked whole instead, every entry must come out the same
    f = family(kind, n)
    ring = ring_for_family(f, fld)
    assert _torus_grading(ring, f.torus_weights).n == n
    table = tor_over_S(f, fld=fld, workers=1)
    entries, boundary = _direct_table(f, fld)
    assert table.entries == entries
    assert table.boundary_hits == boundary


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_a_ring_that_fails_the_permutation_check_is_ranked_whole(monkeypatch, fld):
    # sl_3 without p1*q2 keeps p2*q1 and p3*q1; the transposition (1 2) sends
    # the first and the 3-cycle the second to p1*q2, which is not in I
    p1q2 = Polynomial.from_dict(3, 3, {(1, 0, 0, 0, 1, 0): 1})
    real = ideals.generators
    monkeypatch.setattr(ideals, "generators",
                        lambda f: [g for g in real(f) if g != p1q2])
    f = family("sl", 3)
    ring = ring_for_family(f, fld)
    assert len(ring.generators) == 7
    assert not _keeps_ideal(ring, [1, 0, 2, 4, 3, 5])
    assert not _keeps_ideal(ring, [1, 2, 0, 4, 5, 3])
    assert _torus_grading(ring, f.torus_weights).n == 0
    weight_dims = set()  # n of the weights Z^n of every oracle
    basis = KoszulOracle.basis

    def recording_basis(self, i, v):
        weight_dims.add(self.grading.n)
        return basis(self, i, v)

    monkeypatch.setattr(KoszulOracle, "basis", recording_basis)
    table = tor_over_S(f, fld=fld, workers=1)
    assert weight_dims == {0}
    entries, boundary = _direct_table(f, fld)
    assert table.entries == entries
    assert table.boundary_hits == boundary


def test_tor_ranks_a_fraction_of_the_columns_of_gl4(monkeypatch):
    built = []
    columns = KoszulOracle.columns

    def counting_columns(self, i, v):
        fresh = (i, v) not in self._cols
        cols = columns(self, i, v)
        if fresh:
            built.append(len(cols))
        return cols

    monkeypatch.setattr(KoszulOracle, "columns", counting_columns)
    tor_over_S(family("gl", 4), workers=1)
    # 9,476 when every bidegree with a >= b is ranked whole; 1,347 with one
    # dominant weight per S_4 orbit
    assert sum(built) <= 2000


def test_parallel_workers_are_bit_identical():
    f = family("sl", 2)
    a = tor_over_S(f, workers=1)
    b = tor_over_S(f, workers=2)
    assert a.entries == b.entries
    assert a.boundary_hits == b.boundary_hits


def test_worker_count_from_environment_is_clamped(monkeypatch):
    monkeypatch.setenv("MOMENTKOSZUL_THREADS", "1000000")
    if hasattr(os, "sched_getaffinity"):
        assert default_workers() == len(os.sched_getaffinity(0))
    else:
        assert default_workers() == (os.cpu_count() or 1)


def test_workers_are_clamped_to_the_cores_the_process_may_use(monkeypatch):
    # os.cpu_count() counts the machine's cores, not the ones this process
    # is allowed to run on
    monkeypatch.setenv("MOMENTKOSZUL_THREADS", "8")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1


def test_explicit_worker_count_is_clamped(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(oracle, "_map_on_pool", no_pool)
    table = tor_over_S(family("gl", 1), workers=1000000)
    assert table.entries == tor_over_S(family("gl", 1), workers=1).entries


def test_each_oracle_of_tor_holds_one_bidegree(monkeypatch):
    touched = {}
    basis = KoszulOracle.basis

    def recording_basis(self, i, v):
        touched.setdefault(self, set()).add(v)
        return basis(self, i, v)

    monkeypatch.setattr(KoszulOracle, "basis", recording_basis)
    tor_over_S(family("sl", 2), workers=1)
    assert len(touched) > 1
    assert all(len(degrees) == 1 for degrees in touched.values())


def test_tor_ranks_and_checks_the_keys_of_one_shared_oracle(monkeypatch):
    calls = set()
    rank, check_dd = KoszulOracle.rank, KoszulOracle.check_dd

    def recording_rank(self, i, v):
        calls.add(("rank", i, v))
        return rank(self, i, v)

    def recording_check_dd(self, i, v):
        calls.add(("dd", i, v))
        return check_dd(self, i, v)

    monkeypatch.setattr(KoszulOracle, "rank", recording_rank)
    monkeypatch.setattr(KoszulOracle, "check_dd", recording_check_dd)
    for kind, n in [("gl", 3), ("sl", 2), ("sp", 1)]:
        f = family(kind, n)
        calls.clear()
        # one oracle for the whole scan, i outer, then v; the ring passes
        # the swap check, so the bidegrees with a < b are read off (b, a)
        shared = KoszulOracle(ring_for_family(f))
        for i in range(projective_dimension(f) + 1):
            for v in bidegrees_up_to_total(i + 3):
                if v[0] < v[1]:
                    continue
                shared.betti(i, v)
                if shared.dimension(i, v):
                    shared.check_dd(i, v)
                    shared.check_dd(i + 1, v)
        expected = set(calls)
        calls.clear()
        tor_over_S(f, workers=1)
        assert calls == expected, (kind, n)


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind, n", [("gl", 3), ("sl", 2), ("sp", 2), ("so", 3)])
def test_tor_checks_each_differential_before_it_ranks_it(monkeypatch, kind, n, fld):
    events = []  # (oracle, "dd" or "rank", i, v), in call order
    held = []    # differentials an oracle holds the columns of, per rank
    rank, check_dd = KoszulOracle.rank, KoszulOracle.check_dd

    def recording_rank(self, i, v):
        events.append((self, "rank", i, v))
        held.append(len(self._cols))
        return rank(self, i, v)

    def recording_check_dd(self, i, v):
        events.append((self, "dd", i, v))
        return check_dd(self, i, v)

    monkeypatch.setattr(KoszulOracle, "rank", recording_rank)
    monkeypatch.setattr(KoszulOracle, "check_dd", recording_check_dd)
    table = tor_over_S(family(kind, n), fld=fld, workers=1)
    assert not betti_closed(family(kind, n)).diff(table)
    checked, ranked = set(), set()
    for owner, what, i, v in events:
        if what == "dd":
            checked.add((owner, i, v))
        else:
            assert (owner, i, v) in checked, (i, v)
            ranked.add((owner, i, v))
    assert checked == ranked
    assert held and max(held) <= 1


def test_d_squared_is_checked_inside_pool_workers(monkeypatch):
    columns = KoszulOracle.columns

    def one_flipped_sign(self, i, v):
        cols = [dict(col) for col in columns(self, i, v)]
        if i == 2 and cols and cols[0]:
            pos = min(cols[0])
            cols[0][pos] = -cols[0][pos]
        return cols

    monkeypatch.setattr(KoszulOracle, "columns", one_flipped_sign)
    with pytest.raises(AssertionError, match=r"d\.d != 0"):
        tor_over_S(family("sl", 2), workers=2)


def test_a_failing_pool_is_joined_not_terminated(monkeypatch):
    # terminating kills workers mid-write, and one killed holding the result
    # queue's lock hangs the pool's task thread, so the call never returns
    import multiprocessing.pool

    def no_terminate(self):
        raise RuntimeError("the pool was terminated")

    def failing_check(self, i, v):
        raise AssertionError("d.d != 0 (planted)")

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", no_terminate)
    monkeypatch.setattr(KoszulOracle, "check_dd", failing_check)
    with pytest.raises(AssertionError, match="planted"):
        tor_over_S(family("sl", 2), workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_an_entry_at_a_wrong_target_offset(monkeypatch, workers):
    columns = KoszulOracle.columns

    def one_moved_entry(self, i, v):
        cols = columns(self, i, v)
        if i != 3:
            return cols
        cols = [dict(col) for col in cols]
        n_rows = self.dimension(i - 1, v)
        for col in cols:
            for row in sorted(col):
                if row + 1 < n_rows and row + 1 not in col:
                    col[row + 1] = col.pop(row)
                    return cols
        return cols

    monkeypatch.setattr(KoszulOracle, "columns", one_moved_entry)
    with pytest.raises(AssertionError, match=r"d\.d != 0"):
        tor_over_S(family("sl", 2), workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_a_corrupted_multiplication_entry(monkeypatch, workers):
    mult_by_var = QuotientRing.mult_by_var

    def one_corrupted_entry(self, x, w):
        fresh = (x, w) not in self._mult
        cols = mult_by_var(self, x, w)
        if fresh and (x, w) == (0, (1, 0)):
            pos = min(cols[0])
            cols[0][pos] += 1
        return cols

    monkeypatch.setattr(QuotientRing, "mult_by_var", one_corrupted_entry)
    message = r"d\.d != 0" + (r" at i=4, v=\(3, 2\)" if workers == 1 else "")
    with pytest.raises(AssertionError, match=message):
        tor_over_S(family("sl", 2), workers=workers)


# every rank read with clearing equals the rank of all the columns, read by
# a fresh oracle
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("gl", 2), ("sl", 2), ("so", 2), ("so", 3), ("sp", 1),
                        ("gl", 3), ("sp", 2)]),
       st.sampled_from([QQ, GF(32003)]))
def test_cleared_ranks_equal_the_ranks_of_all_columns(kind_n, fld):
    ranked = {}
    rank = KoszulOracle.rank

    def recording_rank(self, i, v):
        ranked[(i, v)] = rank(self, i, v)
        return ranked[(i, v)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KoszulOracle, "rank", recording_rank)
        tor_over_S(family(*kind_n), fld=fld, workers=1)
    assert ranked
    ring = ring_for_family(family(*kind_n), fld)
    for (i, v), r in ranked.items():
        # a fresh oracle ranks (i, v) alone, so it clears no column
        assert KoszulOracle(ring).rank(i, v) == r, (kind_n, str(fld), i, v)


def test_tor_never_inserts_a_column_that_clearing_proves_dependent(monkeypatch):
    inserted = []  # every vector handed to Echelon.insert, kept alive so ids stay unique
    built = {}     # (oracle, i, v) -> the columns of d_i it built
    insert, columns = Echelon.insert, KoszulOracle.columns

    def recording_insert(self, vec):
        inserted.append(vec)
        return insert(self, vec)

    def recording_columns(self, i, v):
        built[(self, i, v)] = columns(self, i, v)
        return built[(self, i, v)]

    monkeypatch.setattr(Echelon, "insert", recording_insert)
    monkeypatch.setattr(KoszulOracle, "columns", recording_columns)
    tor_over_S(family("sp", 2), workers=1)
    ids = {id(vec) for vec in inserted}
    skipped = 0
    for (owner, i, v), cols in built.items():
        upper = built.get((owner, i + 1, v))
        if upper is None or not any(id(col) in ids for col in upper):
            continue  # d_{i+1} was not ranked column by column
        ech = Echelon(None)
        for col in upper:
            insert(ech, col)
        # the pivots of d_{i+1}'s column echelon are the same for any spanning
        # subset of its columns, so they do not depend on what was cleared
        assert not [j for j in ech.rows if id(cols[j]) in ids], (i, v)
        skipped += len(ech.rows)
    assert skipped


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind_n", [("so", 2), ("sp", 2)],
                         ids=lambda kind_n: "%s_%d" % kind_n)
def test_every_differential_below_a_nonzero_rank_is_cleared(monkeypatch,
                                                            kind_n, fld):
    # every differential is ranked by its columns, so one of nonzero rank
    # always leaves its pivots for the differential below it
    rank = KoszulOracle.rank
    cleared = []

    def recording_rank(self, i, v):
        below_nonzero = (i >= 1 and (i, v) not in self._rank
                         and self._rank.get((i + 1, v)))
        if below_nonzero:
            assert self._cleared.get((i, v)), (i, v)
        r = rank(self, i, v)
        if below_nonzero:
            assert (i, v) not in self._cleared, (i, v)
            cleared.append((i, v))
        return r

    monkeypatch.setattr(KoszulOracle, "rank", recording_rank)
    tor_over_S(family(*kind_n), fld=fld, workers=1)
    assert cleared


def test_clearing_cuts_the_vain_insertions_of_sp2(monkeypatch):
    vain = []
    insert = Echelon.insert

    def counting_insert(self, vec):
        grew = insert(self, vec)
        if not grew:
            vain.append(vec)
        return grew

    monkeypatch.setattr(Echelon, "insert", counting_insert)
    tor_over_S(family("sp", 2), workers=1)
    # 6,867 when every column of every differential is inserted; 1,351 with
    # clearing, the rest coming from quotient pieces, homology and the first
    # differential ranked in each bidegree, which nothing clears
    assert len(vain) <= 1400


def cleared_column(kind: str, n: int, i: int, v) -> int:
    """The first column of d_i in bidegree v that clearing skips: the
    smallest pivot of the column echelon of d_{i+1}."""
    oracle = KoszulOracle(ring_for_family(family(kind, n)))
    ech = Echelon(None)
    for col in oracle.columns(i + 1, v):
        ech.insert(col)
    return min(ech.rows)


# sl_2's d_2 in bidegree (2, 1) is ranked column by column, after d_3
CLEARED_I, CLEARED_V = 2, (2, 1)
CLEARED_MESSAGE = r"d\.d != 0 at i=2, v=\(2, 1\)"


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_a_flipped_sign_in_a_cleared_column(monkeypatch, workers):
    j = cleared_column("sl", 2, CLEARED_I, CLEARED_V)
    built, inserted = [], []
    insert = Echelon.insert

    def recording_insert(self, vec):
        inserted.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(KoszulOracle, "columns", column_with_a_flipped_sign(
        KoszulOracle.columns, CLEARED_I, CLEARED_V, j, built))
    monkeypatch.setattr(Echelon, "insert", recording_insert)
    with pytest.raises(AssertionError, match=CLEARED_MESSAGE):
        tor_over_S(family("sl", 2), workers=workers)
    if workers == 1:
        # d_2 is checked before it is ranked: none of its columns, the
        # cleared one included, reaches the eliminator
        (cols,) = built
        ids = {id(vec) for vec in inserted}
        assert not any(id(col) in ids for col in cols)


def test_d_squared_catches_a_cleared_column_under_python_O():
    j = cleared_column("sl", 2, CLEARED_I, CLEARED_V)
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "from momentkoszul.oracle import KoszulOracle, tor_over_S\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import column_with_a_flipped_sign\n"
        "KoszulOracle.columns = column_with_a_flipped_sign(\n"
        f"    KoszulOracle.columns, {CLEARED_I}, {CLEARED_V}, {j})\n"
        "tor_over_S(family('sl', 2), workers=1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: d.d != 0 at i=2, v=(2, 1)" in proc.stderr


REAL_MULT_BY_VAR = QuotientRing.mult_by_var


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_a_flipped_sign_in_a_kept_column(monkeypatch, workers):
    f = family("sl", 3)
    ring = ring_for_family(f)
    kept = KoszulOracle(ring, _torus_grading(ring, f.torus_weights))
    i, v = 2, (2, 1)
    cols = kept.columns(i, v)
    assert len(cols) < kept.dimension(i, v)
    j = next(j for j, col in enumerate(cols) if col)
    monkeypatch.setattr(KoszulOracle, "columns", column_with_a_flipped_sign(
        KoszulOracle.columns, i, v, j))
    with pytest.raises(AssertionError, match=r"d\.d != 0 at i=2, v=\(2, 1\)"):
        tor_over_S(f, workers=workers)


def moved_to_another_weight(f, x: int, w):
    """A ``mult_by_var`` whose (x, w) map, when first built, has the entry at
    the smallest row of its first nonzero column moved to a free row of
    another torus weight."""
    def one_moved_entry(self, y, u):
        fresh = (y, u) not in self._mult
        cols = REAL_MULT_BY_VAR(self, y, u)
        if fresh and (y, u) == (x, w):
            grading = _Grading(self, f.torus_weights)
            up = (w[0] + 1, w[1]) if x < self.num_p else (w[0], w[1] + 1)
            weights = [grading.weight(m) for m in self.piece(up).basis]
            col = next(col for col in cols if col)
            row = min(col)
            other = next(r for r, wt in enumerate(weights)
                         if wt != weights[row] and r not in col)
            col[other] = col.pop(row)
        return cols

    return one_moved_entry


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_an_entry_in_a_row_of_another_weight(monkeypatch, workers):
    # every square passes, so only the assembly check can find the entry
    f = family("sl", 3)
    monkeypatch.setattr(QuotientRing, "mult_by_var", moved_to_another_weight(f, 0, (1, 0)))
    monkeypatch.setattr(QuotientRing, "commutes", lambda self, x, y, v: True)
    with pytest.raises(AssertionError, match=r"d\.d != 0"):
        tor_over_S(f, workers=workers)


def test_columns_on_their_own_catch_an_entry_in_a_row_of_another_weight(monkeypatch):
    # columns asked for with no check_dd first: every differential that reads
    # the moved map raises d.d != 0, and every other one is unchanged
    f = family("sl", 3)
    keys = [(i, v) for i in range(1, 7) for v in bidegrees_up_to_total(i + 3)]
    assert len(keys) == 200
    ring = ring_for_family(f)
    clean = KoszulOracle(ring, _torus_grading(ring, f.torus_weights))
    moved_map = (0, (1, 0))
    reads, expected = set(), {}
    for i, v in keys:
        if any((x, w) == moved_map for (_, w, _, _), maps in
               zip(clean.basis(i, v)[0], clean._removals(i, v))
               for _, x, _, _, _ in maps):
            reads.add((i, v))
        expected[(i, v)] = clean.columns(i, v)
    assert reads
    monkeypatch.setattr(QuotientRing, "mult_by_var", moved_to_another_weight(f, *moved_map))
    ring = ring_for_family(f)
    kept = KoszulOracle(ring, _torus_grading(ring, f.torus_weights))
    for i, v in keys:
        if (i, v) in reads:
            with pytest.raises(AssertionError, match=re.escape(f"d.d != 0 at i={i}, v={v}")):
                kept.columns(i, v)
        else:
            assert kept.columns(i, v) == expected[(i, v)], (i, v)


def kept_row_of_another_weight(f):
    """(x, w, pos, t): a kept column pos of the map x on (S/I)_w, read by a
    differential that ``tor_over_S(f)`` ranks, and a row t of another weight
    that the face's block keeps, so an entry planted there has a place."""
    ring = ring_for_family(f)
    grading = _torus_grading(ring, f.torus_weights)
    kept = KoszulOracle(ring, grading)
    for i in range(1, projective_dimension(f) + 1):
        for v in bidegrees_up_to_total(i + 3):
            if v[0] < v[1]:
                continue
            for (_, w, _, (coords, _, _)), maps in zip(kept.basis(i, v)[0],
                                                       kept._removals(i, v)):
                for _, x, mult, _, index in maps:
                    up = ring.piece((w[0] + 1, w[1]) if x < ring.num_p else (w[0], w[1] + 1))
                    for pos in coords:
                        for row in mult[pos]:
                            for t in index:
                                if (t not in mult[pos] and grading.weight(up.basis[t])
                                        != grading.weight(up.basis[row])):
                                    return x, w, pos, t
    raise AssertionError("no kept row of another weight")


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_an_entry_at_a_kept_row_of_another_weight(monkeypatch, workers):
    # the planted row has a place in the face's block, so the columns hold
    # it and their entries match the map; every square passes, so only the
    # homogeneity check of the map can find it
    f = family("sl", 3)
    x, w, pos, t = kept_row_of_another_weight(f)

    def one_planted_entry(self, y, u):
        fresh = (y, u) not in self._mult
        cols = REAL_MULT_BY_VAR(self, y, u)
        if fresh and (y, u) == (x, w):
            cols[pos][t] = 1
        return cols

    monkeypatch.setattr(QuotientRing, "mult_by_var", one_planted_entry)
    monkeypatch.setattr(QuotientRing, "commutes", lambda self, x, y, v: True)
    with pytest.raises(AssertionError, match=r"d\.d != 0"):
        tor_over_S(f, workers=workers)


def test_removals_hold_the_rings_own_maps():
    f = family("sl", 3)
    ring = ring_for_family(f)
    kept = KoszulOracle(ring, _torus_grading(ring, f.torus_weights))
    i, v = 3, (3, 2)
    blocks, removals = kept.basis(i, v)[0], kept._removals(i, v)
    assert len(blocks) == len(removals) and any(removals)
    for (eps, w, _, _), maps in zip(blocks, removals):
        for odd, x, mult, _, _ in maps:
            assert odd == eps.index(x) % 2
            assert mult is ring.mult_by_var(x, w)


def test_tor_checks_each_map_it_binds_once(monkeypatch):
    # _removals looks every face up in the grading's maps; a miss binds the
    # map, and the bind weight-checks it where its target piece is nonzero
    checked, read = [], set()
    bind, removals = _Grading.bind, KoszulOracle._removals

    def recording_bind(self, x, w, fail):
        mult = bind(self, x, w, fail)
        if mult is not None:
            checked.append((x, w))
        return mult

    def recording_removals(self, i, v):
        got = removals(self, i, v)
        read.update((x, w) for (_, w, _, _), maps in zip(self.basis(i, v)[0], got)
                    for _, x, _, _, _ in maps)
        return got

    monkeypatch.setattr(_Grading, "bind", recording_bind)
    monkeypatch.setattr(KoszulOracle, "_removals", recording_removals)
    tor_over_S(family("sl", 3), workers=1)
    assert read
    assert len(checked) == len(set(checked)) == len(read)
    assert set(checked) == read


def test_basis_without_a_nonzero_piece_asks_for_no_coordinates(monkeypatch):
    f = family("sl", 3)
    ring = ring_for_family(f)
    kept = KoszulOracle(ring, _torus_grading(ring, f.torus_weights))

    def refused(self, w, eps_weight):
        raise AssertionError(f"kept asked for {w}")

    monkeypatch.setattr(_Grading, "kept", refused)
    # i > total(v): every piece v - deg eps lies outside the quadrant
    assert kept.basis(4, (1, 1)) == ([], [])
    # every piece v - deg eps, (1, 3), (2, 2) and (3, 1), is zero for sl_3
    assert not any(ring.dim(w) for w in ((1, 3), (2, 2), (3, 1)))
    assert kept.basis(2, (3, 3)) == ([], [])


def test_basis_asks_for_each_weight_class_once(monkeypatch):
    asked = []  # per basis call, the (w, eps weight) of each kept call
    kept, basis = _Grading.kept, KoszulOracle.basis

    def recording_kept(self, w, eps_weight):
        assert self.ring.dim(w)
        asked[-1].append((w, eps_weight))
        return kept(self, w, eps_weight)

    def recording_basis(self, i, v):
        asked.append([])
        return basis(self, i, v)

    monkeypatch.setattr(_Grading, "kept", recording_kept)
    monkeypatch.setattr(KoszulOracle, "basis", recording_basis)
    tor_over_S(family("sl", 3), workers=1)
    assert max(map(len, asked)) > 1
    assert all(len(calls) == len(set(calls)) for calls in asked)


def matrices_digest(f, fld, graded: bool) -> str:
    """A digest of the orbit list of every ``basis(i, v)``, i <= nvars, and
    of every ``columns(i, v)``, i >= 1, total(v) <= i + 3, under the torus
    grading or the trivial one."""
    ring = ring_for_family(f, fld)
    kept = KoszulOracle(ring, _torus_grading(ring, f.torus_weights)
                        if graded else None)
    digest = hashlib.sha256()
    for i in range(ring.nvars + 1):
        for v in bidegrees_up_to_total(i + 3):
            cols = [sorted(col.items()) for col in kept.columns(i, v)] if i else []
            digest.update(repr((i, v, kept.basis(i, v)[1], cols)).encode())
            kept.release(i, v)
    return digest.hexdigest()[:16]


# recorded when each block held one weight class of one eps, so keying the
# blocks by eps alone moved no index and no entry
PINNED_MATRICES = {
    ("gl", 3, QQ, True): "6032de9478ae50e2",
    ("gl", 3, QQ, False): "94193a1d520e6bbe",
    ("so", 4, QQ, True): "9c92559a915782b2",
    ("so", 4, QQ, False): "859041db12af8044",
    ("sp", 2, QQ, True): "5f832be3ce497a61",
    ("sp", 2, QQ, False): "e900788b7711b645",
    ("sl", 4, GF(32003), True): "1f50f0d52f0b2670",
    ("sl", 4, GF(32003), False): "7930386e2c5190d0",
}


@pytest.mark.parametrize("kind, n, fld, graded", PINNED_MATRICES, ids=str)
def test_every_differential_and_orbit_list_keeps_its_pinned_digest(kind, n, fld, graded):
    digest = matrices_digest(family(kind, n), fld, graded)
    assert digest == PINNED_MATRICES[(kind, n, fld, graded)]


def corrupted_mult(x: int, w):
    """A ``mult_by_var`` whose (x, w) map, when first built, has 1 added to
    the first entry of its first column."""
    def one_corrupted_entry(self, y, u):
        fresh = (y, u) not in self._mult
        cols = REAL_MULT_BY_VAR(self, y, u)
        if fresh and (y, u) == (x, w) and cols and cols[0]:
            cols[0][min(cols[0])] += 1
        return cols

    return one_corrupted_entry


@pytest.mark.parametrize("workers", [1, 2])
def test_d_squared_catches_a_corrupted_map_that_only_the_squares_read(monkeypatch, workers):
    f = family("sl", 2)
    read, built, reading = set(), set(), []
    with monkeypatch.context() as m:
        def recording_removals(self, i, v):
            reading.append(True)
            try:
                return removals(self, i, v)
            finally:
                reading.pop()

        def recording_mult(self, x, w):
            built.add((x, w))
            if reading:
                read.add((x, w))
            return REAL_MULT_BY_VAR(self, x, w)

        removals = KoszulOracle._removals
        m.setattr(KoszulOracle, "_removals", recording_removals)
        m.setattr(QuotientRing, "mult_by_var", recording_mult)
        tor_over_S(f, workers=1)
    # no differential reads x_1 on (S/I)_(4, 0); only a square composes it
    assert read and (1, (4, 0)) in built - read
    monkeypatch.setattr(QuotientRing, "mult_by_var", corrupted_mult(1, (4, 0)))
    message = r"d\.d != 0" + (r" at i=4, v=\(5, 2\)" if workers == 1 else "")
    with pytest.raises(AssertionError, match=message):
        tor_over_S(f, workers=workers)


def _composed_squares(monkeypatch, f) -> tuple[list, set]:
    """The (x, y, w) of every ``QuotientRing.commutes`` call of one
    ``tor_over_S(f)``, x < y, and the set of those whose maps it composed."""
    asked, composed = [], set()
    commutes, composite = QuotientRing.commutes, QuotientRing._composite

    def recording_commutes(self, x, y, v):
        asked.append((min(x, y), max(x, y), v))
        return commutes(self, x, y, v)

    def recording_composite(self, x, y, v):
        composed.add((min(x, y), max(x, y), v))
        return composite(self, x, y, v)

    monkeypatch.setattr(QuotientRing, "commutes", recording_commutes)
    monkeypatch.setattr(QuotientRing, "_composite", recording_composite)
    assert not betti_closed(f).diff(tor_over_S(f, workers=1))
    return asked, composed


def test_so4_composes_the_pinned_squares(monkeypatch):
    # pinned from the oracle that built every map through normal forms and
    # asked every pair set in every bidegree: the lookups compose the same
    _, composed = _composed_squares(monkeypatch, family("so", 4))
    digest = hashlib.sha256(repr(sorted(composed)).encode()).hexdigest()
    assert (len(composed), digest[:16]) == (240, "e9ce80daa145786a")


def test_so4_maps_need_no_normal_form_and_squares_are_asked_once(monkeypatch):
    inside, nf_calls = [], []
    nf, mult = QuotientRing.nf, QuotientRing.mult_by_var

    def counting_nf(self, v, vec):
        if inside:
            nf_calls.append(v)
        return nf(self, v, vec)

    def tracked_mult(self, x, w):
        inside.append(x)
        try:
            return mult(self, x, w)
        finally:
            inside.pop()

    monkeypatch.setattr(QuotientRing, "nf", counting_nf)
    monkeypatch.setattr(QuotientRing, "mult_by_var", tracked_mult)
    asked, composed = _composed_squares(monkeypatch, family("so", 4))
    assert nf_calls == []
    assert len(asked) == len(set(asked)) == len(composed) == 240


def test_a_corrupted_multiplication_entry_never_yields_a_negative_beta(monkeypatch):
    f = family("sl", 2)
    caught = set()
    for x in range(f.num_p + f.num_q):
        for w in bidegrees_up_to_total(3):
            monkeypatch.setattr(QuotientRing, "mult_by_var", corrupted_mult(x, w))
            try:
                tor_over_S(f, workers=1)
            except AssertionError as exc:
                assert "d.d != 0" in str(exc), (x, w, exc.args)
                caught.add((x, w))
    # with each Betti number taken before its d.d checks, these two raised
    # beta_3,(2,2) < 0 first
    assert {(0, (0, 1)), (2, (1, 0))} <= caught


def test_tor_builds_columns_only_for_the_keys_it_ranks(monkeypatch):
    built, ranked = set(), set()
    columns, rank = KoszulOracle.columns, KoszulOracle.rank

    def recording_columns(self, i, v):
        built.add((i, v))
        return columns(self, i, v)

    def recording_rank(self, i, v):
        ranked.add((i, v))
        return rank(self, i, v)

    monkeypatch.setattr(KoszulOracle, "columns", recording_columns)
    monkeypatch.setattr(KoszulOracle, "rank", recording_rank)
    for kind, n in [("gl", 3), ("sl", 2), ("sp", 1)]:
        built.clear()
        ranked.clear()
        tor_over_S(family(kind, n), workers=1)
        assert built and built <= ranked, (kind, n, sorted(built - ranked))


CORRUPTIONS = ("flip a sign", "move a row", "drop an entry", "add an entry")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_d_squared_check_raises_wherever_the_product_is_nonzero(data):
    kind, n = data.draw(st.sampled_from([("gl", 2), ("sl", 2), ("so", 3), ("sp", 1)]))
    fld = data.draw(st.sampled_from([QQ, GF(32003)]))
    oracle = KoszulOracle(ring_for_family(family(kind, n), fld))
    i = data.draw(st.integers(1, oracle.ring.nvars))
    v = data.draw(st.sampled_from(list(bidegrees_up_to_total(i + 3))))
    cols = [dict(col) for col in oracle.columns(i, v)]
    assume(cols)
    col = cols[data.draw(st.integers(0, len(cols) - 1))]
    free = [row for row in range(oracle.dimension(i - 1, v)) if row not in col]
    how = data.draw(st.sampled_from(CORRUPTIONS))
    assume(col or how == "add an entry")
    assume(free or how in ("flip a sign", "drop an entry"))
    if how == "add an entry":
        col[data.draw(st.sampled_from(free))] = 1
    else:
        row = data.draw(st.sampled_from(sorted(col)))
        if how == "flip a sign":
            col[row] = -col[row] if fld.p is None else fld.p - col[row]
        elif how == "move a row":
            col[data.draw(st.sampled_from(free))] = col.pop(row)
        else:
            del col[row]
    columns = oracle.columns
    oracle.columns = lambda j, u: cols if (j, u) == (i, v) else columns(j, u)

    product_nonzero = direct_dd(oracle, i, v) or direct_dd(oracle, i + 1, v)
    try:
        oracle.check_dd(i, v)
        oracle.check_dd(i + 1, v)
    except AssertionError as exc:
        assert "d.d != 0" in str(exc)
        caught = True
    else:
        caught = False
    assert caught or not product_nonzero, (kind, n, str(fld), i, v, how)


def test_pool_keeps_scan_order_and_boundary_hits():
    f = family("sl", 2)
    a = tor_over_S(f, max_total_degree=2, workers=1)
    b = tor_over_S(f, max_total_degree=2, workers=2)
    assert list(a.entries.items()) == list(b.entries.items())
    assert a.boundary_hits == b.boundary_hits == [(1, (1, 1))]


def test_negative_betti_number_raises(monkeypatch):
    oracle = KoszulOracle(ring_for_family(family("gl", 1)))
    dim = oracle.dimension(1, (1, 1))
    monkeypatch.setattr(KoszulOracle, "rank", lambda self, i, v: dim)
    with pytest.raises(AssertionError) as info:
        oracle.betti(1, (1, 1))
    assert info.value.args == ((1, (1, 1), dim),)


def test_full_range_agreement_over_the_cross_check_prime():
    # the same graded agreement as the rationals run, over F_32003
    ranges = [("gl", 1), ("gl", 2), ("gl", 3), ("sl", 1), ("sl", 2), ("sl", 3),
              ("so", 1), ("so", 2), ("so", 3), ("sp", 1), ("sp", 2)]
    for kind, n in ranges:
        f = family(kind, n)
        t = tor_over_S(f, fld=GF(32003))
        assert not betti_closed(f).diff(t), (kind, n)
        assert not t.boundary_hits


@pytest.mark.parametrize("kind, n", ORACLE_RANGE + [("gl", 4), ("so", 4)], ids=str)
def test_tor_tables_are_the_same_over_the_rationals_and_a_large_prime(kind, n):
    # no closed form in between: the two fields agree entry by entry, in
    # scan order, and on the boundary hits
    f = family(kind, n)
    rational = tor_over_S(f, workers=1)
    modular = tor_over_S(f, fld=GF(32003), workers=1)
    assert list(rational.entries.items()) == list(modular.entries.items())
    assert rational.boundary_hits == modular.boundary_hits


def test_degrees_beyond_the_complex_cost_nothing():
    f = family("sl", 2)
    start = time.perf_counter()
    far = tor_over_S(f, max_i=10 ** 6)
    assert time.perf_counter() - start < 1
    near = tor_over_S(f, max_i=f.num_p + f.num_q)
    assert list(far.entries.items()) == list(near.entries.items())
    assert far.boundary_hits == near.boundary_hits


def test_explicit_total_degree_bound_is_respected():
    t = tor_over_S(family("sl", 2), max_i=2, max_total_degree=6)
    assert t.totals()[:3] == [1, 3, 5]
    assert all(v[0] + v[1] <= 6 for (_, v) in t.entries)


def test_tor_refuses_a_negative_max_i():
    with pytest.raises(InvalidInputError, match="max_i=-1"):
        tor_over_S(family("sl", 2), max_i=-1)


def test_tor_refuses_a_negative_total_degree_bound():
    with pytest.raises(InvalidInputError, match="max_total_degree=-3"):
        tor_over_S(family("sl", 2), max_total_degree=-3)


def test_hilbert_oracle_refuses_a_negative_order():
    with pytest.raises(InvalidInputError, match="order=-1"):
        hilbert_oracle(family("sl", 2), -1)


def test_socle_refuses_a_negative_total_degree_bound():
    with pytest.raises(InvalidInputError, match="max_total_degree=-1"):
        socle(family("sp", 2), -1)


def test_depth_witness_refuses_a_negative_total_degree_bound():
    with pytest.raises(InvalidInputError, match="max_total_degree=-3"):
        depth_zero_witness(family("sl", 2), max_total_degree=-3)
