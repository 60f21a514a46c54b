"""Minimal free resolutions of the residue field over the quotient rings."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentkoszul.resolution as resolution
from momentkoszul.closed import froberg_product, hilbert_closed, roos_series
from momentkoszul.fields import GF, QQ
from momentkoszul.ideals import family
from momentkoszul.linalg import InvalidInputError
from momentkoszul.monomials import basis_index, bidegrees_up_to_total, total
from momentkoszul.grading import _Grading
from momentkoszul.oracle import hilbert_oracle
from momentkoszul.quotient import ring_for_family
from momentkoszul.resolution import resolve_k_over_quotient
from momentkoszul.verify import table_poincare_totals

from helpers import (
    column_outside_the_kernel,
    deadline,
    dropped_kernel_vector,
    mixed_weight_complement,
    raised_rank,
    raised_span,
    series_coeffs_one_var,
    summed_kernel_vectors,
    unit_entry_complement,
)

FIELDS = {"QQ": QQ, "F_32003": GF(32003)}


def test_gl1_residue_field_resolution():
    # k[p,q]/(pq): periodic resolution with two generators per step, linear
    t = resolve_k_over_quotient(family("gl", 1), 5, 6)
    assert t.totals() == [1, 2, 2, 2, 2, 2]
    for i in range(6):
        assert t.top(i) == i


def test_sl2_resolution_jump():
    t = resolve_k_over_quotient(family("sl", 2), 3, 5)
    assert t.top(0) == 0 and t.top(1) == 1 and t.top(2) == 2
    assert t.top(3) == 4
    # the jump happens in the two extreme bidegrees
    assert t.beta(3, (3, 1)) == 1
    assert t.beta(3, (1, 3)) == 1


def test_gl2_froberg_from_oracle_resolution():
    f = family("gl", 2)
    t = resolve_k_over_quotient(f, 5, 6)
    P = table_poincare_totals(t, 5)
    H = hilbert_closed(f, 5).collapse("u")
    assert froberg_product(P, H, 5).is_one()


def test_gl2_residue_field_totals_match_koszul_inverse():
    # A is Koszul, so the totals are the coefficients of 1/H(-u)
    t = resolve_k_over_quotient(family("gl", 2), 5, 6)
    h = hilbert_closed(family("gl", 2), 6).collapse("u")
    denom = [(-1) ** k * h.coefficient((k,)) for k in range(7)]
    expected = series_coeffs_one_var([1], denom, 5)
    assert t.totals() == expected == [1, 4, 10, 24, 58, 140]


def test_resolution_prime_field_agrees():
    a = resolve_k_over_quotient(family("sl", 2), 3, 5)
    b = resolve_k_over_quotient(family("sl", 2), 3, 5, fld=GF(32003))
    assert a.entries == b.entries


def test_roos_series_matches_oracle_resolution():
    table = resolve_k_over_quotient(family("sl", 2), 4, 6)
    series = roos_series("sl2", 12)
    grid = {}
    for (i, v), c in table.entries.items():
        key = (i, v[0] + v[1])
        grid[key] = grid.get(key, 0) + c
    for i in range(5):
        for j in range(7):
            assert grid.get((i, j), 0) == series.coefficient((j, i)), (i, j)


def test_sl3_resolution_over_qq_is_symmetric_and_matches_prime_field():
    # over QQ the presentation matrices have non-integral entries
    a = resolve_k_over_quotient(family("sl", 3), 5, 6)
    b = resolve_k_over_quotient(family("sl", 3), 5, 6, fld=GF(32003))
    assert a.is_symmetric()
    assert a.entries == b.entries


@pytest.mark.parametrize("kind,n", [(k, n) for k in ("gl", "sl", "so", "sp")
                                    for n in (1, 2)] + [("sl", 3)])
def test_quotient_basis_is_closed_under_division(kind, n):
    # the resolution builds the column of m from that of m/x
    ring = ring_for_family(family(kind, n))
    for v in bidegrees_up_to_total(5):
        for mono in ring.piece(v).basis:
            for x, e in enumerate(mono):
                if not e:
                    continue
                e_x = ring.var_bidegree(x)
                lower = (v[0] - e_x[0], v[1] - e_x[1])
                below = mono[:x] + (e - 1,) + mono[x + 1:]
                j = basis_index(ring.num_p, ring.num_q, lower)[below]
                assert j in ring.piece(lower).positions, (v, mono, x)


@pytest.mark.parametrize("kind,n,max_i,max_total", [("sp", 2, 4, 6),
                                                    ("so", 3, 5, 6)])
def test_benchmark_resolutions_are_symmetric_and_field_independent(
        kind, n, max_i, max_total):
    a = resolve_k_over_quotient(family(kind, n), max_i, max_total)
    b = resolve_k_over_quotient(family(kind, n), max_i, max_total,
                                fld=GF(32003))
    assert a.is_symmetric()
    assert a.entries == b.entries
    if kind == "sp":
        assert a.top(3) == 4


#: The tables of the four benchmark windows over QQ and F_32003 alike,
#: recorded over QQ with another choice of generators (the reduced
#: row-echelon rows of each kernel).
BENCHMARK_TABLES = {
    ("sl", 3, 5, 7): {
        (0, (0, 0)): 1, (1, (0, 1)): 3, (1, (1, 0)): 3, (2, (0, 2)): 3,
        (2, (1, 1)): 17, (2, (2, 0)): 3, (3, (0, 3)): 1, (3, (1, 2)): 39,
        (3, (2, 1)): 39, (3, (3, 0)): 1, (4, (1, 3)): 45, (4, (1, 4)): 1,
        (4, (2, 2)): 181, (4, (3, 1)): 45, (4, (4, 1)): 1, (5, (1, 4)): 26,
        (5, (1, 5)): 3, (5, (2, 3)): 429, (5, (2, 4)): 6, (5, (3, 2)): 429,
        (5, (4, 1)): 26, (5, (4, 2)): 6, (5, (5, 1)): 3
    },
    ("sp", 2, 4, 6): {
        (0, (0, 0)): 1, (1, (0, 1)): 4, (1, (1, 0)): 4, (2, (0, 2)): 6,
        (2, (1, 1)): 26, (2, (2, 0)): 6, (3, (0, 3)): 4, (3, (1, 2)): 64,
        (3, (1, 3)): 20, (3, (2, 1)): 64, (3, (2, 2)): 15, (3, (3, 0)): 4,
        (3, (3, 1)): 20, (4, (0, 4)): 1, (4, (1, 3)): 76, (4, (1, 4)): 100,
        (4, (2, 2)): 251, (4, (2, 3)): 260, (4, (3, 1)): 76, (4, (3, 2)): 260,
        (4, (4, 0)): 1, (4, (4, 1)): 100
    },
    ("so", 3, 5, 6): {
        (0, (0, 0)): 1, (1, (0, 1)): 3, (1, (1, 0)): 3, (2, (0, 2)): 3,
        (2, (1, 1)): 12, (2, (2, 0)): 3, (3, (0, 3)): 1, (3, (1, 2)): 19,
        (3, (2, 1)): 19, (3, (3, 0)): 1, (4, (1, 3)): 15, (4, (2, 2)): 51,
        (4, (3, 1)): 15, (5, (1, 4)): 6, (5, (2, 3)): 75, (5, (3, 2)): 75,
        (5, (4, 1)): 6
    },
    ("gl", 3, 5, 6): {
        (0, (0, 0)): 1, (1, (0, 1)): 3, (1, (1, 0)): 3, (2, (0, 2)): 3,
        (2, (1, 1)): 18, (2, (2, 0)): 3, (3, (0, 3)): 1, (3, (1, 2)): 45,
        (3, (2, 1)): 45, (3, (3, 0)): 1, (4, (1, 3)): 60, (4, (2, 2)): 234,
        (4, (3, 1)): 60, (5, (1, 4)): 45, (5, (2, 3)): 636, (5, (3, 2)): 636,
        (5, (4, 1)): 45
    },
}


@pytest.mark.parametrize("window", list(BENCHMARK_TABLES),
                         ids=lambda w: f"{w[0]}_{w[1]}")
def test_benchmark_windows_keep_their_tables(window):
    kind, n, max_i, max_total = window
    for fld in (QQ, GF(32003)):
        t = resolve_k_over_quotient(family(kind, n), max_i, max_total, fld)
        assert t.entries == BENCHMARK_TABLES[window], fld
        assert t.boundary_hits == [], fld


#: sha256 of every generator presentation ``_complement`` returns, with its
#: step and degree, in the order of the resolution, on the four benchmark
#: windows; recorded when each generator was found by inserting the kernel
#: basis vectors, sparsest first, into the span of (m.K)_v.
GENERATOR_DIGESTS = {
    (("sl", 3, 5, 7), "QQ"):
        "0584321dbe8161189d5a71ca66ee1ab183009250bf867a9d5c300d51739f3754",
    (("sl", 3, 5, 7), "F_32003"):
        "bfaa4defce9a3658f88008e81abc123d1ee71677ae28b9b200c9a0575e5f79b4",
    (("sp", 2, 4, 6), "QQ"):
        "b896952410154fe455d164b8fbb56d4273979afff1e5841d73f55c39f57f6bf7",
    (("sp", 2, 4, 6), "F_32003"):
        "d4b5637b9353245603f15a6e6879a15f8ddc934cf323159244fe55afa5f7267e",
    (("so", 3, 5, 6), "QQ"):
        "889c35093e66f37b7024a46caba94d034cb3cc8553441d583c91166fc594b60f",
    (("so", 3, 5, 6), "F_32003"):
        "8fc17ff900009b66ead03762d6e85500d2799fe284120bf09f03e7152c0e9efe",
    (("gl", 3, 5, 6), "QQ"):
        "59531565e830b2176a56bdb796720f721db5ed09ece4d6e5b1a57dfe34c8b07a",
    (("gl", 3, 5, 6), "F_32003"):
        "a9e63a499eb43cc8978cea6ceaac41598b9c32a5379c98e738f890011264df64",
}


@pytest.mark.parametrize("window,field", list(GENERATOR_DIGESTS),
                         ids=lambda key: (f"{key[0]}_{key[1]}"
                                          if isinstance(key, tuple) else key))
def test_benchmark_windows_keep_their_generators(monkeypatch, window, field):
    # other generators, equally valid, would leave the tables as they are
    kind, n, max_i, max_total = window
    real = resolution._complement
    digest = hashlib.sha256()

    def complement(kvecs, span, owners, step, v):
        chosen = real(kvecs, span, owners, step, v)
        presentations = [sorted((j, str(x)) for j, x in kv.items())
                         for kv in chosen]
        digest.update(repr((step, v, presentations)).encode())
        return chosen

    monkeypatch.setattr(resolution, "_complement", complement)
    resolve_k_over_quotient(family(kind, n), max_i, max_total, FIELDS[field])
    assert digest.hexdigest() == GENERATOR_DIGESTS[window, field]


@pytest.mark.parametrize("kind,n,max_i,max_total",
                         [("sp", 2, 4, 6), ("sl", 3, 5, 7)],
                         ids=["sp_2", "sl_3"])
def test_generators_are_chosen_without_elimination(monkeypatch, kind, n, max_i,
                                                   max_total):
    # the generators are read off the pivots of (m.K)_v in the private
    # coordinates of K_v; inserting each kernel vector into the span took
    # 3,036 inserts on sp_2 and 2,185 on sl_3
    real_insert, real_complement = (resolution.Echelon.insert,
                                    resolution._complement)
    inside, calls, inserts = [], [], []

    def insert(self, vec):
        if inside:
            inserts.append(1)
        return real_insert(self, vec)

    def complement(kvecs, span, owners, step, v):
        inside.append(1)
        calls.append(1)
        try:
            return real_complement(kvecs, span, owners, step, v)
        finally:
            inside.pop()

    monkeypatch.setattr(resolution.Echelon, "insert", insert)
    monkeypatch.setattr(resolution, "_complement", complement)
    resolve_k_over_quotient(family(kind, n), max_i, max_total)
    assert calls
    assert not inserts, f"{len(inserts)} inserts"


def test_resolution_clamps_max_i_to_the_total_degree_bound():
    # F_i has no generator below total degree i, so no step past the degree
    # bound is built
    f = family("sl", 2)
    with deadline(2):
        got = resolve_k_over_quotient(f, 10**9, 3)
    expected = resolve_k_over_quotient(f, 3, 3)
    assert got.entries == expected.entries
    assert got.boundary_hits == expected.boundary_hits


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind,n,max_total", [("gl", 2, 4), ("sl", 2, 5),
                                              ("so", 3, 4), ("sp", 1, 5)])
def test_steps_past_the_total_degree_bound_add_nothing(kind, n, max_total,
                                                       field):
    tables = [resolve_k_over_quotient(family(kind, n), max_total + extra,
                                      max_total, FIELDS[field])
              for extra in (0, 1, 5)]
    for t in tables[1:]:
        assert t.entries == tables[0].entries
        assert t.boundary_hits == tables[0].boundary_hits


def _count_products(monkeypatch) -> list:
    """Counts every product vector of the resolution's bound multipliers."""
    real = resolution._multiplier
    products = []

    def multiplier(module, x, u):
        multiply = real(module, x, u)

        def counted(vec):
            products.append(1)
            return multiply(vec)

        return counted

    monkeypatch.setattr(resolution, "_multiplier", multiplier)
    return products


def test_resolution_builds_each_multiple_of_sp2_once(monkeypatch):
    # every step but the last reads (m.K)_v off the columns of d_step it
    # builds anyway; building the variable multiples x.K_{v - deg x} as well
    # took 61,392 products on sp_2 (4, 6)
    products = _count_products(monkeypatch)
    resolve_k_over_quotient(family("sp", 2), 4, 6)
    assert 0 < len(products) <= 50_000, f"{len(products)} products"


def test_resolution_builds_few_multiples_of_sl3(monkeypatch):
    # the top total degree multiplies only the vectors whose product has a
    # dominant weight: 26,726 products on sl_3 (5, 7) when it multiplied
    # every one
    products = _count_products(monkeypatch)
    resolve_k_over_quotient(family("sl", 3), 5, 7)
    assert 0 < len(products) <= 20_000, f"{len(products)} products"


def test_resolution_refuses_a_negative_total_degree_bound():
    with pytest.raises(InvalidInputError, match="max_total_degree=-2"):
        resolve_k_over_quotient(family("sl", 2), 3, -2)


def test_resolution_refuses_a_negative_max_i():
    with pytest.raises(InvalidInputError, match="max_i=-1"):
        resolve_k_over_quotient(family("sl", 2), -1, 5)


PROPERTY_FAMILIES = (("gl", 2), ("sl", 2), ("so", 3), ("sp", 1))


@cache
def _plain_table(kind, n, field):
    return resolve_k_over_quotient(family(kind, n), 4, 5, FIELDS[field])


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(PROPERTY_FAMILIES), st.sampled_from(sorted(FIELDS)),
       st.integers(0, 2**32))
def test_table_does_not_depend_on_the_kernel_basis(kind_n, field, seed):
    # any basis of each kernel, in any order, gives the same table
    kind, n = kind_n
    p = FIELDS[field].p
    rng = Random(seed)
    real = resolution.kernel_of_columns

    def scalar():
        if p is not None:
            return rng.randrange(1, p)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 4))

    def shuffled_kernel(columns, fld):
        out = real(columns, fld)
        rng.shuffle(out)
        scaled = []
        for kv in out:
            c = scalar()
            scaled.append({j: c * x % p if p else c * x for j, x in kv.items()})
        return scaled

    expected = _plain_table(kind, n, field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "kernel_of_columns", shuffled_kernel)
        got = resolve_k_over_quotient(family(kind, n), 4, 5, FIELDS[field])
    assert got.entries == expected.entries
    assert got.boundary_hits == expected.boundary_hits


def test_minimality_check_catches_a_unit_entry(monkeypatch):
    # sl_2 gains a generator in degree (3, 1) at step 3; the kernel of d_3
    # is zero in total degree 3, so at step 4 the span of variable multiples
    # in degree (3, 1) is empty and every kernel basis vector is chosen
    monkeypatch.setattr(resolution, "_complement",
                        unit_entry_complement(resolution._complement))
    with pytest.raises(AssertionError,
                       match=r"unit entry in presentation at step 4, "
                             r"degree \(3, 1\)"):
        resolve_k_over_quotient(family("sl", 2), 4, 5)


def test_minimality_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import unit_entry_complement\n"
        "r._complement = unit_entry_complement(r._complement)\n"
        "r.resolve_k_over_quotient(family('sl', 2), 4, 5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: unit entry in presentation at step 4, "
            "degree (3, 1)") in proc.stderr


def test_resolution_wastes_few_eliminations_on_sp2(monkeypatch):
    # the last step multiplies only by multiplicative variables, and a
    # middle step with no new generator takes K_v off the kernel of its
    # columns: 28,745 failed inserts and 44,314 products before
    real_insert = resolution.Echelon.insert
    failed = []

    def counted_insert(self, vec):
        grew = real_insert(self, vec)
        if not grew:
            failed.append(1)
        return grew

    monkeypatch.setattr(resolution.Echelon, "insert", counted_insert)
    products = _count_products(monkeypatch)
    resolve_k_over_quotient(family("sp", 2), 4, 6)
    assert len(failed) <= 18_000, f"{len(failed)} failed inserts"
    assert 0 < len(products) <= 40_000, f"{len(products)} products"


@pytest.mark.parametrize("kind,n,max_i,max_total",
                         [("sl", 3, 5, 7), ("sp", 2, 4, 6)],
                         ids=["sl_3", "sp_2"])
def test_one_kernel_elimination_per_step_and_degree(monkeypatch, kind, n,
                                                    max_i, max_total):
    # the kernel of a middle step's lower columns is the next K_v, also
    # where the step chooses generators
    real_lower, real_kernel = (resolution._lower_columns,
                               resolution.kernel_of_columns)
    current, calls = [], []

    def lower_columns(ring, module, next_module, built, v, divisions, owners):
        current[:] = [(id(module), v)]
        return real_lower(ring, module, next_module, built, v, divisions,
                          owners)

    def kernel(columns, fld):
        calls.append(current[0])
        return real_kernel(columns, fld)

    monkeypatch.setattr(resolution, "_lower_columns", lower_columns)
    monkeypatch.setattr(resolution, "kernel_of_columns", kernel)
    resolve_k_over_quotient(family(kind, n), max_i, max_total)
    assert calls
    assert len(calls) == len(set(calls)), "a step eliminated twice in a degree"


#: (kind, n, max_total_degree) of the windows compared with their cuts: one
#: step lower (each step resolved both as the last step and as a middle step)
#: and one total degree lower.
CUT_WINDOWS = (("gl", 2, 6), ("sl", 2, 6), ("sl", 3, 6), ("so", 3, 6),
               ("sp", 2, 5))


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind,n,max_total", CUT_WINDOWS,
                         ids=[f"{k}_{n}" for k, n, _ in CUT_WINDOWS])
def test_last_and_middle_steps_agree(kind, n, max_total, field):
    # step i is the last step of the window max_i = i and a middle step of
    # max_i = i + 1; both must give the same generators
    tables = [resolve_k_over_quotient(family(kind, n), i, max_total,
                                      FIELDS[field]) for i in range(6)]
    for i, (short, long) in enumerate(zip(tables, tables[1:])):
        assert short.entries == {key: c for key, c in long.entries.items()
                                 if key[0] <= i}, i
        assert short.boundary_hits == [hit for hit in long.boundary_hits
                                       if hit[0] <= i], i


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind,n,max_total", CUT_WINDOWS,
                         ids=[f"{k}_{n}" for k, n, _ in CUT_WINDOWS])
def test_degree_windows_are_exact(kind, n, max_total, field):
    # the window one total degree lower is the table cut to that degree,
    # and its boundary hits are the full table's entries on the cut's edge
    full, cut = (resolve_k_over_quotient(family(kind, n), 4, d, FIELDS[field])
                 for d in (max_total, max_total - 1))
    assert cut.entries == {key: c for key, c in full.entries.items()
                           if total(key[1]) < max_total}
    assert cut.boundary_hits == sorted(
        key for key in full.entries if key[0] and total(key[1]) == max_total - 1)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind,n,max_i,max_total", [("sl", 2, 5, 6), ("gl", 3, 5, 6),
                                                    ("so", 3, 5, 6), ("sp", 2, 4, 6)])
def test_residue_field_betti_numbers_invert_the_hilbert_series(kind, n, max_i,
                                                               max_total, field):
    # the resolution of k over A = S/I has Euler characteristic
    # P(s, t, -1) H_A(s, t) = 1; beta_{i,v} = 0 for i > total(v), so every v
    # with total(v) <= max_i has all its beta_{i,v} inside the window
    f, fld = family(kind, n), FIELDS[field]
    t = resolve_k_over_quotient(f, max_i, max_total, fld)
    inverse = hilbert_oracle(f, max_total, fld).inverse()
    for v in bidegrees_up_to_total(min(max_i, max_total)):
        alternating = sum((-1) ** i * t.beta(i, v) for i in range(max_i + 1))
        assert alternating == inverse.coefficient(v), v


def test_rank_check_catches_columns_outside_the_kernel(monkeypatch):
    # sl_2 at step 1, degree (2, 0): the four products p_i.p_j of the
    # generators in degree (1, 0) span R_(2,0) of dimension 3, with one
    # relation; losing it makes the columns seem of rank 4
    monkeypatch.setattr(resolution, "kernel_of_columns",
                        dropped_kernel_vector(resolution.kernel_of_columns))
    with pytest.raises(AssertionError,
                       match=r"columns of rank 4 in a kernel of dimension 3 "
                             r"at step 1, degree \(2, 0\)"):
        resolve_k_over_quotient(family("sl", 2), 3, 5)


def test_rank_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import dropped_kernel_vector\n"
        "r.kernel_of_columns = dropped_kernel_vector(r.kernel_of_columns)\n"
        "r.resolve_k_over_quotient(family('sl', 2), 3, 5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: columns of rank 4 in a kernel of dimension 3 "
            "at step 1, degree (2, 0)") in proc.stderr


def test_top_degree_rank_check_catches_columns_outside_the_kernel(monkeypatch):
    # sl_2 (3, 2): total degree 2 is the top one, so step 1 at (2, 0) only
    # ranks its four columns; the rank check runs there too.  (That the
    # counting route of the top degree agrees with the full route is
    # test_degree_windows_are_exact: the window one degree lower counts
    # what the full window computes.)
    monkeypatch.setattr(resolution, "rank_of_columns",
                        raised_rank(resolution.rank_of_columns))
    with pytest.raises(AssertionError,
                       match=r"columns of rank 4 in a kernel of dimension 3 "
                             r"at step 1, degree \(2, 0\)"):
        resolve_k_over_quotient(family("sl", 2), 3, 2)


def test_top_degree_rank_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import raised_rank\n"
        "r.rank_of_columns = raised_rank(r.rank_of_columns)\n"
        "r.resolve_k_over_quotient(family('sl', 2), 3, 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: columns of rank 4 in a kernel of dimension 3 "
            "at step 1, degree (2, 0)") in proc.stderr


@pytest.mark.parametrize("kind,n,max_i,max_total",
                         [("sl", 3, 5, 7), ("sp", 2, 4, 6)],
                         ids=["sl_3", "sp_2"])
def test_top_degree_only_counts(monkeypatch, kind, n, max_i, max_total):
    # the top total degree reads its Betti numbers off ranks alone: no
    # kernel basis and no generator choice, but a rank (and its check) at
    # every middle step and degree.  test_degree_windows_are_exact compares
    # this counting route with the full route, one total degree higher.
    real_lower, real_kernel, real_rank, real_complement = (
        resolution._lower_columns, resolution.kernel_of_columns,
        resolution.rank_of_columns, resolution._complement)
    current, kernels, ranks, complements = [], [], [], []

    def lower_columns(ring, module, next_module, built, v, divisions, owners):
        current[:] = [(id(module), v)]
        return real_lower(ring, module, next_module, built, v, divisions,
                          owners)

    def kernel(columns, fld):
        kernels.append(current[0])
        return real_kernel(columns, fld)

    def rank(columns, fld, sizes):
        ranks.append(current[0])
        return real_rank(columns, fld, sizes)

    def complement(kvecs, span, owners, step, v):
        complements.append(v)
        return real_complement(kvecs, span, owners, step, v)

    monkeypatch.setattr(resolution, "_lower_columns", lower_columns)
    monkeypatch.setattr(resolution, "kernel_of_columns", kernel)
    monkeypatch.setattr(resolution, "rank_of_columns", rank)
    monkeypatch.setattr(resolution, "_complement", complement)
    resolve_k_over_quotient(family(kind, n), max_i, max_total)
    assert kernels and complements
    assert all(total(v) < max_total for _, v in kernels)
    assert all(total(v) < max_total for v in complements)
    assert {v for _, v in ranks} == {v for v in bidegrees_up_to_total(max_total)
                                     if total(v) == max_total}
    assert len(ranks) == len(set(ranks)) == (max_i - 1) * (max_total + 1)


def test_private_coordinate_check_catches_a_shared_basis(monkeypatch):
    # replacing the second kernel vector by the sum of the first two keeps
    # the span but leaves the first vector no coordinate of its own, so the
    # pivots of (m.K)_v no longer name the generators
    monkeypatch.setattr(resolution, "kernel_of_columns",
                        summed_kernel_vectors(resolution.kernel_of_columns))
    with pytest.raises(AssertionError,
                       match=r"kernel basis vector with no coordinate of its "
                             r"own at step 2, degree \(1, 1\)"):
        resolve_k_over_quotient(family("sl", 2), 4, 5)


def test_private_coordinate_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import summed_kernel_vectors\n"
        "r.kernel_of_columns = summed_kernel_vectors(r.kernel_of_columns)\n"
        "r.resolve_k_over_quotient(family('sl', 2), 4, 5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: kernel basis vector with no coordinate of its "
            "own at step 2, degree (1, 1)") in proc.stderr


def test_generator_count_check_catches_a_span_short_of_the_rank(monkeypatch):
    # sl_2 gains one generator in degree (3, 1) at step 3; an empty span in
    # the private coordinates chooses all 14 kernel vectors instead
    def empty_span(columns, rank, private, p):
        return resolution.Echelon(p)

    monkeypatch.setattr(resolution, "_column_span", empty_span)
    with pytest.raises(AssertionError,
                       match=r"14 generators chosen, 1 expected, at step 3, "
                             r"degree \(3, 1\)"):
        resolve_k_over_quotient(family("sl", 2), 4, 5)


#: The benchmark windows over both fields, and sl_4 (5, 7), whose S_4
#: orbits have 1 to 24 weights, over F_32003.
CLASS_WINDOWS = [(window, field) for window in BENCHMARK_TABLES
                 for field in sorted(FIELDS)] + [(("sl", 4, 5, 7), "F_32003")]


@pytest.mark.parametrize("window,field", CLASS_WINDOWS,
                         ids=[f"{w[0]}_{w[1]}-{fld}" for w, fld in CLASS_WINDOWS])
def test_class_count_equals_the_whole_count(monkeypatch, window, field):
    # the top total degree counts the dominant weight classes, each with
    # its orbit size; under the trivial grading (every element of weight 0,
    # counted once) the same code counts every element
    kind, n, max_i, max_total = window
    f, fld = family(kind, n), FIELDS[field]
    real = resolution._torus_grading
    gradings = []

    def torus_grading(ring, weights):
        gradings.append(real(ring, weights))
        return gradings[-1]

    monkeypatch.setattr(resolution, "_torus_grading", torus_grading)
    by_class = resolve_k_over_quotient(f, max_i, max_total, fld)
    assert [g.n for g in gradings] == [n]
    monkeypatch.setattr(resolution, "_torus_grading",
                        lambda ring, weights: _Grading(ring))
    whole = resolve_k_over_quotient(f, max_i, max_total, fld)
    assert by_class.entries == whole.entries
    assert by_class.boundary_hits == whole.boundary_hits


def test_top_degree_rank_check_fires_in_a_class_of_orbit_six(monkeypatch):
    # sl_3 (5, 5): total degree 5 is the top one, and step 3 at (4, 1) has
    # no generator, so its columns fill K_v.  A column of a weight with six
    # weights in its S_3 orbit, planted outside K_v, raises the class's
    # rank by one and the rank counted by orbit by six.
    lower = column_outside_the_kernel(resolution._lower_columns, (4, 1), 3)
    monkeypatch.setattr(resolution, "_lower_columns", lower)
    with pytest.raises(AssertionError,
                       match=r"columns of rank 131 in a kernel of dimension "
                             r"125 at step 3, degree \(4, 1\)"):
        resolve_k_over_quotient(family("sl", 3), 5, 5)
    assert lower.planted[1] == 6


def test_span_check_catches_multiples_outside_the_kernel(monkeypatch):
    # sl_3 (3, 4): in the top degree the last step's products of dominant
    # weight at (4, 0), counted by orbit, fill K_v of dimension 3; one more
    # exceeds it
    monkeypatch.setattr(resolution, "_variable_span",
                        raised_span(resolution._variable_span, (4, 0)))
    with pytest.raises(AssertionError,
                       match=r"variable multiples of rank 4 in a kernel of "
                             r"dimension 3 at step 3, degree \(4, 0\)"):
        resolve_k_over_quotient(family("sl", 3), 3, 4)


def test_span_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import raised_span\n"
        "r._variable_span = raised_span(r._variable_span, (4, 0))\n"
        "r.resolve_k_over_quotient(family('sl', 3), 3, 4)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: variable multiples of rank 4 in a kernel of "
            "dimension 3 at step 3, degree (4, 0)") in proc.stderr


def test_weight_check_catches_a_generator_of_two_weights(monkeypatch):
    # sl_2 at step 1, degree (1, 0): the generators are p_1 and p_2, of
    # weights e_1 and e_2; their sum, chosen in place of p_1, keeps the
    # count and passes the minimality check
    monkeypatch.setattr(resolution, "_complement",
                        mixed_weight_complement(resolution._complement))
    with pytest.raises(AssertionError,
                       match=r"chosen vector of 2 torus weights at step 1, "
                             r"degree \(1, 0\)"):
        resolve_k_over_quotient(family("sl", 2), 4, 5)


def test_weight_check_survives_python_O():
    tests = Path(__file__).parent
    script = (
        "assert False, 'asserts are on'\n"
        "import momentkoszul.resolution as r\n"
        "from momentkoszul.ideals import family\n"
        "from helpers import mixed_weight_complement\n"
        "r._complement = mixed_weight_complement(r._complement)\n"
        "r.resolve_k_over_quotient(family('sl', 2), 4, 5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("AssertionError: chosen vector of 2 torus weights at step 1, "
            "degree (1, 0)") in proc.stderr
