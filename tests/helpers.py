"""Independent brute-force oracles used to derive expected test values.

Ranks come from a plain dense Gaussian elimination over Fraction, so the
values frozen in the tests are computed by a second route.  The one use of
the package's linear algebra is the per-degree ``Echelon`` reference for the
structure checks, which eliminates each ideal piece on its own instead of
comparing ``QuotientRing`` dimensions.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from momentkoszul.linalg import Echelon, axpy
from momentkoszul.monomials import monomial_basis
from momentkoszul.pieces import ideal_span_vectors


@contextmanager
def deadline(seconds: int):
    """Fail the block with ``TimeoutError`` after ``seconds``, so an
    elimination that stops making progress fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def brute_rank(rows, p: int | None = None) -> int:
    """Dense Gaussian elimination over exact rationals, or over F_p when
    ``p`` is set."""
    red = Fraction if p is None else (lambda x: x % p)
    m = [[red(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col] if p is None else pow(m[row][col], -1, p)
        m[row] = [red(x * inv) for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [red(a - f * b) for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def dense_ideal_rank(generators, num_p: int, num_q: int, v) -> int:
    """dim I_v over QQ: ``brute_rank`` of the coefficient rows of
    ``g.times_monomial(m)`` for every generator g and monomial m of
    bidegree v - deg g, written out densely over the basis of v."""
    basis = monomial_basis(num_p, num_q, v)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in generators:
        w = g.bidegree()
        for m in monomial_basis(num_p, num_q, (v[0] - w[0], v[1] - w[1])):
            row = [0] * len(basis)
            for mono, c in g.times_monomial(m).terms:
                row[index[mono]] = c
            rows.append(row)
    return brute_rank(rows)


def brute_rref(rows):
    """Reduced row echelon form over Fraction (canonical, zero rows dropped)."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
    return [r for r in m[:row]]


def wedge_matrix_for_pair_form(n: int, i: int):
    """Dense matrix of multiplication by sum_j e_j f_j from degree i to i+2.

    Independent construction: generators indexed 0..2n-1 (e_j = j,
    f_j = n + j); the sign of x ^ (sorted monomial) counts the elements
    below x.
    """
    source = list(combinations(range(2 * n), i))
    target = list(combinations(range(2 * n), i + 2))
    tindex = {t: k for k, t in enumerate(target)}
    matrix = [[0] * len(source) for _ in target]
    for c, mono in enumerate(source):
        for j in range(n):
            if j in mono or n + j in mono:
                continue
            s1 = (-1) ** sum(1 for y in mono if y < n + j)
            m1 = tuple(sorted(mono + (n + j,)))
            s2 = (-1) ** sum(1 for y in m1 if y < j)
            m2 = tuple(sorted(m1 + (j,)))
            matrix[tindex[m2]][c] += s1 * s2
    return matrix


def series_coeffs_one_var(numer, denom, order):
    """Coefficients of numer(u)/denom(u) with integer lists, denom[0] = 1."""
    out = []
    for k in range(order + 1):
        acc = Fraction(numer[k] if k < len(numer) else 0)
        for j in range(1, k + 1):
            d = denom[j] if j < len(denom) else 0
            acc -= d * out[k - j]
        out.append(acc)
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def direct_dd(oracle, i: int, v) -> bool:
    """Whether d_{i-1} . d_i != 0 on the (i, v) piece, by the matrix product.

    The product of ``oracle.columns(i - 1, v)`` and ``oracle.columns(i, v)``,
    column by column, reduced mod p over a prime field: the reference for the
    oracle's own d.d check.
    """
    if i < 2 or i > oracle.ring.nvars:
        return False
    p = oracle.ring.field.p
    lower = oracle.columns(i - 1, v)
    for col in oracle.columns(i, v):
        acc = {}
        for pos, c in col.items():
            for row, x in lower[pos].items():
                acc[row] = acc.get(row, 0) + c * x
        if any(y % p if p else y for y in acc.values()):
            return True
    return False


def unit_entry_complement(real):
    """A resolution ``_complement`` that breaks minimality once.

    Wraps ``real``.  In the first call with a nonempty basis of K_v whose
    degree-v basis ``owners`` holds a generator of degree v, the first
    basis vector gains entry 1 at that generator's position, as if the
    kernel of the step below had a unit entry.
    """
    done = []

    def complement(kvecs, span, owners, step, v):
        if not done and kvecs:
            gen = next((pos for pos, (_, rest, _) in enumerate(owners)
                        if rest == (0, 0)), None)
            if gen is not None:
                kvecs = [{**kvecs[0], gen: 1}] + kvecs[1:]
                done.append(gen)
        return real(kvecs, span, owners, step, v)

    return complement


def column_with_a_flipped_sign(real, i: int, v, j: int, built=None):
    """A ``KoszulOracle.columns`` that negates one entry of d_i in bidegree v.

    Wraps ``real``.  When an oracle first builds the (i, v) columns, the entry
    at the smallest row of column j is negated in place (over QQ), so its
    rank and its d.d check read the same corrupted column.  That list of
    columns is appended to ``built`` when one is given.
    """
    def columns(self, k, u):
        fresh = (k, u) not in self._cols
        cols = real(self, k, u)
        if fresh and (k, u) == (i, v):
            col = cols[j]
            row = min(col)
            col[row] = -col[row]
            if built is not None:
                built.append(cols)
        return cols

    return columns


def echelon_piece(generators, v, fld) -> Echelon:
    """The row space of I_v, eliminated on its own."""
    space = Echelon(fld.p)
    for vec in ideal_span_vectors(generators, v, fld):
        space.insert(vec)
    return space


def echelon_contains(big, small, degrees, fld) -> bool:
    """Per-degree reference for ``piece_contains``: every span vector of
    ``small`` reduces to zero modulo the piece of ``big``."""
    for v in degrees:
        space = echelon_piece(big, v, fld)
        if any(space.reduce(vec) for vec in ideal_span_vectors(small, v, fld)):
            return False
    return True


def echelon_equal(a, b, degrees, fld) -> bool:
    """Per-degree reference for ``pieces_equal``: equal canonical rows."""
    return all(echelon_piece(a, v, fld).canonical_rows()
               == echelon_piece(b, v, fld).canonical_rows() for v in degrees)


def dropped_kernel_vector(real):
    """A ``kernel_of_columns`` that loses the last vector of the first
    nonempty kernel it returns, so that its columns seem one rank higher."""
    done = []

    def kernel(columns, fld):
        out = real(columns, fld)
        if not done and out:
            done.append(out.pop())
        return out

    return kernel


def raised_rank(real):
    """A ``rank_of_columns`` that returns one more than the rank on its first
    call, as if its columns held a vector outside the kernel below."""
    done = []

    def rank(columns, fld, sizes):
        out = real(columns, fld, sizes)
        if not done:
            done.append(out)
            out += 1
        return out

    return rank


def summed_kernel_vectors(real):
    """A ``kernel_of_columns`` whose second vector is the sum of its first
    two.  The span is the same, but the first vector shares its free column
    with the sum, so it has no coordinate of its own."""
    def kernel(columns, fld):
        out = real(columns, fld)
        if len(out) > 1:
            out[1] = axpy(dict(out[1]), 1, out[0], fld.p)
        return out

    return kernel


def mixed_weight_complement(real):
    """A resolution ``_complement`` that returns one vector of two torus
    weights once.

    Wraps ``real``.  In the first call that chooses two vectors or more, the
    first chosen vector gains the entries of the second.  At step 1 in
    degree (1, 0) the chosen vectors are the variables p_i of (S/I)_(1,0),
    and no two of them have the same weight.
    """
    done = []

    def complement(kvecs, span, owners, step, v):
        chosen = real(kvecs, span, owners, step, v)
        if not done and len(chosen) > 1:
            done.append(v)
            chosen = [{**chosen[0], **chosen[1]}] + chosen[1:]
        return chosen

    return complement


def column_outside_the_kernel(real, v, step):
    """A resolution ``_lower_columns`` that puts one column of d_step in
    degree ``v`` outside the kernel K_v of the step below.

    Wraps ``real``; the step is the number of calls in degree v so far.
    At ``step``, the first zero column whose weight has an S_n orbit of
    more than one weight becomes the unit vector of a basis element of that
    weight whose column of d_(step - 1), built in the call before, is not
    zero.  The other columns lie in K_v, so the planted one grows the span
    of its weight class by one.  ``lower_columns.planted`` records the
    column and its orbit size.
    """
    nonzero = {}

    def lower_columns(ring, module, next_module, built, u, divisions, owners):
        columns = real(ring, module, next_module, built, u, divisions, owners)
        if u != v:
            return columns
        lower_columns.calls += 1
        weights = next_module.weights(owners)
        if lower_columns.calls == step:
            orbits = module.grading.orbits
            j = next(j for j, col in enumerate(columns)
                     if not col and orbits[weights[j]] > 1
                     and weights[j] in nonzero)
            pos = module.blocks(u)[1].index(nonzero[weights[j]])
            columns[j] = {pos: 1}
            lower_columns.planted = (j, orbits[weights[j]])
        nonzero.clear()
        for owner, col, w in zip(owners, columns, weights):
            if col:
                nonzero.setdefault(w, owner)
        return columns

    lower_columns.calls = 0
    lower_columns.planted = None
    return lower_columns


def raised_span(real, v):
    """A resolution ``_variable_span`` that counts one more than the span in
    degree ``v``, as if a product outside K_v had grown it."""
    def variable_span(module, basis, u, dim, private, sizes, p):
        span, count, grown = real(module, basis, u, dim, private, sizes, p)
        return span, count + (u == v), grown

    return variable_span
