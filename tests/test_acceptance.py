"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines).
Each criterion prints a single summary line and asserts it.
"""

import io as std_io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from quantales import cli, io, suite
from quantales.lattices import FiniteLattice, FinitePoset
from quantales.oracles import has_id_blp, normal_witness, radical_by_powers
from quantales.properties import (
    element_has_lp, has_lp, has_property_star, hyperarchimedean_equivalents,
    is_b_normal, is_hyperarchimedean, is_local, is_normal, is_semiprime,
    local_decomposition)
from quantales.quantale import (
    AxiomError, Quantale, interval_quantale, jacobson_radical, product)
from quantales.reticulation import (
    boolean_isos, check_unicity, frame_iso, reticulate, spectrum_homeomorphism,
    star)


def _line(number, ok, note):
    print('criterion %2d: %s  %s' % (number, 'PASS' if ok else 'FAIL', note),
          flush=True)
    assert ok, 'criterion %d failed: %s' % (number, note)


def _everything(corpus, small_corpus):
    return list(corpus) + list(small_corpus)


# --- criterion 1: construction accepts the corpus, rejects mutations --------

def _witness_demonstrates(error, lattice, mul):
    'Re-derive the named violation from the witness labels alone.'
    ix = lattice.poset.index
    w = tuple(ix[label] for label in error.witness)
    kind = type(error).__name__
    if kind == 'NotCommutative':
        x, y = w
        return mul[x, y] != mul[y, x]
    if kind == 'NotUnital':
        (x,) = w
        return mul[x, lattice.top] != x
    if kind == 'NotDistributive':
        if len(w) == 1:
            (x,) = w
            return mul[x, lattice.bottom] != lattice.bottom
        x, y, z = w
        return mul[x, lattice.join(y, z)] != lattice.join(mul[x, y], mul[x, z])
    if kind == 'NotAssociative':
        x, y, z = w
        return mul[mul[x, y], z] != mul[x, mul[y, z]]
    return False


def test_criterion_01_construction_and_mutation_rejection(corpus, d12):
    built = 0
    for member in corpus:
        q = member.quantale
        Quantale(q.lattice, q.mul_table)
        built += 1

    lat, table = d12.lattice, d12.mul_table
    n = len(d12)
    rejected = []
    for i in range(n):
        for j in range(i, n):
            for v in range(n):
                if v == table[i, j]:
                    continue
                mutated = table.copy()
                mutated[i, j] = v
                try:
                    Quantale(lat, mutated)
                except AxiomError as err:
                    ok = _witness_demonstrates(err, lat, mutated)
                    rejected.append((i, j, v, type(err).__name__, ok))
                    break  # first rejecting value per cell
            if len(rejected) == 20:
                break
        if len(rejected) == 20:
            break

    witnesses_ok = all(entry[4] for entry in rejected)
    kinds = sorted({entry[3] for entry in rejected})
    _line(1, built >= 10 and len(rejected) == 20 and witnesses_ok,
          '%d/%d fixtures construct; 20 mutations rejected (%s), all '
          'witnesses replay' % (built, len(corpus), ', '.join(kinds)))


# --- criterion 2: two radical computations agree ------------------------------

def test_criterion_02_radical_oracle(corpus, small_corpus):
    start = time.perf_counter()
    compared = 0
    for member in _everything(corpus, small_corpus):
        q = member.quantale
        for a in range(len(q)):
            assert q.radical_of(a) == radical_by_powers(q, a), member.name
            compared += 1
    elapsed = time.perf_counter() - start
    _line(2, elapsed < 300,
          'spectrum meet equals power join at %d points across %d instances '
          'in %.2fs' % (compared, len(corpus) + len(small_corpus), elapsed))


# --- criterion 3: quotient axioms and unicity ---------------------------------

def test_criterion_03_reticulation_axioms_and_unicity(corpus):
    for member in corpus:
        q = member.quantale
        ret = reticulate(q)  # constructor re-verifies the quotient axioms
        frame = q.radical_frame
        check_unicity(ret, frame,
                      tuple(frame.to_frame[q.radical_of(a)] for a in range(len(q))))
        m = len(ret)
        swap = tuple(m - 1 - i for i in range(m))
        rel = np.zeros((m, m), dtype=bool)
        for i in range(m):
            for j in range(m):
                rel[swap[i], swap[j]] = ret.lattice.leq(i, j)
        copy = FiniteLattice(FinitePoset(['k%d' % i for i in range(m)], rel))
        check_unicity(ret, Quantale(copy, copy.meet_table),
                      tuple(swap[ret.lam[a]] for a in range(len(q))))
    _line(3, True,
          'quotient axioms hold and both candidates (radical frame, relabeled '
          'copy) are unique over the class map on all %d fixtures' % len(corpus))


# --- criterion 4: frame and spectrum correspondences --------------------------

def test_criterion_04_frame_and_spectrum_isomorphisms(corpus):
    closed_points = 0
    for member in corpus:
        q = member.quantale
        frame_iso(q)
        u, v = spectrum_homeomorphism(q)
        ret = reticulate(q)
        # ideals by generator: the ideal of star(a) lies in that of P iff star(a) <= P
        for a in range(len(q)):
            image = {u[p] for p in q.spectrum if q.leq(a, p)}
            direct = {P for P in ret.lattice.spectrum if ret.lattice.leq(star(q, a), P)}
            assert image == direct, (member.name, q.label(a))
            closed_points += 1
    _line(4, True,
          'frame isomorphisms invert and the spectrum maps match closed sets '
          'at %d points' % closed_points)


# --- criterion 5: center triangle ---------------------------------------------

def test_criterion_05_center_triangle(corpus):
    total = 0
    for member in corpus:
        b_lambda, b_rho, b_mu = boolean_isos(member.quantale)
        for e in b_lambda:
            assert b_mu[b_lambda[e]] == b_rho[e]
        total += len(b_lambda)
    _line(5, True,
          'all three center maps biject and the triangle commutes over %d '
          'central elements' % total)


# --- criterion 6: hyperarchimedean equivalence --------------------------------

def test_criterion_06_hyperarchimedean_equivalence(corpus, small_corpus):
    non_semiprime = 0
    for member in _everything(corpus, small_corpus):
        q = member.quantale
        legs = hyperarchimedean_equivalents(q)
        three = {legs['powers_reach_center'], legs['reticulation_boolean'],
                 legs['maximals_exhaust_spectrum']}
        assert len(three) == 1, member.name
        if is_semiprime(q):
            assert legs['radical_frame_zero_dimensional'] == three.pop(), member.name
        else:
            assert legs['radical_frame_zero_dimensional'] is None, member.name
            non_semiprime += 1
    _line(6, non_semiprime > 0,
          'three equivalents agree everywhere; the fourth is not applicable '
          'on %d non-semiprime instances' % non_semiprime)


# --- criterion 7: six-way lifting equivalence ---------------------------------

def test_criterion_07_lifting_equivalence(corpus, small_corpus):
    members = _everything(corpus, small_corpus)
    for member in members:
        q = member.quantale
        frame = q.radical_frame.lattice
        quotient = reticulate(q)
        b_normal = normal_witness(quotient.lattice, quotient.lattice.center) is None
        verdicts = {bool(has_lp(q)), bool(has_lp(frame)),
                    bool(has_id_blp(quotient.lattice)), bool(is_b_normal(q)),
                    bool(is_b_normal(frame)), b_normal}
        assert len(verdicts) == 1, member.name
    _line(7, True,
          'all six lifting and B-normality verdicts agree on %d instances'
          % len(members))


# --- criterion 8: named fixture verdicts --------------------------------------

def test_criterion_08_named_verdicts(d12, w5, c3):
    assert bool(has_lp(d12)) and bool(is_b_normal(d12))
    assert bool(is_hyperarchimedean(d12)) and not is_semiprime(d12)
    assert len(d12.maximal_elements) == 2

    w5_lift = has_lp(w5)
    assert not w5_lift and w5_lift.witness[0] == '{z}'
    w5_normal = is_normal(w5)
    assert not w5_normal and set(w5_normal.witness) == {'{x,z}', '{y,z}'}
    assert not has_property_star(w5)

    assert is_local(c3) and bool(has_lp(c3)) and not is_hyperarchimedean(c3)
    _line(8, True,
          'divisor instance lifts (2 maximals, not semiprime), the bowtie '
          'frame fails at {z} with non-normal pair ({x,z}, {y,z}), the chain '
          'is local without being hyperarchimedean')


# --- criterion 9: local decomposition -----------------------------------------

def test_criterion_09_local_decomposition(corpus, small_corpus, d12, w5):
    dec = local_decomposition(d12)
    assert sorted(len(f) for f in dec.factors) == [2, 3]
    assert len(d12.maximal_elements) == sum(
        len(f.maximal_elements) for f in dec.factors)

    w5_verdict = local_decomposition(w5)
    assert not w5_verdict and w5_verdict.witness[0] == 'radical-without-lp'
    assert w5.label(jacobson_radical(w5)) == '{z}'
    assert not element_has_lp(w5, jacobson_radical(w5))

    checked = 0
    for member in _everything(corpus, small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        r = jacobson_radical(q)
        values = {
            bool(has_property_star(q)),
            bool(has_lp(q)),
            bool(element_has_lp(q, r)),
            bool(local_decomposition(q)),
        }
        assert len(values) == 1, member.name
        checked += 1
    _line(9, True,
          'divisor instance splits into local factors of sizes 2 and 3 with '
          'additive maximal counts; the bowtie fails at its radical {z}; all '
          'conditions agree on %d instances' % checked)


# --- criterion 10: one-way implications ----------------------------------------

def test_criterion_10_one_way_implications(corpus, small_corpus, w5, c3):
    scanned = 0
    for member in _everything(corpus, small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        r = jacobson_radical(q)
        lifting = bool(has_lp(q))
        if has_property_star(q):
            assert lifting, member.name
        if is_normal(q):
            assert element_has_lp(q, r), member.name
        if lifting:
            for a in range(len(q)):
                assert has_lp(interval_quantale(q, a)[0]), member.name
        for e in q.center:
            if q.leq(e, r):
                assert e == q.bottom, member.name
        for a in range(len(q)):
            if q.join(a, r) == q.top:
                assert a == q.top, member.name
        scanned += 1

    # products lift or split exactly when every factor does, in both directions
    mixed, _ = product([w5, c3])
    assert not has_lp(mixed) and not has_property_star(mixed)
    pure, _ = product([c3, c3])
    assert has_lp(pure) and has_property_star(pure)
    _line(10, True,
          'splitting->lifting, normal->radical lift, lifting->intervals, '
          'central-below-radical and join-collapse hold on %d instances with '
          'no counterexample; product transfer works in both directions'
          % scanned)


# --- criterion 11: serialization and reporting determinism ---------------------

def test_criterion_11_round_trip_and_deterministic_reports(corpus):
    for member in corpus:
        q = member.quantale
        again = io.parse_instance(io.emit_instance(q, member.generator))
        assert again.elements == q.elements
        assert (again.mul_table == q.mul_table).all()
        assert (again.lattice.poset.leq == q.lattice.poset.leq).all()

    def run():
        buffer = std_io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(['verify', 'fixtures'])
        return code, [line for line in buffer.getvalue().splitlines()
                      if not line.startswith('timing:')]

    first_code, first = run()
    second_code, second = run()
    assert first_code == 0 and second_code == 0
    assert first == second
    _line(11, True,
          'emit/parse round trips all %d fixtures exactly; two verify runs '
          'are identical modulo timing' % len(corpus))
