"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. All comparisons are exact (tolerance zero)
except the floating-point cross-check, which is bounded by 1e-9.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from capelli.enveloping import (
    EnvelopingAlgebra,
    generator_order,
    hc_eigenvalue,
    is_central,
    ugl_multiply,
    ugl_to_weyl,
)
from capelli.identities import (
    quantum_immanant,
    verify_corollary,
    verify_proof_steps,
    verify_theorem,
)
from capelli.permutations import Permutation, all_permutations, compose
from capelli.tableaux import (
    RepMatrix,
    all_partitions,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
    seminormal_matrix,
)
from capelli.weyl import WeylAlgebra, WeylElement, WeylMonomial, weyl_apply, weyl_multiply
from oracles import (
    highest_weight_polynomial,
    hook_count,
    mn_character,
    naive_weyl_product,
    orthonormal_psi,
    shifted_schur,
)

_K4_ELAPSED: dict[str, float] = {}


def _conclude(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_theorem_and_corollary_small_grid():
    start = time.perf_counter()
    reports = []
    for k in (1, 2, 3):
        for shape in all_partitions(k):
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    reports.extend(verify_theorem(shape, m, n))
                    reports.extend(verify_corollary(shape, m, n))
    elapsed = time.perf_counter() - start
    ok = all(r.outcome for r in reports) and elapsed < 60.0
    _conclude(
        1,
        "tensor identity, k<=3, all tableau pairs, m,n<=3",
        ok,
        f"{len(reports)} cases, {elapsed:.1f}s",
    )


def test_criterion_02_theorem_k4():
    start = time.perf_counter()
    reports = []
    for shape in all_partitions(4):
        reports.extend(verify_theorem(shape, 2, 2))
    elapsed = time.perf_counter() - start
    _K4_ELAPSED["theorem"] = elapsed
    ok = all(r.outcome for r in reports) and elapsed < 600.0
    _conclude(
        2,
        "tensor identity, k=4, m=n=2, all five shapes",
        ok,
        f"{len(reports)} cases, {elapsed:.1f}s",
    )


def test_criterion_03_corollary_k4_and_tableau_independence():
    start = time.perf_counter()
    reports = []
    for shape in all_partitions(4):
        reports.extend(verify_corollary(shape, 2, 2))
    elapsed = time.perf_counter() - start
    total = elapsed + _K4_ELAPSED.get("theorem", 0.0)
    independence = [r for r in reports if r.case.startswith("corollary-T-independence")]
    ok = (
        all(r.outcome for r in reports)
        and len(independence) == len(all_partitions(4))
        and total < 600.0
    )
    _conclude(
        3,
        "traced identity and T-independence, k=4 grid",
        ok,
        f"{len(reports)} cases, {elapsed:.1f}s",
    )


def test_criterion_04_proof_steps():
    start = time.perf_counter()
    reports = []
    for k in range(2, 6):
        for shape in all_partitions(k):
            reports.extend(verify_proof_steps(shape))
    elapsed = time.perf_counter() - start
    ok = all(r.outcome for r in reports) and elapsed < 60.0
    _conclude(
        4,
        "branching constant and JM annihilation, k<=5",
        ok,
        f"{len(reports)} checks, {elapsed:.1f}s",
    )


def test_criterion_05_representation_suite():
    ok = True
    # generator relations for k <= 5
    for k in range(2, 6):
        for shape in all_partitions(k):
            eye = RepMatrix.identity(shape)
            gens = [
                seminormal_matrix(shape, Permutation.transposition(r, r + 1, k))
                for r in range(1, k)
            ]
            ok &= all(g * g == eye for g in gens)
            for r in range(len(gens) - 1):
                ok &= gens[r] * gens[r + 1] * gens[r] == gens[r + 1] * gens[r] * gens[r + 1]
            for r in range(len(gens)):
                for q in range(r + 2, len(gens)):
                    ok &= gens[r] * gens[q] == gens[q] * gens[r]
    # full homomorphism property, exhaustive for k <= 4
    for k in range(2, 5):
        group = list(all_permutations(k))
        for shape in all_partitions(k):
            mats = {s: seminormal_matrix(shape, s) for s in group}
            ok &= all(
                mats[s] * mats[t] == mats[compose(s, t)]
                for s in group
                for t in group
            )
    # JM matrices diagonal with content entries, k <= 5
    for k in range(2, 6):
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            for r in range(2, k + 1):
                mats = [
                    seminormal_matrix(shape, Permutation.transposition(i, r, k))
                    for i in range(1, r)
                ]
                jm = RepMatrix(
                    shape,
                    [
                        [sum(m.entries[i][j] for m in mats) for j in range(len(tableaux))]
                        for i in range(len(tableaux))
                    ],
                )
                ok &= jm.is_diagonal()
                ok &= all(
                    jm.entry(t, t) == T.content(r) for t, T in enumerate(tableaux)
                )
    # matrix units: idempotency and mutual orthogonality, k <= 5
    for k in range(1, 6):
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            scale = Fraction(dimension(shape), factorial(k))
            for T in tableaux:
                unit = scale * psi(T, T)
                ok &= unit * unit == unit
            for T in tableaux:
                for T2 in tableaux:
                    if T != T2:
                        ok &= not psi(T, T) * psi(T2, T2)
    # sum of squared dimensions
    for k in range(1, 6):
        ok &= sum(dimension(s) ** 2 for s in all_partitions(k)) == factorial(k)
    _conclude(5, "seminormal representation suite, k<=5", ok)


def test_criterion_06_characters_against_murnaghan_nakayama():
    ok = True
    checked = 0
    for k in range(1, 6):
        for shape in all_partitions(k):
            chi = character_element(shape)
            for s in all_permutations(k):
                value = chi.coefficient(s)
                if isinstance(value, Fraction):
                    ok &= value.denominator == 1
                ok &= value == mn_character(shape.parts, s.cycle_type())
                checked += 1
    _conclude(6, "characters match border-strip recursion, k<=5", ok, f"{checked} values")


def test_criterion_07_weyl_oracle():
    alg = WeylAlgebra(1, 1)
    ok = True
    for p in range(6):
        for q in range(6):
            u = alg.d(1, 1) ** p
            v = alg.x(1, 1) ** q
            ok &= weyl_multiply(u, v) == naive_weyl_product(u, v)
    rng = random.Random(2718)
    for _ in range(200):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        size = m * n

        def rand_elem():
            return WeylElement(
                m,
                n,
                {
                    WeylMonomial(
                        tuple(rng.randint(0, 2) for _ in range(size)),
                        tuple(rng.randint(0, 2) for _ in range(size)),
                    ): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 2))
                },
            )

        u, v = rand_elem(), rand_elem()
        ok &= weyl_multiply(u, v) == naive_weyl_product(u, v)
    _conclude(7, "closed contraction formula vs one-step rewriting", ok)


def test_criterion_08_enveloping_soundness():
    ok = True
    rng = random.Random(1729)
    checked = 0
    while checked < 100:
        m = rng.randint(1, 3)
        order = generator_order(m)

        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = [0] * len(order)
                for _ in range(rng.randint(0, 2)):
                    expo[rng.randrange(len(order))] += 1
                terms[tuple(expo)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            from capelli.enveloping import UglElement

            return UglElement(m, terms)

        u, v = rand_elem(), rand_elem()
        ok &= ugl_to_weyl(ugl_multiply(u, v), m) == weyl_multiply(
            ugl_to_weyl(u, m), ugl_to_weyl(v, m)
        )
        checked += 1
    # structure constants recovered from the generator images
    for m in (1, 2, 3):
        alg = EnvelopingAlgebra(m)
        pairs = list(itertools.product(range(1, m + 1), repeat=2))
        for a, b in pairs:
            for c, d in pairs:
                left = weyl_multiply(
                    ugl_to_weyl(alg.gen(a, b), m), ugl_to_weyl(alg.gen(c, d), m)
                )
                right = weyl_multiply(
                    ugl_to_weyl(alg.gen(c, d), m), ugl_to_weyl(alg.gen(a, b), m)
                )
                expected = alg.zero()
                if b == c:
                    expected = expected + alg.gen(a, d)
                if d == a:
                    expected = expected - alg.gen(c, b)
                ok &= left - right == ugl_to_weyl(expected, m)
    _conclude(8, "enveloping algebra sound against the Weyl model", ok)


def test_criterion_09_centrality_and_eigenvalues():
    ok = True
    for k in (1, 2, 3):
        for shape in all_partitions(k):
            for m in (1, 2, 3):
                for T in enumerate_standard_tableaux(shape):
                    ok &= bool(is_central(quantum_immanant(shape, T, m)))
    for weights in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        f = highest_weight_polynomial(2, weights)
        for k in (1, 2):
            for shape in all_partitions(k):
                T = enumerate_standard_tableaux(shape)[0]
                u = quantum_immanant(shape, T, 2)
                value = hc_eigenvalue(u, [Fraction(w) for w in weights])
                ok &= weyl_apply(ugl_to_weyl(u, 2), f) == value * f
    alg = EnvelopingAlgebra(2)
    c2 = alg.zero()
    for a in (1, 2):
        for b in (1, 2):
            c2 = c2 + alg.gen(a, b) * alg.gen(b, a)
    for l1, l2 in [(3, 1), (4, 0), (5, 2)]:
        ok &= hc_eigenvalue(c2, [l1, l2]) == l1 * l1 + l2 * l2 + l1 - l2
    _conclude(9, "centrality and highest-weight eigenvalues", ok)


def test_criterion_10_floating_point_cross_check():
    ok = True
    worst = 0.0
    for k in range(1, 5):
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            for T in tableaux:
                for T2 in tableaux:
                    exact = psi(T, T2)
                    approx = orthonormal_psi(T, T2)
                    ratios = [approx[s] / float(c) for s, c in exact.items()]
                    base = ratios[0]
                    ok &= base != 0
                    for r in ratios:
                        deviation = abs(r - base) / abs(base)
                        worst = max(worst, deviation)
                        ok &= deviation < 1e-9
    _conclude(
        10,
        "orthonormal float model proportional to exact matrix elements, k<=4",
        ok,
        f"max relative deviation {worst:.2e}",
    )


def test_criterion_11_k4_m3_centrality_and_shifted_schur_eigenvalues():
    # every k = 4 shape at m = 3, including (1,1,1,1), whose immanant is 0;
    # eigenvalues against (k!/dim mu) s*_mu(l), with no Weyl realization
    ok = True
    for shape in all_partitions(4):
        u = quantum_immanant(shape, enumerate_standard_tableaux(shape)[0], 3)
        ok &= bool(is_central(u))
        scale = Fraction(factorial(4), hook_count(shape.parts))
        for weights in [(0, 0, 0), (4, 1, 1), (9, 6, 2)]:
            expected = scale * shifted_schur(shape.parts, weights)
            ok &= hc_eigenvalue(u, weights) == expected
    _conclude(11, "k=4, m=3 immanants central, shifted Schur eigenvalues", ok)
