import collections
import random
from fractions import Fraction

import pytest

from helpers import (
    assert_left_looking,
    powersum_witness,
    reference_echelon,
    spy_echelon_schedule,
)
from padicsat import solver_geq
from padicsat.certify import verify_witness
from padicsat.errors import InputError
from padicsat.linalg import inverse_permutation, matrix, pivot_minimal_echelon
from padicsat.model import Status, Verdict
from padicsat.rational import INF, NEG_INF, PowerSum, is_finite, valuation
from padicsat.solver_geq import (
    GeqProblem,
    geq_echelon,
    geq_witness,
    pivot_shortfall,
    solve_geq,
)
from padicsat.testkit import (
    determinant,
    instance_of_geq_problem,
    mat_mul,
    mat_vec,
    random_geq_problem,
    smith_oracle_geq,
    witness_map,
)


def test_worked_example_unsat():
    # x + y = 1 with v_2(x), v_2(y) >= 1: the rhs valuation is too small
    prob = GeqProblem.of([[1, 1]], [1], 2, (1, 1))
    verdict = solve_geq(prob)
    assert verdict.is_unsat
    assert verdict.code == "pivot-bound"


def test_worked_example_sat_unbounded_column():
    prob = GeqProblem.of([[1, 1]], [1], 2, (1, NEG_INF))
    verdict = solve_geq(prob)
    assert verdict.is_sat
    ws = verdict.witness
    assert ws[0].materialize() == 2
    assert ws[1].materialize() == -1
    check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, ws))
    assert check.ok, check.detail


def test_worked_examples_exact_flags():
    # pinned valuations at p = 2: x + y = 2 is refuted, x + y = 4 admits (2, 2)
    bad = solve_geq(GeqProblem.of([[1, 1]], [2], 2, (1, 1), (True, True)))
    assert bad.is_unsat
    good = solve_geq(GeqProblem.of([[1, 1]], [4], 2, (1, 1), (True, True)))
    assert good.is_sat
    assert [w.materialize() for w in good.witness] == [2, 2]
    prob = GeqProblem.of([[1, 1]], [4], 2, (1, 1), (True, True))
    check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, good.witness))
    assert check.ok, check.detail


def test_exact_flag_validation():
    with pytest.raises(InputError):
        GeqProblem.of([[1]], [1], 3, (0,), (True,))  # exact needs p = 2
    with pytest.raises(InputError):
        GeqProblem.of([[1]], [1], 2, (NEG_INF,), (True,))  # and a finite floor


def test_prime_and_floor_validation():
    # the pivot costs are built once, with the problem, and check both
    with pytest.raises(InputError, match="4"):
        GeqProblem.of([[1]], [1], 4, (0,))
    with pytest.raises(InputError, match="0.5"):
        GeqProblem.of([[1]], [1], 3, (0.5,))
    prob = GeqProblem.of([[1, 1]], [4], 2, (1, NEG_INF), (True, False))
    assert prob.costs() is prob.costs()
    assert prob.costs().offsets == (1, NEG_INF)
    assert prob.costs().biases == (1, 0)


def test_zero_rows_with_nonzero_rhs():
    prob = GeqProblem.of([[1], [2]], [1, 3], 5, (0,))
    verdict = solve_geq(prob)
    assert verdict.is_unsat
    assert verdict.code == "rank-deficient-rhs"


def test_no_equations_witness():
    prob = GeqProblem.of([], [], 3, (2, NEG_INF))
    verdict = solve_geq(prob)
    assert verdict.is_sat
    assert verdict.witness[0].materialize() == 9
    assert verdict.witness[1].is_zero()
    check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, verdict.witness))
    assert check.ok, check.detail


def test_oracle_agreement_small():
    agree_sat = agree_unsat = 0
    for seed in range(150):
        prob = random_geq_problem(
            seed, max_dim=4, coeff_mag=9, bound_mag=3, primes=(2, 3, 5),
            allow_unbounded=True,
        )
        mine = solve_geq(prob)
        oracle = smith_oracle_geq(prob)
        assert mine.status == oracle.status, (seed, mine, oracle)
        if mine.is_sat:
            agree_sat += 1
            ws = mine.witness
            check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, ws))
            assert check.ok, check.detail
            n = len(prob.floors)
            for w in ws:
                assert len(w.terms) <= n + 1
        else:
            agree_unsat += 1
    assert agree_sat > 20 and agree_unsat > 20


def _zeroed_geq_problem(rng):
    """A small problem with +inf floors (x_j = 0) on some columns, -inf and
    finite floors on others, at p = 2 exact flags on some finite ones; a
    third of the draws gets a combination of two rows as one more row, and
    half a right-hand side planted from a point that meets every floor."""
    p = rng.choice((2, 3, 5))
    n, m = rng.randint(1, 5), rng.randint(1, 4)
    A = [[rng.choice((0, 0, 1, -1, 2, 3, p, -p * p)) for _ in range(n)] for _ in range(m)]
    floors, exact = [], []
    for _ in range(n):
        roll = rng.random()
        floor = INF if roll < 0.35 else NEG_INF if roll < 0.5 else rng.randint(-2, 3)
        floors.append(floor)
        exact.append(p == 2 and is_finite(floor) and rng.random() < 0.4)
    if rng.random() < 0.5:
        # x_j = 0 under +inf, p^floor times a unit (pinned at p = 2) otherwise
        x = [
            0 if f == INF else Fraction(rng.choice((1, -1, 3)), p**2) if f == NEG_INF
            else Fraction(p) ** f * rng.choice((1, -1, 3, 5)) * (1 if e else rng.choice((1, p)))
            for f, e in zip(floors, exact)
        ]
        b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
    else:
        b = [rng.choice((0, 0, 1, -1, p, 3 * p)) for _ in range(m)]
    deficient = rng.random() < 1 / 3
    if deficient:
        (r, rb), (s, sb) = rng.choices(list(zip(A, b)), k=2)
        c = rng.choice((1, -2, p))
        A.append([x + c * y for x, y in zip(r, s)])
        b.append(rb + c * sb + rng.choice((0, 0, 1)))
    return GeqProblem.of(A, b, p, tuple(floors), tuple(exact)), deficient


def test_inf_floors_read_as_zero():
    # a +inf floor is x_j = 0: solve_geq answers as on the problem with those
    # columns deleted, and as the Smith oracle on draws without exact flags;
    # a sat witness is 0 on each such coordinate and verifies against the
    # instance that adds x_j = 0
    rng = random.Random(2701)
    outcomes = collections.Counter()
    for trial in range(600):
        prob, deficient = _zeroed_geq_problem(rng)
        keep = [j for j, f in enumerate(prob.floors) if f != INF]
        deleted = GeqProblem.of(
            [[row[j] for j in keep] for row in prob.A], prob.b, prob.prime,
            tuple(prob.floors[j] for j in keep), tuple(prob.exact[j] for j in keep),
        )
        verdict = solve_geq(prob)
        assert verdict.status == solve_geq(deleted).status, trial
        if any(prob.exact):
            outcomes["exact flags"] += 1
        else:
            assert verdict.status == smith_oracle_geq(prob).status, trial
        outcomes["rank-deficient"] += deficient
        outcomes["zeroed"] += len(keep) < len(prob.floors)
        outcomes[verdict.status.value] += 1
        if verdict.is_sat:
            ws = verdict.witness
            assert all(ws[j].is_zero() for j, f in enumerate(prob.floors) if f == INF)
            check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, ws))
            assert check.ok, (trial, check.detail)
    assert min(outcomes.values()) >= 60 and len(outcomes) == 5, outcomes


def test_exact_flags_fuzz_verified():
    for seed in range(120):
        prob = random_geq_problem(
            seed, max_dim=4, coeff_mag=9, bound_mag=3, primes=(2,), allow_exact=True
        )
        verdict = solve_geq(prob)
        if verdict.is_sat:
            check = verify_witness(
                instance_of_geq_problem(prob), witness_map(prob, verdict.witness)
            )
            assert check.ok, check.detail


def test_transform_invariance_small():
    rng = random.Random(5)
    for seed in range(40):
        prob = random_geq_problem(seed, max_dim=4, coeff_mag=7, bound_mag=3)
        m, n = len(prob.A), len(prob.floors)
        if m == 0:
            continue
        while True:
            U = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
            if determinant(U) != 0:
                break
        sigma = list(range(n))
        rng.shuffle(sigma)
        inv = inverse_permutation(tuple(sigma))
        A2 = mat_mul(U, matrix([list(r) for r in prob.A]))
        A2 = [[A2[i][inv[j]] for j in range(n)] for i in range(m)]
        b2 = mat_vec(U, list(prob.b))
        floors2 = tuple(prob.floors[inv[j]] for j in range(n))
        exact2 = tuple(prob.exact[inv[j]] for j in range(n))
        transformed = GeqProblem.of(A2, b2, prob.prime, floors2, exact2)
        assert solve_geq(transformed).status == solve_geq(prob).status


def test_huge_floors_stay_symbolic():
    prob = GeqProblem.of([[1, 1]], [1], 2, (10**6, NEG_INF))
    verdict = solve_geq(prob)
    assert verdict.is_sat
    ws = verdict.witness
    assert ws[0].valuation() == 10**6
    assert len(ws[1].terms) <= 2
    check = verify_witness(instance_of_geq_problem(prob), witness_map(prob, ws))
    assert check.ok, check.detail


def test_witness_free_matches_full():
    # geq_echelon is the decision both answers share: its echelon, when a
    # failing pivot row has not stopped it, is the one the problem's (A | b)
    # gets, and its unsat verdict is solve_geq's.  The
    # witness-free answer of the search's relaxation test has the same
    # status and unsat evidence, and on sat carries that echelon, no witness;
    # geq_witness builds the full answer's witness, by position, from that
    # echelon's nonzero rows and the floors by position
    statuses = collections.Counter()
    for seed in range(300):
        prob = random_geq_problem(
            seed, max_dim=5, coeff_mag=9, bound_mag=3, primes=(2, 3, 5),
            allow_exact=seed % 2 == 0, allow_unbounded=seed % 3 == 0,
        )
        result, unsat = geq_echelon(prob)
        if result is None:
            assert unsat.code == "pivot-bound", seed
        else:
            assert result == pivot_minimal_echelon(prob.A, prob.costs(), [[x] for x in prob.b])
        full = solve_geq(prob)
        bare = solve_geq(prob, witness=False)
        statuses[full.status.value] += 1
        if unsat is not None:
            for verdict in (full, bare):
                assert (verdict.status, verdict.code, verdict.reason, verdict.diagnostics) == (
                    unsat.status, unsat.code, unsat.reason, unsat.diagnostics
                ), seed
        else:
            assert full.is_sat and bare.is_sat and bare.witness is None, seed
            assert full.diagnostics == {"rank": result.rank, "sigma": result.sigma}, seed
            assert bare.diagnostics == {**full.diagnostics, "echelon": result}, seed
            col_of = inverse_permutation(result.sigma)
            w = geq_witness(
                prob.prime, result.rows[:result.rank], [prob.floors[c] for c in col_of]
            )
            assert [w[j] for j in result.sigma] == full.witness, seed
    assert min(statuses.values()) > 50, statuses


def test_integer_witness_matches_the_powersum_reference():
    # geq_witness sums the free columns per exponent and back-substitutes
    # them in integers, over the echelon's minor or, without one, the product
    # of the |pivots|; both give the PowerSum back-substitution's terms
    # exactly, on draws with exact flags, +-inf floors and rank deficiency,
    # with and without digit terms on the free positions
    rng = random.Random(4242)
    counts = collections.Counter()
    for trial in range(2000):
        if trial % 3 == 0:
            prob, _ = _zeroed_geq_problem(rng)
        else:
            prob = random_geq_problem(
                trial, max_dim=8, coeff_mag=9, bound_mag=5, primes=(2, 2, 3, 5),
                allow_exact=True, allow_unbounded=trial % 5 == 0,
                density=rng.choice((0.5, 0.85)),
            )
        result, unsat = geq_echelon(prob)
        if unsat is not None:
            continue
        p, n, k = prob.prime, len(prob.floors), result.rank
        col_of = inverse_permutation(result.sigma)
        floors = [prob.floors[c] for c in col_of]
        rows = result.rows[:k]
        digits = {
            j: (rng.randrange(1, p) if p > 2 else 1, rng.randint(-6, 6))
            for j in range(k, n) if rng.random() < 0.5
        }
        for digit_terms in ({}, digits):
            want = [x.terms for x in powersum_witness(p, rows, floors, digit_terms)]
            for minor in (result.minor, None):
                got = geq_witness(p, rows, floors, digit_terms, minor)
                assert [x.terms for x in got] == want, (trial, minor)
            exponents = {digit_terms.get(j, (1, floors[j]))[1] for j in range(k, n)}
            counts["3+ exponents"] += len(exponents - {INF, NEG_INF}) >= 3
            counts["digits"] += bool(digit_terms)
        counts["sat"] += 1
        counts["exact flags"] += any(prob.exact)
        counts["+inf floor"] += INF in prob.floors
        counts["rank deficient"] += k < len(prob.A)
    assert min(counts.values()) >= 100, counts


def _reference_solve_geq(prob):
    """solve_geq's checks and witness computed on the Fraction echelon: the
    pivot rows first, then the zero rows."""
    p, n, m = prob.prime, len(prob.floors), len(prob.A)
    B, carried, sigma, k = reference_echelon(prob.A, prob.costs(), [[x] for x in prob.b])
    b2 = [row[0] for row in carried]
    col_of = inverse_permutation(sigma)
    floors = [prob.floors[col_of[j]] for j in range(n)]
    exact = [prob.exact[col_of[j]] for j in range(n)]
    for i in range(k):
        if floors[i] == NEG_INF:
            continue
        lhs = valuation(B[i][i], p) + floors[i] + int(exact[i])
        terms = [(b2[i], 0)]
        terms += [(-B[i][j], floors[j]) for j in range(i, n) if exact[j] and B[i][j]]
        rhs_val = PowerSum(p, tuple(terms)).valuation()
        if not lhs <= rhs_val:
            return Verdict.unsat(
                "pivot-bound",
                f"pivot row {i} needs valuation >= {lhs} on the right-hand side, got {rhs_val}",
                row=i,
                required=lhs,
                actual=rhs_val,
            )
    for i in range(k, m):
        if b2[i] != 0:
            return Verdict.unsat(
                "rank-deficient-rhs",
                f"echelon row {i} is zero but its right-hand side is {b2[i]}",
                row=i,
            )
    w = [
        PowerSum(p, ((Fraction(1), floors[j]),)) if is_finite(floors[j])
        else PowerSum.zero(p)
        for j in range(n)
    ]
    for i in range(k - 1, -1, -1):
        acc = PowerSum.from_rational(p, b2[i])
        for j in range(i + 1, n):
            acc = acc - w[j].scale(B[i][j])
        w[i] = acc.scale(1 / B[i][i])
    return Verdict(
        Status.SAT,
        witness=[w[sigma[j]] for j in range(n)],
        diagnostics={"rank": k, "sigma": sigma},
    )


def test_fractional_inputs_match_fraction_reference():
    # entries a / (p^k q): the integer rows' denominators carry p, so the
    # reported valuations (required, actual) need the -v_p(den) shift back
    codes = collections.Counter()
    for seed in range(400):
        p = (2, 3, 5)[seed % 3]
        base = random_geq_problem(
            seed, max_dim=5, coeff_mag=9, bound_mag=3, primes=(p,),
            allow_exact=p == 2 and seed % 2 == 0, allow_unbounded=seed % 5 == 0,
        )
        rng = random.Random(seed)

        def scaled(x):
            return x / (p ** rng.randint(0, 3) * rng.randint(1, 4))

        prob = GeqProblem.of(
            [[scaled(x) for x in row] for row in base.A],
            [scaled(x) for x in base.b],
            p,
            base.floors,
            base.exact,
        )
        got, want = solve_geq(prob), _reference_solve_geq(prob)
        assert (got.status, got.code, got.reason, got.diagnostics) == (
            want.status, want.code, want.reason, want.diagnostics
        ), seed
        assert got.witness == want.witness, seed
        codes[got.code or "sat"] += 1
        if got.code == "pivot-bound" and any(prob.exact):
            codes["pivot-bound-exact"] += 1
    assert min(codes.values()) >= 10 and len(codes) == 4, codes


def _full_echelon_verdict(prob):
    """solve_geq's answer read off the full, unstopped echelon: every pivot
    row's check first, then the zero rows, then the witness; with the number
    of inconsistent zero rows."""
    p, n = prob.prime, len(prob.floors)
    result = pivot_minimal_echelon(prob.A, prob.costs(), [[x] for x in prob.b])
    rows, dens = result.rows, result.dens
    col_of = inverse_permutation(result.sigma)
    floors = [prob.floors[c] for c in col_of]
    flagged = [(j, floors[j]) for j in range(n) if prob.exact[col_of[j]]]
    inconsistent = sum(rows[i][n] != 0 for i in range(result.rank, len(rows)))
    for i in range(result.rank):
        offset = floors[i] + prob.exact[col_of[i]]
        shortfall = pivot_shortfall(p, rows[i], i, offset, flagged)
        if shortfall is not None:
            shift = valuation(dens[i], p)
            required, actual = shortfall[0] - shift, shortfall[1] - shift
            return Verdict.unsat(
                "pivot-bound",
                f"pivot row {i} needs valuation >= {required} on the right-hand side, got {actual}",
                row=i,
                required=required,
                actual=actual,
            ), inconsistent
    for i in range(result.rank, len(rows)):
        if rows[i][n] != 0:
            return Verdict.unsat(
                "rank-deficient-rhs",
                f"echelon row {i} is zero but its right-hand side is {Fraction(rows[i][n], dens[i])}",
                row=i,
            ), inconsistent
    w = geq_witness(p, rows[:result.rank], floors)
    return Verdict(
        Status.SAT,
        witness=[w[j] for j in result.sigma],
        diagnostics={"rank": result.rank, "sigma": result.sigma},
    ), inconsistent


def test_early_stop_matches_the_full_echelon():
    # the elimination stops at its first failing pivot row; the verdict is
    # the one the full echelon gives when its pivot rows are checked before
    # its zero rows, also on fractional entries, p = 2 exact flags, +inf
    # floors and rank-deficient draws, and where a failing pivot row sits
    # ahead of an inconsistent zero row
    rng = random.Random(3003)
    outcomes = collections.Counter()
    for trial in range(900):
        base, _ = _zeroed_geq_problem(rng)
        p = base.prime

        def scaled(x):
            return x / (p ** rng.randint(0, 2) * rng.choice((1, 1, 2, 7)))

        prob = GeqProblem.of(
            [[scaled(x) for x in row] for row in base.A],
            [scaled(x) for x in base.b],
            p, base.floors, base.exact,
        )
        got = solve_geq(prob)
        want, inconsistent = _full_echelon_verdict(prob)
        assert (got.status, got.code, got.reason, got.diagnostics, got.witness) == (
            want.status, want.code, want.reason, want.diagnostics, want.witness
        ), trial
        if got.code == "pivot-bound" and inconsistent:
            outcomes["pivot row ahead of a zero row"] += 1
        else:
            outcomes[got.code or "sat"] += 1
        outcomes["exact flags"] += any(prob.exact)
    assert min(outcomes.values()) >= 100 and len(outcomes) == 5, outcomes


def _planted_unsat(seed, n, p):
    """A x = b with A = L U square, L and U unit-triangular, and b planted
    from a point whose coordinate `broken` sits one step below its floor:
    the only solution breaks that floor."""
    rng = random.Random(seed)

    def triangular(lower):
        out = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i) if lower else range(i + 1, n):
                if rng.random() < 0.5:
                    out[i][j] = rng.randint(-2, 2)
        return out

    L, U = triangular(True), triangular(False)
    A = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    floors = [rng.randint(-3, 3) for _ in range(n)]
    vals = [f + rng.choice((0, 0, 1, 2)) for f in floors]
    broken = rng.randrange(n)
    vals[broken] = floors[broken] - 1
    x = [Fraction(p) ** v * rng.choice((1, 2, 4, 5, 7)) for v in vals]
    b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
    return GeqProblem.of(A, b, p, tuple(floors))


def test_early_stop_eliminates_only_before_the_failing_row(monkeypatch):
    # a planted unsat system at n = 48 fails at pivot row 9.  The elimination
    # is left-looking, so the solve clears only rows 1..9, each by the pivots
    # above it and once by each: at most 1 + ... + 9 = 45 row steps, the full
    # echelon's schedule up to its check of row 9, and under a quarter of it
    prob = _planted_unsat(0, 48, 3)
    runs = spy_echelon_schedule(monkeypatch, solver_geq)
    verdict = solve_geq(prob)
    solver_geq.pivot_minimal_echelon(prob.A, prob.costs(), [[x] for x in prob.b])
    stopped, full = runs
    assert (verdict.code, verdict.diagnostics["row"]) == ("pivot-bound", 9)
    assert_left_looking(stopped)
    assert stopped[-1] == ("check", 9)
    assert stopped == full[:len(stopped)]
    steps, full_steps = ([e for e in run if e[0] != "check"] for run in runs)
    assert {label for label, _, _ in steps} <= set(range(1, 10))
    assert len(steps) <= 45
    assert 4 * len(steps) < len(full_steps), (len(steps), len(full_steps))


def test_both_defects_report_the_pivot_row():
    # x + y = 1 and 2x + 2y = 3 at p = 3: the zero row reads 0 = 1, and with
    # floors 1 on both the pivot row fails first; with y unbounded the pivot
    # row passes and the zero row refutes
    A, b = [[1, 1], [2, 2]], [1, 3]
    both = solve_geq(GeqProblem.of(A, b, 3, (1, 1)))
    assert (both.code, both.diagnostics) == (
        "pivot-bound", {"row": 0, "required": 1, "actual": 0}
    )
    rankdef = solve_geq(GeqProblem.of(A, b, 3, (0, NEG_INF)))
    assert (rankdef.code, rankdef.diagnostics) == ("rank-deficient-rhs", {"row": 1})
