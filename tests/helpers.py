"""Shared checking utilities for the test suite."""

from fractions import Fraction
from math import gcd, lcm

from padicsat import linalg
from padicsat.complete import _State
from padicsat.linalg import dims, integer_row, inverse_permutation
from padicsat.model import VarProfile, Verdict
from padicsat.rational import INF, NEG_INF, PowerSum, int_valuation, is_finite, valuation
from padicsat.testkit import (
    carried_matrix,
    determinant,
    echelon_matrix,
    mat_mul,
    permutation_matrix,
)


def rand_matrix(rng, m, n, mag=9, density=1.0):
    return [
        [
            Fraction(rng.randint(-mag, mag)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def rand_vector(rng, n, mag=9):
    return [Fraction(rng.randint(-mag, mag)) for _ in range(n)]


def assert_echelon_shape(B):
    """Rows of zeros at the bottom; pivot columns strictly increasing; zeros
    below and left of every pivot."""
    m, n = dims(B)
    leads = []
    seen_zero_row = False
    for i in range(m):
        lead = next((j for j in range(n) if B[i][j] != 0), None)
        if lead is None:
            seen_zero_row = True
        else:
            assert not seen_zero_row, "nonzero row below a zero row"
            leads.append(lead)
    assert leads == sorted(set(leads)), "pivot columns not strictly increasing"
    for i, lead in enumerate(leads):
        for r in range(i + 1, m):
            for c in range(lead + 1):
                assert B[r][c] == 0, "nonzero entry below/left of a pivot"
    return leads


def assert_echelon_result(A, costs, result):
    """Full audit of a cost-minimal echelon result.

    The result must come from pivot_minimal_echelon(A, costs, identity(m)),
    so that its carried block is the transform U.  Checks the factorization
    B = U A P, invertibility of U, echelon shape,
    pivot cost minimality along each pivot row, and the two derived
    minimality facts (cost without bias, cost with full bias) that the
    >=-solver relies on.
    """
    m, n = dims(A) if A else (0, 0)
    B, U, sigma = echelon_matrix(result), carried_matrix(result), result.sigma
    P = permutation_matrix(sigma)
    assert mat_mul(U, mat_mul(A, P)) == B
    assert determinant(U) != 0
    leads = assert_echelon_shape(B)
    assert list(result.pivots) == leads
    col_of = inverse_permutation(sigma)
    p = costs.prime
    offs = [costs.offsets[col_of[j]] for j in range(n)]
    bias = [costs.biases[col_of[j]] for j in range(n)]

    def doubled(a, j, b):
        if a == 0:
            return INF
        if offs[j] == NEG_INF:
            return NEG_INF
        return 2 * valuation(a, p) + 2 * offs[j] + b

    for i, piv in enumerate(result.pivots):
        tail = range(piv, n)
        # (b) pivot minimizes the full cost over the remaining columns
        full = [doubled(B[i][j], j, bias[j]) for j in tail]
        assert doubled(B[i][piv], piv, bias[piv]) == min(full)
        # derived: also minimal without any bias ...
        plain = [doubled(B[i][j], j, 0) for j in tail]
        assert doubled(B[i][piv], piv, 0) == min(plain)
        # ... and with the bias counted in full (doubled) on every column
        heavy = [doubled(B[i][j], j, 2 * bias[j]) for j in tail]
        assert doubled(B[i][piv], piv, 2 * bias[piv]) == min(heavy)


# ---------------------------------------------------------------------------
# Fraction references for the integer eliminations


def reference_solve_affine(A, b, n):
    """Fraction Gauss elimination and back-substitution: (particular, basis),
    or None when A x = b, x in Q^n, is inconsistent.  Entries may be ints or
    Fractions."""
    m = len(A)
    M = [[Fraction(x) for x in (*A[i], b[i])] for i in range(m)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        i = next((i for i in range(r, m) if M[i][col] != 0), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        for i in range(r + 1, m):
            f = M[i][col] / M[r][col]
            M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(col)
    if any(M[i][n] != 0 for i in range(len(pivots), m)):
        return None

    def back_substitute(vec, rhs):
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            acc = rhs[r] - sum((M[r][j] * vec[j] for j in range(c + 1, n)), Fraction(0))
            vec[c] = acc / M[r][c]
        return vec

    zero = [Fraction(0)] * m
    particular = back_substitute([Fraction(0)] * n, [row[n] for row in M])
    basis = [
        back_substitute([Fraction(int(c == f)) for c in range(n)], zero)
        for f in range(n)
        if f not in pivots
    ]
    return particular, basis


def reference_frozen(particular, basis):
    """(column, value) of each coordinate zero in every kernel basis vector,
    ascending: the coordinates the equations fix, at their particular
    values."""
    return [
        (j, x) for j, x in enumerate(particular) if all(vec[j] == 0 for vec in basis)
    ]


def fraction_space(solution, n):
    """solve_affine's integers (pivots, free, F, minor) read as Fractions:
    (particular, basis) as reference_solve_affine gives them, or None."""
    if solution is None:
        return None
    pivots, free, F, minor = solution
    particular = [Fraction(0)] * n
    basis = [[Fraction(int(j == f)) for j in range(n)] for f in free]
    for c, F_r in zip(pivots, F):
        particular[c] = Fraction(F_r[-1], minor)
        for vec, x in zip(basis, F_r):
            vec[c] = Fraction(-x, minor)
    return particular, basis


def reference_solve_leq(prob):
    """solve_leq's decision on the Fraction reference_solve_affine and its
    frozen coordinates: the unsat verdict, or a sat one with the thresholds
    and dimension diagnostics and no witness or step."""
    p, n = prob.prime, len(prob.caps)
    space = reference_solve_affine([list(r) for r in prob.A], list(prob.b), n)
    if space is None:
        return Verdict.unsat("no-solution", "the linear system is inconsistent")
    particular, basis = space
    for j, value in reference_frozen(particular, basis):
        v = valuation(value, p)
        if not VarProfile(NEG_INF, prob.caps[j], prob.excluded[j]).admits(v):
            return Verdict.unsat(
                "fixed-out-of-range",
                f"coordinate {j} is fixed with valuation {v}, outside its allowed set",
                coordinate=j,
                valuation=v,
            )
    # the least integer above the cap or excluded below it
    thresholds = [
        min([e for e in excl if e <= cap] + [cap + 1])
        for cap, excl in zip(prob.caps, prob.excluded)
    ]
    return Verdict.sat(thresholds=thresholds, dimension=len(basis))


def _doubled_cost(costs, a, j):
    """2 v_p(a) + 2 offset_j + bias_j for a nonzero entry a of column j, -inf
    under a -inf offset."""
    if costs.offsets[j] == NEG_INF:
        return NEG_INF
    return 2 * valuation(a, costs.prime) + 2 * costs.offsets[j] + costs.biases[j]


def reference_echelon(A, costs, rhs):
    """The cost-driven echelon on Fraction rows: (B, carried rhs, sigma,
    rank), rhs an m x k block that undergoes B's row operations."""
    m, n = len(A), len(costs.offsets)
    B = [list(row) for row in A]
    R = [list(row) for row in rhs]
    col_of = list(range(n))
    r = 0
    while r < m and r < n:
        if not any(B[r][r:]):
            swap = next((i for i in range(r + 1, m) if any(B[i][r:])), None)
            if swap is None:
                break
            B[r], B[swap] = B[swap], B[r]
            R[r], R[swap] = R[swap], R[r]
        top = B[r]
        best = min(
            (j for j in range(r, n) if top[j]),
            key=lambda j: (_doubled_cost(costs, top[j], col_of[j]), j),
        )
        for row in B:
            row[r], row[best] = row[best], row[r]
        col_of[r], col_of[best] = col_of[best], col_of[r]
        for i in range(r + 1, m):
            factor = B[i][r] / top[r]
            B[i] = [x - factor * y for x, y in zip(B[i], top)]
            R[i] = [x - factor * y for x, y in zip(R[i], R[r])]
        r += 1
    sigma = [0] * n
    for pos, orig in enumerate(col_of):
        sigma[orig] = pos
    return B, R, tuple(sigma), r


# ---------------------------------------------------------------------------
# the search state's integer rows against Fraction equations


def integer_state(p, equations, profiles):
    """complete._State over the sorted variables, from Fraction equations
    given as (coefficients by variable, rhs) with a nonzero coefficient each;
    each row is divided by its content, as the search keeps its rows."""
    columns = sorted(profiles)
    rows = []
    for coeffs, rhs in equations:
        row, _ = integer_row([*(coeffs.get(v, 0) for v in columns), rhs])
        g = gcd(*row)
        rows.append([x // g for x in row])
    return _State(p, columns, rows, profiles)


def state_equations(state):
    """The state's rows as (coefficients by variable, rhs), the coefficients
    in profile order, the order propagation visits."""
    index = {c: j for j, c in enumerate(state.columns)}
    return [
        ({v: row[index[v]] for v in state.profiles if row[index[v]]}, row[-1])
        for row in state.rows
    ]


def primitive_equations(equations):
    """Each equation (coefficients by variable, rhs) times the positive
    rational that makes it integral with content 1: the one row a state
    keeps for it."""
    out = []
    for coeffs, rhs in equations:
        entries = [Fraction(x) for x in (*coeffs.values(), rhs)]
        den = lcm(*(x.denominator for x in entries))
        g = gcd(*(int(x * den) for x in entries))
        scale = Fraction(den, g)
        out.append(({v: int(a * scale) for v, a in coeffs.items()}, int(rhs * scale)))
    return out


def substitute_reference(p, equations, entry):
    """A substitution, ("zero", var) or ("digit", var, digit, v), applied to
    Fraction equations: the new equations, or None when an equation reads
    0 = nonzero.  var = digit*p^v + r moves a*digit*p^v into the rhs and
    keeps a*var, read from then on as a*r."""
    out = []
    for coeffs, rhs in equations:
        coeffs = dict(coeffs)
        if entry[0] == "zero":
            coeffs.pop(entry[1], None)
        else:
            _, var, digit, v = entry
            if var in coeffs:
                rhs -= coeffs[var] * digit * Fraction(p) ** v
        if not coeffs:
            if rhs != 0:
                return None
            continue
        out.append((coeffs, rhs))
    return out


def digit_rhs(state, coeffs, rhs):
    """rhs less the digit terms a*d*p^v of coeffs' digit variables, as a
    Fraction: the constant the search reads a row's rhs valuation from."""
    p = state.prime
    for var, (d, v) in state.consts.items():
        rhs -= coeffs.get(var, 0) * d * Fraction(p) ** v
    return rhs


def zeroed_equations(state):
    """The state's equations over its digit variables' remainders, with
    each zeroed variable read as 0, as the Fraction substitution leaves
    them: a row left without a variable goes if it reads 0 = 0, and None
    when one reads 0 = nonzero."""
    out = []
    for coeffs, rhs in state_equations(state):
        rhs = digit_rhs(state, coeffs, rhs)
        coeffs = {v: a for v, a in coeffs.items() if state.profiles[v].lower != INF}
        if not coeffs:
            if rhs != 0:
                return None
            continue
        out.append((coeffs, rhs))
    return out


def row_valuations(state):
    """What _State.valuations caches: the integer rows' coefficient
    valuations, and the valuation of each rhs less its digit terms."""
    p = state.prime
    return [
        (
            {c: int_valuation(a, p) for c, a in zip(state.columns, row) if a},
            valuation(digit_rhs(state, coeffs, rhs), p),
        )
        for row, (coeffs, rhs) in zip(state.rows, state_equations(state))
    ]


def assert_rows_canonical(state):
    """One column per variable; each row (A | b) of ints with content 1 and
    a nonzero coefficient."""
    assert sorted(state.columns) == sorted(state.profiles)
    assert len(state.rows) == len(state.valuations)
    for row in state.rows:
        assert len(row) == len(state.columns) + 1
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        assert any(row[:-1])


def spy_echelon_schedule(monkeypatch, module):
    """Spy on module.pivot_minimal_echelon's row steps.

    Each call appends its schedule to the returned list: its events in order,
    ("check", r) when step r fixes its pivot row (through a check hook put in
    front of the caller's, if any), and (label, col, key) for each
    linalg.eliminate call, which clears pivot col from a row.  label is the
    step whose pivot row that row becomes, or None for a row that never
    pivots; key numbers the rows in the order of their first row step.
    """
    runs = []
    events = []
    real_eliminate, real_echelon = linalg.eliminate, module.pivot_minimal_echelon

    def eliminate(row, den, top, col, *rest):
        events.append((row, col))
        return real_eliminate(row, den, top, col, *rest)

    def echelon(A, costs, rhs, check=None):
        events.clear()
        steps = {}  # id of a fixed pivot row -> its step

        def hooked(row, den, r, col_of):
            steps[id(row)] = r
            events.append(("check", r))
            return None if check is None else check(row, den, r, col_of)

        try:
            return real_echelon(A, costs, rhs, hooked)
        finally:
            # every row is alive until the run ends, so ids stay unique
            keys = {}
            runs.append([
                event if event[0] == "check"
                else (steps.get(id(event[0])), event[1], keys.setdefault(id(event[0]), len(keys)))
                for event in events
            ])
            events.clear()

    monkeypatch.setattr(linalg, "eliminate", eliminate)
    monkeypatch.setattr(module, "pivot_minimal_echelon", echelon)
    return runs


def assert_left_looking(schedule):
    """A row is cleared only when the elimination reaches it: before step r's
    check, only into row r or a row that never pivots (the zero-row search's
    and, after the last check, the rows left), and only by pivots already
    fixed, each once and in pivot order."""
    step = 0
    last_col = {}
    for event in schedule:
        if event[0] == "check":
            assert event[1] == step
            step += 1
            continue
        label, col, key = event
        assert label in (step, None), (event, step)
        assert last_col.get(key, -1) < col < step, (event, step)
        last_col[key] = col


def powersum_witness(p, rows, floors, digits=None):
    """geq_witness's answer back-substituted in PowerSum arithmetic, one
    PowerSum.combination per pivot: the free positions get d*p^v (d = 1 and
    v the floor unless a digit is recorded), 0 under an infinite floor, and
    pivot i is (rhs_i - sum of row_i[j] w_j over j > i) / row_i[i]."""
    n, k = len(floors), len(rows)
    w = [None] * n
    for j in range(k, n):
        d, v = (digits or {}).get(j, (1, floors[j]))
        w[j] = PowerSum(p, ((Fraction(d), v),) if is_finite(v) else ())
    for i in range(k - 1, -1, -1):
        row = rows[i]
        w[i] = PowerSum.combination(
            p, [(1, row[n]), *((-row[j], w[j]) for j in range(i + 1, n) if row[j])]
        ).scale(Fraction(1, row[i]))
    return w
