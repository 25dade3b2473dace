"""Per-entry oracles for the overlap closed forms that `tdpair.overlap`
computes as table kernels: the truncated Hahn kind, the Krawtchouk kind and
the single-coordinate T and U forms.  Each evaluates one (i, x) by itself, as the
formula reads, so a table kernel must reproduce it value for value and type
for type.  One side of a Racah factor is kept as `_term_pairs` gives it,
pair for pair.
"""

from fractions import Fraction

from tdpair.exactfield import (
    ZeroDenominatorPochhammer,
    _inv_poch,
    _pair,
    _rising,
    _term_pairs,
    binomial,
    over_common_denominator,
    pair_value,
    pfq_terminating,
    pochhammer,
)


# ---------------------------------------------------------------------------
# the truncated Hahn kind: the shift walk as it ran before the kernels were
# written as dot products of lines, factor 1 outermost over a table of
# accumulated shift offsets


def _walk(N, factor_terms):
    table, den = {(0,) * N: 1}, 1
    for p in range(1, N + 1):
        keys, nums, dens = [], [], []
        for offsets, w in table.items():
            (pu, pv), terms = factor_terms(p, offsets)
            wu, wv = w * pu, den * pv
            for k, u, v in terms:
                keys.append(offsets[: p - 1] + (offsets[p - 1] + k,) + offsets[p:])
                nums.append(wu * u)
                dens.append(wv * v)
        scaled, den = over_common_denominator(nums, dens)
        table = {}
        for key, weight in zip(keys, scaled):
            table[key] = table[key] + weight if key in table else weight
    return pair_value(sum(table.values()), den)


def oracle_hahn(params, i, x):
    ell, N, om, a = params.ell, params.N, params.omega, params.a
    no, do = _pair(om)
    c = [_pair(sum(ell[p - 1 :]) + a[p - 1] + 1 + om) for p in range(1, N + 1)]

    def factor_terms(p, offsets):
        xsh = tuple(v + k for v, k in zip(x, offsets))
        lp, ip, xp = ell[p - 1], i[p - 1], xsh[p - 1]
        (nb, db), aa = c[p - 1], (no + sum(xsh) * do, do)
        b = (nb + sum(xsh[: p - 1]) * db, db)
        terms = _term_pairs([(-ip, 1), (-xp, 1), aa], [(-lp, 1), b], min(ip, xp), (1, 1), "Hahn factor series")
        u, v = _rising(*b, xp)
        return (binomial(lp, ip) * u, v), terms

    head = Fraction((-1) ** sum(i)) / _inv_poch(sum(x) + om, sum(x), "Hahn head")
    return head * _walk(N, factor_terms)


# ---------------------------------------------------------------------------
# one side of a Racah factor as the generic series core yields it: (b)_n,
# the term pairs of (-n)_k (a)_k / (b)_k, over k! (-ell)_k with ell, and the
# ZeroDenominatorPochhammer that ended them or None


def oracle_racah_side(n, a, b, kmax, detail, ell=None):
    nums, dens = ([(-n, 1), a], [b, (-ell, 1)]) if ell is not None else ([(-n, 1), (1, 1), a], [b])
    terms = []
    try:
        for _, u, v in _term_pairs(nums, dens, kmax, (1, 1), detail):
            terms.append((u, v))
    except ZeroDenominatorPochhammer as err:
        return _rising(*b, n), terms, err
    return _rising(*b, n), terms, None


# ---------------------------------------------------------------------------
# the Krawtchouk kind, one factor per coordinate in turn


def oracle_krawtchouk(params, i, x):
    total = Fraction(1)
    for p in range(params.N):
        lp, ip, xp = params.ell[p], i[p], x[p]
        total *= pochhammer(-lp, ip) / pochhammer(Fraction(1), ip)
        total *= pfq_terminating([-ip, -xp], [-lp], Fraction(1), min(ip, xp))
    return total


# ---------------------------------------------------------------------------
# T at N = 1 as one Racah factor at unit argument: binom(ell, i) (b1)_i
# (b2)_x 4F3(-i, i + omega*, -x, x + omega; -ell, b1, b2; 1) over the heads
# (i + omega*)_i and (x + omega)_x, b1 = omega* - a and b2 = ell + omega + a
# + 1, each term of the series from the last by its ratio in field
# arithmetic; a vanishing term ends it


def oracle_t_racah(params, i, x):
    (iv,), (xv,) = i, x
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    b1, b2 = oms - a, ell + om + a + 1
    term, series = Fraction(1), Fraction(1)
    for k in range(min(iv, xv)):
        term = term * (k - iv) * (k - xv) * (k + iv + oms) * (k + xv + om)
        term = term / ((k + 1) * (k - ell) * (k + b1) * (k + b2))
        if term == 0:
            break
        series += term
    head = Fraction((-1) ** iv * binomial(ell, iv)) * pochhammer(b1, iv) * pochhammer(b2, xv)
    return head / (_inv_poch(iv + oms, iv, "T head") * _inv_poch(xv + om, xv, "T head")) * series


# ---------------------------------------------------------------------------
# U at N = 1 as the two closed 4F3 forms, evaluated pointwise in field
# arithmetic as the formulas read


def oracle_u_balanced(params, i, x):
    (iv,), (xv,) = i, x
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    pref = (
        Fraction((-1) ** ell)
        * pochhammer(-ell, xv)
        * pochhammer(xv + ell + a + om + 1, ell - xv)
        * pochhammer(iv - a + oms, ell - iv)
    )
    pref /= (
        pochhammer(Fraction(1), xv)
        * _inv_poch(2 * xv + om + 1, ell - xv, "U balanced denominator")
        * _inv_poch(2 * iv + oms + 1, ell - iv, "U balanced denominator")
    )
    series = pfq_terminating(
        [iv - ell, xv - ell, -xv - ell - om, -iv - ell - oms],
        [-ell, -2 * ell - a - om, -ell + a + 1 - oms],
        Fraction(1),
        ell,
    )
    return pref * series


def oracle_u_normalized(params, i, x):
    (iv,), (xv,) = i, x
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    detail = "U normalized denominator"
    norm = Fraction((-1) ** ell) * pochhammer(-ell, xv) / pochhammer(Fraction(1), xv)
    norm *= (
        pochhammer(iv - a + oms, ell - iv)
        * pochhammer(iv - ell - a - om + oms, ell - iv)
        * pochhammer(iv + a + 1, ell - iv)
    )
    norm /= (
        _inv_poch(2 * iv + oms + 1, ell - iv, detail)
        * _inv_poch(-2 * ell - a - om, ell - iv, detail)
        * _inv_poch(-ell + a - oms + 1, ell - iv, detail)
    )
    norm *= (
        pochhammer(xv + ell + a + om + 1, ell - xv)
        * pochhammer(-xv + a - oms + 1, xv)
        * pochhammer(-xv - ell - a - om, xv)
    )
    norm /= (
        _inv_poch(2 * xv + om + 1, ell - xv, detail)
        * _inv_poch(a + om - oms + 1, xv, detail)
        * _inv_poch(-ell - a, xv, detail)
    )
    series = pfq_terminating(
        [-iv, iv + oms, -xv, xv + om],
        [-ell, -a + oms, ell + a + om + 1],
        Fraction(1),
        min(iv, xv),
    )
    return norm * series
