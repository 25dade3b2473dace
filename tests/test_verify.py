"""Tests for the verification suite and the seeded parameter search."""

import json
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from tdpair import cob, multiindex, overlap, tdcore, verify
from tdpair.exactfield import (
    LaurentSeries,
    PrecisionExhausted,
    RationalFunction,
    as_integer,
    format_scalar,
    limit_at_zero,
    variable_t,
)
from tdpair.multiindex import Shape, enumerate_box, format_multiindex
from tdpair.report import CheckResult
from tdpair.tdcore import (
    ExactMatrix,
    TDParameters,
    _assemble_operator,
    build_operator,
    eigenvalue,
    factored_values,
    substituted_for_involution,
    uncleared,
    unit_factored,
    validate_parameters,
)
from tdpair.verify import (
    CHECK_NAMES,
    DEFAULT_CHECKS,
    SamplingExhausted,
    random_valid_parameters,
    run_suite,
)

from matrix_ops import (
    cleared,
    commutator,
    diagonal,
    identity,
    minus,
    off_diagonal_part,
    plant_off_diagonal,
    plus,
    scaled,
    transpose,
    typed_cleared,
)
from operator_oracle import oracle_operator


def _entries_changed(table, change):
    # the factored table's rows of values, edited in place by change, under
    # unit heads: a plant in a route kernel's table
    values = factored_values(table)
    change(values)
    return unit_factored(values)


def _params_1d() -> TDParameters:
    return TDParameters(
        shape=Shape((1,)),
        theta0=F(0),
        theta0_star=F(0),
        h=F(1),
        h_star=F(1),
        omega=F(0),
        omega_star=F(0),
        a=(F(1),),
    )


def _params_2d() -> TDParameters:
    return TDParameters(
        shape=Shape((1, 1)),
        theta0=F(1, 2),
        theta0_star=F(-1, 3),
        h=F(2),
        h_star=F(3),
        omega=F(1, 3),
        omega_star=F(1, 5),
        a=(F(1, 7), F(3, 11)),
    )


def _mutation_instance() -> TDParameters:
    # theta0 = theta0* = 1 keeps the cubic relations sensitive to beta;
    # at theta0 = 0 this dimension is too small to notice the mutation
    return TDParameters(
        shape=Shape((1,)),
        theta0=F(1),
        theta0_star=F(1),
        h=F(1),
        h_star=F(1),
        omega=F(0),
        omega_star=F(0),
        a=(F(1),),
    )


class TestCheckNames:
    def test_canonical_order(self):
        assert CHECK_NAMES == (
            "constraints",
            "eigen",
            "inverse",
            "td_relations",
            "r3l",
            "block_structure",
            "sas_conjugation",
            "overlap_consistency",
            "biorthogonality",
            "racah_reduction",
            "limits",
            "irreducibility",
        )

    def test_default_excludes_irreducibility(self):
        assert DEFAULT_CHECKS == CHECK_NAMES[:-1]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_suite(_params_1d(), checks=["eigen", "nonsense"])


class TestFullSuite:
    def test_univariate_instance_all_checks_pass(self):
        report = run_suite(_params_1d(), checks=CHECK_NAMES)
        assert [r.check for r in report.results] == list(CHECK_NAMES)
        assert all(r.passed is True for r in report.results)
        assert report.passed

    def test_two_coordinate_instance_passes(self):
        report = run_suite(_params_2d())
        assert report.passed
        by_name = {r.check: r for r in report.results}
        assert by_name["racah_reduction"].passed is None  # needs N == 1
        for name in DEFAULT_CHECKS:
            if name != "racah_reduction":
                assert by_name[name].passed is True, name

    def test_random_draws_pass_across_shapes(self):
        for ell in ((1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1)):
            params = random_valid_parameters(Shape(ell), seed=11, bound=6)
            report = run_suite(params)
            assert report.passed, (ell, report.to_text())

    def test_selection_reports_only_requested_checks(self):
        report = run_suite(_params_1d(), checks=["inverse", "eigen"])
        assert [r.check for r in report.results] == ["eigen", "inverse"]
        assert report.passed

    def test_selection_without_constraints_still_gates(self):
        bad = TDParameters(
            shape=Shape((1,)),
            theta0=F(0),
            theta0_star=F(0),
            h=F(0),
            h_star=F(1),
            omega=F(0),
            omega_star=F(0),
            a=(F(1),),
        )
        report = run_suite(bad, checks=["eigen"])
        (result,) = report.results
        assert result.check == "eigen"
        assert result.passed is None
        assert result.witness == "skipped: constraints failed"


class TestBetaMutation:
    def test_canonical_beta_passes(self):
        report = run_suite(_mutation_instance(), checks=["td_relations"])
        assert report.passed

    def test_mutated_beta_fails_with_nonzero_witness(self):
        report = run_suite(_mutation_instance(), checks=["td_relations"], beta=F(3))
        result = report.result("td_relations")
        assert result.passed is False
        assert not report.passed
        assert result.witness["lhs"] != "0"
        assert result.witness["rhs"] == "0"

    @staticmethod
    def _witness_of_separate_products(p, beta):
        # both relations with every product of three written out on its own
        A, As = build_operator(p, "A"), build_operator(p, "Astar")
        zero = ExactMatrix(A.basis)
        rho = p.h * (p.h * (p.omega**2 - 1) - 4 * p.theta0)
        rho_s = p.h_star * (p.h_star * (p.omega_star**2 - 1) - 4 * p.theta0_star)
        for X, Y, gamma, r, identity in (
            (A, As, 2 * p.h, rho, "plain cubic relation"),
            (As, A, 2 * p.h_star, rho_s, "starred cubic relation"),
        ):
            P = plus(minus(X @ X @ Y, scaled(X @ Y @ X, beta)), Y @ X @ X)
            P = minus(minus(P, scaled(plus(X @ Y, Y @ X), gamma)), scaled(Y, r))
            diff = commutator(X, P).first_difference(zero)
            if diff is not None:
                row, col, lhs, rhs = diff
                return {
                    "row": format_multiindex(row),
                    "col": format_multiindex(col),
                    "lhs": format_scalar(lhs),
                    "rhs": format_scalar(rhs),
                    "identity": identity,
                }
        return None

    @pytest.mark.parametrize("ell", [(1,), (3, 2), (2, 2, 1)])
    def test_shared_products_give_the_same_witness(self, ell):
        # the check builds A A* and A* A once for both relations
        p = _mutation_instance() if ell == (1,) else random_valid_parameters(Shape(ell), 1)
        result = run_suite(p, checks=["td_relations"], beta=F(3)).result("td_relations")
        expected = self._witness_of_separate_products(p, F(3))
        assert expected is not None
        assert result.passed is False
        assert result.witness == expected


class TestConstraintGating:
    def test_invalid_parameters_skip_dependents(self):
        bad = TDParameters(
            shape=Shape((1,)),
            theta0=F(0),
            theta0_star=F(0),
            h=F(0),
            h_star=F(1),
            omega=F(0),
            omega_star=F(0),
            a=(F(1),),
        )
        report = run_suite(bad)
        assert not report.passed
        constraints = report.result("constraints")
        assert constraints.passed is False
        assert constraints.witness == [{"clause": "cond1", "violations": ["h = 0"]}]
        for r in report.results[1:]:
            assert r.passed is None
            assert r.witness == "skipped: constraints failed"

    def test_failures_listed(self):
        bad = TDParameters(
            shape=Shape((1,)),
            theta0=F(0),
            theta0_star=F(0),
            h=F(0),
            h_star=F(1),
            omega=F(0),
            omega_star=F(0),
            a=(F(1),),
        )
        report = run_suite(bad, checks=["constraints"])
        assert [r.check for r in report.failures()] == ["constraints"]


class TestIrreducibility:
    def test_certified_on_small_instances(self):
        for params in (_params_1d(), _params_2d()):
            report = run_suite(params, checks=["irreducibility"])
            result = report.result("irreducibility")
            assert result.passed is True
            assert result.witness["status"] == "certified"
            dim = params.shape.dimension
            assert result.witness["span"] == dim * dim

    def test_never_reports_reducible(self):
        report = run_suite(_params_2d(), checks=["irreducibility"])
        assert report.result("irreducibility").witness["status"] in (
            "certified",
            "inconclusive",
        )

    @pytest.mark.parametrize("ell", [(1,), (2, 1), (1, 1, 1)])
    def test_the_integer_echelon_gives_the_oracle_witness(self, ell):
        p = random_valid_parameters(Shape(ell), 1)
        assert verify._check_irreducibility(verify._Context(p)) == _oracle_irreducibility(p)

    @pytest.mark.parametrize("free", ["omega", "omega_star", "h"])
    def test_over_q_t_each_line_is_scaled_by_its_lead(self, free):
        # a rational-function entry has no gcd: the line is divided by its
        # lead entry instead
        p = random_valid_parameters(Shape((2,)), 1)
        p = replace(p, **{free: getattr(p, free) + variable_t()})
        assert verify._check_irreducibility(verify._Context(p)) == _oracle_irreducibility(p)


def _oracle_irreducibility(p):
    """The irreducibility check as it was written in ExactMatrix algebra:
    words g @ w from the identity, each inserted into an echelon over the
    field whose pivot lines lead with 1."""
    gens = (build_operator(p, "A"), build_operator(p, "Astar"))
    d = gens[0].dimension
    target = d * d
    pivots: dict = {}

    def insert(m) -> bool:
        vec = {k: v for k, v in m.entries.items() if v != 0}
        while vec:
            lead = min(vec)
            if lead not in pivots:
                inv = 1 / vec[lead]
                pivots[lead] = {k: v * inv for k, v in vec.items()}
                return True
            factor = vec[lead]
            for k, v in pivots[lead].items():
                nv = vec.get(k, F(0)) - factor * v
                if nv == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = nv
        return False

    frontier = [identity(gens[0].basis)]
    insert(frontier[0])
    length = 0
    while len(pivots) < target and length < 2 * d + 2:
        length += 1
        nxt = [m for w in frontier for g in gens if insert(m := g @ w)]
        if not nxt:
            break
        frontier = nxt
    if len(pivots) == target:
        return True, {"status": "certified", "span": target, "word_length": length}
    return None, {"status": "inconclusive", "span": len(pivots), "target": target, "word_length": length}


class TestOverlapConsistencyMutation:
    """A planted error in one pointwise route must fail the table check with
    a witness that names the route and the entry."""

    I, X = (1, 0), (0, 1)

    def _perturb(self, monkeypatch, name, i, x, delta=F(1, 1000)):
        # the route kernels return a factored table: a row per index of rows,
        # a column per index of cols
        original = getattr(overlap, name)

        def perturbed(params, rows, cols):
            def change(values):
                for mi, row in zip(rows, values):
                    for c, mx in enumerate(cols):
                        if (tuple(mi), tuple(mx)) == (i, x):
                            row[c] += delta

            return _entries_changed(original(params, rows, cols), change)

        monkeypatch.setattr(overlap, name, perturbed)

    @pytest.mark.parametrize("family, route", [("T", "_t_shift"), ("U", "_u_shift")])
    def test_planted_route_error_is_named(self, monkeypatch, family, route):
        p = _params_2d()
        evaluate = overlap.overlap_T if family == "T" else overlap.overlap_U
        ref = evaluate(p, self.I, self.X, "direct_sum")
        self._perturb(monkeypatch, route, self.I, self.X)
        result = run_suite(p, checks=["overlap_consistency"]).result("overlap_consistency")
        assert result.passed is False
        assert result.witness == {
            "identity": f"{family} route agreement",
            "method": "shift_operator",
            "i": format_multiindex(self.I),
            "x": format_multiindex(self.X),
            "lhs": format_scalar(ref),
            "rhs": format_scalar(ref + F(1, 1000)),
        }

    def test_t_disagreement_reported_before_u(self, monkeypatch):
        # the U error sits at an earlier entry, but T's table is compared first
        p = _params_2d()
        self._perturb(monkeypatch, "_t_shift", (1, 1), (1, 1))
        self._perturb(monkeypatch, "_u_shift", (0, 0), (0, 0))
        witness = run_suite(p, checks=["overlap_consistency"]).result(
            "overlap_consistency"
        ).witness
        assert witness["identity"] == "T route agreement"
        assert witness["i"] == witness["x"] == format_multiindex((1, 1))


def _package_caches() -> list:
    # every bounded cache of the package, each once
    caches = {}
    for name, mod in list(sys.modules.items()):
        if name == "tdpair" or name.startswith("tdpair."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def _without_millis(obj):
    if isinstance(obj, dict):
        return {k: _without_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_without_millis(v) for v in obj]
    return obj


@pytest.fixture
def cold():
    """(3,2) at seed 1, with the shared coefficient tables built afresh for
    the test and dropped after it."""
    cob._family_pair.cache_clear()
    yield random_valid_parameters(Shape((3, 2)), 1)
    cob._family_pair.cache_clear()


class TestSharedCoefficientTables:
    """One suite builds each coefficient family once, and every check that
    reads a family reads that one table."""

    def test_one_suite_builds_each_family_once(self, cold):
        # one walk per side: C with Cbar, D with Dbar
        assert run_suite(cold).passed
        info = cob._family_pair.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        for kind in cob.COEFFICIENT_KINDS:
            cob.coefficient_matrix(cold, kind)
        assert cob._family_pair.cache_info().misses == 2

    def test_one_suite_does_its_fixed_work_once(self, monkeypatch):
        # from every package cache cleared: p is validated once, and so is
        # each Q(t) parameter set of the limits check; the box is enumerated
        # once and the swapped parameter set derived once
        p = random_valid_parameters(Shape((3, 2)), 1)
        for cache in _package_caches():
            cache.cache_clear()
        seen = []
        original = tdcore.validate_parameters
        monkeypatch.setattr(tdcore, "validate_parameters", lambda q: seen.append(q) or original(q))
        assert run_suite(p).passed
        assert len(seen) == 3 and seen[0] == p
        assert {type(q.omega_star).__name__ for q in seen[1:]} == {"RationalFunction", "Fraction"}
        assert multiindex._box.cache_info().misses == 1
        assert cob._swapped.cache_info().misses == 1

    def test_a_changed_box_list_changes_nothing(self):
        p = random_valid_parameters(Shape((3, 2)), 1)
        before = _without_millis(run_suite(p).to_json_obj())
        box = enumerate_box(p.shape)
        expect = list(box)
        box.reverse()
        box.append(box[0])
        assert enumerate_box(p.shape) == expect
        # the next suite rebuilds everything but the box from cold caches
        for cache in _package_caches():
            if cache is not multiindex._box:
                cache.cache_clear()
        assert _without_millis(run_suite(p).to_json_obj()) == before

    def test_a_changed_constraint_report_changes_nothing(self):
        for p in (random_valid_parameters(Shape((3, 2)), 1), replace(_params_1d(), h=F(0))):
            before = run_suite(p, checks=["constraints"]).result("constraints")
            report = validate_parameters(p)
            report.add(CheckResult("cond4", "planted", False, ["planted"]))
            for r in report.results:
                r.passed = False
                r.witness = ["planted"]
            after = run_suite(p, checks=["constraints"]).result("constraints")
            assert (after.passed, after.witness) == (before.passed, before.witness)

    # planted family -> (exactly the checks that fail, checks whose witness
    # names the planted entry, with the identity each reports)
    PLANTED = {
        "C": (
            {"eigen", "inverse", "block_structure", "overlap_consistency"},
            {"eigen": "A on its eigenbasis", "inverse": "raising family inverse"},
        ),
        "Cbar": (
            {"inverse", "block_structure", "overlap_consistency", "biorthogonality"},
            {"inverse": "raising family inverse"},
        ),
        "D": (
            {"eigen", "inverse", "block_structure", "overlap_consistency", "biorthogonality"},
            {"eigen": "A* on its eigenbasis", "inverse": "lowering family inverse"},
        ),
        "Dbar": (
            {"inverse", "block_structure"},
            {"inverse": "lowering family inverse"},
        ),
    }

    @pytest.mark.parametrize("kind", cob.COEFFICIENT_KINDS)
    def test_planted_coefficient_error_is_caught(self, cold, kind):
        failing, named = self.PLANTED[kind]
        for p in (cold, random_valid_parameters(Shape((2, 2, 1)), 1)):
            cob._family_pair.cache_clear()
            others = {k: cob.coefficient_matrix(p, k) for k in cob.COEFFICIENT_KINDS}
            r, c = plant_off_diagonal(cob._coefficient_rows(p, kind))
            basis = enumerate_box(p.shape)
            # the tables of the other families are not views of the planted one
            for k, before in others.items():
                if k != kind:
                    assert cob.coefficient_matrix(p, k) == before, k
            report = run_suite(p)
            assert {res.check for res in report.results if res.passed is False} == failing, p.shape
            for name, identity in named.items():
                witness = report.result(name).witness
                assert witness["identity"] == identity
                assert witness["row"] == format_multiindex(basis[r])
                assert witness["col"] == format_multiindex(basis[c])

    def test_limits_alone_builds_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("context matrix built")

        monkeypatch.setattr(verify, "_assemble_operator", refuse)
        monkeypatch.setattr(verify, "_coefficient_rows", refuse)
        assert run_suite(_params_2d(), checks=["limits"]).passed


class TestOverlapTableMutation:
    @staticmethod
    def _plant(monkeypatch, which, method):
        # the first nonzero off-diagonal entry (i, x) of the route's table,
        # in storage order, off by one
        original, planted = verify._factored_table, []

        def plant(params, w, m):
            table = original(params, w, m)
            if (w, m) != (which, method):
                return table
            basis = enumerate_box(params.shape)

            def change(values):
                r, c = next((r, c) for r, row in enumerate(values) for c, v in enumerate(row) if r != c and v)
                values[r][c] += 1
                planted.append([basis[r], basis[c]])

            return _entries_changed(table, change)

        monkeypatch.setattr(verify, "_factored_table", plant)
        return planted

    def test_planted_u_table_error_is_caught(self, cold, monkeypatch):
        # U_i(x) read by linear_solve off by one: the route comparison names
        # that entry; biorthogonality reads U by the direct sum, so it passes
        planted = self._plant(monkeypatch, "U", "linear_solve")
        report = run_suite(cold, checks=["overlap_consistency", "biorthogonality"])
        (i, x), = planted
        consistency = report.result("overlap_consistency")
        assert consistency.passed is False
        assert consistency.witness["identity"] == "U route agreement"
        assert consistency.witness["method"] == "linear_solve"
        assert consistency.witness["i"] == format_multiindex(i)
        assert consistency.witness["x"] == format_multiindex(x)
        assert report.result("biorthogonality").passed is True

    # route table -> exactly the checks that fail.  biorthogonality reads U
    # by the direct sum and Cbar and D, not the T matrix_product table, so
    # that table is caught by the route comparison alone
    ROUTE_FAILS = {
        ("T", "direct_sum"): {"overlap_consistency"},
        ("T", "matrix_product"): {"overlap_consistency"},
        ("T", "shift_operator"): {"overlap_consistency"},
        ("U", "direct_sum"): {"overlap_consistency", "biorthogonality"},
        ("U", "shift_operator"): {"overlap_consistency"},
        ("U", "linear_solve"): {"overlap_consistency"},
    }

    @pytest.mark.parametrize("which, method", list(ROUTE_FAILS))
    def test_planted_route_entry_fails_exactly(self, monkeypatch, which, method):
        planted = self._plant(monkeypatch, which, method)
        for ell in ((3, 2), (2, 2, 1)):
            planted.clear()
            report = run_suite(random_valid_parameters(Shape(ell), 1))
            (i, x), = planted
            failed = {res.check for res in report.results if res.passed is False}
            assert failed == self.ROUTE_FAILS[which, method], ell
            witness = report.result("overlap_consistency").witness
            assert witness["identity"] == f"{which} route agreement"
            assert (witness["i"], witness["x"]) == (format_multiindex(i), format_multiindex(x))

    def test_planted_u_direct_sum_entry_breaks_biorthogonality(self, cold, monkeypatch):
        # T Uᵀ differs from I in column i
        planted = self._plant(monkeypatch, "U", "direct_sum")
        result = run_suite(cold, checks=["biorthogonality"]).result("biorthogonality")
        (i, _), = planted
        assert result.passed is False
        assert result.witness["col"] == format_multiindex(i)


class TestRouteTablesPerSuite:
    """The suite's context builds each route table once, and the checks
    read only those tables."""

    def test_each_route_table_is_built_once(self, monkeypatch):
        original, built = verify._factored_table, []

        def counted(params, which, method):
            built.append((which, method))
            return original(params, which, method)

        monkeypatch.setattr(verify, "_factored_table", counted)
        assert run_suite(random_valid_parameters(Shape((3, 2)), 1)).passed
        routes = [("T", m) for m in overlap.T_METHODS] + [("U", m) for m in overlap.U_METHODS]
        assert sorted(built) == sorted(routes)

    def test_racah_reduction_reads_no_pointwise_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pointwise overlap evaluated")

        pointwise = ("overlap_T", "overlap_U", "univariate_u_balanced", "univariate_u_racah_normalized")
        for module in (overlap, verify):
            for name in pointwise:
                monkeypatch.setattr(module, name, refuse, raising=False)
        p = random_valid_parameters(Shape((5,)), 1)
        assert run_suite(p, checks=["racah_reduction"]).passed

    def test_planted_t_form_value_is_named(self, monkeypatch):
        # the N = 1 T form is read from the shift_operator table
        p = random_valid_parameters(Shape((5,)), 1)
        i, x = (2,), (3,)
        ref = overlap.overlap_T(p, i, x, "direct_sum")
        original, basis = verify._factored_table, enumerate_box(p.shape)

        def planted(params, which, method):
            m = original(params, which, method)
            if (which, method) != ("T", "shift_operator"):
                return m

            def change(values):
                values[basis.index(i)][basis.index(x)] += 1

            return _entries_changed(m, change)

        monkeypatch.setattr(verify, "_factored_table", planted)
        result = run_suite(p, checks=["racah_reduction"]).result("racah_reduction")
        assert result.passed is False
        assert result.witness == {
            "identity": "univariate T form",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(ref),
            "rhs": format_scalar(ref + 1),
        }

    def test_planted_balanced_u_value_is_named(self, monkeypatch):
        # the balanced U form is read from the U shift_operator table
        p = random_valid_parameters(Shape((5,)), 1)
        i, x = (2,), (3,)
        ref = overlap.overlap_U(p, i, x, "direct_sum")
        original, basis = verify._factored_table, enumerate_box(p.shape)

        def planted(params, which, method):
            m = original(params, which, method)
            if (which, method) != ("U", "shift_operator"):
                return m

            def change(values):
                values[basis.index(i)][basis.index(x)] += 1

            return _entries_changed(m, change)

        monkeypatch.setattr(verify, "_factored_table", planted)
        result = run_suite(p, checks=["racah_reduction"]).result("racah_reduction")
        assert result.passed is False
        assert result.witness == {
            "identity": "balanced U form",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(ref),
            "rhs": format_scalar(ref + 1),
        }

    @pytest.mark.parametrize(
        "name, planted_at, i, x",
        [("_u_row_factor", 2, (2,), (0,)), ("_u_col_factor", 3, (0,), (3,))],
    )
    def test_planted_normalized_u_value_is_named(self, monkeypatch, name, planted_at, i, x):
        # the normalized U form is f(i) g(x) T_i(x); T_i(0) and T_0(x) are
        # nonzero, so a planted f(2) fails first at (2, 0) and a planted g(3)
        # at (0, 3), each by the other factor times T
        p = random_valid_parameters(Shape((5,)), 1)
        ref = overlap.overlap_U(p, i, x, "direct_sum")
        t = overlap.overlap_T(p, i, x, "shift_operator")
        other = overlap._u_col_factor(p, x[0]) if name == "_u_row_factor" else overlap._u_row_factor(p, i[0])
        original = getattr(verify, name)

        def planted(params, n):
            v = original(params, n)
            return v + 1 if n == planted_at else v

        monkeypatch.setattr(verify, name, planted)
        result = run_suite(p, checks=["racah_reduction"]).result("racah_reduction")
        assert result.passed is False
        assert result.witness == {
            "identity": "normalized U form",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(ref),
            "rhs": format_scalar(ref + other * t),
        }


class TestLimitsMutation:
    """A planted error on either side of the two t -> 0 identities fails
    `limits` with that (i, x) as witness; with every pair checked instead of
    the sample, the suite still passes."""

    DELTA = F(1, 1000)

    @staticmethod
    def _sampled_pair(p, accept):
        return next(
            (i, x) for i, x in verify._limit_pairs(enumerate_box(p.shape)) if accept(i, x)
        )

    def test_planted_qt_direct_sum_entry_is_named(self, monkeypatch):
        p = random_valid_parameters(Shape((3, 2)), 1)
        t = variable_t()
        hahn_side = replace(p, h_star=p.h_star * t, omega_star=1 / t)
        i, x = self._sampled_pair(
            p,
            lambda i, x: isinstance(
                overlap.overlap_T(hahn_side, i, x, "direct_sum"), RationalFunction
            ),
        )
        original = overlap._dot_table

        def planted(row_line, col_line, params, rows, cols):
            # the t-side table of the sampled `limits`: T's direct sum at omega* = 1/t
            def change(values):
                for mi, row in zip(rows, values):
                    row[:] = [v + self.DELTA if (mi, mx) == (i, x) else v for mx, v in zip(cols, row)]

            table = original(row_line, col_line, params, rows, cols)
            return _entries_changed(table, change) if type(params.omega_star) is LaurentSeries else table

        monkeypatch.setattr(overlap, "_dot_table", planted)
        closed = overlap.overlap_limit_kind(p, "hahn", i, x)
        result = run_suite(p, checks=["limits"]).result("limits")
        assert result.passed is False
        assert result.witness == {
            "identity": "level-linear starred spectrum limit",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(closed + self.DELTA),
            "rhs": format_scalar(closed),
        }

    def test_planted_krawtchouk_value_is_named(self, monkeypatch):
        p = random_valid_parameters(Shape((3, 2)), 1)
        i, x = self._sampled_pair(p, lambda i, x: i != x)
        closed = overlap.overlap_limit_kind(p, "krawtchouk", i, x)
        self._plant_krawtchouk(monkeypatch, {(i, x)})
        result = run_suite(p, checks=["limits"]).result("limits")
        assert result.passed is False
        assert result.witness == {
            "identity": "both spectra linear limit",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(closed),
            "rhs": format_scalar(closed + self.DELTA),
        }

    def _plant_krawtchouk(self, monkeypatch, planted_pairs):
        # the Krawtchouk kind as the sampled `limits` binds it, off by DELTA at planted_pairs
        original = overlap._krawtchouk_entry

        def planted(params):
            entry = original(params)
            return lambda mi, mx: entry(mi, mx) + (self.DELTA if (mi, mx) in planted_pairs else 0)

        monkeypatch.setattr(overlap, "_krawtchouk_entry", planted)

    @pytest.mark.parametrize("ell, seed", [((8,), 1), ((2, 2), 2)])
    def test_a_repeated_row_keeps_its_pairs_together(self, monkeypatch, ell, seed):
        # at d = 9 the tenth pair repeats the first pair's row, and the
        # witness is that pair, checked with its row before the second pair
        p = random_valid_parameters(Shape(ell), seed)
        pairs = verify._limit_pairs(enumerate_box(p.shape))
        i, x = pairs[9]
        assert i == pairs[0][0] and pairs[1][0] != i
        closed = overlap.overlap_limit_kind(p, "krawtchouk", i, x)
        self._plant_krawtchouk(monkeypatch, {pairs[1], pairs[9]})
        result = run_suite(p, checks=["limits"]).result("limits")
        assert result.witness == {
            "identity": "both spectra linear limit",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": format_scalar(closed),
            "rhs": format_scalar(closed + self.DELTA),
        }

    @pytest.mark.parametrize("ell", [(3, 2), (2, 2, 1), (4, 3), (2, 2, 2), (3, 3, 2)])
    def test_sample_has_distinct_rows_and_columns(self, ell):
        pairs = verify._limit_pairs(enumerate_box(Shape(ell)))
        assert len(pairs) == 10
        assert len({i for i, _ in pairs}) == len({x for _, x in pairs}) == 10

    @pytest.mark.parametrize("ell, count", [((3, 2), 144), ((2, 2, 1), 324)])
    def test_every_pair_passes(self, monkeypatch, ell, count):
        covered = []

        def every_pair(basis):
            pairs = [(i, x) for i in basis for x in basis]
            covered.append(len(pairs))
            return pairs

        monkeypatch.setattr(verify, "_limit_pairs", every_pair)
        assert run_suite(random_valid_parameters(Shape(ell), 1), checks=["limits"]).passed
        assert covered == [count]


class TestSampledLimits:
    """The sample of `limits` takes each row's pairs as one table, on line
    kernels bound once per check; every value equals that entry of the
    whole box's tables."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("ell", [(3, 2), (2, 2, 1), (4, 3), (3, 3, 2), (8,), (2, 2)])
    def test_each_pair_equals_the_tables(self, ell, seed):
        p = random_valid_parameters(Shape(ell), seed)
        basis, sides = enumerate_box(p.shape), verify._series_sides(p)
        pos, pairs = {m: k for k, m in enumerate(basis)}, verify._limit_pairs(basis)
        kinds = (overlap._hahn_table, overlap._krawtchouk_table)
        tables = [*verify._row_limits(sides, basis, basis), *(factored_values(k(p, basis, basis)) for k in kinds)]
        got = list(verify._sampled_limits(p, sides, pairs))
        # every pair once, a row's pairs together where its first pair is
        rows = dict.fromkeys(i for i, _ in pairs)
        assert [(i, x) for i, x, *_ in got] == [(i, x) for r in rows for i, x in pairs if i == r]
        for i, x, *values in got:
            expect = [t[pos[i]][pos[x]] for t in tables]
            assert values == expect
            assert list(map(type, values)) == list(map(type, expect))


def _reduced_row_limits(p, rows, cols):
    """The limits as `limits` took them before series: every value a reduced
    RationalFunction, sent to t = 0 by `limit_at_zero`."""
    t = variable_t()
    hahn_side = replace(p, h_star=p.h_star * t, omega_star=1 / t)
    kraw_side = replace(p, h=p.h * t, omega=1 / t)
    return (
        [[limit_at_zero(overlap.overlap_T(hahn_side, i, x, "direct_sum")) for x in cols] for i in rows],
        [[limit_at_zero(overlap.overlap_limit_kind(kraw_side, "hahn", i, x)) for x in cols] for i in rows],
    )


_SERIES_SHAPES = [(5,), (2, 1), (1, 2), (2, 2), (3, 2)]


class TestSeriesLimits:
    """`limits` takes its t -> 0 limits in Laurent series; on every pair they
    equal the limits of the reduced rational functions."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", _SERIES_SHAPES)
    def test_every_pair_equals_the_rational_function_path(self, ell, seed):
        p = random_valid_parameters(Shape(ell), seed)
        basis = enumerate_box(p.shape)
        assert verify._row_limits(verify._series_sides(p), basis, basis) == _reduced_row_limits(p, basis, basis)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", _SERIES_SHAPES)
    def test_every_kernel_call_runs_at_precision_one(self, monkeypatch, ell, seed):
        # the `_row_limits` docstring's claim: precision 1 always suffices,
        # so each kernel runs once per kind, on every row and column
        seen = []

        def recorded(kernel, side):
            def run(params, rows, cols):
                seen.append((side, type(getattr(params, side)), len(rows), len(cols)))
                return kernel(params, rows, cols)

            return run

        monkeypatch.setattr(verify, "_t_direct", recorded(verify._t_direct, "omega_star"))
        monkeypatch.setattr(verify, "_hahn_table", recorded(verify._hahn_table, "omega"))
        p = random_valid_parameters(Shape(ell), seed)
        basis = enumerate_box(p.shape)
        verify._row_limits(verify._series_sides(p), basis, basis)
        d = len(basis)
        assert seen == [("omega_star", LaurentSeries, d, d), ("omega", LaurentSeries, d, d)]


class TestUnknownLimits:
    """A limit that precision 1 leaves unknown, or a series kernel that
    raises, fails `limits` with a witness; nothing propagates out of the
    suite and no value is guessed."""

    @staticmethod
    def _limits_witness(monkeypatch, name, wrap):
        # the limits witness at (2,1), seed 1, with verify.<name> wrapped
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda params, rows, cols: wrap(params, rows, cols, original))
        p = random_valid_parameters(Shape((2, 1)), 1)
        result = run_suite(p, checks=["limits"]).result("limits")
        assert result.passed is False
        return p, result.witness

    def test_a_lossy_kernel_fails_with_an_unknown_witness(self, monkeypatch):
        # (v + s) - s loses v below 1/t: every entry's limit is unknown
        def lossy(params, rows, cols, kernel):
            s = params.omega_star
            values = factored_values(kernel(params, rows, cols))
            return unit_factored([[(v + s) - s for v in row] for row in values])

        p, witness = self._limits_witness(monkeypatch, "_t_direct", lossy)
        i = enumerate_box(p.shape)[0]
        assert witness == {
            "identity": "level-linear starred spectrum limit",
            "i": format_multiindex(i),
            "x": format_multiindex(i),
            "lhs": "unknown: t^0 coefficient of LaurentSeries(0, 0, 1) unknown",
            "rhs": format_scalar(overlap.overlap_limit_kind(p, "hahn", i, i)),
        }

    def test_a_planted_unknown_entry_is_named(self, monkeypatch):
        basis = enumerate_box(Shape((2, 1)))
        i, x = basis[2], basis[4]

        def planted(params, rows, cols, kernel):
            def change(values):
                values[rows.index(i)][cols.index(x)] = LaurentSeries(0)

            return _entries_changed(kernel(params, rows, cols), change)

        p, witness = self._limits_witness(monkeypatch, "_t_direct", planted)
        assert (witness["i"], witness["x"]) == (format_multiindex(i), format_multiindex(x))
        assert witness["lhs"] == "unknown: t^0 coefficient of LaurentSeries(0, 0, 1) unknown"
        assert witness["rhs"] == format_scalar(overlap.overlap_limit_kind(p, "hahn", i, x))

    def test_a_kernel_that_raises_fails_the_check(self, monkeypatch):
        # division by s - s = O(t^0) raises inside the Krawtchouk side's
        # call; the witness is the group's first pair with the error
        def dividing(params, rows, cols, kernel):
            s = params.omega
            values = factored_values(kernel(params, rows, cols))
            return unit_factored([[v / (s - s) for v in row] for row in values])

        p, witness = self._limits_witness(monkeypatch, "_hahn_table", dividing)
        i = enumerate_box(p.shape)[0]
        assert witness == {
            "identity": "both spectra linear limit",
            "i": format_multiindex(i),
            "x": format_multiindex(i),
            "lhs": "unknown: division by O(t^0), not known to be nonzero",
            "rhs": format_scalar(overlap.overlap_limit_kind(p, "krawtchouk", i, i)),
        }

    def test_a_pole_fails_the_check(self, monkeypatch):
        # every entry 1/t: its limit does not exist, and the witness says so
        def pole(params, rows, cols, kernel):
            return unit_factored([[LaurentSeries(-1, 1)] * len(cols) for _ in rows])

        p, witness = self._limits_witness(monkeypatch, "_t_direct", pole)
        i = enumerate_box(p.shape)[0]
        assert witness == {
            "identity": "level-linear starred spectrum limit",
            "i": format_multiindex(i),
            "x": format_multiindex(i),
            "lhs": "does not exist: pole at t = 0: LaurentSeries(-1, 1, 1)",
            "rhs": format_scalar(overlap.overlap_limit_kind(p, "hahn", i, i)),
        }

    def test_a_sampled_pair_that_raises_leaves_its_row_unknown(self, monkeypatch):
        # (8,), seed 1, d = 9: the tenth pair repeats the first pair's row;
        # its T entry raising leaves that row's series limits unknown, so
        # the witness is the first pair
        p = random_valid_parameters(Shape((8,)), 1)
        pairs = verify._limit_pairs(enumerate_box(p.shape))
        assert pairs[9][0] == pairs[0][0] and pairs[9] != pairs[0]
        original = overlap._dot_table

        def raising(row_line, col_line, params, rows, cols):
            if type(params.omega_star) is LaurentSeries and pairs[9][0] in rows and pairs[9][1] in cols:
                raise PrecisionExhausted("planted")
            return original(row_line, col_line, params, rows, cols)

        monkeypatch.setattr(overlap, "_dot_table", raising)
        result = run_suite(p, checks=["limits"]).result("limits")
        i, x = pairs[0]
        assert result.witness == {
            "identity": "level-linear starred spectrum limit",
            "i": format_multiindex(i),
            "x": format_multiindex(x),
            "lhs": "unknown: planted",
            "rhs": format_scalar(overlap.overlap_limit_kind(p, "hahn", i, x)),
        }


class TestParametersOutsideQ:
    """With one parameter made free (its value + t), every default check
    proves its identity over Q(t); `limits`, which substitutes its own t,
    is skipped."""

    # also a_2, and a two-coordinate shape with 20 basis elements (ell2):
    # the route tables' heads and dots are rational functions, 0.3-0.4 s and
    # 1.6-2.3 s CPU on a shared 2-core host
    @pytest.mark.parametrize(
        "ell, name",
        [
            pytest.param(ell, name, id=f"ell{k}-{name}")
            for k, ell, names in (
                (0, (2, 1), ["omega", "omega_star", "a1", "h", "h_star"]),
                (1, (2, 2, 1), ["omega", "omega_star", "a1", "h", "h_star", "a2"]),
                (2, (4, 3), ["omega_star"]),
            )
            for name in names
        ],
    )
    def test_default_suite_passes_with_limits_skipped(self, ell, name):
        p = random_valid_parameters(Shape(ell), 1)
        t = variable_t()
        if name.startswith("a"):
            k = int(name[1:]) - 1
            free = replace(p, a=tuple(v + t if q == k else v for q, v in enumerate(p.a)))
        else:
            free = replace(p, **{name: getattr(p, name) + t})
        report = run_suite(free)
        assert report.passed
        limits = report.result("limits")
        assert (limits.passed, limits.witness) == (None, "skipped: parameters outside Q")


class TestOperatorMutation:
    """One off-diagonal entry added to the rows of the context's A or A*.
    The operators the involution check assembles at the substituted
    parameters stay as they are."""

    IDENTITY = {"A": "A on its eigenbasis", "As": "A* on its eigenbasis"}
    # every check that reads A or A*, block_structure through M_C B* = A* M_C
    # and M_D B = A M_D; the rest read coefficient or route tables built from
    # the parameters
    CAUGHT_BY = {"eigen", "td_relations", "r3l", "block_structure", "sas_conjugation"}

    @pytest.mark.parametrize("attr", ["A", "As"])
    def test_planted_operator_error_is_caught(self, monkeypatch, attr):
        planted = []

        class Planted(verify._Context):
            def cleared(self, name):
                first = name == attr and name not in self.rows
                x = super().cleared(name)
                if first:
                    planted.append(plant_off_diagonal(x))
                return x

        monkeypatch.setattr(verify, "_Context", Planted)
        for ell in ((3, 2), (2, 2, 1)):
            planted.clear()
            p = random_valid_parameters(Shape(ell), 1)
            report = run_suite(p)
            (r, c), = planted
            basis = enumerate_box(p.shape)
            eigen = report.result("eigen")
            assert eigen.witness["identity"] == self.IDENTITY[attr]
            assert eigen.witness["row"] == format_multiindex(basis[r])
            assert eigen.witness["col"] == format_multiindex(basis[c])
            failed = {res.check for res in report.results if res.passed is False}
            assert failed == self.CAUGHT_BY, ell

    def test_default_suite_builds_matrices_only_in_the_matrix_product_route(self, monkeypatch):
        # every check reads integer rows; the T matrix_product route alone
        # multiplies two ExactMatrix operands
        built, route, inside = [], overlap._t_product, []
        init = ExactMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(bool(inside))
            init(self, *args, **kwargs)

        def product_route(*args):
            inside.append(True)
            try:
                return route(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(ExactMatrix, "__init__", counted)
        monkeypatch.setattr(overlap, "_t_product", product_route)
        assert run_suite(random_valid_parameters(Shape((3, 2)), 1)).passed
        assert built == [True] * 3


class TestContextRows:
    """The context's R and L, taken from the rows of its A and A*, are the
    oracle's R and L cleared, every numerator and the denominator with its
    type, over Q and with one parameter free over Q(t)."""

    @pytest.mark.parametrize("free", [None, "omega", "omega_star", "h", "h_star"])
    @pytest.mark.parametrize("ell", [(1,), (5,), (3, 2), (2, 2, 1), (1, 1, 1, 1)])
    def test_split_parts_are_the_cleared_oracle(self, ell, free):
        p = random_valid_parameters(Shape(ell), 1)
        if free:
            p = replace(p, **{free: getattr(p, free) + variable_t()})
        ctx = verify._Context(p)
        for name in ("R", "L"):
            assert typed_cleared(ctx.cleared(name)) == typed_cleared(cleared(oracle_operator(p, name))), name


# the four operator-word checks as they were written in ExactMatrix algebra,
# one Fraction per entry of every intermediate matrix: the oracles of the
# checks over Z


def _oracle_witness(lhs, rhs, label):
    diff = lhs.first_difference(rhs)
    if diff is None:
        return None
    row, col, left, right = diff
    return {
        "row": format_multiindex(row),
        "col": format_multiindex(col),
        "lhs": format_scalar(left),
        "rhs": format_scalar(right),
        "identity": label,
    }


def _operators(p):
    return {"A": build_operator(p, "A"), "As": build_operator(p, "Astar")}


def _oracle_eigen(p, ops):
    basis = ops["A"].basis
    dt = diagonal(basis, lambda m: eigenvalue(p, m.weight))
    dts = diagonal(basis, lambda m: eigenvalue(p, m.weight, starred=True))
    mc, md = (cob.coefficient_matrix(p, kind) for kind in ("C", "D"))
    w = _oracle_witness(ops["A"] @ mc, mc @ dt, "A on its eigenbasis")
    if w is None:
        w = _oracle_witness(ops["As"] @ md, md @ dts, "A* on its eigenbasis")
    return w


def _oracle_td_relations(p, ops, beta):
    A, As = ops["A"], ops["As"]
    gamma, rho = 2 * p.h, p.h * (p.h * (p.omega**2 - 1) - 4 * p.theta0)
    gamma_s = 2 * p.h_star
    rho_s = p.h_star * (p.h_star * (p.omega_star**2 - 1) - 4 * p.theta0_star)
    AAs, AsA = A @ As, As @ A
    P1 = plus(minus(A @ AAs, scaled(AAs @ A, beta)), AsA @ A)
    P1 = minus(minus(P1, scaled(plus(AAs, AsA), gamma)), scaled(As, rho))
    zero = ExactMatrix(A.basis)
    w = _oracle_witness(commutator(A, P1), zero, "plain cubic relation")
    if w is None:
        P2 = plus(minus(As @ AsA, scaled(AsA @ As, beta)), AAs @ As)
        P2 = minus(minus(P2, scaled(plus(AsA, AAs), gamma_s)), scaled(A, rho_s))
        w = _oracle_witness(commutator(As, P2), zero, "starred cubic relation")
    return w


def _oracle_r3l(p, ops):
    R, L = off_diagonal_part(ops["A"]), off_diagonal_part(ops["As"])
    lhs = commutator(R, commutator(R, commutator(R, L)))
    level_factor = diagonal(
        R.basis,
        lambda m: -6 * p.h * p.h_star * (4 * m.weight + p.omega + p.omega_star + 4),
    )
    return _oracle_witness(lhs, (R @ R) @ level_factor, "triple commutator collapse")


def _oracle_biorthogonality(ctx):
    def matrix(which, method):
        values = factored_values(ctx.table(which, method))
        return ExactMatrix(ctx.basis, {(r, c): v for r, row in enumerate(values) for c, v in enumerate(row)})

    mt, mu = matrix("T", "matrix_product"), matrix("U", "direct_sum")
    return _oracle_witness(mt @ transpose(mu), identity(ctx.basis), "biorthogonality")


def _oracle_sas(p, ops):
    S, basis = build_operator(p, "S"), ops["A"].basis
    star_side = uncleared(basis, _assemble_operator(substituted_for_involution(p, starred=False), "Astar"))
    w = _oracle_witness(S @ ops["A"] @ S, star_side, "involution on the raising side")
    if w is None:
        plain_side = uncleared(basis, _assemble_operator(substituted_for_involution(p, starred=True), "A"))
        w = _oracle_witness(S @ ops["As"] @ S, plain_side, "involution on the lowering side")
    return w


class TestWitnessParity:
    """The checks over Z report the witness, key for key, that the same
    words in ExactMatrix algebra give."""

    @pytest.mark.parametrize("beta", [F(3), F(5, 7)])
    @pytest.mark.parametrize("ell", [(1,), (3, 2), (2, 2, 1), (2, 1, 1)])
    def test_mutated_beta(self, ell, beta):
        p = _mutation_instance() if ell == (1,) else random_valid_parameters(Shape(ell), 1)
        expected = _oracle_td_relations(p, _operators(p), beta)
        assert expected is not None
        assert verify._check_td_relations(verify._Context(p), beta) == (False, expected)

    def test_mutated_beta_over_q_t(self):
        # a Q(t) entry rides through the same path as the pair (entry, 1)
        t = variable_t()
        p = random_valid_parameters(Shape((2, 1)), 1)
        q = replace(p, h=p.h * t, omega=1 / t)
        expected = _oracle_td_relations(q, _operators(q), F(3))
        assert expected is not None
        assert verify._check_td_relations(verify._Context(q), F(3)) == (False, expected)

    ORACLES = {
        "eigen": (verify._check_eigen, _oracle_eigen),
        "td_relations": (lambda ctx: verify._check_td_relations(ctx, F(2)),
                         lambda p, ops: _oracle_td_relations(p, ops, F(2))),
        "r3l": (verify._check_r3l, _oracle_r3l),
        "sas_conjugation": (verify._check_sas, _oracle_sas),
    }

    @staticmethod
    def _planted(p, attr, where):
        # one entry of A or A* off by 1/3, the first stored off-diagonal one
        # or the last diagonal one, or that off-diagonal entry removed, so
        # that only the right-hand side stores the witness entry: the
        # oracles' matrices, and a context holding them cleared
        ops = _operators(p)
        m = ops[attr]
        d = m.dimension
        key = (d - 1, d - 1) if where == "diagonal" else next(k for k in sorted(m.entries) if k[0] != k[1])
        entries = dict(m.entries)
        entries[key] = 0 if where == "removed" else m.item(*key) + F(1, 3)
        ops[attr] = ExactMatrix(m.basis, entries)
        ctx = verify._Context(p)
        ctx.rows[attr] = cleared(ops[attr])
        return ctx, ops

    @pytest.mark.parametrize("where", ["off", "diagonal", "removed"])
    @pytest.mark.parametrize("attr", ["A", "As"])
    @pytest.mark.parametrize("ell", [(3, 2), (2, 2, 1)])
    def test_planted_operator_entry(self, ell, attr, where):
        p = random_valid_parameters(Shape(ell), 1)
        failed = set()
        for name, (check, oracle) in self.ORACLES.items():
            ctx, ops = self._planted(p, attr, where)
            expected = oracle(p, ops)
            passed, witness = check(ctx)
            assert witness == expected, name
            assert passed is (expected is None), name
            if not passed:
                failed.add(name)
        # the diagonal of A and A* is outside R and L
        assert failed == set(self.ORACLES) - ({"r3l"} if where == "diagonal" else set())

    @pytest.mark.parametrize("planted", [*cob.COEFFICIENT_KINDS, "U"])
    @pytest.mark.parametrize("ell", [(3, 2), (2, 2, 1)])
    def test_planted_table_entry(self, cold, monkeypatch, ell, planted):
        # biorthogonality as ((U Cbar) D)ᵀ against the former T Uᵀ, with one
        # off-diagonal entry of a coefficient family, or of U by the direct
        # sum, off by one; the oracle reads the planted tables too
        p = random_valid_parameters(Shape(ell), 1)
        if planted == "U":
            TestOverlapTableMutation._plant(monkeypatch, "U", "direct_sum")
        else:
            plant_off_diagonal(cob._coefficient_rows(p, planted))
        expected = _oracle_biorthogonality(verify._Context(p))
        assert verify._check_biorthogonality(verify._Context(p)) == (expected is None, expected)
        # C and Dbar are not read by either side
        assert (expected is None) == (planted in ("C", "Dbar"))

    @pytest.mark.parametrize("planted", [None, "U", "Cbar", "D"])
    @pytest.mark.parametrize(
        "ell, free", [((2, 1), False), ((3, 2), False), ((2, 2, 1), False), ((2, 1), True), ((2, 2, 1), True)]
    )
    def test_integer_biorthogonality_matches_the_oracle(self, cold, ell, free, planted):
        # the check on U's integer dots and heads against T Uᵀ in ExactMatrix
        # algebra, with omega* free over Q(t) or not, and one off-diagonal
        # dot of the U direct_sum table, or one entry of Cbar or D, off by
        # one; both read the same planted tables
        p = random_valid_parameters(Shape(ell), 1)
        if free:
            p = replace(p, omega_star=p.omega_star + variable_t())
        ctx = verify._Context(p)
        if planted == "U":
            dots = ctx.table("U", "direct_sum").dots
            r, c = next((r, c) for r, row in enumerate(dots) for c, z in enumerate(row) if r != c and z)
            dots[r][c] += 1
        elif planted:
            plant_off_diagonal(cob._coefficient_rows(p, planted))
        expected = _oracle_biorthogonality(ctx)
        assert verify._check_biorthogonality(ctx) == (expected is None, expected)
        assert (expected is None) == (planted is None)


class TestReportShape:
    def test_json_fields_stable(self):
        report = run_suite(_params_1d(), checks=["constraints", "eigen"])
        obj = report.to_json_obj()
        assert set(obj) == {"pass", "checks"}
        assert obj["pass"] is True
        for item in obj["checks"]:
            assert list(item) == ["check", "paper_ref", "pass", "witness", "millis"]
        # stays serializable with witnesses present
        report = run_suite(_mutation_instance(), checks=["td_relations"], beta=F(3))
        json.dumps(report.to_json_obj())


class TestRandomValidParameters:
    def test_deterministic_per_seed(self):
        a = random_valid_parameters(Shape((2, 1)), seed=7)
        b = random_valid_parameters(Shape((2, 1)), seed=7)
        assert a == b

    def test_seeds_vary(self):
        a = random_valid_parameters(Shape((2, 1)), seed=7)
        b = random_valid_parameters(Shape((2, 1)), seed=8)
        assert a != b

    def test_result_is_valid_and_generic(self):
        params = random_valid_parameters(Shape((1, 1, 1)), seed=3)
        assert validate_parameters(params).passed
        assert as_integer(params.omega) is None
        assert as_integer(params.omega_star) is None
        for ap in params.a:
            assert as_integer(ap + params.omega) is None
            assert as_integer(ap - params.omega_star) is None

    def test_bound_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            random_valid_parameters(Shape((1,)), seed=0, bound=3)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SamplingExhausted):
            random_valid_parameters(Shape((2, 2)), seed=0, max_attempts=1)
