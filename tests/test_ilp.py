import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import random_ilp_model
from oracles import brute_force_ilp, interval_fixpoint, reference_bnb
from ttsynth import ilp


def model(variables, constraints=(), objective=None):
    return ilp.IlpModel(tuple(variables), tuple(constraints), objective or {})


def compiled_rows(m):
    """(rows, raised, lowered) of the compiled model, as _propagate takes them."""
    c = ilp.compile_model(m)
    return c.constraints, c.raised, c.lowered


def no_cut(m):
    """A cut that never binds: all-zero coefficients, no incumbent."""
    return ilp._Cut([0] * len(m.variables), 0)


class TestCheckAssignment:
    def test_satisfied(self):
        m = model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"x": 1}, ilp.GE, 1)])
        assert ilp.check_assignment(m, {"x": 1})

    def test_violated_names_constraint(self):
        m = model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"x": 1}, ilp.GE, 1)])
        verdict = ilp.check_assignment(m, {"x": 0})
        assert not verdict
        assert "constraint 0" in verdict.violated

    def test_equality(self):
        m = model(
            [ilp.Variable("x", 0, 5), ilp.Variable("y", 0, 5)],
            [ilp.LinearConstraint({"x": 1, "y": 2}, ilp.EQ, 4)],
        )
        assert ilp.check_assignment(m, {"x": 2, "y": 1})

    def test_bound_violation(self):
        m = model([ilp.Variable("x", 0, 1)])
        verdict = ilp.check_assignment(m, {"x": 7})
        assert not verdict and "bound" in verdict.violated

    def test_partial_assignment_rejected(self):
        m = model([ilp.Variable("x", 0, 1)])
        with pytest.raises(ValueError):
            ilp.check_assignment(m, {})


class TestModelValidation:
    def test_unbounded_variable_rejected(self):
        with pytest.raises(ValueError):
            ilp.Variable("x", 0, None)
        with pytest.raises(ValueError):
            ilp.Variable("x", 0, float("inf"))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            ilp.Variable("x", 2, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            model([ilp.Variable("x", 0, 1), ilp.Variable("x", 0, 1)])

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"y": 1}, ilp.LE, 0)])
        with pytest.raises(ValueError):
            model([ilp.Variable("x", 0, 1)], objective={"y": 1})


class TestSolve:
    def test_cover_constraint_tie_break(self):
        m = model(
            [ilp.Variable("x", 0, 1), ilp.Variable("y", 0, 1)],
            [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 1)],
            {"x": 1, "y": 1},
        )
        solution = ilp.solve(m)
        assert solution.objective_value == 1
        assert solution.assignment == {"x": 1, "y": 0}

    def test_infeasible(self):
        m = model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"x": 1}, ilp.GE, 2)])
        assert ilp.solve(m) is None

    def test_region_style_model(self):
        # three 0/1 places with rise equality 2*p1 = p0 + p2 and a cover
        m = model(
            [ilp.Variable("p0", 0, 1), ilp.Variable("p1", 0, 1), ilp.Variable("p2", 0, 1)],
            [
                ilp.LinearConstraint({"p0": -1, "p1": 2, "p2": -1}, ilp.EQ, 0),
                ilp.LinearConstraint({"p0": 1, "p1": 1, "p2": 1}, ilp.GE, 1),
            ],
            {"p0": 1, "p1": 1, "p2": 1},
        )
        solution = ilp.solve(m)
        assert solution.objective_value == 3
        assert solution.assignment == {"p0": 1, "p1": 1, "p2": 1}

    def test_negative_objective_prefers_upper_bound(self):
        m = model([ilp.Variable("x", 0, 3)], objective={"x": -1})
        solution = ilp.solve(m)
        assert solution.assignment == {"x": 3}
        assert solution.objective_value == -3

    def test_pure_feasibility_is_deterministic(self):
        m = model(
            [ilp.Variable("x", 0, 2), ilp.Variable("y", 0, 2)],
            [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 2)],
        )
        first = ilp.solve(m)
        second = ilp.solve(m)
        assert first == second
        assert ilp.check_assignment(m, first.assignment)

    def test_no_variables(self):
        assert ilp.solve(model([])).assignment == {}
        infeasible = ilp.IlpModel((), (ilp.LinearConstraint({}, ilp.GE, 1),))
        assert ilp.solve(infeasible) is None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=80)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        got = ilp.solve(m)
        want = brute_force_ilp(m)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.objective_value == want[0]
            assert got.assignment == want[1]
            assert ilp.check_assignment(m, got.assignment)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=400)
    def test_same_search_as_reference(self, seed):
        # Node for node: the same optimum after the same number of
        # propagated boxes (one _propagate call per node) as a plain
        # branch and bound that sweeps every constraint and an explicit cut.
        m = random_ilp_model(random.Random(seed))
        with mock.patch.object(ilp, "_propagate", wraps=ilp._propagate) as propagate:
            got = ilp.solve(m)
        want, nodes = reference_bnb(m)
        assert got == want
        assert propagate.call_count == nodes

    def test_determinism_across_runs(self):
        rng = random.Random(4242)
        models = [random_ilp_model(rng) for _ in range(20)]
        first = [ilp.solve(m) for m in models]
        second = [ilp.solve(m) for m in models]
        assert first == second


def solve_counting(m):
    """ilp.solve(m) and the number of _propagate calls (search nodes) it made."""
    with mock.patch.object(ilp, "_propagate", wraps=ilp._propagate) as propagate:
        solution = ilp.solve(m)
    return solution, propagate.call_count


class TestCompiledModel:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=400)
    def test_appending_searches_like_the_whole_model(self, seed):
        # Compile a prefix of the variables and rows, append the rest in two
        # steps as region enumeration does, and the search must be the one
        # of the whole IlpModel. The prefix must stay as it was compiled.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        pos = {v.id: i for i, v in enumerate(m.variables)}
        b = rng.randint(0, len(m.constraints))
        needed = max((pos[v] + 1 for con in m.constraints[:b] for v in con.terms), default=0)
        a = rng.randint(needed, len(m.variables))
        c = rng.randint(b, len(m.constraints))
        prefix = model(m.variables[:a], m.constraints[:b])
        compiled = ilp.compile_model(prefix)
        whole = (
            compiled.with_variables(m.variables[a:])
            .with_constraints(m.constraints[b:c])
            .with_constraints(m.constraints[c:])
            .with_objective(m.objective)
        )
        assert (len(whole.variables), len(whole.constraints)) == (len(m.variables), len(m.constraints))
        assert solve_counting(whole) == solve_counting(m)
        assert solve_counting(compiled) == solve_counting(prefix)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_sibling_searches_like_a_fresh_model(self, seed):
        # New right-hand sides and bounds on shared rows: the same search as
        # an IlpModel built with them; the original is left as it was.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        compiled = ilp.compile_model(m)
        rhs = [rng.randint(-6, 8) for _ in m.constraints]
        lower = [rng.randint(-1, 2) for _ in m.variables]
        upper = [lb + rng.randint(0, 2) for lb in lower]
        sibling = compiled.with_rhs(rhs, lower, upper)
        fresh = model(
            [ilp.Variable(v.id, lb, ub) for v, lb, ub in zip(m.variables, lower, upper)],
            [ilp.LinearConstraint(con.terms, con.relation, b) for con, b in zip(m.constraints, rhs)],
            m.objective,
        )
        assert solve_counting(sibling) == solve_counting(fresh)
        assert solve_counting(compiled) == solve_counting(m)

    def test_rows_without_terms_are_judged_on_every_solve(self):
        m = model(
            [ilp.Variable("x", 0, 1)],
            [ilp.LinearConstraint({}, ilp.EQ, 0), ilp.LinearConstraint({"x": 1}, ilp.GE, 1)],
        )
        compiled = ilp.compile_model(m)
        assert ilp.solve(compiled).assignment == {"x": 1}
        assert ilp.solve(compiled.with_rhs([1, 1], [0], [1])) is None
        assert ilp.solve(compiled.with_rhs([0, 0], [0], [1])).assignment == {"x": 0}
        assert ilp.solve(compiled.with_constraints([ilp.LinearConstraint({}, ilp.LE, -1)])) is None

    def test_invalid_extensions_rejected(self):
        compiled = ilp.compile_model(model([ilp.Variable("x", 0, 1)]))
        with pytest.raises(ValueError):
            compiled.with_variables([ilp.Variable("x", 0, 1)])
        with pytest.raises(ValueError):
            compiled.with_constraints([ilp.LinearConstraint({"y": 1}, ilp.LE, 0)])
        with pytest.raises(ValueError):
            compiled.with_objective({"y": 1})
        with pytest.raises(ValueError):
            compiled.with_rhs([], [1], [0])
        with pytest.raises(ValueError):
            compiled.with_rhs([0], [0], [1])


class TestPropagation:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_full_propagation_matches_oracle(self, seed):
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        rows, raised, lowered = compiled_rows(m)
        lo = [v.lower for v in m.variables]
        hi = [v.upper for v in m.variables]
        # also from a random sub-box, as inside the search
        for i in range(len(lo)):
            if rng.random() < 0.3:
                lo[i] = hi[i] = rng.randint(lo[i], hi[i])
        want = interval_fixpoint(m, lo, hi)
        ok = ilp._propagate(rows, raised, lowered, lo, hi, range(len(rows)), no_cut(m))
        assert ok == (want is not None)
        if ok:
            assert (lo, hi) == want

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_touched_rows_reach_the_full_fixpoint(self, seed):
        # A node's box is its parent's fixpoint with one bound moved, so
        # queueing only that variable's rows must give the same box (or the
        # same infeasibility) as queueing every row. Walks one random branch.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        rows, raised, lowered = compiled_rows(m)
        lo = [v.lower for v in m.variables]
        hi = [v.upper for v in m.variables]
        every_row = range(len(rows))
        ok = ilp._propagate(rows, raised, lowered, lo, hi, every_row, no_cut(m))
        while ok:
            free = [i for i in range(len(lo)) if lo[i] < hi[i]]
            if not free:
                return
            i = rng.choice(free)
            if rng.random() < 0.5:
                lo[i] = rng.randint(lo[i] + 1, hi[i])
            else:
                hi[i] = rng.randint(lo[i], hi[i] - 1)
            lo_queued, hi_queued = list(lo), list(hi)
            ok_queued = ilp._propagate(rows, raised, lowered, lo_queued, hi_queued, raised[i] + lowered[i], no_cut(m))
            ok = ilp._propagate(rows, raised, lowered, lo, hi, every_row, no_cut(m))
            assert ok_queued == ok
            if ok:
                assert (lo_queued, hi_queued) == (lo, hi)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_woken_rows_reach_the_full_fixpoint(self, seed):
        # Seeding only the rows listed for the bound side that moved must
        # give the full sweep's box (or its infeasibility): a row whose
        # activity on its own sides is unchanged cannot tighten.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        rows, raised, lowered = compiled_rows(m)
        lo = [v.lower for v in m.variables]
        hi = [v.upper for v in m.variables]
        every_row = range(len(rows))
        ok = ilp._propagate(rows, raised, lowered, lo, hi, every_row, no_cut(m))
        while ok:
            free = [i for i in range(len(lo)) if lo[i] < hi[i]]
            if not free:
                return
            i = rng.choice(free)
            if rng.random() < 0.5:
                lo[i] = rng.randint(lo[i] + 1, hi[i])
                woken = raised[i]
            else:
                hi[i] = rng.randint(lo[i], hi[i] - 1)
                woken = lowered[i]
            lo_woken, hi_woken = list(lo), list(hi)
            ok_woken = ilp._propagate(rows, raised, lowered, lo_woken, hi_woken, woken, no_cut(m))
            ok = ilp._propagate(rows, raised, lowered, lo, hi, every_row, no_cut(m))
            assert ok_woken == ok
            if ok:
                assert (lo_woken, hi_woken) == (lo, hi)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_cut_matches_oracle(self, seed):
        # The cut pass (no summing, early stop by |c| * reach) and its
        # carried activity against the cut written as a plain constraint.
        # As in the search, the rows are at fixpoint when the incumbent
        # improves, and only the cut is queued; its moves must wake rows.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        rows, raised, lowered = compiled_rows(m)
        comb = [rng.choice([0, rng.randint(-20, 20)]) for _ in m.variables]
        terms = {v.id: c for v, c in zip(m.variables, comb)}
        lo = [v.lower for v in m.variables]
        hi = [v.upper for v in m.variables]
        cut = ilp._Cut(comb, max(h - l for l, h in zip(lo, hi)))
        for i in range(len(lo)):
            if rng.random() < 0.3:
                lo[i] = hi[i] = rng.randint(lo[i], hi[i])
        box = (list(lo), list(hi))

        def activity(bounds_of):
            return sum(bounds_of(c * l, c * h) for c, l, h in zip(comb, lo, hi))

        cut.act = activity(min)
        ok = ilp._propagate(rows, raised, lowered, lo, hi, range(len(rows)), cut)
        key = activity(max) + 1
        while ok:
            assert cut.act == activity(min)
            key -= rng.randint(1, 4)
            cut.set_incumbent(key)
            want = interval_fixpoint(m.with_constraints([ilp.LinearConstraint(terms, ilp.LE, key - 1)]), *box)
            ok = ilp._propagate(rows, raised, lowered, lo, hi, [], cut)
            assert ok == (want is not None)
            if ok:
                assert (lo, hi) == want


class TestLpDump:
    def test_sections_present(self):
        m = model(
            [ilp.Variable("x", 0, 2)],
            [ilp.LinearConstraint({"x": 1}, ilp.LE, 1)],
            {"x": 1},
        )
        text = ilp.format_lp(m)
        assert "minimize" in text
        assert "subject to" in text
        assert "bounds" in text
        assert "0 <= x <= 2" in text
