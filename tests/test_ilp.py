import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import random_ilp_model, random_ilp_problem
from oracles import (
    brute_force_ilp,
    brute_force_minimal_points,
    check_assignment,
    first_feasible_point,
    first_leaf,
    interval_fixpoint,
    reference_bnb,
)
from ttsynth import ilp


def model(variables, constraints=()):
    return ilp.IlpModel(tuple(variables), tuple(constraints))


def search_on(m, lo=None, hi=None):
    """A search over the compiled rows of m, moved to the sub-box [lo, hi]
    when given."""
    search = ilp._Search(ilp.compile_model(m))
    for i in range(len(m.variables)):
        if lo is not None and lo[i] > search.lo[i]:
            search.move(i, False, lo[i])
        if hi is not None and hi[i] < search.hi[i]:
            search.move(i, True, hi[i])
    return search


def rows_holding(search, i):
    """Every row with a term in variable i."""
    return [r for r, _ in search.lo_occurs[i] + search.hi_occurs[i]]


def random_move(rng, lo, hi):
    """(i, upper, bound): a move that narrows a random free variable's
    domain, setting hi[i] (upper) or lo[i] to bound; None when every
    variable is fixed."""
    free = [i for i in range(len(lo)) if lo[i] < hi[i]]
    if not free:
        return None
    i = rng.choice(free)
    if rng.random() < 0.5:
        return i, False, rng.randint(lo[i] + 1, hi[i])
    return i, True, rng.randint(lo[i], hi[i] - 1)


class TestCheckAssignment:
    def test_satisfied(self):
        m = model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"x": 1}, ilp.GE, 1)])
        assert check_assignment(m, {"x": 1})

    def test_violated_names_constraint(self):
        m = model([ilp.Variable("x", 0, 1)], [ilp.LinearConstraint({"x": 1}, ilp.GE, 1)])
        verdict = check_assignment(m, {"x": 0})
        assert not verdict
        assert "constraint 0" in verdict.violated

    def test_equality(self):
        m = model(
            [ilp.Variable("x", 0, 5), ilp.Variable("y", 0, 5)],
            [ilp.LinearConstraint({"x": 1, "y": 2}, ilp.EQ, 4)],
        )
        assert check_assignment(m, {"x": 2, "y": 1})

    def test_bound_violation(self):
        m = model([ilp.Variable("x", 0, 1)])
        verdict = check_assignment(m, {"x": 7})
        assert not verdict and "bound" in verdict.violated

    def test_partial_assignment_rejected(self):
        m = model([ilp.Variable("x", 0, 1)])
        with pytest.raises(ValueError):
            check_assignment(m, {})


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


class TestSolve:
    def test_cover_constraint_tie_break(self):
        # (0, 1), (1, 0) and (1, 1) are feasible; the first declared
        # variable is the most significant
        m = model(
            [ilp.Variable("x", 0, 1), ilp.Variable("y", 0, 1)],
            [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 1)],
        )
        assert ilp.solve(m) == {"x": 0, "y": 1}

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
        )
        assert ilp.solve(m) == {"p0": 1, "p1": 1, "p2": 1}

    def test_pure_feasibility_is_deterministic(self):
        m = model(
            [ilp.Variable("x", 0, 2), ilp.Variable("y", 0, 2)],
            [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 2)],
        )
        first = ilp.solve(m)
        second = ilp.solve(m)
        assert first == second
        assert check_assignment(m, first)

    def test_no_variables(self):
        assert ilp.solve(model([])) == {}
        infeasible = ilp.IlpModel((), (ilp.LinearConstraint({}, ilp.GE, 1),))
        assert ilp.solve(infeasible) is None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=80)
    def test_matches_oracle(self, seed):
        # The first feasible point in lexicographic order (the first
        # variable most significant), as exhaustive enumeration meets it.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        got = ilp.solve(m)
        assert got == first_feasible_point(m)
        assert got is None or check_assignment(m, got)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=400)
    def test_same_search_as_reference(self, seed):
        # Node for node: the same point after the same number of
        # propagated boxes (one _propagate call per node) as a plain
        # depth-first search that sweeps every constraint and stops at its
        # first leaf.
        m = random_ilp_model(random.Random(seed))
        with mock.patch.object(ilp, "_propagate", wraps=ilp._propagate) as propagate:
            got = ilp.solve(m)
        want, nodes = first_leaf(m)
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


def root_search(compiled):
    """A search of `compiled` propagated at its root, as _branch does, and
    whether that left its box non-empty."""
    search = ilp._Search(compiled)
    return search, ilp._propagate(search, range(len(search.rows)))


class TestCompiledModel:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_sibling_searches_like_a_fresh_model(self, seed):
        # New right-hand sides and bounds on shared rows: the same search as
        # an IlpModel built with them, whose root reaches the box that
        # propagating every row reaches from the new bounds; the original is
        # left as it was.
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
        )
        want = interval_fixpoint(fresh, lower, upper)
        assert (sibling.lo, sibling.hi) == (lower, upper)
        search, ok = root_search(sibling)
        assert (search.lo, search.hi) == want if ok else want is None
        assert solve_counting(sibling) == solve_counting(fresh)
        assert solve_counting(compiled) == solve_counting(m)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_searching_leaves_the_model_as_it_was(self, seed):
        # A search moves bounds and activities, and minimal_points adds
        # rows and binaries to its running search: none of it may reach
        # the compiled model or a sibling sharing its lists, so searching
        # the model again is the same search.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        compiled = ilp.compile_model(m)

        def snapshot():
            occurs = [[list(entries) for entries in lists] for lists in (compiled.lo_occurs, compiled.hi_occurs)]
            return list(compiled.rows), occurs, list(compiled.lo), list(compiled.hi), list(compiled.act)

        def minimal_points_counting():
            with mock.patch.object(ilp, "_propagate", wraps=ilp._propagate) as propagate:
                points = ilp.minimal_points(compiled)
            return points, propagate.call_count

        before = snapshot()
        first = minimal_points_counting()
        assert minimal_points_counting() == first
        ilp.solve(compiled)
        ilp.solve(compiled.with_rhs([rng.randint(-6, 8) for _ in m.constraints], compiled.lo, compiled.hi))
        assert snapshot() == before

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_carried_box_is_the_fixpoint(self, seed):
        # Compile growing prefixes of a model's variables and rows: the box
        # that a search's root reaches is the interval fixpoint of the rows
        # declared so far (or, when that box is empty, a row fails on it),
        # and each activity is a fresh sum over the box.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        needs = [max((int(v[1:]) + 1 for v in con.terms), default=0) for con in m.constraints]
        everything = (len(m.variables), len(m.constraints))
        a = b = 0
        while True:
            declared = model(m.variables[:a], m.constraints[:b])
            compiled = ilp.compile_model(declared)
            want = interval_fixpoint(declared, [v.lower for v in declared.variables], [v.upper for v in declared.variables])
            search, ok = root_search(compiled)
            lo, hi = search.lo, search.hi
            if not ok:
                assert want is None
                assert any(search.act[r] > row[2] for r, row in enumerate(search.rows))
            else:
                assert (lo, hi) == want
                for con, sides in zip(declared.constraints, compiled.constraints):
                    least = sum(min(c * lo[int(v[1:])], c * hi[int(v[1:])]) for v, c in con.terms.items())
                    most = sum(max(c * lo[int(v[1:])], c * hi[int(v[1:])]) for v, c in con.terms.items())
                    for r, sign in sides:
                        assert search.act[r] == (least if sign > 0 else -most)
            if (a, b) == everything:
                break
            new_a, new_b = rng.randint(a, len(m.variables)), b
            while new_b < len(m.constraints) and needs[new_b] <= new_a and rng.random() < 0.7:
                new_b += 1
            if (new_a, new_b) == (a, b):
                new_a, new_b = everything
            a, b = new_a, new_b

    def test_root_infeasible_model_takes_one_node(self):
        # The rows admit no point: propagating the root empties its box, so
        # the search ends there, and so does the search for minimal points.
        m = model(
            [ilp.Variable("x", 0, 3), ilp.Variable("y", 0, 3)],
            [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 5), ilp.LinearConstraint({"x": 1}, ilp.LE, 1)],
        )
        compiled = ilp.compile_model(m)
        assert not root_search(compiled)[1]
        assert solve_counting(compiled) == (None, 1)
        with mock.patch.object(ilp, "_propagate", wraps=ilp._propagate) as propagate:
            assert ilp.minimal_points(compiled) == []
        assert propagate.call_count == 1
        grown = ilp.compile_model(
            model(m.variables + (ilp.Variable("z", 0, 1),), m.constraints + (ilp.LinearConstraint({"z": 1}, ilp.LE, 1),))
        )
        assert not root_search(grown)[1] and solve_counting(grown) == (None, 1)

    def test_rows_without_terms_are_judged_on_every_solve(self):
        m = model(
            [ilp.Variable("x", 0, 1)],
            [ilp.LinearConstraint({}, ilp.EQ, 0), ilp.LinearConstraint({"x": 1}, ilp.GE, 1)],
        )
        compiled = ilp.compile_model(m)
        assert ilp.solve(compiled) == {"x": 1}
        assert ilp.solve(compiled.with_rhs([1, 1], [0], [1])) is None
        assert ilp.solve(compiled.with_rhs([0, 0], [0], [1])) == {"x": 0}
        assert ilp.solve(model(m.variables, m.constraints + (ilp.LinearConstraint({}, ilp.LE, -1),))) is None

    def test_invalid_extensions_rejected(self):
        compiled = ilp.compile_model(model([ilp.Variable("x", 0, 1)]))
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
        lo = [v.lower for v in m.variables]
        hi = [v.upper for v in m.variables]
        # also from a random sub-box, as inside the search
        for i in range(len(lo)):
            if rng.random() < 0.3:
                lo[i] = hi[i] = rng.randint(lo[i], hi[i])
        want = interval_fixpoint(m, lo, hi)
        search = search_on(m, lo=lo, hi=hi)
        ok = ilp._propagate(search, range(len(search.rows)))
        assert ok == (want is not None)
        if ok:
            assert (search.lo, search.hi) == want

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_touched_rows_reach_the_full_fixpoint(self, seed):
        # A node's box is its parent's fixpoint with one bound moved, so
        # queueing only that variable's rows must give the same box (or the
        # same infeasibility) as queueing every row. Walks one random branch
        # with two searches kept on the same box.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        queued, full = search_on(m), search_on(m)
        lo, hi = full.lo, full.hi
        every_row = range(len(full.rows))
        ok = ilp._propagate(full, every_row)
        assert ilp._propagate(queued, every_row) == ok
        while ok:
            move = random_move(rng, lo, hi)
            if move is None:
                return
            full.move(*move)
            queued.move(*move)
            ok_queued = ilp._propagate(queued, rows_holding(queued, move[0]))
            ok = ilp._propagate(full, every_row)
            assert ok_queued == ok
            if ok:
                assert (queued.lo, queued.hi) == (lo, hi)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=200)
    def test_woken_rows_reach_the_full_fixpoint(self, seed):
        # Visiting only the rows the move queued (those whose activity it
        # raised) must give the full sweep's box (or its infeasibility): a
        # row whose activity is unchanged cannot tighten.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        woken, full = search_on(m), search_on(m)
        lo, hi = full.lo, full.hi
        every_row = range(len(full.rows))
        ok = ilp._propagate(full, every_row)
        assert ilp._propagate(woken, every_row) == ok
        while ok:
            move = random_move(rng, lo, hi)
            if move is None:
                return
            full.move(*move)
            woken.move(*move)
            ok_woken = ilp._propagate(woken, ())
            ok = ilp._propagate(full, every_row)
            assert ok_woken == ok
            if ok:
                assert (woken.lo, woken.hi) == (lo, hi)

    def test_empty_box_leaves_no_queue(self):
        # The first row fails while the others are still queued; the next
        # node must not inherit them.
        m = model(
            [ilp.Variable("x", 0, 1), ilp.Variable("y", 0, 1)],
            [
                ilp.LinearConstraint({"x": 1, "y": 1}, ilp.LE, -1),
                ilp.LinearConstraint({"x": 1}, ilp.GE, 0),
                ilp.LinearConstraint({"y": 1}, ilp.GE, 0),
            ],
        )
        search = search_on(m)
        assert not ilp._propagate(search, range(len(search.rows)))
        assert not search.queue and not any(search.queued)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_carried_activities_follow_moves_and_undo(self, seed):
        # Walk one random branch: after every _propagate each carried
        # activity equals a fresh sum over the box (per declared constraint
        # its minimum for a `<=` side, its maximum for a `>=` side, both for
        # an equality), also when the box turned out empty. Then undo the
        # walk step by step: each undo gives back the box and the
        # activities from before that step's move.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        compiled = ilp.compile_model(m)
        index = {v: i for i, v in enumerate(compiled.variables)}
        search = ilp._Search(compiled)
        lo, hi = search.lo, search.hi

        def fresh():
            def total(terms, bounds_of):
                return sum(bounds_of(c * lo[index[v]], c * hi[index[v]]) for v, c in terms.items())

            want = [None] * len(search.rows)
            for con, sides in zip(m.constraints, compiled.constraints):
                for r, sign in sides:
                    want[r] = total(con.terms, min) if sign > 0 else -total(con.terms, max)
            return want

        def state():
            return list(lo), list(hi), list(search.act)

        assert search.act == fresh()
        ok = ilp._propagate(search, range(len(search.rows)))
        assert search.act == fresh()
        steps = []
        while ok:
            move = random_move(rng, lo, hi)
            if move is None:
                break
            steps.append((len(search.trail), state()))
            search.move(*move)
            # Extra seeds change nothing but leave more rows queued when
            # the box turns out empty.
            seeds = range(len(search.rows)) if rng.random() < 0.3 else ()
            ok = ilp._propagate(search, seeds)
            assert search.act == fresh()
            assert not search.queue and not any(search.queued)
        for mark, before in reversed(steps):
            search.undo(mark)
            assert len(search.trail) == mark
            assert state() == before
            assert search.act == fresh()


class TestMinimalPoints:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_matches_brute_force(self, seed):
        # The feasible points above no other feasible point, in
        # lexicographic order, whatever the bounds.
        m = random_ilp_model(random.Random(seed), max_vars=5)
        assert ilp.minimal_points(m) == brute_force_minimal_points(m)

    def test_blocks_of_one_and_of_several_variables(self):
        # x + y >= 2: (0, 2), (1, 1) and (2, 0) are minimal, every other
        # feasible point lies above one of them. A point with one positive
        # value adds a bound row on it alone, (1, 1) a row per variable,
        # each with a binary, and their sum.
        m = model([ilp.Variable("x", 0, 2), ilp.Variable("y", 0, 2)], [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 2)])
        with mock.patch.object(ilp._Search, "add", autospec=True, side_effect=ilp._Search.add) as add:
            assert ilp.minimal_points(m) == [(0, 2), (1, 1), (2, 0)]
        assert [(len(c.args[1]), len(c.args[2])) for c in add.call_args_list] == [(0, 1), (2, 3), (0, 1)]

    def test_supports_are_measured_from_the_root_box(self):
        # x >= 1 raises x's lower bound at the root, so every feasible
        # point has x >= 1. The first point (1, 1) lies above the root box
        # in y alone: one bound row y <= 0, no binary. Then (2, 0) bounds x.
        m = model(
            [ilp.Variable("x", 0, 2), ilp.Variable("y", 0, 2)],
            [ilp.LinearConstraint({"x": 1}, ilp.GE, 1), ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 2)],
        )
        with mock.patch.object(ilp._Search, "add", autospec=True, side_effect=ilp._Search.add) as add:
            assert ilp.minimal_points(m) == [(1, 1), (2, 0)]
        assert [(c.args[1], c.args[2]) for c in add.call_args_list] == [((), [([(1, 1)], 0, None)]), ((), [([(0, 1)], 1, None)])]

    def test_a_point_at_the_root_box_ends_the_search(self):
        # x + y >= 4 on [0, 2]^2 fixes both at the root: (2, 2) is the
        # only feasible point, above nothing it could exclude.
        m = model([ilp.Variable("x", 0, 2), ilp.Variable("y", 0, 2)], [ilp.LinearConstraint({"x": 1, "y": 1}, ilp.GE, 4)])
        with mock.patch.object(ilp._Search, "add", autospec=True, side_effect=ilp._Search.add) as add:
            assert ilp.minimal_points(m) == [(2, 2)]
        assert add.call_args_list == []


class TestRunningSearch:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_added_rows_reach_the_whole_models_fixpoint(self, seed):
        # Search a prefix of a model's variables and rows, move to a random
        # sub-box, then add the remaining variables and rows to the running
        # search, as minimal_points does at a leaf: propagating the added
        # rows reaches the box that the whole model's rows reach from that
        # sub-box (or its emptiness), and undoing every move leaves each
        # activity, the added rows' included, a fresh sum over the box.
        rng = random.Random(seed)
        m = random_ilp_model(rng)
        pos = {v.id: i for i, v in enumerate(m.variables)}
        b = rng.randint(0, len(m.constraints))
        needed = max((pos[v] + 1 for con in m.constraints[:b] for v in con.terms), default=0)
        a = rng.randint(needed, len(m.variables))
        compiled = ilp.compile_model(model(m.variables[:a], m.constraints[:b]))
        search, ok = root_search(compiled)
        if not ok:
            return
        lo, hi = search.lo, search.hi
        for _ in range(rng.randint(0, 3)):
            move = random_move(rng, lo, hi)
            if move is None:
                break
            search.move(*move)
            if not ilp._propagate(search, ()):
                return
        box = (lo + [v.lower for v in m.variables[a:]], hi + [v.upper for v in m.variables[a:]])
        sides = []
        for con in m.constraints[b:]:
            terms = [(pos[v], c) for v, c in con.terms.items()]
            negated = [(i, -c) for i, c in terms]
            r = len(search.rows) + len(sides)
            if con.relation == ilp.EQ:
                sides += [(terms, con.rhs, r + 1), (negated, -con.rhs, r)]
            else:
                sides.append((terms, con.rhs, None) if con.relation == ilp.LE else (negated, -con.rhs, None))
        search.add([(v.lower, v.upper) for v in m.variables[a:]], sides)
        assert search.wake == list(range(len(search.rows) - len(sides), len(search.rows)))
        want = interval_fixpoint(m, *box)
        ok = ilp._propagate(search, search.wake)
        assert ok == (want is not None)
        if ok:
            assert (lo, hi) == want
        search.undo(0)
        assert (lo, hi) == (compiled.lo + box[0][a:], compiled.hi + box[1][a:])
        assert search.act == [sum(c * (lo[i] if c > 0 else hi[i]) for i, c in row[0]) for row in search.rows]


class TestReferenceBnb:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_matches_brute_force(self, seed):
        # The minimizing branch and bound that solving round by round runs
        # (oracles.regions_round_by_round) finds the optimum that
        # exhaustive enumeration finds, ties going to the point least when
        # compared from the last variable back.
        m, objective = random_ilp_problem(random.Random(seed))
        got, _ = reference_bnb(m, objective)
        assert got == brute_force_ilp(m, objective)
        assert got is None or check_assignment(m, got)


class TestLpDump:
    def test_sections_present(self):
        m = model(
            [ilp.Variable("x", 0, 2)],
            [ilp.LinearConstraint({"x": 1}, ilp.LE, 1)],
        )
        text = ilp.format_lp(m)
        assert "subject to" in text
        assert "bounds" in text
        assert "0 <= x <= 2" in text
