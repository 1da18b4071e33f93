"""Exact solver for bounded integer linear programs with a minimize objective.

All arithmetic is exact (Python integers); there is no floating point and no
tolerance anywhere. Among equal-objective optima the solver deterministically
returns the assignment that is smallest when variables are compared from the
last declared one backwards, so identical models always yield identical
solutions.

solve() is a depth-first branch and bound with exact interval
propagation at every node. compile_model() turns each constraint into one
`<=` row per side (an equality into two) and lists, per variable, the rows
whose minimum activity each of its bounds moves. A compiled model also
carries its root box: the bounds that propagating all its rows reaches,
with every row's minimum activity there. Appending variables and rows
propagates only the new rows from that box, so a model grown round by
round pays for what each round adds. A search starts from the root box,
keeps one box, every row's minimum activity on it and a trail of bound
moves to undo on backtracking. A row pass reads its carried activity, so
a row that cannot tighten costs O(1) instead of a sum over its terms. The
incumbent cut is one more row, over the variables still free in the root
box, whose right-hand side drops with each better point. A solve may be
given a feasible start, which is checked exactly against the root box and
the rows that some point of it breaks, and puts the cut in place at the
root; it hands back the improving points it found.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, replace
from operator import le, mul
from typing import Hashable, Mapping, Optional, Sequence, Tuple

LE = "<="
EQ = "=="
GE = ">="

_RELATIONS = (LE, EQ, GE)


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be a bounded integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Variable:
    """Integer variable with inclusive finite bounds and a hashable id."""

    id: Hashable
    lower: int
    upper: int

    def __post_init__(self):
        _check_int(self.lower, f"lower bound of {self.id!r}")
        _check_int(self.upper, f"upper bound of {self.id!r}")
        if self.lower > self.upper:
            raise ValueError(f"empty domain for {self.id!r}: [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class LinearConstraint:
    """`sum(terms[v] * v) relation rhs` over model variables."""

    terms: Mapping[Hashable, int]
    relation: str
    rhs: int

    def __post_init__(self):
        # One pass: check each coefficient (plain ints skip the call) and
        # drop zeros, which carry no information.
        terms = {}
        for v, c in dict(self.terms).items():
            if type(c) is not int:
                _check_int(c, f"coefficient of {v!r}")
            if c:
                terms[v] = c
        object.__setattr__(self, "terms", terms)
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation: {self.relation!r}")
        _check_int(self.rhs, "rhs")

    def render(self) -> str:
        parts = [f"{c:+d} {v}" for v, c in self.terms.items()] or ["0"]
        return f"{' '.join(parts)} {self.relation} {self.rhs}"


@dataclass(frozen=True)
class IlpModel:
    """Bounded integer variables, linear constraints, minimized objective.

    An empty objective turns solve() into a pure feasibility search.
    """

    variables: Tuple[Variable, ...]
    constraints: Tuple[LinearConstraint, ...] = ()
    objective: Mapping[Hashable, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "objective", dict(self.objective))
        ids = [v.id for v in self.variables]
        known = set(ids)
        if len(known) != len(ids):
            raise ValueError("duplicate variable id")
        for con in self.constraints:
            for v in con.terms:
                if v not in known:
                    raise ValueError(f"constraint references unknown variable {v!r}")
        for v, c in self.objective.items():
            if v not in known:
                raise ValueError(f"objective references unknown variable {v!r}")
            _check_int(c, f"objective coefficient of {v!r}")

    def extended(self, variables: Sequence[Variable], constraints: Sequence[LinearConstraint]) -> "IlpModel":
        """`variables` declared after the existing ones, then `constraints`."""
        return IlpModel(self.variables + tuple(variables), self.constraints + tuple(constraints), self.objective)


@dataclass(frozen=True)
class Solution:
    """An optimum and its objective value. `incumbents` holds the points,
    by variable position, that the search found improving on the best one
    known so far, in the order found (the optimum last, unless it was the
    start itself); it takes no part in equality or repr."""

    assignment: Mapping[Hashable, int]
    objective_value: int
    incumbents: Tuple[Tuple[int, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


def format_lp(model: IlpModel) -> str:
    """Plain-text dump of the model for inspection (not a stability contract)."""
    lines = ["minimize"]
    obj = " ".join(f"{c:+d} {v}" for v, c in model.objective.items()) or "0"
    lines.append(f"  {obj}")
    lines.append("subject to")
    for idx, con in enumerate(model.constraints):
        lines.append(f"  c{idx}: {con.render()}")
    lines.append("bounds")
    for v in model.variables:
        lines.append(f"  {v.lower} <= {v.id} <= {v.upper}")
    return "\n".join(lines) + "\n"




def _min_activity(terms, lo: Sequence[int], hi: Sequence[int]) -> int:
    """The least value of sum(c * x[i] for i, c in terms) on the box [lo, hi]."""
    return sum([c * lo[i] if c > 0 else c * hi[i] for i, c in terms])


def _size(term) -> int:
    return abs(term[1])


def _compile_rows(sides, lo, hi, rows: list, act: list, lo_occurs: list, hi_occurs: list) -> None:
    """Append one row `(terms, sizes, rhs, cmax, partner)` per side
    `(terms, rhs, partner)` to `rows`, numbered on from the rows already
    there, its minimum activity on the box [lo, hi] to `act`, and enter it
    in the occurrence lists of its variables.

    A side is a `<=` constraint sum(c * x[i] for i, c in terms) <= rhs,
    with terms by variable position; zero coefficients are left out.
    `partner` is the row of the other side of an equality (the same terms
    negated, rhs negated), else None. The row lists its terms by
    descending |c|, ties in the given order, `sizes` holds their -|c| (so
    it ascends, for bisect) and cmax is the largest |c| (0 without terms).
    A row's minimum activity on a box takes lo[i] where c > 0 and hi[i]
    where c < 0, so `lo_occurs[i]` lists the (row, c) of every row holding
    variable i with c > 0 and `hi_occurs[i]` those with c < 0: the rows
    whose minimum activity grows by c times the move when lo[i] rises or
    hi[i] falls, and the only rows such a move can make tighten. A list
    that gains entries is replaced by a longer copy, never extended, so a
    model sharing it (CompiledModel) is left as it was.
    """
    new_lo: dict[int, list] = {}
    new_hi: dict[int, list] = {}
    for terms, rhs, partner in sides:
        r = len(rows)
        terms = [t for t in terms if t[1]]
        terms.sort(key=_size, reverse=True)  # stable: ties keep their order
        total = 0
        for i, c in terms:
            if c > 0:
                new_lo.setdefault(i, []).append((r, c))
                total += c * lo[i]
            else:
                new_hi.setdefault(i, []).append((r, c))
                total += c * hi[i]
        sizes = tuple([-abs(c) for _, c in terms])
        rows.append((tuple(terms), sizes, rhs, -sizes[0] if sizes else 0, partner))
        act.append(total)
    for lists, new in ((lo_occurs, new_lo), (hi_occurs, new_hi)):
        for i, extra in new.items():
            lists[i] = lists[i] + extra


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """An IlpModel compiled for solve(): variables by position, rows with
    their occurrence lists, bounds and objective as lists, and the box that
    propagating every row reaches from the declared bounds.

    Each declared constraint is compiled into its `<=` sides: a `<=`
    constraint into itself, a `>=` one into its negation and an equality
    into both. `rows` holds these rows `(terms, sizes, rhs, cmax, partner)`
    of _compile_rows in declaration order and `constraints[r]` the pairs
    (row, sign) of declared constraint r, so `variables` and
    `constraints` have the lengths of the model's own tuples. `index` maps
    each id to its position, and `lower`, `upper` (the declared bounds),
    `objective`, `lo_occurs` and `hi_occurs` are indexed like `variables`.
    So is `weights`, with one more entry at the end: weights[i] is the
    product of (upper - lower + 1) over the variables declared before i,
    the last entry that product over all of them (see solve()).

    The root box [lo, hi] is the greatest fixpoint of the rows below the
    declared bounds (see _fixpoint), and `act[r]` is row r's minimum
    activity on it. Every feasible point lies in it, and every search of
    the model starts from it. `reach` is at least 1 and at least every
    declared range, so it bounds every range a search meets. When the rows
    admit no point of the bounds, `failed` is a row that fails on the box
    (its activity exceeds its rhs), else None. `live` lists the rows a
    start must be checked against (_live_rows), or None until a start is
    first given.

    Like IlpModel it is never changed after construction (`live` is only
    filled in): with_rhs() returns a sibling with new right-hand sides and
    bounds that shares the terms and the occurrence lists and propagates
    every row again, and extended() and with_objective() return an
    extended model that compiles only what it adds and propagates only the
    rows it adds, from this model's box: rows never queued are at fixpoint
    there already. Ids are read only there and in the solution, never in
    the search.
    """

    variables: Tuple[Hashable, ...]
    index: Mapping[Hashable, int]
    lower: list
    upper: list
    objective: list
    constraints: list
    rows: list
    lo_occurs: list
    hi_occurs: list
    weights: list
    lo: list
    hi: list
    act: list
    reach: int
    failed: Optional[int] = None
    live: Optional[list] = None

    def with_rhs(self, rhs: Sequence[int], lower: Sequence[int], upper: Sequence[int]) -> "CompiledModel":
        """The same rows with right-hand side rhs[r] for declared
        constraint r (its relation kept) and variable i bounded to
        [lower[i], upper[i]]."""
        if len(rhs) != len(self.constraints) or len(lower) != len(upper) or len(lower) != len(self.variables):
            raise ValueError("with_rhs needs one rhs per row and one bound pair per variable")
        for vid, lb, ub in zip(self.variables, lower, upper):
            if lb > ub:
                raise ValueError(f"empty domain for {vid!r}: [{lb}, {ub}]")
        rows = list(self.rows)
        for sides, b in zip(self.constraints, rhs):
            for r, sign in sides:
                terms, sizes, _, cmax, partner = rows[r]
                rows[r] = (terms, sizes, sign * b, cmax, partner)
        lower, upper = list(lower), list(upper)
        act = [_min_activity(terms, lower, upper) for terms, _, _, _, _ in rows]
        reach = max(max((ub - lb for lb, ub in zip(lower, upper)), default=0), 1)
        model = replace(
            self, lower=lower, upper=upper, rows=rows, weights=_weights([1], lower, upper), lo=list(lower),
            hi=list(upper), act=act, reach=reach, failed=None, live=None,
        )
        return _settle(model, 0)

    def extended(self, variables: Sequence[Variable], constraints: Sequence[LinearConstraint]) -> "CompiledModel":
        """`variables` declared after the existing ones, with objective 0,
        then `constraints` appended to the rows."""
        index = self.index
        if variables:
            index = dict(index)
            for v in variables:
                if v.id in index:
                    raise ValueError("duplicate variable id")
                index[v.id] = len(index)
        declared_lo = [v.lower for v in variables]
        declared_hi = [v.upper for v in variables]
        empty = [[] for _ in variables]
        lo_occurs, hi_occurs = self.lo_occurs + empty, self.hi_occurs + empty
        lo, hi = self.lo + declared_lo, self.hi + declared_hi
        all_constraints, rows, act = list(self.constraints), list(self.rows), list(self.act)
        first = len(rows)
        sides = []
        for con in constraints:
            try:
                terms = [(index[v], c) for v, c in con.terms.items()]
            except KeyError as exc:
                raise ValueError(f"constraint references unknown variable {exc.args[0]!r}") from None
            negated = [(i, -c) for i, c in terms]
            r = first + len(sides)
            if con.relation == EQ:
                all_constraints.append(((r, 1), (r + 1, -1)))
                sides += [(terms, con.rhs, r + 1), (negated, -con.rhs, r)]
            elif con.relation == LE:
                all_constraints.append(((r, 1),))
                sides.append((terms, con.rhs, None))
            else:
                all_constraints.append(((r, -1),))
                sides.append((negated, -con.rhs, None))
        _compile_rows(sides, lo, hi, rows, act, lo_occurs, hi_occurs)
        model = CompiledModel(
            variables=self.variables + tuple(v.id for v in variables),
            index=index,
            lower=self.lower + declared_lo,
            upper=self.upper + declared_hi,
            objective=self.objective + [0] * len(variables),
            constraints=all_constraints,
            rows=rows,
            lo_occurs=lo_occurs,
            hi_occurs=hi_occurs,
            weights=_weights(list(self.weights), declared_lo, declared_hi),
            lo=lo,
            hi=hi,
            act=act,
            reach=max([self.reach, *(ub - lb for lb, ub in zip(declared_lo, declared_hi))]),
            failed=self.failed,
            live=self.live,
        )
        return _settle(model, first)

    def with_objective(self, objective: Mapping[Hashable, int]) -> "CompiledModel":
        """The same model minimizing `objective` instead."""
        obj = [0] * len(self.variables)
        for v, c in objective.items():
            if v not in self.index:
                raise ValueError(f"objective references unknown variable {v!r}")
            obj[self.index[v]] = _check_int(c, f"objective coefficient of {v!r}")
        return replace(self, objective=obj)


def compile_model(model: IlpModel) -> CompiledModel:
    """Compile every row of `model` once (see _compile_rows) and propagate
    them all from the declared bounds."""
    empty = CompiledModel((), {}, [], [], [], [], [], [], [], [1], [], [], [], 1)
    return empty.extended(model.variables, model.constraints).with_objective(model.objective)


def _weights(weights: list, lower: Sequence[int], upper: Sequence[int]) -> list:
    """`weights` (see CompiledModel) extended by variables with bounds
    [lower[i], upper[i]] declared after those it covers."""
    acc = weights[-1]
    for lb, ub in zip(lower, upper):
        acc *= ub - lb + 1
        weights.append(acc)
    return weights


def _settle(model: CompiledModel, first: int) -> CompiledModel:
    """Finish `model`, just built by extended() or with_rhs() with a box at
    fixpoint for the rows before `first`: propagate the rows from `first`
    on, and make the box and activities reached its own.

    Nothing is propagated once the box is known to be empty (`failed`), so
    a failed model stays failed and its `failed` row keeps failing: moves
    only raise activities. A model whose start rows are known (`live`)
    adds the new rows that are live on the new box; the earlier live rows
    stay listed, a superset being as exact."""
    if model.failed is not None or first == len(model.rows):
        return model
    search = _Search(model)
    failed = live = None
    if _fixpoint(search, range(first, len(search.rows))):
        if model.live is not None:
            live = model.live + _live_rows(search.rows, search.lo, search.hi, search.act, first)
    else:
        failed = next(r for r, row in enumerate(search.rows) if search.act[r] > row[2])
    for name, value in (("lo", search.lo), ("hi", search.hi), ("act", search.act), ("failed", failed), ("live", live)):
        object.__setattr__(model, name, value)
    return model


def _live_rows(rows, lo, hi, act, first: int) -> list:
    """The rows from `first` on that some point of the box [lo, hi] breaks,
    by their maximum activity: only these need checking for a point of the
    box. An equality's two rows are listed as the first of them (a point
    must meet its total exactly); the second is never listed."""
    live = []
    for r in range(first, len(rows)):
        terms, _, rhs, _, partner = rows[r]
        if partner is None:
            top = 0
            for i, c in terms:
                top += c * (hi[i] if c > 0 else lo[i])
            if top > rhs:
                live.append(r)
        elif partner > r and (act[r] < rhs or -act[partner] > rhs):
            live.append(r)
    return live


class _Search:
    """The state of one search: the model's rows, with the incumbent cut
    appended when one is given, one box, every row's minimum activity on
    it, the queue of rows to visit and the undo trail.

    The box starts as the model's root box (CompiledModel.lo, hi), with
    its activities. `rows`, `lo_occurs` and `hi_occurs` are the model's
    (see _compile_rows), plus, given `comb`, one more row at position
    `cut`: the incumbent cut `sum(comb[i] * x[i]) <= rhs`. It is compiled
    over the variables still free in the root box only; the fixed ones'
    share, the same at every point of the box, is part of its carried
    activity, which thus is the whole sum's least value on the box. Its
    rhs is None, which bounds nothing, until set_incumbent() sets it;
    otherwise it is an ordinary row. `lo` and `hi` bound the variables,
    and `act[r]` is the least value of row r's sum over that box. So the
    row of a `<=` constraint carries the constraint's minimum activity, the
    row of a `>=` constraint (its negation) minus its maximum, and an
    equality's two rows carry both.

    Every bound move goes through move() or _fixpoint. A move adds its
    change to the activities that read the moved bound, queues those rows
    (`queue`, with `queued[r]` set while row r is in it) and records
    (variable, old bound, bounds, occurrences) on `trail`, the last two
    being lo and lo_occurs for a lower bound and hi and hi_occurs for an
    upper one. undo(mark) takes back the moves after the first `mark`,
    activities included. `reach` is the model's (see CompiledModel).
    """

    __slots__ = ("rows", "lo_occurs", "hi_occurs", "cut", "lo", "hi", "act", "queue", "queued", "trail", "reach")

    def __init__(self, model: CompiledModel, comb: Optional[Sequence[int]] = None):
        self.lo = lo = list(model.lo)
        self.hi = hi = list(model.hi)
        self.rows = list(model.rows)
        self.act = list(model.act)
        self.lo_occurs = list(model.lo_occurs)
        self.hi_occurs = list(model.hi_occurs)
        self.cut = None
        if comb is not None:
            self.cut = len(self.rows)
            free, fixed = [], 0
            for i, c in enumerate(comb):
                if lo[i] < hi[i]:
                    free.append((i, c))
                else:
                    fixed += c * lo[i]
            _compile_rows([(free, None, None)], lo, hi, self.rows, self.act, self.lo_occurs, self.hi_occurs)
            self.act[-1] += fixed
        self.queue = deque()
        self.queued = bytearray(len(self.rows))
        self.trail = []
        self.reach = model.reach

    def set_incumbent(self, key: int) -> None:
        """Bound the cut to keys below `key`."""
        terms, sizes, _, cmax, partner = self.rows[self.cut]
        self.rows[self.cut] = (terms, sizes, key - 1, cmax, partner)

    def move(self, i: int, upper: bool, bound: int) -> None:
        """Set hi[i] (when `upper`) or lo[i] to `bound`, which must narrow it."""
        bounds, occurs = (self.hi, self.hi_occurs) if upper else (self.lo, self.lo_occurs)
        act, queue, queued = self.act, self.queue, self.queued
        self.trail.append((i, bounds[i], bounds, occurs))
        delta = bound - bounds[i]
        bounds[i] = bound
        for r, c in occurs[i]:
            act[r] += c * delta
            if not queued[r]:
                queued[r] = 1
                queue.append(r)

    def undo(self, mark: int) -> None:
        """Take back every move after the first `mark` on the trail."""
        trail, act = self.trail, self.act
        for i, old, bounds, occurs in reversed(trail[mark:]):
            delta = old - bounds[i]
            bounds[i] = old
            for r, c in occurs[i]:
                act[r] += c * delta
        del trail[mark:]


def _propagate(search: _Search, seeds) -> bool:
    """Propagate one node of a search (see _fixpoint). solve() calls it once
    per node, the root included, and nothing else does, so its calls count
    the nodes; propagating a compiled model's root box (_settle) is not a
    node."""
    return _fixpoint(search, seeds)


def _fixpoint(search: _Search, seeds) -> bool:
    """Tighten integer bounds to a fixpoint; False means provably infeasible.

    Each row `(terms, sizes, rhs, cmax, partner)` of `search.rows` (see
    _compile_rows) states sum(c * x[i]) <= rhs; the cut is one of them.
    Propagation is event-driven: it visits the rows queued by earlier
    moves (see _Search) and those in `seeds`, and a pass that raises lo[i]
    or lowers hi[i] queues the rows in lo_occurs[i] or hi_occurs[i], whose
    activities that move raised. A row whose activity did not change can
    neither tighten nor fail, so the other rows need no visit. Rows never
    queued must already be at fixpoint on the given box. The queue is empty
    again when this returns.

    A pass reads the row's carried activity: the row fails when it exceeds
    rhs, and a term can tighten only if its span |c| * (hi - lo) exceeds
    the slack rhs - activity. Two O(1) tests show that no span does: no
    span exceeds |c| * reach, so none can when cmax * reach fits in the
    slack; and the spans of an equality's row add up to its slack plus its
    partner's, so none can when the partner is tight (the activity of one
    row is minus the maximum activity of the other). Otherwise the pass
    visits only the leading terms with |c| * reach above the slack (the
    terms come by descending |c|), and each of these that is not fixed
    tightens exactly when its span exceeds the slack. A pass moves only
    bounds that its own activity does not read, so the slack stays as it
    is through the pass and the row cannot empty a domain. Every move
    updates the activities that read the moved bound and goes on the trail.

    The rows act as monotone narrowing operators, so the box reached is
    their greatest common fixpoint below the given one whatever order the
    rows are visited in: seeding with all rows or only with those woken
    since the last fixpoint gives the same bounds.
    """
    rows, lo_occurs, hi_occurs = search.rows, search.lo_occurs, search.hi_occurs
    lo, hi, act, trail, reach = search.lo, search.hi, search.act, search.trail, search.reach
    queue, queued = search.queue, search.queued
    for r in seeds:
        if not queued[r]:
            queued[r] = 1
            queue.append(r)
    while queue:
        r = queue.popleft()
        queued[r] = 0
        terms, sizes, rhs, cmax, partner = rows[r]
        if rhs is None:
            continue
        slack = rhs - act[r]
        if slack < 0:
            for r in queue:
                queued[r] = 0
            queue.clear()
            return False
        if cmax * reach <= slack or (partner is not None and act[partner] + rhs >= 0):
            continue
        # Only the leading terms with |c| * reach > slack can tighten. A
        # move does what _Search.move() does, inlined for speed.
        for i, c in terms[: bisect_left(sizes, -(slack // reach))]:
            if lo[i] == hi[i]:
                continue
            if c > 0:
                nb = lo[i] + slack // c
                if nb < hi[i]:
                    trail.append((i, hi[i], hi, hi_occurs))
                    delta = nb - hi[i]
                    hi[i] = nb
                    for s, d in hi_occurs[i]:
                        act[s] += d * delta
                        if not queued[s]:
                            queued[s] = 1
                            queue.append(s)
            else:
                nb = hi[i] - slack // -c
                if nb > lo[i]:
                    trail.append((i, lo[i], lo, lo_occurs))
                    delta = nb - lo[i]
                    lo[i] = nb
                    for s, d in lo_occurs[i]:
                        act[s] += d * delta
                        if not queued[s]:
                            queued[s] = 1
                            queue.append(s)
    return True


def _start_key(model: CompiledModel, start: Sequence[int], comb: Sequence[int]) -> int:
    """The search key of `start`, one value per variable by position;
    ValueError unless it lies in the bounds and satisfies every row.

    Every feasible point lies in the root box, so a start outside it is
    rejected, and a point of the box can break only the rows listed in
    `model.live`. These are worked out on the first start given to a model
    (_live_rows) and kept on it; extended() adds the live rows it appends,
    since a row that no point of a box breaks holds on every smaller box.
    An equality's two rows state total <= rhs and -total <= -rhs, so the
    first of them is checked for total == rhs and the second skipped."""
    if len(start) != len(model.variables):
        raise ValueError(f"start needs {len(model.variables)} values, got {len(start)}")
    lo, hi = model.lo, model.hi
    if not ({*map(type, start)} <= {int} and all(map(le, lo, start)) and all(map(le, start, hi))):
        for i, value in enumerate(start):
            if type(value) is not int or not lo[i] <= value <= hi[i]:
                vid, lb, ub = model.variables[i], model.lower[i], model.upper[i]
                if type(value) is not int or not lb <= value <= ub:
                    raise ValueError(f"start value {value!r} of {vid!r} is not an integer in [{lb}, {ub}]")
                raise ValueError(f"start value {value!r} of {vid!r} lies outside [{lo[i]}, {hi[i]}], which holds every feasible point")
    if model.failed is not None:
        raise ValueError(f"start violates row {model.failed}, which no point in the bounds meets")
    live = model.live
    if live is None:
        live = _live_rows(model.rows, lo, hi, model.act, 0)
        object.__setattr__(model, "live", live)
    rows = model.rows
    for r in live:
        terms, _, rhs, _, partner = rows[r]
        total = 0
        for i, c in terms:
            total += c * start[i]
        if total > rhs or (partner is not None and total < rhs):
            raise ValueError(f"start violates row {r}")
    return sum(map(mul, comb, start))


def solve(model: IlpModel | CompiledModel, start: Optional[Sequence[int]] = None) -> Optional[Solution]:
    """Minimize the objective over all integer points; None if infeasible.

    An IlpModel is compiled first (compile_model); a CompiledModel is
    solved as it is, so a model compiled once can be solved again with
    new right-hand sides or appended rows without compiling its rows again.

    Depth-first branch and bound over the finite variable domains, branching
    on the first free variable, lower half first. The search key of an
    assignment x is `sum(comb[i] * x[i])` with comb[i] = big * objective[i]
    + weight[i], where weight[i] is the product of (upper - lower + 1) over
    the variables declared before i and `big` that product over all of them.
    The tie-break part stays below `big`, so the key orders points by
    objective first and then compares them from the last declared variable
    backwards: the returned optimum is unique.

    Each node runs exact interval propagation (_propagate) over all rows,
    the cut `key <= best key - 1` included once an incumbent exists, so
    pruning decisions are exact as well. The search keeps one box (see
    _Search), which starts as the model's root box: the fixpoint of every
    row, rows without terms included, below the declared bounds
    (CompiledModel). So the root visits only the cut, or, when the rows
    admit no point, the row that fails on that box; the greatest fixpoint
    does not depend on the order rows are visited in, so the root's box is
    the one a sweep over every row would reach. Any other node undoes the
    trail back to its parent's fixpoint, moves the bound of its branch and
    visits only the rows the move woke, plus the cut when it has dropped
    since the parent was propagated. Every variable before the one a node
    branched on is fixed in all its descendants, so the scan for the first
    free variable starts there. At a leaf (lo == hi) the cut's carried
    activity is the key.

    `start`, if given, is a feasible point with one value per variable by
    position. It is checked exactly against the root box and every row
    that a point of the box can break (_start_key; a point that breaks a
    bound or a row raises ValueError) and becomes the first incumbent, so
    the cut is in place at the root; the optimum returned is the same, only
    the search may be smaller. Without a start the search is the one above,
    node for node. The returned Solution lists the improving points found
    (Solution.incumbents); the start is not among them.
    """
    if isinstance(model, IlpModel):
        model = compile_model(model)

    # Mixed-radix weights: the tie-break key of an assignment is unique,
    # and `big` exceeds any possible tie-break key difference.
    weights = model.weights
    big = weights[-1]
    obj = model.objective
    comb = [big * o + w for o, w in zip(obj, weights)]
    search = _Search(model, comb)
    lo, hi, trail, cut, act = search.lo, search.hi, search.trail, search.cut, search.act
    best_key: Optional[int] = None
    best: Optional[Tuple[int, ...]] = None
    found: list[Tuple[int, ...]] = []
    if start is not None:
        best_key = _start_key(model, start, comb)
        best = tuple(start)
        search.set_incumbent(best_key)

    # An entry is (trail length at the parent's fixpoint, variable to move,
    # whether it is the upper bound, new bound, incumbents found when the
    # parent was propagated); the root's variable is -1. A node's scan for
    # a free variable starts at the variable it moved.
    stack = [(0, -1, False, 0, 0)]
    while stack:
        mark, i, upper, bound, seen = stack.pop()
        if len(trail) > mark:
            search.undo(mark)
        if i < 0:
            seeds = (cut,) if model.failed is None else (model.failed,)
            i = 0
        else:
            search.move(i, upper, bound)
            seeds = (cut,) if seen != len(found) else ()
        if not _propagate(search, seeds):
            continue
        if lo[i:] == hi[i:]:
            # A leaf, so the cut's carried activity is the key of this point.
            key = act[cut]
            if best_key is None or key < best_key:
                best_key = key
                best = tuple(lo)
                found.append(best)
                search.set_incumbent(key)
            continue
        while lo[i] == hi[i]:
            i += 1
        mid = (lo[i] + hi[i]) // 2
        mark = len(trail)
        stack.append((mark, i, False, mid + 1, len(found)))
        stack.append((mark, i, True, mid, len(found)))
    if best is None:
        return None
    assignment = dict(zip(model.variables, best))
    return Solution(assignment, sum(map(mul, obj, best)), tuple(found))
