"""Exact feasibility search for bounded integer linear programs.

All arithmetic is exact (Python integers); there is no floating point and no
tolerance anywhere. solve() returns the feasible point that is least in
lexicographic order (the first declared variable most significant), so
identical models always yield identical solutions. minimal_points() lists
the feasible points that lie above no other.

Both walk one depth-first search (_branch) with exact interval
propagation at every node. compile_model() turns each constraint into one
`<=` row per side (an equality into two), lists, per variable, the rows
whose minimum activity each of its bounds moves, and computes every row's
minimum activity on the declared box. A search starts from that box,
keeps one box, every row's minimum activity on it and a trail of bound
moves to undo on backtracking; its root propagates every row. A row pass
reads its carried activity, so a row that cannot tighten costs O(1)
instead of a sum over its terms. The search branches lower half first, so
its leaves come in lexicographic order: solve() stops at the first, and
minimal_points() visits them all, each point it finds adding rows to the
running search that exclude every point above it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
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
    """Bounded integer variables and linear constraints over them."""

    variables: Tuple[Variable, ...]
    constraints: Tuple[LinearConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        ids = [v.id for v in self.variables]
        known = set(ids)
        if len(known) != len(ids):
            raise ValueError("duplicate variable id")
        for con in self.constraints:
            for v in con.terms:
                if v not in known:
                    raise ValueError(f"constraint references unknown variable {v!r}")


def format_lp(model: IlpModel) -> str:
    """Plain-text dump of the model for inspection (not a stability contract)."""
    lines = ["subject to"]
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
    that gains entries is replaced by a longer copy, never extended, so
    the compiled model whose lists a search shares (_Search.add) is left
    as it was.
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
    """An IlpModel compiled for solve() and minimal_points(): variables by
    position, rows with their occurrence lists, the declared box and every
    row's minimum activity on it.

    Each declared constraint is compiled into its `<=` sides: a `<=`
    constraint into itself, a `>=` one into its negation and an equality
    into both. `rows` holds these rows `(terms, sizes, rhs, cmax, partner)`
    of _compile_rows in declaration order and `constraints[r]` the pairs
    (row, sign) of declared constraint r, so `variables` and
    `constraints` have the lengths of the model's own tuples, and
    `lo_occurs` and `hi_occurs` are indexed like `variables`. Variable i
    is declared in [lo[i], hi[i]], and `act[r]` is row r's minimum
    activity on that box.

    Like IlpModel it is never changed after construction: with_rhs()
    returns a sibling with new right-hand sides and bounds that shares the
    terms and the occurrence lists. Ids are read only when compiling and
    in the solution, never in the search.
    """

    variables: Tuple[Hashable, ...]
    constraints: list
    rows: list
    lo_occurs: list
    hi_occurs: list
    lo: list
    hi: list
    act: list

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
        return replace(self, rows=rows, lo=lower, hi=upper, act=act)


def compile_model(model: IlpModel) -> CompiledModel:
    """Compile every row of `model` once (see _compile_rows)."""
    index = {v.id: i for i, v in enumerate(model.variables)}
    lower = [v.lower for v in model.variables]
    upper = [v.upper for v in model.variables]
    constraints, sides = [], []
    for con in model.constraints:
        terms = [(index[v], c) for v, c in con.terms.items()]
        negated = [(i, -c) for i, c in terms]
        r = len(sides)
        if con.relation == EQ:
            constraints.append(((r, 1), (r + 1, -1)))
            sides += [(terms, con.rhs, r + 1), (negated, -con.rhs, r)]
        elif con.relation == LE:
            constraints.append(((r, 1),))
            sides.append((terms, con.rhs, None))
        else:
            constraints.append(((r, -1),))
            sides.append((negated, -con.rhs, None))
    rows, act = [], []
    lo_occurs, hi_occurs = [[] for _ in lower], [[] for _ in lower]
    _compile_rows(sides, lower, upper, rows, act, lo_occurs, hi_occurs)
    return CompiledModel(
        variables=tuple(index),
        constraints=constraints,
        rows=rows,
        lo_occurs=lo_occurs,
        hi_occurs=hi_occurs,
        lo=lower,
        hi=upper,
        act=act,
    )


class _Search:
    """The state of one search: the model's rows, one box, every row's
    minimum activity on it, the queue of rows to visit and the undo trail.

    The box starts as the model's declared box (CompiledModel.lo, hi),
    with its activities. `rows`, `lo_occurs` and `hi_occurs` are the
    model's (see _compile_rows). `lo` and `hi` bound the variables, and
    `act[r]` is the least value of row r's sum over that box. So the row
    of a `<=` constraint carries the constraint's minimum activity, the
    row of a `>=` constraint (its negation) minus its maximum, and an
    equality's two rows carry both. add() declares more variables and
    rows while the search runs.

    Every bound move goes through move() or _propagate. A move adds its
    change to the activities that read the moved bound, queues those rows
    (`queue`, with `queued[r]` set while row r is in it) and records
    (variable, old bound, bounds, occurrences) on `trail`, the last two
    being lo and lo_occurs for a lower bound and hi and hi_occurs for an
    upper one. undo(mark) takes back the moves after the first `mark`,
    activities included. `reach` is 1 or the widest declared range, if
    larger, so it bounds every range the search meets.
    `wake` lists, in order, the rows added after the search began;
    _branch seeds a node with those listed after its parent was
    propagated. `floor` holds the lower bounds of the root's fixpoint
    once _branch has propagated the root, the declared ones before.
    """

    __slots__ = ("rows", "lo_occurs", "hi_occurs", "lo", "hi", "act", "queue", "queued", "trail", "reach", "wake", "floor")

    def __init__(self, model: CompiledModel):
        self.lo = list(model.lo)
        self.hi = list(model.hi)
        self.rows = list(model.rows)
        self.act = list(model.act)
        self.lo_occurs = list(model.lo_occurs)
        self.hi_occurs = list(model.hi_occurs)
        self.queue = deque()
        self.queued = bytearray(len(self.rows))
        self.trail = []
        self.reach = max([1, *(ub - lb for lb, ub in zip(model.lo, model.hi))])
        self.wake = []
        self.floor = model.lo

    def add(self, bounds: Sequence[Tuple[int, int]], sides) -> None:
        """Declare one variable per (lower, upper) pair of `bounds` after
        the others, then append `sides` (see _compile_rows) as rows with
        their activities on the current box, and list them on `wake`.

        Moves undone later also update the new rows' activities, since
        undo() reads the occurrence lists as they are then. The new
        variables have no move on the trail yet, so undoing takes them back
        to the bounds given here, never past them."""
        for lb, ub in bounds:
            self.lo.append(lb)
            self.hi.append(ub)
            self.lo_occurs.append([])
            self.hi_occurs.append([])
            self.reach = max(self.reach, ub - lb)
        first = len(self.rows)
        _compile_rows(sides, self.lo, self.hi, self.rows, self.act, self.lo_occurs, self.hi_occurs)
        self.queued.extend(bytes(len(self.rows) - first))
        self.wake.extend(range(first, len(self.rows)))

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
    """Tighten integer bounds to a fixpoint; False means provably infeasible.
    _branch calls it once per node, the root included, and nothing else
    does, so its calls count the nodes of solve() and minimal_points().

    Each row `(terms, sizes, rhs, cmax, partner)` of `search.rows` (see
    _compile_rows) states sum(c * x[i]) <= rhs.
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


def _branch(search: _Search, n: int):
    """Depth-first over the box of `search`, branching on the first of its
    first `n` variables that is free, lower half first, and yielding the
    values of those n at every node whose box fixes them all. The leaves
    come in lexicographic order (the first variable most significant),
    and propagation drops no feasible point, so the first leaf is the
    least feasible point of the box.

    Every node, the root included, is propagated (_propagate): the root
    visits every row and, when it passes, leaves its lower bounds in
    `search.floor`, and any other node undoes the trail back to its
    parent's fixpoint, moves the bound of its branch and visits the rows
    the move woke plus those listed on `search.wake` since the parent was
    propagated, which includes rows added while the caller held a leaf. A
    failed node is pruned. Every variable before the one a node branched
    on is fixed in all its descendants, so the scan for the first free
    variable starts there.
    """
    lo, hi, trail, wake = search.lo, search.hi, search.trail, search.wake
    # An entry is (trail length at the parent's fixpoint, variable to move,
    # whether it is the upper bound, new bound, length of `wake` when the
    # parent was propagated); the root's variable is -1.
    stack = [(0, -1, False, 0, 0)]
    while stack:
        mark, i, upper, bound, seen = stack.pop()
        if len(trail) > mark:
            search.undo(mark)
        if i >= 0:
            search.move(i, upper, bound)
            if not _propagate(search, wake[seen:]):
                continue
        elif _propagate(search, range(len(search.rows))):
            i = 0
            search.floor = lo[:]
        else:
            continue
        if lo[i:n] == hi[i:n]:
            yield tuple(lo[:n])
            continue
        while lo[i] == hi[i]:
            i += 1
        mid = (lo[i] + hi[i]) // 2
        mark, seen = len(trail), len(wake)
        stack.append((mark, i, False, mid + 1, seen))
        stack.append((mark, i, True, mid, seen))


def solve(model: IlpModel | CompiledModel) -> Optional[dict]:
    """The feasible point least in lexicographic order (the first declared
    variable most significant) as {id: value}; None if infeasible.

    An IlpModel is compiled first (compile_model); a CompiledModel is
    solved as it is, so a model compiled once can be solved again with
    new right-hand sides without compiling its rows again.

    The point is the first leaf of the search (_branch), whose root
    propagates every row, rows without terms included, from the declared
    bounds. Each node runs exact interval propagation, so pruning
    decisions are exact as well.
    """
    if isinstance(model, IlpModel):
        model = compile_model(model)
    for point in _branch(_Search(model), len(model.variables)):
        return dict(zip(model.variables, point))
    return None


def minimal_points(model: IlpModel | CompiledModel) -> list:
    """Every feasible point that no other feasible point lies below
    componentwise, as a tuple of values by variable position, in
    lexicographic order (the first variable most significant).

    The search of solve() (_branch), followed through every leaf instead
    of stopping at the first. Each leaf is recorded, and rows that exclude
    it and every point above it are added to the running search
    (_Search.add). They name its support, the variables i where its value
    s lies above the lower bound floor[i] of the root's fixpoint, which
    no feasible point goes below: a point is above it exactly when it is
    at least s on all of them. An empty support leaves no feasible point
    outside what it excludes, so the search ends there. A support of one
    variable gives the row x[i] <= s - 1. A larger one gives, per
    variable, a new [0, 1] binary b with x[i] + r * b <= s - 1 + r, r
    being the declared range hi[i] - lo[i] (b = 1 forces x[i] < s; b = 0
    bounds nothing), and then sum(b) >= 1. With x fixed,
    propagation leaves some b free exactly when some x[i] < s, so a leaf
    passes the rows exactly when it lies above no point found.

    A point below a leaf is lexicographically smaller, so the search
    reached it first. So every leaf that passes the rows is minimal: a
    feasible point below it would have been reached and recorded first
    (or one below that), and its rows would exclude the leaf.
    """
    if isinstance(model, IlpModel):
        model = compile_model(model)
    search = _Search(model)
    ranges = [h - l for l, h in zip(model.lo, model.hi)]
    points: list = []
    for point in _branch(search, len(model.variables)):
        points.append(point)
        floor = search.floor
        support = [(i, s) for i, s in enumerate(point) if s > floor[i]]
        if not support:
            break
        if len(support) == 1:
            search.add((), [([(support[0][0], 1)], support[0][1] - 1, None)])
            continue
        b = len(search.lo)
        sides = [([(i, 1), (b + j, ranges[i])], s - 1 + ranges[i], None) for j, (i, s) in enumerate(support)]
        sides.append(([(b + j, -1) for j in range(len(support))], -1, None))
        search.add([(0, 1)] * len(support), sides)
    return points
