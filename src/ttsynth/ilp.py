"""Exact solver for bounded integer linear programs with a minimize objective.

All arithmetic is exact (Python integers); there is no floating point and no
tolerance anywhere. Among equal-objective optima the solver deterministically
returns the assignment that is smallest when variables are compared from the
last declared one backwards, so identical models always yield identical
solutions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

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
    """Integer variable with inclusive finite bounds."""

    id: str
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

    terms: Mapping[str, int]
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
    objective: Mapping[str, int] = field(default_factory=dict)

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

    def with_variables(self, extra: Sequence[Variable]) -> "IlpModel":
        return IlpModel(self.variables + tuple(extra), self.constraints, self.objective)

    def with_constraints(self, extra: Sequence[LinearConstraint]) -> "IlpModel":
        return IlpModel(self.variables, self.constraints + tuple(extra), self.objective)

    def with_objective(self, objective: Mapping[str, int]) -> "IlpModel":
        return IlpModel(self.variables, self.constraints, objective)


@dataclass(frozen=True)
class Solution:
    assignment: Mapping[str, int]
    objective_value: int

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


@dataclass(frozen=True)
class AssignmentCheck:
    ok: bool
    violated: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_assignment(model: IlpModel, assignment: Mapping[str, int]) -> AssignmentCheck:
    """Verify bounds and every constraint; name the first violation."""
    for v in model.variables:
        if v.id not in assignment:
            raise ValueError(f"assignment misses variable {v.id!r}")
        val = assignment[v.id]
        if not (v.lower <= val <= v.upper):
            return AssignmentCheck(False, f"bound {v.id} in [{v.lower}, {v.upper}]")
    for idx, con in enumerate(model.constraints):
        total = sum(c * assignment[v] for v, c in con.terms.items())
        ok = (total <= con.rhs) if con.relation == LE else (total >= con.rhs) if con.relation == GE else (total == con.rhs)
        if not ok:
            return AssignmentCheck(False, f"constraint {idx}: {con.render()}")
    return AssignmentCheck(True)


def objective_value(model: IlpModel, assignment: Mapping[str, int]) -> int:
    return sum(c * assignment[v] for v, c in model.objective.items())


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


def _compile_rows(constraints: Sequence[LinearConstraint], index: Mapping[str, int]):
    """Rows `(idxs, coeffs, lob, hib)` for _propagate, with two wake lists
    per variable: `raised[i]` holds the rows that can react when lo[i]
    rises, `lowered[i]` those that can react when hi[i] falls.

    A `<= hib` side reads the row's minimum activity, which takes lo[i]
    where c > 0 and hi[i] where c < 0; a `>= lob` side reads the maximum,
    which takes the other bound; an equality row reads both. Returns
    (rows, raised, lowered), or None if a constraint without terms can never
    hold. Constant constraints that hold are dropped.
    """
    rows: list[tuple] = []
    raised: list[list[int]] = [[] for _ in index]
    lowered: list[list[int]] = [[] for _ in index]
    for con in constraints:
        if con.relation == LE:
            lob, hib = None, con.rhs
        elif con.relation == GE:
            lob, hib = con.rhs, None
        else:
            lob, hib = con.rhs, con.rhs
        if not con.terms:
            if (lob is not None and lob > 0) or (hib is not None and hib < 0):
                return None
            continue
        r = len(rows)
        idxs = tuple(map(index.__getitem__, con.terms))
        coeffs = tuple(con.terms.values())
        if lob is None:
            for i, c in zip(idxs, coeffs):
                (raised if c > 0 else lowered)[i].append(r)
        elif hib is None:
            for i, c in zip(idxs, coeffs):
                (lowered if c > 0 else raised)[i].append(r)
        else:
            for i in idxs:
                raised[i].append(r)
                lowered[i].append(r)
        rows.append((idxs, coeffs, lob, hib))
    return rows, raised, lowered


class _Cut:
    """The incumbent cut `sum(comb[i] * x[i]) <= bound` of solve(), kept
    apart from the rows because it is dense.

    `up[i]` is comb[i] where positive and `down[i]` where negative, else 0,
    so the cut's minimum activity on a box is sum(up[i]*lo[i] + down[i]*hi[i]).
    `act` holds that activity for the box being propagated; _propagate reads
    it and keeps it current as bounds move. `bound` is None until the first
    incumbent. `terms` lists (i, comb[i], |comb[i]|) by descending
    |comb[i]|, zeros left out; it is sorted once, when the first incumbent
    arrives, so solves that end at the root never sort. `reach` bounds the
    range hi - lo of every variable in the search: the widest root range,
    but at least 1.
    """

    __slots__ = ("up", "down", "reach", "terms", "bound", "act")

    def __init__(self, comb: Sequence[int], reach: int):
        self.up = [c if c > 0 else 0 for c in comb]
        self.down = [c if c < 0 else 0 for c in comb]
        self.reach = max(reach, 1)
        self.terms = None
        self.bound = None
        self.act = 0

    def set_incumbent(self, key: int) -> None:
        """Bound the cut to keys below `key`."""
        if self.terms is None:
            # `u or d` is comb[i] itself, so the terms share its integers.
            self.terms = [
                (i, u or d, abs(u or d)) for i, (u, d) in enumerate(zip(self.up, self.down)) if u or d
            ]
            self.terms.sort(key=lambda term: term[2], reverse=True)
        self.bound = key - 1


def _propagate(rows, raised, lowered, lo: list[int], hi: list[int], seeds, cut: _Cut) -> bool:
    """Tighten integer bounds to a fixpoint; False means provably infeasible.

    Each row `(idxs, coeffs, lob, hib)` (see _compile_rows) states
    lob <= sum(coeffs * x) <= hib, None being an open side. Propagation is
    event-driven: only the rows in `seeds` are queued at first, and a row
    pass that raises lo[i] re-queues `raised[i]` and one that lowers hi[i]
    re-queues `lowered[i]`, the row itself included when listed. A row whose
    activity on the sides it has did not change can neither tighten nor
    fail, so the other rows need no visit. Rows never queued must already be
    at fixpoint on the given box. A row pass skips its per-variable loop
    when no term's span |c|*(hi-lo) exceeds the row's slack on either side,
    as that loop could not tighten anything.

    `cut` (see _Cut) is a further `<=` row with its minimum activity
    carried in `cut.act`: every move of a bound that activity reads adds
    comb[i] times the move, and queues the cut if it has a bound. A bounded
    cut is always queued first, since the bound may have dropped since the
    box was last at fixpoint. A cut pass sums nothing: with slack
    S = bound - act it visits terms by descending |c| and stops at the first
    with |c| * reach <= S, as no later term can tighten. Its own moves do
    not change its activity. A cut over all-zero coefficients and without a
    bound leaves the rows to themselves.

    The rows act as monotone narrowing operators, so the box reached is
    their greatest common fixpoint below the given one whatever order the
    rows are visited in: seeding with all rows or only with those woken
    since the last fixpoint gives the same bounds.
    """
    ncut = len(rows)  # the cut's position in the queue
    queued = bytearray(ncut + 1)
    queue = deque()
    up, down, bound, act = cut.up, cut.down, cut.bound, cut.act
    if bound is not None:
        queued[ncut] = 1
        queue.append(ncut)
    for r in seeds:
        if not queued[r]:
            queued[r] = 1
            queue.append(r)
    while queue:
        r = queue.popleft()
        queued[r] = 0
        if r == ncut:
            slack = bound - act
            if slack < 0:
                return False
            # A term can tighten only if |c| * (hi - lo) > slack, so none
            # can from the first with |c| * reach <= slack, i.e. |c| <= limit.
            # The cut lowers hi where c > 0 and raises lo where c < 0, bounds
            # its activity does not read, so the activity stays as it is.
            rise = []  # variables whose lo moved
            fall = []  # variables whose hi moved
            before = act
            limit = slack // cut.reach
            for i, c, size in cut.terms:
                if size <= limit:
                    break
                if c > 0:
                    nb = lo[i] + slack // c
                    if nb < hi[i]:
                        hi[i] = nb
                        fall.append(i)
                else:
                    nb = hi[i] - slack // -c
                    if nb > lo[i]:
                        lo[i] = nb
                        rise.append(i)
        else:
            idxs, coeffs, lob, hib = rows[r]
            minact = 0
            maxact = 0
            span = 0
            for i, c in zip(idxs, coeffs):
                if c > 0:
                    a = c * lo[i]
                    b = c * hi[i]
                else:
                    a = c * hi[i]
                    b = c * lo[i]
                minact += a
                maxact += b
                if b - a > span:
                    span = b - a
            if hib is not None and minact > hib:
                return False
            if lob is not None and maxact < lob:
                return False
            if (hib is None or span <= hib - minact) and (lob is None or span <= maxact - lob):
                continue
            rise = []
            fall = []
            before = act
            # `a // c` is the floor and `-(-a // c)` the ceiling of a / c, for either sign of c.
            for i, c in zip(idxs, coeffs):
                cmin = c * lo[i] if c > 0 else c * hi[i]
                if hib is not None:
                    slack = hib - (minact - cmin)
                    if c > 0:
                        nb = slack // c
                        if nb < hi[i]:
                            maxact += c * (nb - hi[i])
                            act += down[i] * (nb - hi[i])
                            hi[i] = nb
                            fall.append(i)
                    else:
                        nb = -(-slack // c)
                        if nb > lo[i]:
                            maxact += c * (nb - lo[i])
                            act += up[i] * (nb - lo[i])
                            lo[i] = nb
                            rise.append(i)
                    if lo[i] > hi[i]:
                        return False
                if lob is not None:
                    need = lob - (maxact - (c * hi[i] if c > 0 else c * lo[i]))
                    if c > 0:
                        nb = -(-need // c)
                        if nb > lo[i]:
                            minact += c * (nb - lo[i])
                            act += up[i] * (nb - lo[i])
                            lo[i] = nb
                            rise.append(i)
                    else:
                        nb = need // c
                        if nb < hi[i]:
                            minact += c * (nb - hi[i])
                            act += down[i] * (nb - hi[i])
                            hi[i] = nb
                            fall.append(i)
                    if lo[i] > hi[i]:
                        return False
        for i in rise:
            for s in raised[i]:
                if not queued[s]:
                    queued[s] = 1
                    queue.append(s)
        for i in fall:
            for s in lowered[i]:
                if not queued[s]:
                    queued[s] = 1
                    queue.append(s)
        if act != before and bound is not None and not queued[ncut]:
            queued[ncut] = 1
            queue.append(ncut)
    cut.act = act
    return True


def solve(model: IlpModel) -> Optional[Solution]:
    """Minimize the objective over all integer points; None if infeasible.

    Depth-first branch and bound over the finite variable domains, branching
    on the first free variable, lower half first. The search key of an
    assignment x is `sum(comb[i] * x[i])` with comb[i] = big * objective[i]
    + weight[i], where weight[i] is the product of (upper - lower + 1) over
    the variables declared before i and `big` that product over all of them.
    The tie-break part stays below `big`, so the key orders points by
    objective first and then compares them from the last declared variable
    backwards: the returned optimum is unique.

    Each node runs exact interval propagation over all constraints plus a
    cut `key <= best key - 1` once an incumbent exists, so pruning decisions
    are exact as well. The rows are compiled once, with each variable's wake
    lists (see _compile_rows). The root propagates from every row; any other
    node starts from its parent's propagated box and queues only the rows
    woken by the bound its branch moved, plus the cut. The cut's minimum
    activity travels with each stack entry: the root sums it once, a child
    adds the branch's move, and _propagate adds every later move, so at a
    leaf (lo == hi) it is the key.
    """
    ids = [v.id for v in model.variables]
    n = len(ids)
    index = {vid: i for i, vid in enumerate(ids)}
    root_lo = [v.lower for v in model.variables]
    root_hi = [v.upper for v in model.variables]

    # Mixed-radix weights: the tie-break key of an assignment is unique.
    weights = [0] * n
    acc = 1
    for i in range(n):
        weights[i] = acc
        acc *= root_hi[i] - root_lo[i] + 1
    big = acc  # exceeds any possible tie-break key difference

    obj = [0] * n
    for vid, c in model.objective.items():
        obj[index[vid]] = c
    comb = [big * obj[i] + weights[i] for i in range(n)]

    compiled = _compile_rows(model.constraints, index)
    if compiled is None:
        return None
    rows, raised, lowered = compiled

    cut = _Cut(comb, max((h - l for l, h in zip(root_lo, root_hi)), default=0))
    best_key: Optional[int] = None
    best: Optional[list[int]] = None

    # Each entry owns its lists (children copy one side each), so nodes
    # narrow them in place; it also holds its seed rows and the cut's
    # minimum activity on its box.
    up, down = cut.up, cut.down
    act = sum(u * l + d * h for u, d, l, h in zip(up, down, root_lo, root_hi))
    stack = [(root_lo, root_hi, range(len(rows)), act)]
    while stack:
        lo, hi, seeds, cut.act = stack.pop()
        if not _propagate(rows, raised, lowered, lo, hi, seeds, cut):
            continue
        act = cut.act
        for i in range(n):
            if lo[i] < hi[i]:
                mid = (lo[i] + hi[i]) // 2
                upper_lo = list(lo)
                upper_lo[i] = mid + 1
                stack.append((upper_lo, hi, raised[i], act + up[i] * (mid + 1 - lo[i])))
                lower_hi = list(hi)
                lower_hi[i] = mid
                stack.append((lo, lower_hi, lowered[i], act + down[i] * (mid - hi[i])))
                break
        else:
            # lo == hi, so the carried activity is the key of this point.
            if best_key is None or act < best_key:
                best_key = act
                best = lo
                cut.set_incumbent(act)
    if best is None:
        return None
    assignment = dict(zip(ids, best))
    return Solution(assignment, sum(c * v for c, v in zip(obj, best)))
