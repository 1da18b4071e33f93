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
        for v, c in dict(self.terms).items():
            _check_int(c, f"coefficient of {v!r}")
        # Zero coefficients carry no information; drop them up front.
        object.__setattr__(self, "terms", {v: c for v, c in dict(self.terms).items() if c})
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


def _compile_rows(constraints: Sequence[LinearConstraint], index: Mapping[str, int]) -> Optional[list[list]]:
    """Rows `[idxs, coeffs, lob, hib]` for _propagate; None if a constraint
    without terms can never hold. Constant constraints that hold are dropped."""
    rows: list[list] = []
    for con in constraints:
        idxs = tuple(index[v] for v in con.terms)
        coeffs = tuple(con.terms[v] for v in con.terms)
        if con.relation == LE:
            lob, hib = None, con.rhs
        elif con.relation == GE:
            lob, hib = con.rhs, None
        else:
            lob, hib = con.rhs, con.rhs
        if not idxs:
            if (lob is not None and lob > 0) or (hib is not None and hib < 0):
                return None
            continue
        rows.append([idxs, coeffs, lob, hib])
    return rows


def _occurrences(rows: list[list], n: int) -> list[list[int]]:
    """For each of the n variables, the positions of the rows that mention it."""
    occurs: list[list[int]] = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        for i in row[0]:
            occurs[i].append(r)
    return occurs


def _propagate(rows: list[list], occurs: list[list[int]], lo: list[int], hi: list[int], seeds) -> bool:
    """Tighten integer bounds to a fixpoint; False means provably infeasible.

    Each row `[idxs, coeffs, lob, hib]` (see _compile_rows) states
    lob <= sum(coeffs * x) <= hib, None being an open side; `occurs[i]`
    lists the rows that mention variable i. Propagation is event-driven:
    only the rows in `seeds` are queued at first, and a row that moves a
    bound re-queues every row of that variable, itself included. Rows never
    queued must already be at fixpoint on the given box. A row pass skips its
    per-variable loop when no term's span |c|*(hi-lo) exceeds the row's
    slack on either side, as that loop could not tighten anything.

    The rows act as monotone narrowing operators, so the box reached is
    their greatest common fixpoint below the given one whatever order the
    rows are visited in: seeding with all rows or only with those touched
    since the last fixpoint gives the same bounds.
    """
    queued = bytearray(len(rows))
    queue = deque()
    for r in seeds:
        if not queued[r]:
            queued[r] = 1
            queue.append(r)
    while queue:
        r = queue.popleft()
        queued[r] = 0
        idxs, coeffs, lob, hib = rows[r]
        if lob is None and hib is None:
            continue
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
        # `a // c` is the floor and `-(-a // c)` the ceiling of a / c, for either sign of c.
        moved = []
        for i, c in zip(idxs, coeffs):
            cmin = c * lo[i] if c > 0 else c * hi[i]
            if hib is not None:
                slack = hib - (minact - cmin)
                if c > 0:
                    nb = slack // c
                    if nb < hi[i]:
                        maxact += c * (nb - hi[i])
                        hi[i] = nb
                        moved.append(i)
                else:
                    nb = -(-slack // c)
                    if nb > lo[i]:
                        maxact += c * (nb - lo[i])
                        lo[i] = nb
                        moved.append(i)
                if lo[i] > hi[i]:
                    return False
            if lob is not None:
                need = lob - (maxact - (c * hi[i] if c > 0 else c * lo[i]))
                if c > 0:
                    nb = -(-need // c)
                    if nb > lo[i]:
                        minact += c * (nb - lo[i])
                        lo[i] = nb
                        moved.append(i)
                else:
                    nb = need // c
                    if nb < hi[i]:
                        minact += c * (nb - hi[i])
                        hi[i] = nb
                        moved.append(i)
                if lo[i] > hi[i]:
                    return False
        for i in moved:
            for s in occurs[i]:
                if not queued[s]:
                    queued[s] = 1
                    queue.append(s)
    return True


def solve(model: IlpModel) -> Optional[Solution]:
    """Minimize the objective over all integer points; None if infeasible.

    Depth-first branch and bound over the finite variable domains, branching
    on the first free variable, lower half first. Each node runs exact
    interval propagation over all constraints plus a cut on the incumbent
    value, so pruning decisions are exact as well. The rows are compiled
    once, with an index from each variable to the rows that mention it. The
    root propagates from every row; any other node starts from its parent's
    propagated box and queues only the rows of the branched variable, plus
    the cut once an incumbent exists (see _propagate). The search key
    combines the objective with per-variable position weights, which makes
    the returned optimum unique: later-declared variables are minimized
    first among equal-objective points.
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

    rows = _compile_rows(model.constraints, index)
    if rows is None:
        return None

    # comb[i] can be 0 when bounds fix variable i; rows must not carry zeros.
    # The cut stays open (inactive) until the first incumbent sets its hib.
    cut_support = tuple(i for i in range(n) if comb[i])
    cut = [cut_support, tuple(comb[i] for i in cut_support), None, None]
    rows.append(cut)
    cut_row = len(rows) - 1
    occurs = _occurrences(rows, n)
    best_key: Optional[int] = None
    best: Optional[list[int]] = None

    # Each entry owns its lists (children copy one side each), so nodes
    # narrow them in place. `branched` is None at the root.
    stack = [(root_lo, root_hi, None)]
    while stack:
        lo, hi, branched = stack.pop()
        if branched is None:
            seeds = range(len(rows))
        elif best_key is None:
            seeds = occurs[branched]
        else:
            cut[3] = best_key - 1
            seeds = occurs[branched] + [cut_row]
        if not _propagate(rows, occurs, lo, hi, seeds):
            continue
        for i in range(n):
            if lo[i] < hi[i]:
                mid = (lo[i] + hi[i]) // 2
                upper_lo = list(lo)
                upper_lo[i] = mid + 1
                stack.append((upper_lo, hi, i))
                lower_hi = list(hi)
                lower_hi[i] = mid
                stack.append((lo, lower_hi, i))
                break
        else:
            key = sum(c * v for c, v in zip(comb, lo))
            if best_key is None or key < best_key:
                best_key = key
                best = lo
    if best is None:
        return None
    assignment = dict(zip(ids, best))
    return Solution(assignment, sum(c * v for c, v in zip(obj, best)))
