"""Exact solver for bounded integer linear programs with a minimize objective.

All arithmetic is exact (Python integers); there is no floating point and no
tolerance anywhere. Among equal-objective optima the solver deterministically
returns the assignment that is smallest when variables are compared from the
last declared one backwards, so identical models always yield identical
solutions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
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


def _compile_rows(
    constraints: Sequence[LinearConstraint], index: Mapping[str, int], rows: list, raised: list, lowered: list
) -> None:
    """Append one row `(idxs, coeffs, lob, hib)` per constraint to `rows`,
    numbered on from the rows already there, and enter it in the wake lists
    of its variables: `raised[i]` holds the rows that can react when lo[i]
    rises, `lowered[i]` those that can react when hi[i] falls.

    A `<= hib` side reads the row's minimum activity, which takes lo[i]
    where c > 0 and hi[i] where c < 0; a `>= lob` side reads the maximum,
    which takes the other bound; an equality row reads both. A constraint
    without terms becomes a row without terms: no variable wakes it, and
    the root's pass over every row judges it against its own right-hand
    side. A wake list that gains rows is replaced by a longer copy, never
    extended, so a model sharing it (CompiledModel) is left as it was.
    """
    new_raised: dict[int, list[int]] = {}
    new_lowered: dict[int, list[int]] = {}
    for con in constraints:
        if con.relation == LE:
            lob, hib = None, con.rhs
        elif con.relation == GE:
            lob, hib = con.rhs, None
        else:
            lob, hib = con.rhs, con.rhs
        r = len(rows)
        try:
            idxs = tuple(map(index.__getitem__, con.terms))
        except KeyError as exc:
            raise ValueError(f"constraint references unknown variable {exc.args[0]!r}") from None
        coeffs = tuple(con.terms.values())
        for i, c in zip(idxs, coeffs):
            if hib is not None:
                (new_raised if c > 0 else new_lowered).setdefault(i, []).append(r)
            if lob is not None:
                (new_lowered if c > 0 else new_raised).setdefault(i, []).append(r)
        rows.append((idxs, coeffs, lob, hib))
    for i, extra in new_raised.items():
        raised[i] = raised[i] + extra
    for i, extra in new_lowered.items():
        lowered[i] = lowered[i] + extra


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """An IlpModel compiled for solve(): variables by position, rows with
    their wake lists, bounds and objective as lists.

    `variables` holds the variable ids in declaration order and
    `constraints` the rows `(idxs, coeffs, lob, hib)` of _compile_rows, one
    per declared constraint and in its order, so both have the lengths of
    the model's own tuples. `index` maps each id to its position, and
    `lower`, `upper` and `objective` are indexed like `variables`. Like
    IlpModel it is never changed after construction: with_rhs() returns a
    sibling with new right-hand sides and bounds that shares the terms and
    wake lists, and with_variables(), with_constraints() and
    with_objective() return an extended model that compiles only what it
    adds. Ids are read only there and in the solution, never in the search.
    """

    variables: Tuple[str, ...]
    index: Mapping[str, int]
    lower: list
    upper: list
    objective: list
    constraints: list
    raised: list
    lowered: list

    def with_rhs(self, rhs: Sequence[int], lower: Sequence[int], upper: Sequence[int]) -> "CompiledModel":
        """The same rows with right-hand side rhs[r] for row r (its
        relation kept) and variable i bounded to [lower[i], upper[i]]."""
        if len(rhs) != len(self.constraints) or len(lower) != len(upper) or len(lower) != len(self.variables):
            raise ValueError("with_rhs needs one rhs per row and one bound pair per variable")
        for vid, lb, ub in zip(self.variables, lower, upper):
            if lb > ub:
                raise ValueError(f"empty domain for {vid!r}: [{lb}, {ub}]")
        rows = [
            (idxs, coeffs, None if lob is None else b, None if hib is None else b)
            for (idxs, coeffs, lob, hib), b in zip(self.constraints, rhs)
        ]
        return CompiledModel(
            self.variables, self.index, list(lower), list(upper), self.objective, rows, self.raised, self.lowered
        )

    def with_variables(self, extra: Sequence[Variable]) -> "CompiledModel":
        """Variables declared after the existing ones, with objective 0."""
        index = dict(self.index)
        for v in extra:
            if v.id in index:
                raise ValueError("duplicate variable id")
            index[v.id] = len(index)
        return replace(
            self,
            variables=self.variables + tuple(v.id for v in extra),
            index=index,
            lower=self.lower + [v.lower for v in extra],
            upper=self.upper + [v.upper for v in extra],
            objective=self.objective + [0] * len(extra),
            raised=self.raised + [[] for _ in extra],
            lowered=self.lowered + [[] for _ in extra],
        )

    def with_constraints(self, extra: Sequence[LinearConstraint]) -> "CompiledModel":
        """Rows declared after the existing ones."""
        rows, raised, lowered = list(self.constraints), list(self.raised), list(self.lowered)
        _compile_rows(extra, self.index, rows, raised, lowered)
        return replace(self, constraints=rows, raised=raised, lowered=lowered)

    def with_objective(self, objective: Mapping[str, int]) -> "CompiledModel":
        """The same model minimizing `objective` instead."""
        obj = [0] * len(self.variables)
        for v, c in objective.items():
            if v not in self.index:
                raise ValueError(f"objective references unknown variable {v!r}")
            obj[self.index[v]] = _check_int(c, f"objective coefficient of {v!r}")
        return replace(self, objective=obj)


def compile_model(model: IlpModel) -> CompiledModel:
    """Compile every row of `model` once (see _compile_rows)."""
    empty = CompiledModel((), {}, [], [], [], [], [], [])
    compiled = empty.with_variables(model.variables).with_constraints(model.constraints)
    return compiled.with_objective(model.objective)


class _Cut:
    """The incumbent cut `sum(comb[i] * x[i]) <= bound` of solve(), kept
    apart from the rows because it is dense.

    `up[i]` is comb[i] where positive and `down[i]` where negative, else 0,
    so the cut's minimum activity on a box is sum(up[i]*lo[i] + down[i]*hi[i]).
    `act` holds that activity for the box being propagated; _propagate reads
    it and keeps it current as bounds move. `bound` is None until the first
    incumbent. `terms` lists (i, comb[i], |comb[i]|) by descending
    |comb[i]|, zeros left out; _propagate builds and sorts it on the cut's
    first pass, so a solve that pops no node after its first incumbent, as
    every solve that ends at the root, never sorts. `reach` bounds the
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
            if cut.terms is None:
                # `u or d` is comb[i] itself, so the terms share its integers.
                cut.terms = [(i, u or d, abs(u or d)) for i, (u, d) in enumerate(zip(up, down)) if u or d]
                cut.terms.sort(key=lambda term: term[2], reverse=True)
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


def solve(model: IlpModel | CompiledModel) -> Optional[Solution]:
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

    Each node runs exact interval propagation over all constraints plus a
    cut `key <= best key - 1` once an incumbent exists, so pruning decisions
    are exact as well. The root propagates from every row, rows without
    terms included; any other node starts from its parent's propagated box
    and queues only the rows woken by the bound its branch moved (see
    _compile_rows), plus the cut. The cut's minimum activity travels with
    each stack entry: the root sums it once, a child adds the branch's
    move, and _propagate adds every later move, so at a leaf (lo == hi) it
    is the key.
    """
    if isinstance(model, IlpModel):
        model = compile_model(model)
    n = len(model.variables)
    root_lo = list(model.lower)
    root_hi = list(model.upper)

    # Mixed-radix weights: the tie-break key of an assignment is unique.
    weights = [0] * n
    acc = 1
    for i in range(n):
        weights[i] = acc
        acc *= root_hi[i] - root_lo[i] + 1
    big = acc  # exceeds any possible tie-break key difference

    obj = model.objective
    comb = [big * obj[i] + weights[i] for i in range(n)]
    rows, raised, lowered = model.constraints, model.raised, model.lowered

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
    assignment = dict(zip(model.variables, best))
    return Solution(assignment, sum(c * v for c, v in zip(obj, best)))
