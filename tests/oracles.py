"""Independent brute-force oracles.

Everything here recomputes results straight from the definitions with its
own arithmetic, so the oracles share no code path with the solver-backed
implementations they check.
"""

import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from operator import mul
from typing import Mapping, Optional

from ttsynth import ilp
from ttsynth import io as net_io
from ttsynth.core import LabelledNet, Multiset, Specification, StateGraph
from ttsynth.synthesis import SynthesisResult


def net_rise(ln: LabelledNet, marking: dict, e: str) -> int:
    rise = 0
    for (src, tgt), w in ln.net.arcs.items():
        if src == e:
            rise += w * marking.get(tgt, 0)
        elif tgt == e:
            rise -= w * marking.get(src, 0)
    return rise


def net_inflow(ln: LabelledNet, marking: dict, e: str) -> int:
    return sum(w * marking.get(src, 0) for (src, tgt), w in ln.net.arcs.items() if tgt == e)


def initial_sum(ln: LabelledNet, marking: dict) -> int:
    return sum(n * marking.get(p, 0) for p, n in ln.initial.items())


def is_region_point(spec: Specification, marking: dict, k: int, finals=None) -> bool:
    """Evaluate the region conditions directly on one candidate point."""
    if any(v > k or v < 0 for v in marking.values()):
        return False
    rise_by_label: dict[str, int] = {}
    for ln in spec.nets:
        for e in ln.net.transitions:
            label = ln.labels[e]
            value = net_rise(ln, marking, e)
            if label in rise_by_label and rise_by_label[label] != value:
                return False
            rise_by_label[label] = value
    sums = [initial_sum(ln, marking) for ln in spec.nets]
    if any(s != sums[0] for s in sums):
        return False
    if finals and any(marking.get(p, 0) for p in finals.values()):
        return False
    return True


def first_region_violation(spec: Specification, marking: dict, k: int):
    """(condition, witness) of the first violated region condition, or
    (None, None): bounds in the marking's order, then each transition's rise
    against its label's first carrier in net order ("first/e"), then each
    net's initial sum against net 1's ("net 1 vs net N")."""
    for p, v in marking.items():
        if v > k:
            return "bound", p
    first_of_label: dict[str, tuple[str, int]] = {}
    for ln in spec.nets:
        for e in ln.net.transitions:
            rise = net_rise(ln, marking, e)
            first, first_rise = first_of_label.setdefault(ln.labels[e], (e, rise))
            if rise != first_rise:
                return "rise", f"{first}/{e}"
    for idx, ln in enumerate(spec.nets[1:], start=2):
        if initial_sum(ln, marking) != initial_sum(spec.nets[0], marking):
            return "initial-sum", f"net 1 vs net {idx}"
    return None, None


def parikh_classes(spec: Specification) -> dict:
    """Map every place, in place order, to the last place in place order
    with the same key. A place of a net with one token and transitions of
    one input and one output arc of weight 1 each, whose places a walk
    from the marked place reaches, is keyed on its signed label counts:
    the walk goes breadth first, taking each transition in net order
    forwards (+1 at its label) and then backwards (-1), and counts that
    come to 0 are dropped. Every other place is a key of its own."""
    key_of: dict = {}
    for ln in spec.nets:
        ends = {t: ([], []) for t in ln.net.transitions}
        for (src, tgt), w in ln.net.arcs.items():
            if tgt in ends:
                ends[tgt][0].append((src, w))
            else:
                ends[src][1].append((tgt, w))
        counts: dict = {}
        machine = sum(n for _, n in ln.initial.items()) == 1 and all(
            [w for _, w in pre] == [1] == [w for _, w in post] for pre, post in ends.values()
        )
        if machine:
            root = next(iter(ln.initial))
            counts[root] = {}
            todo = [root]
            while todo:
                here = todo.pop(0)
                for t in ln.net.transitions:
                    (p, _), (q, _) = ends[t][0][0], ends[t][1][0]
                    for a, b, sign in ((p, q, 1), (q, p, -1)):
                        if a == here and b not in counts:
                            vector = dict(counts[here])
                            vector[ln.labels[t]] = vector.get(ln.labels[t], 0) + sign
                            counts[b] = {label: n for label, n in vector.items() if n}
                            todo.append(b)
        for p in ln.net.places:
            key_of[p] = frozenset(counts[p].items()) if len(counts) == len(ln.net.places) else ("own", p)
    last = {key: p for p, key in key_of.items()}
    return {p: last[key] for p, key in key_of.items()}


def induced_place(spec: Specification, marking: dict) -> tuple:
    """(consume, produce, initial) of the place a region induces, as lists
    of (label, weight) in order of the labels' first transitions, zeros
    left out: per label the least inflow over its transitions, and that
    plus the rise of its first transition; net 1's initial sum."""
    least: dict[str, int] = {}
    rise: dict[str, int] = {}
    for ln in spec.nets:
        for e in ln.net.transitions:
            label = ln.labels[e]
            inflow = net_inflow(ln, marking, e)
            least[label] = min(least.get(label, inflow), inflow)
            rise.setdefault(label, net_rise(ln, marking, e))
    consume = [(label, n) for label, n in least.items() if n]
    produce = [(label, n + rise[label]) for label, n in least.items() if n + rise[label]]
    return consume, produce, initial_sum(spec.nets[0], marking)


def brute_force_minimal_regions(spec: Specification, k: int, finals=None) -> set[Multiset]:
    """Componentwise-minimal nonzero points satisfying the region conditions."""
    places = spec.all_places()
    feasible = []
    for point in itertools.product(range(k + 1), repeat=len(places)):
        if not any(point):
            continue
        marking = dict(zip(places, point))
        if is_region_point(spec, marking, k, finals):
            feasible.append(Multiset({p: v for p, v in marking.items() if v}))
    return {
        m for m in feasible
        if not any(other != m and other <= m for other in feasible)
    }


def feasible_points(model: ilp.IlpModel):
    """Every feasible point of `model` as {id: value}, in lexicographic
    order (the first variable most significant); plain enumeration of the
    variable box."""
    ids = [v.id for v in model.variables]
    rows = [
        (tuple(ids.index(v) for v in con.terms), tuple(con.terms.values()), con.relation, con.rhs)
        for con in model.constraints
    ]
    for point in itertools.product(*(range(v.lower, v.upper + 1) for v in model.variables)):
        for idxs, cs, relation, rhs in rows:
            total = sum(c * point[i] for i, c in zip(idxs, cs))
            if (
                (relation == ilp.LE and total > rhs)
                or (relation == ilp.GE and total < rhs)
                or (relation == ilp.EQ and total != rhs)
            ):
                break
        else:
            yield dict(zip(ids, point))


def first_feasible_point(model: ilp.IlpModel):
    """The lexicographically least feasible point as {id: value}, or None."""
    return next(feasible_points(model), None)


def brute_force_ilp(model: ilp.IlpModel, objective: Mapping):
    """The feasible point that minimizes `objective` ({id: coefficient}),
    ties going to the point least when compared from the last variable
    back, as {id: value}; None if the model is infeasible."""

    def key(assignment):
        return sum(c * assignment[v] for v, c in objective.items()), tuple(reversed(assignment.values()))

    return min(feasible_points(model), key=key, default=None)


def brute_force_minimal_points(model: ilp.IlpModel) -> list:
    """The feasible points (value tuples in variable order) that lie
    componentwise above no other feasible point, in lexicographic order;
    plain enumeration of the variable box."""
    feasible = [tuple(point.values()) for point in feasible_points(model)]
    return [x for x in feasible if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in feasible)]


@dataclass(frozen=True)
class AssignmentCheck:
    ok: bool
    violated: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_assignment(model: ilp.IlpModel, assignment: Mapping[str, int]) -> AssignmentCheck:
    """Verify bounds and every constraint; name the first violation."""
    for v in model.variables:
        if v.id not in assignment:
            raise ValueError(f"assignment misses variable {v.id!r}")
        val = assignment[v.id]
        if not (v.lower <= val <= v.upper):
            return AssignmentCheck(False, f"bound {v.id} in [{v.lower}, {v.upper}]")
    for idx, con in enumerate(model.constraints):
        total = sum(c * assignment[v] for v, c in con.terms.items())
        ok = (total <= con.rhs) if con.relation == ilp.LE else (total >= con.rhs) if con.relation == ilp.GE else (total == con.rhs)
        if not ok:
            return AssignmentCheck(False, f"constraint {idx}: {con.render()}")
    return AssignmentCheck(True)


def interval_fixpoint(model: ilp.IlpModel, lo: list, hi: list):
    """Greatest box inside [lo, hi] on which no constraint tightens a bound
    by interval reasoning, as (lo, hi) lists; None if that box is empty.

    Each side `sum(c * x) <= h` of a constraint bounds c * x_v by h minus the
    least value the other terms can take; the sides are swept naively until
    nothing moves.
    """
    pos = {v.id: i for i, v in enumerate(model.variables)}
    lo, hi = list(lo), list(hi)
    sides = []
    for con in model.constraints:
        terms = [(pos[v], c) for v, c in con.terms.items()]
        if con.relation in (ilp.LE, ilp.EQ):
            sides.append((terms, con.rhs))
        if con.relation in (ilp.GE, ilp.EQ):
            sides.append(([(i, -c) for i, c in terms], -con.rhs))
    if any(not terms and h < 0 for terms, h in sides):
        return None
    changed = True
    while changed:
        changed = False
        for terms, h in sides:
            for i, c in terms:
                rest = sum(min(d * lo[j], d * hi[j]) for j, d in terms if j != i)
                room = h - rest  # c * x_i <= room
                if c > 0 and room // c < hi[i]:
                    hi[i] = room // c
                    changed = True
                elif c < 0 and -(room // -c) > lo[i]:
                    lo[i] = -(room // -c)
                    changed = True
                if lo[i] > hi[i]:
                    return None
    return lo, hi


def first_leaf(model: ilp.IlpModel):
    """(assignment, nodes) of a plain depth-first search that stops at its
    first leaf, as ilp.solve documents: the assignment ({id: value}) is
    None if the model is infeasible, and nodes counts the boxes
    propagated. Every node sweeps all constraints with interval_fixpoint,
    then branches on the first free variable, lower half first."""
    nodes = 0

    def visit(lo, hi):
        nonlocal nodes
        nodes += 1
        box = interval_fixpoint(model, lo, hi)
        if box is None:
            return None
        lo, hi = box
        free = [i for i in range(len(lo)) if lo[i] < hi[i]]
        if not free:
            return lo
        i = free[0]
        mid = (lo[i] + hi[i]) // 2
        point = visit(lo, hi[:i] + [mid] + hi[i + 1:])
        return point if point is not None else visit(lo[:i] + [mid + 1] + lo[i + 1:], hi)

    point = visit([v.lower for v in model.variables], [v.upper for v in model.variables])
    return (None if point is None else {v.id: x for v, x in zip(model.variables, point)}), nodes


def reference_bnb(model: ilp.IlpModel, objective: Mapping):
    """(assignment, nodes) of a plain branch and bound that minimizes
    `objective` ({id: coefficient}), ties going to the point least when
    compared from the last variable back: the assignment ({id: value}) is
    None if the model is infeasible, and nodes counts the boxes
    propagated. Solving round by round (regions_round_by_round) runs it,
    and regions._discovery_order replays the order it finds regions in.

    The key of a point is big * objective + sum(weight[i] * x[i]), with
    mixed-radix weights over the declared ranges and big their product.
    Every node sweeps all constraints, plus the cut `key <= best - 1` as an
    explicit constraint once a point is known, with interval_fixpoint; it
    then branches on the first free variable, lower half first.
    """
    ids = [v.id for v in model.variables]
    weights, big = [], 1
    for v in model.variables:
        weights.append(big)
        big *= v.upper - v.lower + 1
    key = {vid: big * objective.get(vid, 0) + w for vid, w in zip(ids, weights)}
    best = None  # (key, point)
    nodes = 0

    def visit(lo, hi):
        nonlocal best, nodes
        nodes += 1
        cut = () if best is None else (ilp.LinearConstraint(key, ilp.LE, best[0] - 1),)
        box = interval_fixpoint(ilp.IlpModel(model.variables, model.constraints + cut), lo, hi)
        if box is None:
            return
        lo, hi = box
        free = [i for i in range(len(lo)) if lo[i] < hi[i]]
        if not free:
            value = sum(key[v] * x for v, x in zip(ids, lo))
            if best is None or value < best[0]:
                best = (value, lo)
            return
        i = free[0]
        mid = (lo[i] + hi[i]) // 2
        visit(lo, hi[:i] + [mid] + hi[i + 1:])
        visit(lo[:i] + [mid + 1] + lo[i + 1:], hi)

    visit([v.lower for v in model.variables], [v.upper for v in model.variables])
    return (None if best is None else dict(zip(ids, best[1]))), nodes


def trail_model(ln: LabelledNet, pb, bound: int) -> ilp.IlpModel:
    """The trail search of one place behaviour as its own IlpModel: one
    [0, bound] variable per place; per transition, in order, an inflow row
    (preset weights >= what the label consumes) and a balance row (postset
    minus preset weights == the label's rise); then the initial-sum row.

    Built straight from the arcs for every call, as find_token_trail did
    before it compiled a net's rows once; solving it is the reference for
    the compiled path.
    """
    constraints = []
    for e in ln.net.transitions:
        inflow = {src: w for (src, tgt), w in ln.net.arcs.items() if tgt == e}
        balance = dict.fromkeys(ln.net.places, 0)
        for (src, tgt), w in ln.net.arcs.items():
            if src == e:
                balance[tgt] += w
            elif tgt == e:
                balance[src] -= w
        label = ln.labels[e]
        constraints.append(ilp.LinearConstraint(inflow, ilp.GE, pb.consume.get(label, 0)))
        constraints.append(ilp.LinearConstraint(balance, ilp.EQ, pb.rise(label)))
    constraints.append(ilp.LinearConstraint(dict(ln.initial.items()), ilp.EQ, pb.initial))
    variables = tuple(ilp.Variable(p, 0, bound) for p in ln.net.places)
    return ilp.IlpModel(variables, tuple(constraints))


def raw_region_model(problem) -> ilp.IlpModel:
    """The region model of `problem` with one [0, k] variable per place, as
    enumeration solved it before it built the model over Parikh classes.

    Rows, in order: per label, a rise equality between its first transition
    and every later one (postset minus preset weights); an initial-sum
    equality between net 1 and every later net; in discovery mode a zero
    equality per net's final place, the one named in problem.final_places
    or else the only place without outgoing arcs (ValueError if there is
    none or several); last the seek row sum(places) >= 1, whose terms are
    also the objective that regions_round_by_round minimizes. Rows without
    terms and repeats are kept.

    Built straight from the arcs; solving it round by round
    (regions_round_by_round) is the reference for the regions, their order
    and the search tree of the raw model.
    """
    spec = problem.spec
    constraints = []
    first_rise = {}
    for ln in spec.nets:
        for e in ln.net.transitions:
            rise = dict.fromkeys(ln.net.places, 0)
            for (src, tgt), w in ln.net.arcs.items():
                if src == e:
                    rise[tgt] += w
                elif tgt == e:
                    rise[src] -= w
            label = ln.labels[e]
            if label not in first_rise:
                first_rise[label] = rise
                continue
            terms = dict(first_rise[label])
            for p, c in rise.items():
                terms[p] = terms.get(p, 0) - c
            constraints.append(ilp.LinearConstraint(terms, ilp.EQ, 0))
    for ln in spec.nets[1:]:
        terms = dict(spec.nets[0].initial.items())
        for p, n in ln.initial.items():
            terms[p] = terms.get(p, 0) - n
        constraints.append(ilp.LinearConstraint(terms, ilp.EQ, 0))
    if problem.mode == "discovery":
        overrides = problem.final_places or {}
        for idx, ln in enumerate(spec.nets):
            if idx in overrides:
                final = overrides[idx]
            else:
                sinks = [p for p in ln.net.places if not any(src == p for src, _ in ln.net.arcs)]
                if len(sinks) != 1:
                    raise ValueError(f"no unique final place in net {idx + 1}")
                final = sinks[0]
            constraints.append(ilp.LinearConstraint({final: 1}, ilp.EQ, 0))
    places = spec.all_places()
    seek = dict.fromkeys(places, 1)
    constraints.append(ilp.LinearConstraint(seek, ilp.GE, 1))
    variables = tuple(ilp.Variable(p, 0, problem.k) for p in places)
    return ilp.IlpModel(variables, tuple(constraints))


def block_region(model: ilp.IlpModel, found: dict, k: int, round_no: int) -> ilp.IlpModel:
    """`model` with the point `found` (variable -> positive value, in
    order) and every point above it excluded.

    Per component (v, s) of `found`, a binary (round_no, v) is declared
    after the model's variables, with the rows v + k * flag >= s and
    v + k * flag <= s + k - 1, which on [0, k] make the flag 1 exactly
    when v < s; then sum(flags) >= 1, so some component lies below s.
    Pairs never equal a place id, which is a string. `round_no` must differ
    between the blocks added to one model.
    """
    if not found:
        raise ValueError("cannot block the all-zero region")
    binaries, constraints = [], []
    for v, s in found.items():
        flag = (round_no, v)
        binaries.append(ilp.Variable(flag, 0, 1))
        constraints.append(ilp.LinearConstraint({v: 1, flag: k}, ilp.GE, s))
        constraints.append(ilp.LinearConstraint({v: 1, flag: k}, ilp.LE, s + k - 1))
    constraints.append(ilp.LinearConstraint({v.id: 1 for v in binaries}, ilp.GE, 1))
    return ilp.IlpModel(model.variables + tuple(binaries), model.constraints + tuple(constraints))


def regions_round_by_round(model: ilp.IlpModel, classes: Mapping[str, str], k: int, max_regions=None):
    """(markings, truncated, nodes): the regions of the region model
    `model`, whose variables are the classes of `classes` (place -> class)
    and whose last row is the seek row, in the order that solving it round
    by round finds them, and the nodes of all those searches.

    Each round minimizes the seek row's sum (reference_bnb), maps the
    optimum's class values to the places, and blocks the class values
    (block_region) until the model turns infeasible; with max_regions, the
    round after the last one wanted only tells whether more regions exist.
    """
    objective = model.constraints[-1].terms
    found, nodes = [], 0
    while True:
        values, searched = reference_bnb(model, objective)
        nodes += searched
        if values is None:
            return found, False, nodes
        if max_regions is not None and len(found) >= max_regions:
            return found, True, nodes
        found.append({p: values[c] for p, c in classes.items() if values[c]})
        class_values = {c: values[c] for p, c in classes.items() if p == c and values[c]}
        model = block_region(model, class_values, k, len(found))


def discovery_order_by_rounds(points: list, objective: list) -> list:
    """The minimal points `points` (tuples of class values) in discovery
    order, sorted the way regions._discovery_order did before it ordered
    one objective group at a time: sort all points by (objective, class
    values from the last back), then after each pick stable-sort all the
    rest by (objective, the pick's binaries from its last support class
    back), a binary being 1 where a point lies below the pick's value.
    O(R^2 log R) for R points; the reference for _discovery_order.
    """
    ranked = sorted(((sum(map(mul, objective, x)), x) for x in points), key=lambda e: (e[0], e[1][::-1]))
    order = []
    while ranked:
        _, pick = ranked.pop(0)
        order.append(pick)
        support = [(i, s) for i, s in reversed(list(enumerate(pick))) if s]
        ranked.sort(key=lambda e: (e[0], [e[1][i] < s for i, s in support]))
    return order


def classical_state_regions(sg: StateGraph) -> set[frozenset]:
    """Subsets of states where each label uniformly enters, exits, or does
    not cross; the textbook region condition for state graphs."""
    by_label: dict[str, list[tuple]] = {}
    for src, label, tgt in sg.arcs:
        by_label.setdefault(label, []).append((src, tgt))
    regions = set()
    states = list(sg.states)
    for bits in range(2 ** len(states)):
        inside = {s for i, s in enumerate(states) if bits >> i & 1}
        ok = True
        for pairs in by_label.values():
            kinds = set()
            for src, tgt in pairs:
                if src in inside and tgt not in inside:
                    kinds.add("exit")
                elif src not in inside and tgt in inside:
                    kinds.add("enter")
                else:
                    kinds.add("stay")
            if len(kinds) > 1:
                ok = False
                break
        if ok:
            regions.add(frozenset(inside))
    return regions


def _successors(sg: StateGraph) -> dict:
    succ = {}
    for src, label, tgt in sg.arcs:
        if (src, label) in succ and succ[(src, label)] != tgt:
            raise ValueError("state graph is not deterministic")
        succ[(src, label)] = tgt
    return succ


def lts_isomorphic(g1: StateGraph, g2: StateGraph) -> bool:
    """Isomorphism of rooted deterministic labelled graphs via paired BFS."""
    if len(g1.states) != len(g2.states) or len(g1.arcs) != len(g2.arcs):
        return False
    s1, s2 = _successors(g1), _successors(g2)
    out1: dict = {}
    out2: dict = {}
    for (src, label), _tgt in s1.items():
        out1.setdefault(src, set()).add(label)
    for (src, label), _tgt in s2.items():
        out2.setdefault(src, set()).add(label)
    fwd = {g1.initial: g2.initial}
    bwd = {g2.initial: g1.initial}
    todo = [(g1.initial, g2.initial)]
    while todo:
        a, b = todo.pop()
        la, lb = out1.get(a, set()), out2.get(b, set())
        if la != lb:
            return False
        for label in sorted(la):
            na, nb = s1[(a, label)], s2[(b, label)]
            if na in fwd or nb in bwd:
                if fwd.get(na) != nb or bwd.get(nb) != na:
                    return False
            else:
                fwd[na] = nb
                bwd[nb] = na
                todo.append((na, nb))
    return len(fwd) == len(g1.states)


def relabel_arcs(sg: StateGraph, mapping: dict) -> StateGraph:
    """Project arc labels through a mapping (e.g. transition id to label)."""
    return StateGraph(
        sg.states,
        sg.initial,
        tuple((src, mapping.get(label, label), tgt) for src, label, tgt in sg.arcs),
    )


def write_pnml_by_element_tree(obj) -> bytes:
    """write_pnml as it was before it wrote the text itself: an element
    tree, laid out by ET.indent and serialized by ElementTree, which
    writes a carriage return in text content raw. The reference for the
    bytes write_pnml gives."""
    source_regions = {}
    if isinstance(obj, SynthesisResult):
        for pid, place in zip(obj.net.net.places, obj.places):
            if place.source_region is not None:
                source_regions[pid] = place.source_region
    ln = net_io._as_labelled(obj)

    root = ET.Element("pnml", {"xmlns": net_io.PNML_NS})
    net_elem = ET.SubElement(root, "net", {"id": "net1", "type": net_io.PTNET_TYPE})
    page = ET.SubElement(net_elem, "page", {"id": "page1"})
    for pid in ln.net.places:
        place_elem = ET.SubElement(page, "place", {"id": pid})
        if ln.initial[pid]:
            entry = ET.SubElement(place_elem, "initialMarking")
            ET.SubElement(entry, "text").text = str(ln.initial[pid])
        if pid in source_regions:
            tool = ET.SubElement(place_elem, "toolspecific", {"tool": net_io.TOOL_NAME, "version": "1"})
            marking = source_regions[pid].marking
            tool.text = " ".join(f"{p}={marking[p]}" for p in marking)
    for tid in ln.net.transitions:
        trans_elem = ET.SubElement(page, "transition", {"id": tid})
        name = ET.SubElement(trans_elem, "name")
        ET.SubElement(name, "text").text = ln.labels[tid]
    for idx, ((src, tgt), weight) in enumerate(sorted(ln.net.arcs.items()), start=1):
        arc_elem = ET.SubElement(page, "arc", {"id": f"a{idx}", "source": src, "target": tgt})
        if weight > 1:
            inscription = ET.SubElement(arc_elem, "inscription")
            ET.SubElement(inscription, "text").text = str(weight)
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"
