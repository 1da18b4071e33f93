"""Turn regions into places and union the one-place nets into the result.

Each region induces one place: per label, the consumed weight is the minimal
inflow over all transitions carrying the label, the produced weight follows
from the label's rise, and the initial tokens are the region's initial sum.
The union of these one-place nets over all minimal regions is the
synthesized net; every input net stays simulatable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core import MarkedPetriNet, Multiset, PetriNet, Specification
from .regions import Region, RegionProblem, enumerate_minimal_regions, verify_region
from .semantics import PlaceBehavior


@dataclass(frozen=True)
class PlaceDefinition(PlaceBehavior):
    """Arc weights per label plus initial tokens for one synthesized place,
    with the region it came from.

    Labels absent from both mappings are unconnected to the place.
    """

    source_region: Optional[Region] = None

    def key(self) -> tuple:
        return (
            tuple(sorted(self.consume.items())),
            tuple(sorted(self.produce.items())),
            self.initial,
        )

    def is_zero(self) -> bool:
        return not self.consume and not self.produce and self.initial == 0


@dataclass(frozen=True)
class SynthesisResult:
    """The synthesized net, one transition per label in alphabet order; the
    definition of each place, the regions found, and whether the cap cut them."""

    net: MarkedPetriNet
    places: Tuple[PlaceDefinition, ...]
    regions: Tuple[Region, ...] = ()
    truncated: bool = False


def place_from_region(spec: Specification, region: Region) -> PlaceDefinition:
    """Build the most restrictive place the region can witness, as
    verify_region reads it off the region's arcs."""
    check = verify_region(spec, region)
    if not check:
        raise ValueError(f"invalid region: condition {check.condition} at {check.witness}")
    place = check.place
    return PlaceDefinition(place.consume, place.produce, place.initial, region)


def dedupe_places(places: Sequence[PlaceDefinition]) -> list[PlaceDefinition]:
    """Keep the first occurrence of each (consume, produce, initial) triple."""
    seen: set[tuple] = set()
    kept = []
    for place in places:
        key = place.key()
        if key not in seen:
            seen.add(key)
            kept.append(place)
    return kept


def assemble_net(alphabet: Sequence[str], places: Sequence[PlaceDefinition]) -> MarkedPetriNet:
    """One transition per label, one place per definition, ids p1, p2, ...;
    while one of these would equal a label, underscores are prepended to
    the "p" ("_p1"), so places and transitions never share an id."""
    labels = set(alphabet)
    stem = "p"
    while any(f"{stem}{i}" in labels for i in range(1, len(places) + 1)):
        stem = "_" + stem
    place_ids = [f"{stem}{i}" for i in range(1, len(places) + 1)]
    arcs: dict[tuple[str, str], int] = {}
    marking: dict[str, int] = {}
    for pid, place in zip(place_ids, places):
        for label, w in place.consume.items():
            arcs[(pid, label)] = w
        for label, w in place.produce.items():
            arcs[(label, pid)] = w
        if place.initial:
            marking[pid] = place.initial
    net = PetriNet(tuple(place_ids), tuple(alphabet), Multiset(arcs))
    return MarkedPetriNet(net, Multiset(marking))


def synthesize(problem: RegionProblem) -> SynthesisResult:
    """Enumerate minimal regions and union their places into one net.

    Duplicate places (identical consume/produce/initial) and all-zero places
    are dropped; every kept place keeps a reference to its source region.
    """
    enumeration = enumerate_minimal_regions(problem)
    candidates = [place_from_region(problem.spec, r) for r in enumeration.regions]
    kept = [p for p in dedupe_places(candidates) if not p.is_zero()]
    return SynthesisResult(
        net=assemble_net(problem.spec.alphabet(), kept),
        places=tuple(kept),
        regions=enumeration.regions,
        truncated=enumeration.truncated,
    )
