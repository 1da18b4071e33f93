"""Petri net synthesis from labelled-net specifications.

A specification is a set of labelled Petri nets. The toolkit enumerates all
minimal token-trail regions up to a bound k in one exact search of the
region ILP's minimal points and builds a net with one place per region; the
result can simulate every input net.
"""

from .core import (
    LabelledNet,
    MarkedPetriNet,
    Marking,
    Multiset,
    PetriNet,
    Specification,
    StateGraph,
    build_specification,
    enabled_transitions,
    fire,
    preset,
    postset,
    reachability_graph,
)
from .convert import run_to_labelled_net, state_graph_to_labelled_net, trace_to_labelled_net
from .regions import Region, RegionProblem, enumerate_minimal_regions, verify_region
from .semantics import (
    PlaceBehavior,
    Run,
    TokenTrail,
    find_token_trail,
    is_enabled,
    is_valid_compact_token_flow,
    is_valid_token_trail,
)
from .synthesis import PlaceDefinition, SynthesisResult, place_from_region, synthesize

__version__ = "0.1.0"

__all__ = [
    "LabelledNet",
    "MarkedPetriNet",
    "Marking",
    "Multiset",
    "PetriNet",
    "PlaceBehavior",
    "PlaceDefinition",
    "Region",
    "RegionProblem",
    "Run",
    "Specification",
    "StateGraph",
    "SynthesisResult",
    "TokenTrail",
    "build_specification",
    "enabled_transitions",
    "enumerate_minimal_regions",
    "find_token_trail",
    "fire",
    "is_enabled",
    "is_valid_compact_token_flow",
    "is_valid_token_trail",
    "place_from_region",
    "postset",
    "preset",
    "reachability_graph",
    "run_to_labelled_net",
    "state_graph_to_labelled_net",
    "synthesize",
    "trace_to_labelled_net",
    "verify_region",
]
