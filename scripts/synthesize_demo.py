#!/usr/bin/env python3
"""Walk the three desk fixtures through the whole pipeline.

For each fixture the script prints the minimal-region table at the chosen
bound and the synthesized net, each place with what every label takes from
it and puts on it.

    python3 scripts/synthesize_demo.py [-k K] [--dot-dir DIR]
"""

import argparse
from pathlib import Path

from ttsynth import io as net_io
from ttsynth.convert import trace_to_labelled_net
from ttsynth.core import build_specification
from ttsynth.regions import RegionProblem
from ttsynth.synthesis import synthesize

FIXTURES = {
    "two-step chain (a b)": [("a", "b")],
    "duplicate labels (a a)": [("a", "a")],
    "shared label, two nets (a | a)": [("a",), ("a",)],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", type=int, default=1, help="region bound (default 1)")
    parser.add_argument("--mode", choices=["synthesis", "discovery"], default="synthesis")
    parser.add_argument("--dot-dir", default=None, help="write one DOT file per fixture")
    args = parser.parse_args()

    for title, traces in FIXTURES.items():
        spec = build_specification([trace_to_labelled_net(t) for t in traces])
        result = synthesize(RegionProblem(spec, args.k, args.mode))
        print(f"== {title} (k={args.k}, {args.mode})")
        print(net_io.format_region_table(spec.all_places(), [p.source_region for p in result.places]))
        print(f"synthesized: {len(result.net.net.places)} places, "
              f"{len(result.net.net.transitions)} transitions, "
              f"{len(dict(result.net.net.arcs.items()))} arcs")
        for pid, place in zip(result.net.net.places, result.places):
            parts = []
            for label in result.net.labels.values():
                if place.consume.get(label):
                    parts.append(f"{label} takes {place.consume[label]}")
                if place.produce.get(label):
                    parts.append(f"{label} puts {place.produce[label]}")
            print(f"  {pid}: tokens={place.initial}  " + ("; ".join(parts) if parts else "isolated"))
        print()
        if args.dot_dir:
            directory = Path(args.dot_dir)
            directory.mkdir(parents=True, exist_ok=True)
            name = title.split(" (")[0].replace(" ", "-").replace(",", "")
            target = directory / f"{name}-k{args.k}.dot"
            target.write_text(net_io.export_dot(result), encoding="utf-8")
            print(f"wrote {target}\n")


if __name__ == "__main__":
    main()
