"""Times a workload's set-up in a fresh interpreter and prints the seconds.

    python3 benchmarks/setup_probe.py --workload NAME --inputs DIR

Set-up is: import hlsforge, load the source datasets, parse and enumerate every
template, and build the flow specs. Interpreter start-up and the benchmark's
own imports are not counted.
"""

import argparse
import sys
import time
from pathlib import Path

import gen
import workload


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    args = parser.parse_args()
    start = time.perf_counter()
    from hlsforge.cli import build_flow_specs
    from hlsforge.core import OPT_TEMPLATE_FILENAME, load_dataset
    from hlsforge.optdsl import enumerate_design_space, parse_opt_template
    datasets = sorted(p.name for p in args.inputs.iterdir() if p.is_dir())
    collection = {name: load_dataset(args.inputs / name, name) for name in datasets}
    points = 0
    for dataset in collection.values():
        for design in dataset.designs:
            template = parse_opt_template((design.source_dir / OPT_TEMPLATE_FILENAME).read_text())
            points += enumerate_design_space(template).size
    specs = [build_flow_specs(raw) for raw in workload.raw_flow_sets(args.workload)]
    elapsed = time.perf_counter() - start
    if points < 1 or not all(specs):
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
