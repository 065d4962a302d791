"""Seeded generator of the synthetic source datasets each workload runs on.

A base design is one directory holding ``opt_template.tcl``, ``mock_manifest.json``
and a C source whose loops and arrays carry ``// HLSFORGE_LABEL:`` anchors. The
seed picks trip counts, operation counts, array shapes, which loops are
pipelined and (for external flows) the scripted sleep of each job; the shape of
every space (loop count per base, choice lists) is fixed per workload, so seeds
vary the inputs without moving the amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

UNROLL_CHOICES = (1, 2, 4, 8, 16, 32, 64, 128)
PARTITION_CHOICES = ("cyclic-2", "cyclic-4", "block-2", "block-4")
N_ARRAYS = 2
# loops per base cycle through these, so spaces run 2^19 (below the sampler's
# 2^20 shuffle limit) to 2^22 and 2^25 points (above it)
LOOP_COUNTS = (5, 6, 7)
STRAGGLER_SLEEP_S = 0.4

# Per workload: vendor, datasets as (name, n_bases), samples per base (per
# round), and the flows. external_skew runs a second round at twice the samples.
WORKLOADS = {
    "xilinx_sample": {"vendor": "xilinx", "datasets": (("suite", 40),), "samples": 75,
                      "flows": "mock"},
    "external_skew": {"vendor": "xilinx", "datasets": (("ext_a", 8), ("ext_b", 8)),
                      "samples": 4, "flows": "external"},
    "intel_ab": {"vendor": "intel", "datasets": (("suite", 20),), "samples": 75,
                 "flows": "mock"},
}
TINY = {
    "xilinx_sample": {"datasets": (("suite", 3),), "samples": 5},
    "external_skew": {"datasets": (("ext_a", 2), ("ext_b", 2)), "samples": 2},
    "intel_ab": {"datasets": (("suite", 3),), "samples": 5},
}


def workload_config(name: str, tiny: bool) -> dict:
    config = dict(WORKLOADS[name])
    if tiny:
        config.update(TINY[name])
    return config


def space_size(base: dict) -> int:
    return len(UNROLL_CHOICES) ** len(base["loops"]) * len(PARTITION_CHOICES) ** len(base["arrays"])


def _base(rng: random.Random, n_loops: int) -> dict:
    loops = [{"label": f"l{i}", "trip_count": rng.choice((32, 64, 100, 128, 250, 256, 512, 1000)),
              "body_ops": rng.randint(2, 12), "mult_ops": rng.randint(0, 4),
              "pipelined": rng.random() < 0.5} for i in range(n_loops)]
    arrays = [{"label": f"a{i}", "depth": rng.choice((256, 512, 1024, 3000, 4096)),
               "elem_bytes": rng.choice((1, 2, 4, 8))} for i in range(N_ARRAYS)]
    return {"top": "top", "clock_target_ns": rng.choice((5.0, 8.0, 10.0)),
            "base_lut": rng.randint(200, 800), "base_ff": rng.randint(150, 600),
            "loops": loops, "arrays": arrays}


def _template(base: dict) -> str:
    unroll = " ".join(str(f) for f in UNROLL_CHOICES)
    partition = " ".join(PARTITION_CHOICES)
    out = [f"loops,{len(base['loops'])},2"]
    for i, loop in enumerate(base["loops"]):
        fixed = "pipeline" if loop["pipelined"] else ""
        out.append(f"{i},{loop['label']},{fixed},unroll,[{unroll}]")
    out += ["set_directive_pipeline top/[name]", "set_directive_unroll -factor [factor] top/[name]",
            f"arrays,{len(base['arrays'])},1"]
    for i, array in enumerate(base["arrays"]):
        out.append(f"{i},{array['label']},,array_partition,[{partition}]")
    out.append("set_directive_array_partition -type [style] -factor [factor] top/[name]")
    return "\n".join(out) + "\n"


def _source(name: str, base: dict) -> str:
    out = [f"// synthetic kernel {name}", "#include <stdint.h>", ""]
    for array in base["arrays"]:
        ctype = {1: "int8_t", 2: "int16_t", 4: "int32_t", 8: "int64_t"}[array["elem_bytes"]]
        out += [f"// HLSFORGE_LABEL: {array['label']}", f"static {ctype} {array['label']}[{array['depth']}];"]
    out += ["", "void top(int32_t *out) {", "  int32_t acc = 0;"]
    for loop in base["loops"]:
        body = " + ".join(f"a{k % N_ARRAYS}[i % {base['arrays'][k % N_ARRAYS]['depth']}]"
                          for k in range(max(1, loop["body_ops"] // 2)))
        out += [f"  // HLSFORGE_LABEL: {loop['label']}",
                f"  for (int i = 0; i < {loop['trip_count']}; i++) {{",
                f"    acc += {body};", "  }"]
    out += ["  *out = acc;", "}", ""]
    return "\n".join(out)


def _sleep_s(rng: random.Random) -> float:
    return rng.randint(5, 20) / 1000.0


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> dict:
    """Write every dataset of a workload under out_dir; returns the spec the checks use.

    The spec maps dataset -> base -> {manifest, space_size, sleep_synth, sleep_impl}.
    """
    config = workload_config(workload, tiny)
    rng = random.Random(f"{workload}:{seed}")
    external = config["flows"] == "external"
    spec: dict = {"workload": workload, "seed": seed, "tiny": tiny, "datasets": {}}
    index = 0
    for d, (dataset, n_bases) in enumerate(config["datasets"]):
        bases = spec["datasets"][dataset] = {}
        for b in range(n_bases):
            name = f"{dataset}_k{b:02d}"
            base = _base(rng, LOOP_COUNTS[index % len(LOOP_COUNTS)])
            index += 1
            root = out_dir / dataset / name
            root.mkdir(parents=True, exist_ok=True)
            manifest = dict(base)
            manifest["loops"] = [{k: v for k, v in loop.items() if k != "pipelined"}
                                 for loop in base["loops"]]
            (root / "opt_template.tcl").write_text(_template(base))
            (root / "mock_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
            (root / f"{name}.c").write_text(_source(name, base))
            entry = {"manifest": manifest, "space_size": space_size(base)}
            if external:
                straggler = d == len(config["datasets"]) - 1 and b == n_bases - 1
                synth = (STRAGGLER_SLEEP_S / 8 if tiny else STRAGGLER_SLEEP_S) if straggler \
                    else _sleep_s(rng)
                impl = _sleep_s(rng)
                (root / "sleep_synth.txt").write_text(f"{synth}\n")
                (root / "sleep_impl.txt").write_text(f"{impl}\n")
                entry.update(sleep_synth=synth, sleep_impl=impl)
            bases[name] = entry
    return spec


def external_flows() -> list[dict]:
    """The two custom flows of external_skew: each sleeps for its scripted duration."""
    return [{"type": "custom", "name": stage, "timeout_s": 60,
             "command": ["sh", "-c", f'read -r t < sleep_{stage}.txt && exec sleep "$t"'],
             "required_files": [f"sleep_{stage}.txt"]}
            for stage in ("synth", "impl")]

