"""Regenerate bench/reference.json, the outputs every benchmark run is checked
against.

Run from the repository root, only at a commit whose outputs are the
accepted ones (the file in the repository was made at the commit that
added the benchmark):

    python3 bench/make_reference.py

It runs every unit any workload seed can produce: each workload, at the
full and the self-test size, over the whole scenario-seed pool. Besides
the outputs it stores each scenario's simulated seconds, which the
benchmark's real-time factor divides by wall time.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shankexo import plant  # noqa: E402

import workloads as W  # noqa: E402


def all_units(size: str) -> list[W.Unit]:
    """Every unit any workload seed can produce at this size."""
    return [W.make_unit(workload, size, act, scen, s)
            for workload in W.WORKLOADS
            for act, scen in W.unit_kinds(workload)
            for s in W.SCENARIO_POOL]


def main() -> int:
    advance = plant.GaitWorld.advance
    last_t = {}

    def timed_advance(world, dt):
        kin = advance(world, dt)
        last_t["s"] = world.t_s
        return kin

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-ref-") as tmp:
        tmp = Path(tmp)
        for size in W.STRIDES:
            for unit in all_units(size):
                if unit.scenario is None:
                    W.write_stream(unit, tmp)
                    _, out = W.run_unit(unit, tmp, artifacts=False)
                    reference[unit.key] = {"outputs": out,
                                           "sim_s": unit.samples * W.REPLAY_DT_S}
                    unit.path.unlink()
                else:
                    plant.GaitWorld.advance = timed_advance
                    try:
                        _, out = W.run_unit(
                            unit, tmp,
                            artifacts=unit.key.startswith("long-ramp"))
                    finally:
                        plant.GaitWorld.advance = advance
                    reference[unit.key] = {"outputs": out,
                                           "sim_s": last_t["s"]}
                problems = W.check(unit, out, reference)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                print(unit.key, flush=True)
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
