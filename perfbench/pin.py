"""Record the outputs the benchmark's checks compare against.

    python3 perfbench/pin.py

Writes perfbench/pins.json: the sha256 digests and exponent-law verdicts of
every sweep the benchmark runs (full and smoke sizes), the mixing exponent
r of every class the class_bounds workload can draw, and the loop length
find_short_loop gives for every graph in the aux_certify pool.  The file in
the repository was written at the commit that introduced the benchmark;
rerun this only when a change to the program's output is intended.
"""

from __future__ import annotations

import hashlib
import json

import workload as wl


def sweep_pins() -> dict:
    from fibercone import sweep

    pins = {}
    for name in ("sweep_pq12", "sweep_n11"):
        for smoke in (False, True):
            inputs = wl.make_inputs(name, 0, smoke)
            reports = sweep.run_sweep(inputs["config"])
            pins[inputs["pin"]] = {
                "csv": hashlib.sha256(
                    sweep.report_csv(reports).encode()).hexdigest(),
                "json": hashlib.sha256(
                    sweep.report_json(reports).encode()).hexdigest(),
                "verdict_passed": sweep.verify_exponent_law(reports).passed,
            }
    return pins


def mixing_r_pins() -> dict:
    from fibercone import digraph_analysis, traintrack_digraph

    classes = [
        (1, n, n)
        for c in wl.NN_BANDS + wl.SMOKE_NN_BANDS
        for n in range(c - wl.BAND_HALF_WIDTH, c + wl.BAND_HALF_WIDTH + 1)
    ] + [(1, n, n * n) for n in wl.NN2_FIXED + wl.SMOKE_NN2_FIXED]
    return {
        f"{i},{j},{k}": digraph_analysis.primitivity_exponent(
            traintrack_digraph.magic_digraph(j, k))
        for i, j, k in classes
    }


def loop_length_pins() -> list[int]:
    from fibercone import zfold_cover

    lengths = []
    for i in range(wl.GRAPH_POOL):
        vertices, graph_seed = wl.pool_graph(i)
        g = zfold_cover.random_cubic_cochain(vertices, wl.COCHAIN_BOUND,
                                             graph_seed)
        lengths.append(zfold_cover.find_short_loop(g).length)
    return lengths


def main() -> None:
    wl._import_fibercone()
    pins = {
        "sweeps": sweep_pins(),
        "mixing_r": mixing_r_pins(),
        "loop_length": loop_length_pins(),
    }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
