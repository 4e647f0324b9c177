"""Quick self-check of the benchmark harness, on the smallest rung of each
workload and one repetition, from the root of a checkout:

    python3 benchmark/selfcheck.py

It asserts that every metric BENCHMARK.json names is printed with its unit
and is > 0, traced and untraced, on every workload; and that a wrong result
(the CCZ circuit with one gate dropped, checked as if it were the real one)
is reported as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = run.measure(workload, 1, 0, traced, smallest=True, min_reps=1)
            where = f"{workload} ({kind})"
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (where, res)
            assert set(res["metrics"]) == {m["name"] for m in spec[kind]}, where
            for m in spec[kind]:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (where, m["name"], got)
                assert got["value"] > 0, (where, m["name"], got)

    sys.path.insert(0, run.SRC)
    from tricode import gates

    real = gates.ccz_circuit

    def dropped(K):
        circ = real(K)
        return gates.DiagonalCircuit(circ.n, circ.gates[1:])

    gates.ccz_circuit = dropped
    try:
        res = run.measure("t3-ccz", 1, 0, False, smallest=True, min_reps=1)
    finally:
        gates.ccz_circuit = real
    assert res["failed"] > 0, res
    print("selfcheck: every metric present with its unit and > 0; "
          f"the dropped-gate circuit gave {res['failed']} failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
