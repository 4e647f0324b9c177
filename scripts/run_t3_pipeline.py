#!/usr/bin/env python3
"""End-to-end walkthrough on the 3-torus: build the complex, compute its
homology and triple intersection form, assemble three toric-code copies,
synthesize and verify the CCZ circuit, extract the logical action, and
cross-check the injected hypergraph magic state against the exact
coset-state simulator."""

import itertools

from tricode import homology
from tricode.codes import color_code, distance, toric_code
from tricode.complexes import build_torus3, validate
from tricode.cup import named_dual_cocycles, triple_cup_integral
from tricode.gates import (
    LogicalAction,
    ccz_circuit,
    check_logical_gate,
    coset_simulate,
    extract_logical_action,
    hypergraph_state_poly,
    logical_state_lift,
    transversal_t,
)
from tricode.hypergraph import base_hypergraph, degree_report, form_from_cup, lift_full, magic_state_complexity


def main():
    K = build_torus3()
    print(f"T^3 complex: counts {K.counts}, violations {validate(K)}")
    print(f"Betti numbers: {homology.betti_all(K)}")

    duals = named_dual_cocycles(K)
    print("\ntriple cup integrals over the coordinate duals:")
    for p in itertools.permutations("abc"):
        v = triple_cup_integral(K, duals[p[0]], duals[p[1]], duals[p[2]])
        print(f"  integral {p[0]} cup {p[1]} cup {p[2]} = {v}")

    code = toric_code(K, 3)
    d = distance(toric_code(K, 1), sector="z")
    print(f"\nthree toric copies: n={code.n} k={code.k} d_z={d.dz} ({d.flagged()})")
    cc = color_code(K)
    print(f"color code via fattening: n={cc.n} k={cc.k} "
          f"(+{cc.meta['signs'].count(1)}/-{cc.meta['signs'].count(-1)} bipartition)")

    circ = ccz_circuit(K)
    chk = check_logical_gate(circ, code)
    print(f"\nCCZ circuit: {len(circ.gates)} gates, depth bound {circ.depth_bound()}, "
          f"check {chk.status} ({chk.mode})")
    act = extract_logical_action(circ, code, chk)
    print("logical action:")
    for kind, qs in act.gate_list():
        print(f"  {kind} {qs}")

    tcirc = transversal_t(cc)
    tchk = check_logical_gate(tcirc, cc)
    print(f"\ntransversal T on the color code: {len(tcirc.gates)} gates, "
          f"check {tchk.status} ({tchk.mode})")

    form = form_from_cup(K)
    full = lift_full(base_hypergraph(form))
    print(f"\ninteraction hypergraph: {len(full.vertices)} vertices, "
          f"{len(full.hyperedges)} hyperedges, kappa = {magic_state_complexity(full)}")
    print(degree_report(full).text())

    labels = code.logical_labels()
    edges = [tuple(labels.index(v) for v in e) for e in full.hyperedges]
    predicted = LogicalAction(code.k, labels, hypergraph_state_poly(code.k, edges))
    sim = coset_simulate(circ, code, list(range(code.k)))
    lift = logical_state_lift(predicted, code, list(range(code.k)))
    print(f"\nhypergraph magic state matches the simulator: "
          f"{sim.equal_up_to_global_phase(lift)}")


if __name__ == "__main__":
    main()
