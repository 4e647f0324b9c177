#!/usr/bin/env python3
"""Back-engineering gluing classes from prescribed triple-intersection
forms: single point, shared-pair, two-prong tree, and the genus-13 sparse
tree; writes DOT renderings of the resulting hypergraphs."""

import os
import sys

from tricode.hypergraph import base_hypergraph, degree_report, to_dot
from tricode.sullivan import genus13_tree_form, handle_form, roundtrip_check, synthesize

EXAMPLES = [
    ("point", handle_form(3, {(1, 2, 3): 1})),
    ("shared-pair", handle_form(4, {(1, 2, 3): 1, (2, 3, 4): 1})),
    ("two-prong", handle_form(5, {(1, 2, 3): 1, (1, 4, 5): 1})),
    ("genus13-tree", genus13_tree_form()),
]


def main(outdir=None):
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    for name, mu in EXAMPLES:
        res = synthesize(mu)
        rep = roundtrip_check(mu)
        h = base_hypergraph(res.predicted_form)
        dr = degree_report(h)
        print(f"== {name}: rank {res.m}, {len(mu.coefficients)} prescribed triples ==")
        print(f"  tau is {2 * res.m}x{2 * res.m}, symplectic and kernel-fixing: "
              f"{res.fixes_kernel_lattice()}, roundtrip {'PASS' if rep.passed else rep.failures}")
        print(f"  hyperedges: {h.hyperedges}")
        print(f"  max degree {dr.max_degree}, star-like: {dr.star_like}")
        if outdir:
            path = f"{outdir}/{name}.dot"
            with open(path, "w") as fh:
                fh.write(to_dot(h))
            print(f"  wrote {path}")
        print()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
