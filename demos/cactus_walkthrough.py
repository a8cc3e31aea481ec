#!/usr/bin/env python3
"""Step through the cactus solver: cycle labels, extraction, rejections.

Builds a cactus whose central 4-cycle must be polychromatic while the four
triangles hanging off it stay monochromatic, shows the labeling, extracts a
2-coloring, and validates it.  Then shows the rejection reasons on graphs
with no exact (k,2)-coloring, and an odd core that one labeling shows
needs three colors.
"""

from exactcolor import (
    brute_chi,
    build_graph,
    cactus_chi1,
    cactus_chi2,
    cactus_extract_coloring,
    cactus_label,
    cactus_preprocess,
    cycle,
    is_exact_coloring,
    tightness_gadget,
)


def sunlet(core_len: int):
    """Even core cycle with a private triangle on every core vertex."""
    edges = [(i, (i + 1) % core_len) for i in range(core_len)]
    for i in range(core_len):
        a, b = core_len + 2 * i, core_len + 2 * i + 1
        edges += [(i, a), (i, b), (a, b)]
    return build_graph(3 * core_len, edges)


def main():
    g = sunlet(4)
    aux = cactus_preprocess(g)
    print(f"sunlet cactus: {g.n} vertices, {len(aux.cycles)} cycle blocks")
    for i, cyc in enumerate(aux.cycles):
        simplicial = "owns a cycle-simplicial vertex" if aux.has_w[i] else "fully shared"
        print(f"  cycle {i}: {cyc} ({simplicial})")

    res = cactus_label(aux)
    print("labels:", dict(enumerate(res.labels)))
    coloring = cactus_extract_coloring(aux, res)
    print("coloring:", coloring.assign)
    assert is_exact_coloring(g, coloring, 2)
    print("the coloring is a valid exact (2,2)-coloring\n")

    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    res = cactus_label(cactus_preprocess(bowtie))
    print(f"bowtie rejects: {res.reason.name} "
          "(both triangles are forced monochromatic but share a vertex)")
    assert cactus_chi2(bowtie).is_infeasible

    ring = sunlet(3)  # odd core: two colors cannot alternate around it
    aux = cactus_preprocess(ring)
    res = cactus_label(aux)
    print("odd core labels:", dict(enumerate(res.labels)))
    out = cactus_extract_coloring(aux, res)
    print(f"the P core is odd, so the extraction needs {out.k} colors:", out.assign)
    assert is_exact_coloring(ring, out, 2)
    print(f"chi_2 = {cactus_chi2(ring).chi}, matches brute force =", brute_chi(ring, 2).chi)

    print("\ndefect 1 goes through perfect matchings:")
    print("  chi_1 of C8 =", cactus_chi1(cycle(8)).chi)
    print("  chi_1 of the triangle-with-pendants gadget =",
          cactus_chi1(tightness_gadget()).chi, "(the tight case)")


if __name__ == "__main__":
    main()
