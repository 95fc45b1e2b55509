"""Figure 17: the SE's scalar PE.

Paper: affine (vectorized) workloads are insensitive — their computation
needs the SCM anyway; indirect and pointer-chasing workloads benefit as the
PE avoids the SCM dispatch latency (1.1x for hash_join; +2.5% overall for
NS_decouple).
"""

from dataclasses import replace

from repro.eval import fig17_scalar_pe, format_table, geomean

SUBSET = ("srad", "hotspot", "bfs_push", "sssp", "bin_tree", "hash_join")


def test_fig17_scalar_pe(sweep_config, benchmark):
    cfg = replace(sweep_config, workloads=SUBSET)
    result = benchmark(fig17_scalar_pe, cfg)
    headers = ["workload", "speedup from scalar PE"]
    rows = [[name, v] for name, v in result.items()]
    print("\n" + format_table(headers, rows,
                              "Fig 17: scalar PE on/off (NS_decouple)"))

    affine = geomean([result["srad"], result["hotspot"]])
    irregular = geomean([result["bfs_push"], result["sssp"],
                         result["bin_tree"], result["hash_join"]])
    print(f"\npaper: affine insensitive, irregular benefits "
          f"(hash_join ~1.1x); here: affine {affine:.3f}x, "
          f"irregular {irregular:.3f}x")

    # Nothing gets slower from having the PE; irregular gains at least as
    # much as affine.
    assert all(v >= 0.99 for k, v in result.items() if k != "geomean")
    assert irregular >= affine - 0.01
