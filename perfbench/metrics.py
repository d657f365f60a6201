"""Names and units of the benchmark's metrics; BENCHMARK.json mirrors them.

This module imports nothing from conelab, so run.py can use it before it has
checked that the checkout has sources.
"""

WORKLOAD_NAMES = ("doubled-theorem", "doubled-member", "rank3-duality", "cli-cold")

END_TO_END = (
    ("setup_s", "s"),
    ("task_tail_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Printed and kept in the meta line, but not in BENCHMARK.json: failed_frac
# is 0, and task_p50_s flips between the two speed modes of a shared host
# (ten 45 s runs of doubled-theorem spread 24 %, its tail and throughput 10-14 %).
REPORTED = (
    ("task_p50_s", "s"),
    ("failed_frac", "fraction"),
)

KERNELS = ("mat_mul", "mat_mul_t", "sym_pair_scalar", "reduce_and_collect", "bareiss_det")
CLI_KINDS = (
    "theorem", "verify", "verify_fail", "member", "member_refused", "sigma",
    "rank3_verify", "rank3_det", "rank3_det_dual", "rank3_duality", "malformed",
)
SWEEP_RANKS = range(4, 9)  # fixed names; the sweep itself may go further

# Per-task values are means over the traced timed phase; "setup." values are
# totals over one traced setup. Layers a workload does not run read 0.
PER_LAYER = (
    [m for k in KERNELS for m in (("kernels.%s.calls" % k, "count"),
                                  ("kernels.%s.self_s" % k, "s"))]
    + [
        ("kernels.useful_mac_ratio", "ratio"),
        ("kernels.max_bits", "bits"),
        ("linalg.SpanSolver.init.calls", "count"),
        ("linalg.SpanSolver.init.self_s", "s"),
        ("linalg.SpanSolver.contains.calls", "count"),
        ("linalg.SpanSolver.contains.s", "s"),
        ("linalg.SpanSolver.contains.self_s", "s"),
        ("linalg.SpanSolver.solve.calls", "count"),
        ("linalg.SpanSolver.solve.s", "s"),
        ("linalg.SpanSolver.solve.self_s", "s"),
        ("linalg.det_exact.calls", "count"),
        ("linalg.det_exact.self_s", "s"),
        ("linalg.solve_linear.calls", "count"),
        ("linalg.solve_linear.self_s", "s"),
        ("core.verify_v_conditions.calls", "count"),
        ("core.verify_v_conditions.s", "s"),
        ("core.verify_v_conditions.self_s", "s"),
        ("core.verify.v1_products", "count"),
        ("core.verify.v1_s", "s"),
        ("core.verify.v2_products", "count"),
        ("core.verify.v2_s", "s"),
        ("core.verify.v3_pairs", "count"),
        ("core.verify.v3_s", "s"),
        ("core.rho_act.calls", "count"),
        ("core.rho_act.s", "s"),
        ("core.embed.s", "s"),
        ("core.embed_group.s", "s"),
        ("core.project.s", "s"),
        ("core.ldl_decompose.calls", "count"),
        ("core.ldl_decompose.s", "s"),
        ("core.ldl_decompose.boundary_as_undefined", "count"),
        ("doubling.double.calls", "count"),
        ("doubling.double.s", "s"),
        ("doubling.double.reverify_s", "s"),
        ("doubling.iterate_construction.s", "s"),
        ("degrees.sigma_from_dims.s", "s"),
        ("rank3.build_rank3_cone.s", "s"),
        ("rank3.build_rank3_dual.s", "s"),
        ("rank3.det_closed.s", "s"),
        ("rank3.det_oracle.s", "s"),
        ("rank3.coupling_decomposition_check.s", "s"),
        ("rank3.consistency_LR.s", "s"),
        ("rank3.verify_composition.s", "s"),
        ("poly.mul.calls", "count"),
        ("sampling.interior_element.s", "s"),
        ("sampling.boundary_element.s", "s"),
        ("serialize.realization_from_dict.s", "s"),
        ("serialize.parse_rational.calls", "count"),
        ("serialize.dumps_canonical.s", "s"),
        ("serialize.bytes_in", "B"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
    ]
    + [("cli.%s.s" % k, "s") for k in CLI_KINDS]
    + [
        ("setup.core.verify_v_conditions.s", "s"),
        ("setup.linalg.SpanSolver.init.s", "s"),
        ("setup.doubling.double.reverify_s", "s"),
        ("setup.rank3.build_rank3_cone.s", "s"),
        ("setup.rank3.build_rank3_dual.s", "s"),
        ("sweep.max_rank", "count"),
        ("core.verify_v_conditions.rank_growth", "ratio"),
        ("doubling.iterate_construction.rank_growth", "ratio"),
    ]
    + [("core.verify_v_conditions.r%d_s" % r, "s") for r in SWEEP_RANKS]
    + [("doubling.iterate_construction.r%d_s" % r, "s") for r in SWEEP_RANKS]
    + [
        ("trace.overhead_frac", "ratio"),
        ("trace.tasks", "count"),
        ("trace.spans_per_task", "count"),
    ]
)
