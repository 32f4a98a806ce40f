"""Names and units of every metric the benchmark reports."""

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "pairs_per_s": "pairs/s", "sim_calls": "pairs",
    "peak_rss_mb": "MB", "pass_rate": "fraction", "accuracy": "fraction",
    "ece": "fraction", "aurrrc_selective": "fraction", "aurrrc_near_ood": "fraction",
    "aurrrc_far_ood": "fraction",
}

PER_LAYER = {
    "blackbox.queries": "count", "blackbox.pairs": "pairs",
    "blackbox.inputs_per_query": "inputs", "blackbox.self_s": "s",
    "blackbox.ns_per_pair": "ns", "blackbox.query_p50_us": "us",
    "blackbox.query_p99_us": "us",
    "protocol.stdio.roundtrips": "count", "protocol.stdio.rtt_p50_us": "us",
    "protocol.stdio.rtt_p99_us": "us", "protocol.stdio.request_bytes": "bytes",
    "protocol.tcp.roundtrips": "count", "protocol.tcp.rtt_p50_us": "us",
    "protocol.tcp.rtt_p99_us": "us", "protocol.tcp.request_bytes": "bytes",
    "protocol.pairs": "pairs", "protocol.handshake_s": "s", "protocol.self_s": "s",
    "cmaes.generations": "count", "cmaes.self_s": "s",
    "cmaes.ask_tell_us_per_generation": "us",
    "estimators.nll_calls": "count", "estimators.elbo_calls": "count",
    "estimators.self_s": "s",
    "abc_smc.attempts": "count", "abc_smc.acceptance_ratio": "fraction",
    "abc_smc.update_weights_calls": "count", "abc_smc.update_weights_ms_p50": "ms",
    "abc_smc.distance_calls": "count", "abc_smc.distance_self_s": "s",
    "abc_smc.self_s": "s",
    "predictive.calls": "count", "predictive.pairs": "pairs", "predictive.self_s": "s",
    "uqeval.rows_scored": "count", "uqeval.self_s": "s", "uqeval.rows_per_s": "1/s",
    "experiment.self_s": "s", "experiment.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}
