package main

// The metric catalogue: every name the harness emits, with its unit and
// direction. BENCHMARK.json lists the same names; a test keeps the two
// in step.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, reported with --trace 0 on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer are the ungated metrics of the traced pass. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "self.parser_ratio", unit: "ratio", better: "lower"},
	{name: "self.kb_ratio", unit: "ratio", better: "lower"},
	{name: "self.eval_ratio", unit: "ratio", better: "lower"},
	{name: "self.eval_fixed_ratio", unit: "ratio", better: "lower"},
	{name: "self.explain_ratio", unit: "ratio", better: "lower"},
	{name: "self.core_ratio", unit: "ratio", better: "lower"},
	{name: "self.render_ratio", unit: "ratio", better: "lower"},
	{name: "self.storage_ratio", unit: "ratio", better: "lower"},
	{name: "self.server_ratio", unit: "ratio", better: "lower"},
	{name: "self.other_ratio", unit: "ratio", better: "lower"},

	{name: "parser.parse_us", unit: "us", better: "lower"},
	{name: "parser.load_mb_per_s", unit: "MiB/s", better: "higher"},
	{name: "analysis.run_ms", unit: "ms", better: "lower"},

	{name: "kb.load_ms", unit: "ms", better: "lower"},
	{name: "kb.retrieve_us", unit: "us", better: "lower"},
	{name: "kb.describe_us", unit: "us", better: "lower"},
	{name: "kb.explain_us", unit: "us", better: "lower"},
	{name: "kb.assert_us", unit: "us", better: "lower"},
	{name: "kb.retract_us", unit: "us", better: "lower"},
	{name: "kb.overhead_us", unit: "us", better: "lower"},
	{name: "obs.on_ratio", unit: "ratio", better: "lower"},

	{name: "eval.retrieve_ms", unit: "ms", better: "lower"},
	{name: "eval.seminaive_ms", unit: "ms", better: "lower"},
	{name: "eval.topdown_ms", unit: "ms", better: "lower"},
	{name: "eval.magic_ms", unit: "ms", better: "lower"},
	{name: "eval.fixed_us", unit: "us", better: "lower"},
	{name: "eval.materialise_us", unit: "us", better: "lower"},
	{name: "eval.ns_per_answer", unit: "ns", better: "lower"},
	{name: "eval.allocs_per_answer", unit: "count", better: "lower"},
	{name: "eval.derived_per_answer", unit: "ratio", better: "lower"},
	{name: "eval.lookups_per_answer", unit: "ratio", better: "lower"},
	{name: "eval.iterations", unit: "count", better: "lower"},
	{name: "eval.growth_exponent", unit: "ratio", better: "lower"},

	{name: "storage.probes_per_answer", unit: "ratio", better: "lower"},
	{name: "storage.candidates_per_probe", unit: "ratio", better: "lower"},
	{name: "storage.fullscan_ratio", unit: "ratio", better: "lower"},
	{name: "storage.index_builds", unit: "count", better: "lower"},
	{name: "storage.insert_ns", unit: "ns", better: "lower"},
	{name: "storage.insert_allocs", unit: "count", better: "lower"},
	{name: "storage.probe_ns", unit: "ns", better: "lower"},
	{name: "storage.delete_us", unit: "us", better: "lower"},
	{name: "storage.reindex_us", unit: "us", better: "lower"},
	{name: "storage.wal_append_us", unit: "us", better: "lower"},
	{name: "storage.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "storage.open_ms", unit: "ms", better: "lower"},
	{name: "storage.wal_bytes_per_write", unit: "B", better: "lower"},
	{name: "storage.snapshot_bytes_per_fact", unit: "B", better: "lower"},
	{name: "wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "recover_ms", unit: "ms", better: "lower"},

	{name: "term.match_ns", unit: "ns", better: "lower"},
	{name: "term.match_allocs", unit: "count", better: "lower"},
	{name: "term.unify_ns", unit: "ns", better: "lower"},
	{name: "depgraph.new_us", unit: "us", better: "lower"},
	{name: "core.new_us", unit: "us", better: "lower"},
	{name: "transform.apply_us", unit: "us", better: "lower"},
	{name: "core.fanout_us", unit: "us", better: "lower"},
	{name: "core.depth_us", unit: "us", better: "lower"},
	{name: "core.hypothesis_us", unit: "us", better: "lower"},
	{name: "core.redundancy_us", unit: "us", better: "lower"},
	{name: "core.recursive_us", unit: "us", better: "lower"},
	{name: "core.untyped_us", unit: "us", better: "lower"},
	{name: "core.ext_us", unit: "us", better: "lower"},
	{name: "core.paper_us", unit: "us", better: "lower"},
	{name: "core.answers_per_describe", unit: "ratio", better: "higher"},
	{name: "builtin.implies_us", unit: "us", better: "lower"},

	{name: "server.roundtrip_us", unit: "us", better: "lower"},
	{name: "server.handler_us", unit: "us", better: "lower"},
	{name: "server.net_us", unit: "us", better: "lower"},
	{name: "server.overhead_us", unit: "us", better: "lower"},
	{name: "server.resp_bytes_per_req", unit: "B", better: "lower"},
	{name: "server.prepared_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.shed_ratio", unit: "ratio", better: "lower"},
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
