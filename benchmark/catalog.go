package main

// Metric kinds. The kind says how far a number can be trusted: exact kinds
// repeat bit-for-bit at a fixed seed and compare with ==, host kinds carry
// the sandbox's noise.
const (
	kindEndToEnd = "e" // host-side end-to-end measurement, tracing off, bounded
	kindSim      = "x" // virtual-clock statistic; exact
	kindCount    = "c" // exact count from the traced pass
	kindHost     = "h" // host-side measurement
	kindKernel   = "k" // kernel timed around a layer's public API
	kindProfile  = "p" // CPU-profile self time by function-name prefix
)

// metricDef names one metric. Bound is the share of the baseline's median by
// which the metric may get worse before -compare calls it a regression; only
// end-to-end metrics carry one.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Kind   string
	Clock  string // "host" | "virtual" | "count"
}

// exactKind reports whether metrics of the kind repeat bit for bit at a fixed
// seed.
func exactKind(kind string) bool { return kind == kindSim || kind == kindCount }

// endToEnd is measured over the timed passes with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, kindEndToEnd, "host"},
	{"records_per_s", "1/s", "higher", 0.25, kindEndToEnd, "host"},
	{"alloc_mb", "MB", "lower", 0.08, kindEndToEnd, "host"},
	{"retained_heap_mb", "MB", "lower", 0.25, kindEndToEnd, "host"},
	{"setup_s", "s", "lower", 0.25, kindEndToEnd, "host"},
}

// simTrio is the paper's headline trio. It is end to end for a user of the
// simulator and exact at a fixed seed, so -compare demands equality; across
// seeds it moves by tens of percent, which is why BENCHMARK.json lists it
// without a bound (see README.md, "What the driver sees").
var simTrio = []metricDef{
	{"sim_peak_latency_ms", "ms", "lower", 0, kindSim, "virtual"},
	{"sim_avg_latency_ms", "ms", "lower", 0, kindSim, "virtual"},
	{"sim_scaling_period_s", "s", "lower", 0, kindSim, "virtual"},
}

func layerMetric(name, unit, better, kind string) metricDef {
	clock := "host"
	if kind == kindCount {
		clock = "count"
	}
	return metricDef{Name: name, Unit: unit, Better: better, Kind: kind, Clock: clock}
}

func virtualMetric(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Kind: kindCount, Clock: "virtual"}
}

// perLayer is produced by the traced pass. Direction is nominal for counts:
// they describe the work done, and a change is a fact to explain, not a win.
var perLayer = []metricDef{
	layerMetric("bench.cells", "count", "higher", kindCount),
	layerMetric("bench.cells_failed", "count", "lower", kindCount),
	layerMetric("bench.records", "count", "higher", kindCount),
	virtualMetric("bench.virtual_s", "s"),
	layerMetric("bench.digest_drift_cells", "count", "lower", kindCount),
	layerMetric("bench.wall_raw_s", "s", "lower", kindHost),
	layerMetric("bench.box_speed_frac", "frac", "higher", kindHost),
	layerMetric("bench.scenario_build_ms", "ms", "lower", kindHost),
	layerMetric("bench.cell_wall_ms_p50", "ms", "lower", kindHost),
	layerMetric("bench.cell_wall_ms_max", "ms", "lower", kindHost),
	layerMetric("bench.rep_spread_frac", "frac", "lower", kindHost),
	layerMetric("bench.trace_overhead_frac", "frac", "lower", kindHost),
	layerMetric("bench.cpu_s", "s", "lower", kindProfile),

	layerMetric("rt.allocs", "count", "lower", kindHost),
	layerMetric("rt.gc_cycles", "count", "lower", kindHost),
	layerMetric("rt.gc_pause_ms", "ms", "lower", kindHost),
	layerMetric("rt.peak_heap_mb", "MB", "lower", kindHost),
	layerMetric("rt.maps_cpu_s", "s", "lower", kindProfile),
	layerMetric("rt.gc_cpu_s", "s", "lower", kindProfile),
	layerMetric("rt.alloc_cpu_s", "s", "lower", kindProfile),
	layerMetric("rt.other_cpu_s", "s", "lower", kindProfile),

	layerMetric("simtime.events", "count", "lower", kindCount),
	layerMetric("simtime.events_per_record", "frac", "lower", kindCount),
	layerMetric("simtime.sched_cpu_s", "s", "lower", kindProfile),
	layerMetric("simtime.rng_cpu_s", "s", "lower", kindProfile),
	layerMetric("simtime.kernel_ns_per_event", "ns", "lower", kindKernel),
	layerMetric("simtime.est_busy_s", "s", "lower", kindKernel),

	layerMetric("netsim.edges", "count", "lower", kindCount),
	layerMetric("netsim.msgs_delivered", "count", "lower", kindCount),
	layerMetric("netsim.mb_delivered", "MB", "lower", kindCount),
	layerMetric("netsim.cpu_s", "s", "lower", kindProfile),
	layerMetric("netsim.kernel_ns_per_msg", "ns", "lower", kindKernel),
	layerMetric("netsim.est_busy_s", "s", "lower", kindKernel),

	layerMetric("engine.instances_end", "count", "lower", kindCount),
	layerMetric("engine.records_processed", "count", "higher", kindCount),
	layerMetric("engine.hops_per_record", "frac", "lower", kindCount),
	layerMetric("engine.lost_records", "count", "lower", kindCount),
	layerMetric("engine.cpu_s", "s", "lower", kindProfile),
	layerMetric("engine.kernel_ns_per_hop", "ns", "lower", kindKernel),

	layerMetric("dataflow.cpu_s", "s", "lower", kindProfile),

	layerMetric("state.keys_end", "count", "lower", kindCount),
	layerMetric("state.mb_end", "MB", "lower", kindCount),
	layerMetric("state.key_groups_migrated", "count", "lower", kindCount),
	layerMetric("state.cpu_s", "s", "lower", kindProfile),
	layerMetric("state.kernel_ns_per_putget", "ns", "lower", kindKernel),
	layerMetric("state.kernel_ns_per_key_migrated", "ns", "lower", kindKernel),
	layerMetric("state.kernel_ns_per_key_snapshot", "ns", "lower", kindKernel),

	layerMetric("workload.arrivals", "count", "higher", kindCount),
	layerMetric("workload.cpu_s", "s", "lower", kindProfile),
	layerMetric("workload.kernel_ns_per_arrival", "ns", "lower", kindKernel),
	layerMetric("workload.kernel_trace_encode_ns_per_event", "ns", "lower", kindKernel),
	layerMetric("workload.kernel_trace_decode_ns_per_event", "ns", "lower", kindKernel),
	layerMetric("workload.trace_bytes_per_event", "frac", "lower", kindCount),

	layerMetric("metrics.latency_samples", "count", "lower", kindCount),
	layerMetric("metrics.cpu_s", "s", "lower", kindProfile),
	layerMetric("metrics.query_ms", "ms", "lower", kindKernel),
	layerMetric("metrics.kernel_ns_per_observe", "ns", "lower", kindKernel),

	layerMetric("cluster.nodes", "count", "lower", kindCount),
	layerMetric("cluster.transferred_mb", "MB", "lower", kindCount),
	layerMetric("cluster.cross_rack_mb", "MB", "lower", kindCount),
	layerMetric("cluster.transfer_retries", "count", "lower", kindCount),
	layerMetric("cluster.cpu_s", "s", "lower", kindProfile),
	layerMetric("cluster.kernel_ns_per_transfer", "ns", "lower", kindKernel),
	layerMetric("cluster.kernel_ns_per_nodeof", "ns", "lower", kindKernel),

	layerMetric("scaling.operations", "count", "lower", kindCount),
	layerMetric("scaling.waves_stabilized", "count", "higher", kindCount),
	layerMetric("scaling.drrs_cells_stable", "count", "higher", kindCount),
	virtualMetric("scaling.stable_peak_latency_ms", "ms"),
	virtualMetric("scaling.stable_avg_latency_ms", "ms"),
	virtualMetric("scaling.stable_scaling_period_s", "s"),
	virtualMetric("scaling.lp_propagation_ms", "ms"),
	virtualMetric("scaling.ls_suspension_ms", "ms"),
	virtualMetric("scaling.ld_dependency_ms", "ms"),
	virtualMetric("scaling.migration_ms", "ms"),
	layerMetric("scaling.cpu_s", "s", "lower", kindProfile),
	layerMetric("scaling.kernel_plan_us", "us", "lower", kindKernel),

	layerMetric("control.decisions", "count", "lower", kindCount),
	layerMetric("control.supersessions", "count", "lower", kindCount),
	layerMetric("control.cpu_s", "s", "lower", kindProfile),
	layerMetric("control.kernel_ns_per_observe", "ns", "lower", kindKernel),
	layerMetric("control.kernel_ns_per_score", "ns", "lower", kindKernel),

	layerMetric("faults.events", "count", "lower", kindCount),
	layerMetric("faults.crashes", "count", "lower", kindCount),
	layerMetric("faults.failed_transfers", "count", "lower", kindCount),
	layerMetric("faults.recovered_groups", "count", "higher", kindCount),
	layerMetric("faults.lost_groups", "count", "lower", kindCount),
	layerMetric("faults.records_lost", "count", "lower", kindCount),
	layerMetric("faults.cpu_s", "s", "lower", kindProfile),
	layerMetric("faults.kernel_us_per_plan", "us", "lower", kindKernel),
	layerMetric("faults.chaos_violations", "count", "lower", kindCount),
}

// profileBuckets lists the *.cpu_s metrics in the order the rollup reports
// them; together they sum to the profile total.
var profileBuckets = []string{
	"bench.cpu_s", "rt.maps_cpu_s", "rt.gc_cpu_s", "rt.alloc_cpu_s", "rt.other_cpu_s",
	"simtime.sched_cpu_s", "simtime.rng_cpu_s", "netsim.cpu_s", "engine.cpu_s",
	"dataflow.cpu_s", "state.cpu_s", "workload.cpu_s", "metrics.cpu_s",
	"cluster.cpu_s", "scaling.cpu_s", "control.cpu_s", "faults.cpu_s",
}
