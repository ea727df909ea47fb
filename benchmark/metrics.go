package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; benchmark_test.go holds the two lists together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the simulator sees, measured with tracing off.
// Bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trial_ms_p50", "ms", "lower"},
	{"pairs_per_sec", "pairs/s", "higher"},
	{"allocs_per_pair", "allocs/pair", "lower"},
	{"alloc_bytes_per_pair", "B/pair", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"reducer_pairs_ratio", "ratio", "lower"},
}

// spanNames are the calls the drivers wrap. Each is reported as
// "<name>_ms": the median over traced trials (set-up spans: over set-up
// rounds) of the span's self time summed within the trial.
var spanNames = []string{
	// set-up
	"workload.generate", "workload.splits", "mlps.dataset", "graphgen.rmat", "benchmark.draw_streams",
	// wordcount-*
	"mapreduce.new_cluster", "mapreduce.run_job_daiet", "mapreduce.run_job_udp", "mapreduce.run_job_tcp",
	// fanin-*
	"topology.plan", "topology.realize", "core.new_program", "transport.new_host",
	"controller.install_routing", "controller.plan_tree", "controller.install_tree",
	"core.sender_setup", "core.sender_send", "netsim.run", "netsim.stats",
	// overlap-analytics
	"mlps.train_adam", "mlps.train_sgd", "pregel.pagerank", "pregel.sssp", "pregel.wcc",
}

// perLayer is the traced run's ledger: spans, exact counts at the same
// boundaries, Go runtime cost per trial, isolated probes and the tracing
// overhead. The README says which end-to-end metric each should move.
var perLayer = append(spanDefs(), []metricDef{
	{"mapreduce.reduce_ms", "ms", "lower"},

	{"netsim.events", "count", "lower"},
	{"netsim.frames_tx", "count", "lower"},
	{"netsim.drops_pool", "count", "lower"},
	{"netsim.drops_queue", "count", "lower"},
	{"netsim.drop_share", "ratio", "lower"},
	{"netsim.pool_highwater_pct", "%", "lower"},
	{"netsim.arena_peak_kb", "KB", "lower"},
	{"netsim.sim_completion_us", "us", "lower"},
	{"netsim.host_ns_per_event", "ns/event", "lower"},

	{"core.pairs_in", "count", "lower"},
	{"core.pairs_combined", "count", "higher"},
	{"core.combine_share", "ratio", "higher"},
	{"core.pairs_spilled", "count", "lower"},
	{"core.flush_stalls", "count", "lower"},
	{"core.switch_retx", "count", "lower"},
	{"core.host_tx", "count", "lower"},
	{"core.host_retx", "count", "lower"},
	{"core.retx_share", "ratio", "lower"},
	{"core.collector_frames_rx", "count", "lower"},
	{"core.collector_pairs_rx", "count", "lower"},

	{"mapreduce.reducer_payload_bytes", "B", "lower"},
	{"mapreduce.reducer_packets", "count", "lower"},
	{"transport.frames_rx", "count", "lower"},

	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.mallocs", "count", "lower"},

	{"hashing.partition_ns_per_key", "ns/key", "lower"},
	{"wire.build_frame_ns", "ns/op", "lower"},
	{"wire.decode_packet_ns", "ns/op", "lower"},
	{"core.sender_send_ns_per_pair", "ns/pair", "lower"},
	{"core.sender_allocs_per_pair", "allocs/pair", "lower"},
	{"core.collector_ingest_ns_per_pair", "ns/pair", "lower"},
	{"core.collector_allocs_per_pair", "allocs/pair", "lower"},
	{"core.program_combine_ns_per_pair", "ns/pair", "lower"},
	{"core.program_spill_ns_per_pair", "ns/pair", "lower"},
	{"dataplane.forward_ns_per_frame", "ns/frame", "lower"},
	{"netsim.event_ns", "ns/event", "lower"},
	{"netsim.hop_ns_per_frame", "ns/frame", "lower"},
	{"netsim.connect_us_per_link", "us/link", "lower"},
	{"controller.route_install_us_per_switch", "us/switch", "lower"},
	{"transport.tcplite_ns_per_byte", "ns/B", "lower"},
	{"mlps.gradient_us_per_sample", "us/sample", "lower"},
	{"pregel.superstep_ns_per_edge", "ns/edge", "lower"},

	{"benchmark.trace_overhead_pct", "%", "lower"},
}...)

func spanDefs() []metricDef {
	defs := make([]metricDef, len(spanNames))
	for i, n := range spanNames {
		defs[i] = metricDef{n + "_ms", "ms", "lower"}
	}
	return defs
}

// metricsInto writes the ledger's per-layer count metrics into m. runMs is
// the trial's netsim.run self time, for the host cost per simulated event.
func (c *counts) metricsInto(m map[string]float64, runMs float64) {
	for name, v := range map[string]float64{
		"netsim.events":             float64(c.events),
		"netsim.frames_tx":          float64(c.framesTx),
		"netsim.drops_pool":         float64(c.dropsPool),
		"netsim.drops_queue":        float64(c.dropsQueue),
		"netsim.drop_share":         ratio(float64(c.egressDropped), float64(c.egressAttempted)),
		"netsim.pool_highwater_pct": float64(c.poolHighPPM) / 1e4,
		"netsim.arena_peak_kb":      float64(c.arenaPeakBytes) / 1024,
		"netsim.sim_completion_us":  float64(c.simCompletionNs) / 1e3,
		"netsim.host_ns_per_event":  ratio(runMs*1e6, float64(c.events)),

		"core.pairs_in":            float64(c.pairsIn),
		"core.pairs_combined":      float64(c.pairsCombined),
		"core.combine_share":       ratio(float64(c.pairsCombined), float64(c.pairsIn)),
		"core.pairs_spilled":       float64(c.pairsSpilled),
		"core.flush_stalls":        float64(c.flushStalls),
		"core.switch_retx":         float64(c.switchRetx),
		"core.host_tx":             float64(c.hostTx),
		"core.host_retx":           float64(c.hostRetx),
		"core.retx_share":          ratio(float64(c.hostRetx+c.switchRetx), float64(c.hostTx+c.switchTx)),
		"core.collector_frames_rx": float64(c.collFramesRx),
		"core.collector_pairs_rx":  float64(c.collPairsRx),

		"mapreduce.reducer_payload_bytes": float64(c.reducerPayloadBytes),
		"mapreduce.reducer_packets":       float64(c.reducerPackets),
		"transport.frames_rx":             float64(c.transportFramesRx),
	} {
		m[name] = v
	}
}
