package main

// metricKind separates the gated end-to-end metrics (reported with
// -trace 0) from the per-layer attribution metrics (-trace 1).
type metricKind int

const (
	kindE2E metricKind = iota
	kindLayer
)

// spec names one metric. The table must match BENCHMARK.json at the
// checkout root; TestSpecsMatchBenchmarkJSON pins that.
type spec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	kind   metricKind
}

var specs = func() []spec {
	e2e := func(name, unit, better string) spec { return spec{name, unit, better, kindE2E} }
	layer := func(name, unit, better string) spec { return spec{name, unit, better, kindLayer} }
	out := []spec{
		e2e("setup_s", "s", "lower"),
		e2e("chunk_rtt_p50_ms", "ms", "lower"),
		e2e("tunnel_setup_p50_ms", "ms", "lower"),
		e2e("exchanges_per_s", "1/s", "higher"),
		e2e("goodput_MBps", "MB/s", "higher"),
		e2e("max_rss_mb", "MiB", "lower"),

		// tcptransport, from /metrics deltas summed over every process.
		layer("tcptransport.frames_per_chunk", "count", "lower"),
		layer("tcptransport.setup_frames_per_exchange", "count", "lower"),
		layer("tcptransport.bytes_per_chunk", "B", "lower"),
		layer("tcptransport.drops", "count", "lower"),
	}
	for _, reason := range dropReasons {
		out = append(out, layer("tcptransport.drops."+reason, "count", "lower"))
	}
	out = append(out,
		layer("tcptransport.dials_after_warmup", "count", "lower"),

		// procnode.
		layer("procnode.peel_us_mean", "us", "lower"),
		layer("procnode.stream_retransmits", "count", "lower"),
		layer("procnode.park_retries", "count", "lower"),
		layer("procnode.resolve_drops", "count", "lower"),
		layer("procnode.exchange_ms_p50", "ms", "lower"),

		// Process CPU.
		layer("relay.cpu_us_per_chunk", "us", "lower"),
		layer("initiator.cpu_us_per_chunk", "us", "lower"),
		layer("board.cpu_ms", "ms", "lower"),
		layer("host.cpu_busy_share", "ratio", "lower"),
		layer("relay.gc_cycles_per_1k_chunks", "count", "lower"),
	)
	for _, c := range relayCategories {
		out = append(out, layer("relay.cpu_share."+c, "ratio", "lower"))
	}
	out = append(out,
		layer("board.register_ms", "ms", "lower"),
		layer("board.wait_for_peers_ms", "ms", "lower"),
	)
	for _, r := range ladderRungs {
		out = append(out, layer(r.name, r.unit, r.better))
		if r.allocs != "" {
			out = append(out, layer(r.allocs, "count", "lower"))
		}
	}
	out = append(out,
		layer("experiments.build_world_ms", "ms", "lower"),
		layer("sim.allocs_per_flow", "count", "lower"),
		layer("sim.alloc_bytes_per_flow", "B", "lower"),
		layer("sim.gc_cycles", "count", "lower"),
	)
	for _, c := range simCategories {
		out = append(out, layer("sim.cpu_share."+c, "ratio", "lower"))
	}
	out = append(out,
		layer("sim.delivered_ratio", "ratio", "higher"),
		layer("sim.retx_ratio", "ratio", "lower"),
	)
	return out
}()

var specByName = func() map[string]spec {
	m := make(map[string]spec, len(specs))
	for _, s := range specs {
		if _, dup := m[s.name]; dup {
			panic("perfbench: duplicate metric " + s.name)
		}
		m[s.name] = s
	}
	return m
}()

// dropReasons are tcptransport's tap_transport_dropped_total labels.
var dropReasons = []string{"unknown_peer", "queue_full", "conn_down", "no_handler", "encode"}
