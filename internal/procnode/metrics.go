package procnode

import "tap/internal/obs"

// nodeMetrics holds one node's instruments (tap_node_*; DESIGN.md §15).
// Built from a possibly-nil registry, in which case every field is nil
// and the increments vanish into obs's no-op sink — the same pattern as
// the transport and board. One node per registry: a process hosting
// several nodes would need instance labels, which the deployment mode
// (one node per process) has no use for.
type nodeMetrics struct {
	peelsForward *obs.Counter // forward onion layers opened
	peelsReply   *obs.Counter // reply onion layers opened

	relaysForwarded *obs.Counter // peeled envelopes relayed to a next hop
	exitPayloads    *obs.Counter // exit-layer payloads handled as responder
	repliesHome     *obs.Counter // reply envelopes consumed as initiator

	anchorInstalls *obs.Counter // anchors installed on behalf of initiators
	anchorAcks     *obs.Counter // anchor acks received as initiator
	anchorsHeld    *obs.Gauge   // anchors currently stored

	// Anchor deletions received as holder, by outcome.
	deletesOK      *obs.Counter // password verified, anchor dropped
	deletesBadPW   *obs.Counter // password did not match H(PW); anchor kept
	deletesUnknown *obs.Counter // no anchor under that hop id

	parkRetries  *obs.Counter // sends parked on a lagging membership view
	resolveDrops *obs.Counter // messages dropped after the retry budget

	streamChunks      *obs.Counter   // chunks round-tripped by RoundTripStream
	streamRetransmits *obs.Counter   // anchor redeploys + chunk resends after a timeout
	chunkRTT          *obs.Histogram // first send → verified echo, chunks sent once only
	peelSeconds       *obs.Histogram // time to open one onion layer, either direction
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	dir := func(v string) obs.Label { return obs.Label{Name: "dir", Value: v} }
	const peels = "tap_node_peels_total"
	const peelsHelp = "Onion layers opened, by tunnel direction."
	result := func(v string) obs.Label { return obs.Label{Name: "result", Value: v} }
	const deletes = "tap_node_anchor_deletes_total"
	const deletesHelp = "Anchor deletions received, by result."
	return &nodeMetrics{
		peelsForward: reg.Counter(peels, peelsHelp, dir("forward")),
		peelsReply:   reg.Counter(peels, peelsHelp, dir("reply")),

		relaysForwarded: reg.Counter("tap_node_relays_forwarded_total", "Peeled envelopes relayed onward."),
		exitPayloads:    reg.Counter("tap_node_exit_payloads_total", "Exit payloads handled as responder."),
		repliesHome:     reg.Counter("tap_node_replies_home_total", "Replies consumed as initiator."),

		anchorInstalls: reg.Counter("tap_node_anchor_installs_total", "Anchors installed for initiators."),
		anchorAcks:     reg.Counter("tap_node_anchor_acks_total", "Anchor acks received as initiator."),
		anchorsHeld:    reg.Gauge("tap_node_anchors", "Anchors currently stored."),

		deletesOK:      reg.Counter(deletes, deletesHelp, result("ok")),
		deletesBadPW:   reg.Counter(deletes, deletesHelp, result("bad_pw")),
		deletesUnknown: reg.Counter(deletes, deletesHelp, result("unknown")),

		parkRetries:  reg.Counter("tap_node_park_retries_total", "Sends parked awaiting membership catch-up."),
		resolveDrops: reg.Counter("tap_node_resolve_drops_total", "Messages dropped after the resolve retry budget."),

		streamChunks:      reg.Counter("tap_node_stream_chunks_total", "Chunks round-tripped by streams."),
		streamRetransmits: reg.Counter("tap_node_stream_retransmits_total", "Stream retransmissions after a timeout."),
		chunkRTT:          reg.Histogram("tap_node_chunk_rtt_seconds", "Chunk first send to verified echo; resent chunks unsampled.", chunkRTTBuckets),
		peelSeconds:       reg.Histogram("tap_node_peel_seconds", "Time to open one onion layer.", nil),
	}
}

// chunkRTTBuckets resolve loopback round trips (a few hundred µs) as
// well as WAN ones: 100µs to 10s.
var chunkRTTBuckets = []float64{
	.0001, .00025, .0005, .00075, .001, .0015, .002, .003, .005, .0075,
	.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}
