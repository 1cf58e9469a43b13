package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"time"

	"tap/internal/board"
	"tap/internal/core"
	"tap/internal/obs"
	"tap/internal/procnode"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

// shape is one tunnel workload: how many initiator flows run at once
// and what each exchange carries.
type shape struct {
	flows   int
	payload int // bytes per exchange
	chunk   int // bytes per chunk
}

var (
	rttShape  = shape{flows: 1, payload: 8 * 64, chunk: 64}
	bulkShape = shape{flows: 2, payload: 1 << 20, chunk: 16 << 10}
)

func (s shape) chunks() int { return (s.payload + s.chunk - 1) / s.chunk }

const (
	nRelays = 6 // 3 forward hops, 1 destination, 2 reply hops
	fwHops  = 3
	rpHops  = 2
	// refresh is tapnode's peer-table refresh, passed explicitly so the
	// results record it. Set-up does not wait for one: relays join in
	// turn and each hop forwards only to members that joined before it
	// (see bringUp). With the default 2s, a path that needed a refresh
	// would make the first exchange wait 0–2s depending on its phase.
	refresh = 250 * time.Millisecond
	// setups is how many times a run brings the deployment up; setup_s
	// is their median. The first setupsBefore come before the timed
	// window, the last of them serving it, and the rest after it, so
	// setup_s samples the run's end as well as its start.
	setups       = 21
	setupsBefore = 11
	// probes is the number of one-chunk exchanges a traced run makes to
	// split frames into per-chunk and per-exchange set-up shares.
	probes = 5
)

var nodeFlags = []string{"-listen", "127.0.0.1:0", "-refresh", refresh.String(), "-heartbeat", "2s"}

// initiator is one in-process flow: its own transport, board member
// and procnode.Node, with a handler interposed in front of the node to
// timestamp anchor acks and replies as they arrive.
type initiator struct {
	tr   *tcptransport.Transport
	cli  *board.Client
	node *procnode.Node
	reg  *obs.Registry // nil unless traced

	registerDur time.Duration
	waitDur     time.Duration

	mu      sync.Mutex
	acks    []time.Time
	replies []time.Time
}

func newInitiator(boardAddr string, traced bool) (*initiator, error) {
	in := &initiator{}
	if traced {
		in.reg = obs.NewRegistry()
	}
	in.tr = tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}, Registry: in.reg})
	hp, err := in.tr.Listen("127.0.0.1:0")
	if err != nil {
		in.tr.Close()
		return nil, err
	}
	if in.cli, err = board.Dial(boardAddr); err != nil {
		in.tr.Close()
		return nil, err
	}
	t0 := time.Now()
	addr, peers, err := in.cli.Register(hp)
	in.registerDur = time.Since(t0)
	if err != nil {
		in.close()
		return nil, err
	}
	in.cli.StartHeartbeat(2 * time.Second)
	in.node = procnode.New(in.tr, addr, nil, in.reg)
	in.tr.Detach(addr)
	in.tr.Attach(addr, transport.HandlerFunc(in.deliver))
	in.node.SetPeers(peers)
	return in, nil
}

func (in *initiator) close() {
	in.cli.Close()
	in.tr.Close()
}

// deliver runs on the transport's dispatch loop.
func (in *initiator) deliver(from transport.Addr, msg transport.Message) {
	now := time.Now()
	switch m := msg.(type) {
	case *procnode.AnchorAck:
		in.mu.Lock()
		in.acks = append(in.acks, now)
		in.mu.Unlock()
	case *core.ReplyEnvelope:
		if m.Target == in.node.ID {
			in.mu.Lock()
			in.replies = append(in.replies, now)
			in.mu.Unlock()
		}
	}
	in.node.Deliver(from, msg)
}

// timing is one exchange's decomposition.
type timing struct {
	total time.Duration   // the RoundTripStream call
	setup time.Duration   // call → last anchor ack
	gaps  []time.Duration // last ack → 1st reply, then reply → reply
}

// exchange runs one RoundTripStream and returns the echo and timing.
func (in *initiator) exchange(cfg procnode.StreamConfig, payload []byte) ([]byte, timing, error) {
	in.mu.Lock()
	in.acks, in.replies = in.acks[:0], in.replies[:0]
	in.mu.Unlock()
	t0 := time.Now()
	echo, err := in.node.RoundTripStream(cfg, payload)
	tm := timing{total: time.Since(t0)}
	if err != nil {
		return nil, tm, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if n := len(in.acks); n > 0 {
		last := in.acks[n-1]
		tm.setup = last.Sub(t0)
		prev := last
		for _, r := range in.replies {
			tm.gaps = append(tm.gaps, r.Sub(prev))
			prev = r
		}
	}
	return echo, tm, nil
}

// deployment is a running board, its relays and the initiators.
type deployment struct {
	cl    *cluster
	inits []*initiator
	cfg   procnode.StreamConfig
}

func (d *deployment) close() {
	for _, in := range d.inits {
		in.close()
	}
	d.cl.shutdown()
}

// bringUp launches a deployment and runs one warm-up exchange on every
// flow. The initiators register before the relays start, so every
// relay's first peer table already holds them.
func bringUp(c config, sh shape, payloads [][][]byte) (*deployment, error) {
	d := &deployment{}
	var err error
	d.cl, err = startCluster(c.binDir, nRelays, nodeFlags, c.traced, func(boardAddr string) error {
		for f := 0; f < sh.flows; f++ {
			in, err := newInitiator(boardAddr, c.traced)
			if err != nil {
				return err
			}
			d.inits = append(d.inits, in)
		}
		return nil
	})
	if err != nil {
		for _, in := range d.inits {
			in.close()
		}
		return nil, err
	}
	var peers map[transport.Addr]string
	for _, in := range d.inits {
		t0 := time.Now()
		peers, err = in.cli.WaitForPeers(nRelays+sh.flows, 10*time.Second)
		in.waitDur = time.Since(t0)
		if err != nil {
			d.close()
			return nil, err
		}
		in.node.SetPeers(peers)
	}

	mine := make(map[transport.Addr]bool)
	for _, in := range d.inits {
		mine[in.node.Addr] = true
	}
	var relays []transport.Addr
	for a := range peers {
		if !mine[a] {
			relays = append(relays, a)
		}
	}
	// The board hands out addresses in join order. Giving the path's last
	// hop to the first relay to join, and so on backwards, means every
	// relay's first peer table already names the node it forwards to:
	// h1 → h2 → h3 → dest → r1 → r2 → initiator.
	sort.Slice(relays, func(i, j int) bool { return relays[i] > relays[j] })
	if len(relays) != nRelays {
		d.close()
		return nil, fmt.Errorf("board lists %d relays, want %d", len(relays), nRelays)
	}
	d.cfg = procnode.StreamConfig{
		ForwardHops: relays[:fwHops],
		Dest:        relays[fwHops],
		ReplyHops:   relays[fwHops+1:],
		ChunkSize:   sh.chunk,
	}

	errs := make([]error, len(d.inits))
	var wg sync.WaitGroup
	for f, in := range d.inits {
		wg.Add(1)
		goSafe(func() {
			defer wg.Done()
			p := payloads[f][0]
			echo, _, err := in.exchange(d.cfg, p)
			if err == nil && !bytes.Equal(echo, p) {
				err = fmt.Errorf("warm-up echo differs from its payload")
			}
			errs[f] = err
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up exchange: %w", err)
		}
	}
	return d, nil
}

// makePayloads draws each flow's payloads from the seed; flows rotate
// through them.
func makePayloads(seed uint64, sh shape) [][][]byte {
	r := rand.New(rand.NewPCG(seed, 0x7461702d62656e63))
	out := make([][][]byte, sh.flows)
	for f := range out {
		for i := 0; i < 4; i++ {
			p := make([]byte, sh.payload)
			for j := range p {
				p[j] = byte(r.Uint32())
			}
			out[f] = append(out[f], p)
		}
	}
	return out
}

// flowResult is one flow's timed-window tally.
type flowResult struct {
	exchanges, failed int64
	mismatches        int64
	bytes             int64
	timings           []timing
	cycles            []float64 // seconds from one verified exchange's end to the next's
}

// snapshotAll scrapes every process of the deployment: board, relays,
// and the initiators' in-process registries.
func (d *deployment) snapshotAll() (counters, error) {
	var cs counters
	for _, ch := range d.cl.children() {
		s, err := scrape(ch.metrics)
		if err != nil {
			return nil, err
		}
		cs = append(cs, s)
	}
	for _, in := range d.inits {
		s, err := snapshotOf(in.reg)
		if err != nil {
			return nil, err
		}
		cs = append(cs, s)
	}
	return cs, nil
}

// relayCPU sums the relays' CPU time so far.
func (d *deployment) relayCPU() time.Duration {
	var t time.Duration
	for _, r := range d.cl.relays {
		v, err := procCPU(r.cmd.Process.Pid)
		if err != nil {
			fatalf("reading relay CPU: %v", err)
		}
		t += v
	}
	return t
}

func runTunnel(c config, rep *report, sh shape) {
	payloads := makePayloads(c.seed, sh)
	rep.meta["network"] = "loopback, not a real link"
	rep.meta["tapnode_flags"] = nodeFlags
	rep.meta["refresh"] = refresh.String()
	rep.meta["flows"] = sh.flows
	rep.meta["exchange"] = fmt.Sprintf("%d B in %d B chunks over %d forward + %d reply hops", sh.payload, sh.chunk, fwHops, rpHops)

	var (
		setupS, boardMS         []float64
		registerMS, waitPeersMS []float64
	)
	timedBringUp := func(i int) *deployment {
		t0 := time.Now()
		d, err := bringUp(c, sh, payloads)
		if err != nil {
			fatalf("set-up %d: %v", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		bcpu, err := procCPU(d.cl.board.cmd.Process.Pid)
		if err != nil {
			fatalf("reading board CPU: %v", err)
		}
		boardMS = append(boardMS, float64(bcpu)/1e6)
		for _, in := range d.inits {
			registerMS = append(registerMS, ms(in.registerDur))
			waitPeersMS = append(waitPeersMS, ms(in.waitDur))
		}
		return d
	}
	var d *deployment
	for i := 0; i < setupsBefore; i++ {
		if d != nil {
			d.close()
		}
		d = timedBringUp(i)
	}

	// The timed window.
	var (
		before   counters
		profiles = make([][]byte, len(d.cl.relays))
		profErrs = make([]error, len(d.cl.relays))
		profWG   sync.WaitGroup
	)
	if c.traced {
		var err error
		if before, err = d.snapshotAll(); err != nil {
			fatalf("scrape: %v", err)
		}
		for i, r := range d.cl.relays {
			profWG.Add(1)
			goSafe(func() {
				defer profWG.Done()
				profiles[i], profErrs[i] = cpuProfile(r.metrics, c.seconds)
			})
		}
	}
	relayCPU0, selfCPU0 := d.relayCPU(), selfCPU()
	busy0, steal0, total0 := hostCPU()
	fmt.Fprintln(os.Stderr, "perfbench: timed window started")
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds) * time.Second)
	results := make([]flowResult, sh.flows)
	var wg sync.WaitGroup
	for f, in := range d.inits {
		wg.Add(1)
		goSafe(func() {
			defer wg.Done()
			res := &results[f]
			last := start
			for i := 1; time.Now().Before(deadline); i++ {
				p := payloads[f][i%len(payloads[f])]
				echo, tm, err := in.exchange(d.cfg, p)
				now := time.Now()
				cycle := now.Sub(last)
				last = now
				res.exchanges++
				if err != nil {
					res.failed++
					fmt.Fprintf(os.Stderr, "perfbench: flow %d exchange failed: %v\n", f, err)
					continue
				}
				if c.fault == "panic" {
					panic("injected fault")
				}
				want := p
				if c.fault == "mismatch" && i == 1 && f == 0 {
					want = append([]byte{^p[0]}, p[1:]...)
				}
				if !bytes.Equal(echo, want) {
					res.mismatches++
					continue
				}
				res.bytes += int64(len(echo))
				res.timings = append(res.timings, tm)
				res.cycles = append(res.cycles, cycle.Seconds())
			}
		})
	}
	wg.Wait()
	wall := time.Since(start)
	relayCPU1, selfCPU1 := d.relayCPU(), selfCPU()
	busy1, steal1, total1 := hostCPU()

	var (
		exchanges, okExchanges, mismatches, nbytes int64
		gaps, setupsMS, totals                     []float64
	)
	for _, r := range results {
		exchanges += r.exchanges
		rep.failed += r.failed
		mismatches += r.mismatches
		nbytes += r.bytes
		okExchanges += int64(len(r.timings))
		for _, tm := range r.timings {
			setupsMS = append(setupsMS, ms(tm.setup))
			totals = append(totals, ms(tm.total))
			for _, g := range tm.gaps {
				gaps = append(gaps, ms(g))
			}
		}
	}
	rep.attempted = exchanges
	chunks := okExchanges * int64(sh.chunks())
	rep.check(mismatches == 0, "%d of %d echoes differ from their payloads", mismatches, exchanges)
	rep.check(int64(len(gaps)) == chunks, "timed %d reply arrivals for %d chunks", len(gaps), chunks)

	rep.set("chunk_rtt_p50_ms", quantile(gaps, 0.5), len(gaps))
	rep.extra["chunk_rtt_p99_ms"] = quantile(gaps, 0.99)
	rep.extra["chunk_rtt_samples"] = float64(len(gaps))
	rep.set("tunnel_setup_p50_ms", quantile(setupsMS, 0.5), len(setupsMS))
	// Rates are each flow's steady pace: the reciprocal of its median
	// cycle (one exchange plus the loop's own work), summed over flows.
	// A jitter regression that slows most cycles lowers it; a few cycles
	// stalled while the hypervisor stole the CPU do not set it. The
	// whole-window means are reported beside it, ungated.
	var rate float64
	for _, r := range results {
		if len(r.cycles) > 0 {
			rate += 1 / median(r.cycles)
		}
	}
	rep.set("exchanges_per_s", rate, int(okExchanges))
	rep.set("goodput_MBps", rate*float64(sh.payload)/1e6, int(okExchanges))
	rep.extra["exchanges_per_s.mean"] = float64(okExchanges) / wall.Seconds()
	rep.extra["goodput_MBps.mean"] = float64(nbytes) / wall.Seconds() / 1e6
	rep.set("procnode.exchange_ms_p50", quantile(totals, 0.5), len(totals))
	perChunk := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(max(chunks, 1)) }
	rep.set("relay.cpu_us_per_chunk", perChunk(relayCPU1-relayCPU0), int(chunks))
	rep.set("initiator.cpu_us_per_chunk", perChunk(selfCPU1-selfCPU0), int(chunks))
	busy, steal := hostShares(busy0, steal0, total0, busy1, steal1, total1)
	rep.set("host.cpu_busy_share", busy, int(total1-total0))
	rep.extra["host.cpu_steal_share"] = steal
	rep.extra["window_s"] = wall.Seconds()

	if c.traced {
		traceTunnel(rep, sh, d, before, okExchanges, chunks)
		profWG.Wait()
		var merged profile
		for i, b := range profiles {
			if profErrs[i] != nil {
				fatalf("relay profile: %v", profErrs[i])
			}
			p, err := parseProfile(b)
			if err != nil {
				fatalf("relay profile: %v", err)
			}
			merged.samples = append(merged.samples, p.samples...)
		}
		shares, total := merged.shares(relayCategories, classifyRelay)
		for _, cat := range relayCategories {
			rep.set("relay.cpu_share."+cat, shares[cat], len(merged.samples))
		}
		rep.extra["relay.profiled_cpu_s"] = float64(total) / 1e9
	}

	d.close()
	var rss int64
	for _, r := range d.cl.relays {
		if r.rusage != nil && r.rusage.Maxrss > rss {
			rss = r.rusage.Maxrss
		}
	}
	rep.check(rss > 0, "no relay rusage collected")
	rep.set("max_rss_mb", float64(rss)/1024, len(d.cl.relays))

	for i := setupsBefore; i < setups; i++ {
		timedBringUp(i).close()
	}
	rep.set("setup_s", median(setupS), len(setupS))
	rep.set("board.cpu_ms", median(boardMS), len(boardMS))
	rep.set("board.register_ms", median(registerMS), len(registerMS))
	rep.set("board.wait_for_peers_ms", median(waitPeersMS), len(waitPeersMS))

	if c.traced {
		runLadder(rep)
	}
	rep.traceOverhead()
}

// traceTunnel derives the transport and procnode metrics from scrapes
// taken around the timed window and around a short one-chunk probe, and
// checks cross-process conservation once traffic has quiesced.
func traceTunnel(rep *report, sh shape, d *deployment, before counters, exchanges, chunks int64) {
	after := quiesce(d)
	delta := func(name string, labels ...obs.Label) float64 {
		return after.value(name, labels...) - before.value(name, labels...)
	}
	deltaSum := func(name string) float64 { return after.sum(name) - before.sum(name) }
	out := obs.Label{Name: "dir", Value: "out"}

	// Probe: one-chunk exchanges on the same tunnel roles give frames and
	// bytes per set-up + one chunk; the window gives per set-up + k chunks.
	probeCfg := d.cfg
	for i := 0; i < probes; i++ {
		p := make([]byte, sh.chunk)
		p[0] = byte(i)
		echo, _, err := d.inits[0].exchange(probeCfg, p)
		rep.check(err == nil && bytes.Equal(echo, p), "probe exchange %d: err=%v", i, err)
	}
	final := quiesce(d)
	k := float64(sh.chunks())
	split := func(name string) (perChunk, perSetup float64) {
		one := (final.value(name, out) - after.value(name, out)) / probes
		perExchange := delta(name, out) / float64(max(exchanges, 1))
		perChunk = (perExchange - one) / (k - 1)
		return perChunk, one - perChunk
	}
	fpc, fps := split("tap_transport_frames_total")
	bpc, _ := split("tap_transport_bytes_total")
	rep.set("tcptransport.frames_per_chunk", fpc, int(chunks))
	rep.set("tcptransport.setup_frames_per_exchange", fps, int(exchanges))
	rep.set("tcptransport.bytes_per_chunk", bpc, int(chunks))

	rep.set("tcptransport.drops", deltaSum("tap_transport_dropped_total"), int(exchanges))
	for _, reason := range dropReasons {
		rep.set("tcptransport.drops."+reason, delta("tap_transport_dropped_total", obs.Label{Name: "reason", Value: reason}), int(exchanges))
	}
	rep.set("tcptransport.dials_after_warmup", deltaSum("tap_transport_dials_total"), int(exchanges))

	peels := deltaSum("tap_node_peel_seconds_count")
	rep.set("procnode.peel_us_mean", deltaSum("tap_node_peel_seconds_sum")/max(peels, 1)*1e6, int(peels))
	rep.set("procnode.stream_retransmits", deltaSum("tap_node_stream_retransmits_total"), int(exchanges))
	rep.set("procnode.park_retries", deltaSum("tap_node_park_retries_total"), int(exchanges))
	rep.set("procnode.resolve_drops", deltaSum("tap_node_resolve_drops_total"), int(exchanges))
	var relayGC float64
	for i := range d.cl.relays {
		relayGC += after[1+i].Sum("go_gc_cycles_total") - before[1+i].Sum("go_gc_cycles_total")
	}
	rep.set("relay.gc_cycles_per_1k_chunks", relayGC/float64(max(chunks, 1))*1000, int(chunks))

	// Conservation over every process's whole life, after quiesce.
	in := obs.Label{Name: "dir", Value: "in"}
	for _, name := range []string{"tap_transport_frames_total", "tap_transport_bytes_total"} {
		o, i := final.value(name, out), final.value(name, in)
		rep.check(o == i && o > 0, "%s: %v out vs %v in across processes", name, o, i)
	}
	rep.check(final.sum("tap_node_resolve_drops_total") == 0, "procnode resolve drops: %v", final.sum("tap_node_resolve_drops_total"))
	rep.extra["tcptransport.frames_out_total"] = final.value("tap_transport_frames_total", out)
}

// quiesce scrapes until frames out equal frames in across processes
// (nothing left in flight) or two seconds pass, and returns the last
// scrape.
func quiesce(d *deployment) counters {
	out := obs.Label{Name: "dir", Value: "out"}
	in := obs.Label{Name: "dir", Value: "in"}
	deadline := time.Now().Add(2 * time.Second)
	for {
		cs, err := d.snapshotAll()
		if err != nil {
			fatalf("scrape: %v", err)
		}
		f := "tap_transport_frames_total"
		if cs.value(f, out) == cs.value(f, in) || time.Now().After(deadline) {
			return cs
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
