package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tap/internal/core"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/simnet"
)

// The simulator workload's stated size: ExtThroughput's default windows
// {1,16} and loss rates {0,1,5}% at N=2000 with 8000 flows per cell.
const (
	simN         = 2000
	simFlows     = 8000
	simFlowBytes = 2048 // ExtThroughput's default FlowBytes
	simCells     = 6    // 2 windows × 3 loss rates
	// simBuilds and simProbes are how many world builds and how many
	// simulated tunnel set-ups with one-chunk round trips each round
	// makes. A round runs before every ExtThroughput call and after the
	// last, so setup_s and the probe's figures sample the whole run
	// rather than one moment of it.
	simBuilds = 16
	simProbes = 500
	// simOrigins is how many initiators, at random live nodes, share a
	// round's probes.
	simOrigins = 16
)

// digest2004 is the SHA-256 of ExtThroughput's CSV table at seed 2004,
// captured before any optimisation: a change that alters it changed the
// simulation's results, not only its speed.
const digest2004 = "29d99ac8c1f4bf95ae0cf06e21523e8c0af5c1704224ca95999a447fba773876"

func runSim(c config, rep *report) {
	rep.meta["sim"] = fmt.Sprintf("experiments.ExtThroughput N=%d flows=%d windows {1,16} loss {0,1,5}%% (%d flows per call)", simN, simFlows, simFlows*simCells)
	rep.meta["network"] = "simulated (simnet), no sockets or processes"

	// Set-up: the simulator's set-up is building the overlay world.
	// Each build is a few milliseconds, so it is repeated more often than
	// a deployment's set-up.
	var (
		buildMS, setupMS, rttMS []float64
		probeFailed             int
	)
	probeStream := rng.New(c.seed).Split("perfbench-probe")
	round := func() {
		var w *experiments.World
		for i := 0; i < simBuilds; i++ {
			runtime.GC() // every build starts from the same heap state
			t0 := time.Now()
			var err error
			if w, err = experiments.BuildWorld(simN, 3, rng.New(c.seed).Split("perfbench-world")); err != nil {
				fatalf("building the world: %v", err)
			}
			buildMS = append(buildMS, ms(time.Since(t0)))
		}
		runtime.GC()
		s, r, f := simProbe(c, w, probeStream)
		setupMS, rttMS, probeFailed = append(setupMS, s...), append(rttMS, r...), probeFailed+f
	}

	// Only the calls are measured: MemStats, host CPU and the profile
	// are summed over them, so the rounds between calls do not count.
	var (
		samples                 []profSample
		allocs, allocBytes, gcs uint64
		busy, steal, total      uint64
		wall                    time.Duration
	)
	params := experiments.ExtThroughputParams{N: simN, Flows: simFlows, Seed: c.seed}
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	var (
		tables          []string
		delivered, retx float64
		cells           int
		// Per-call rates: the reported figure is their median, so a call
		// the host stole from does not set it.
		flowRates, byteRates []float64
	)
	// A call starts only if at least half of it fits in the window, so a
	// run ends near the window's end rather than up to a whole call past.
	var lastCall time.Duration
	for calls := 0; calls == 0 || time.Now().Add(lastCall/2).Before(deadline); calls++ {
		round()
		var prof bytes.Buffer
		if c.traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fatalf("cpu profile: %v", err)
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		busy0, steal0, total0 := hostCPU()
		t0 := time.Now()
		tbl, err := experiments.ExtThroughput(params)
		lastCall = time.Since(t0)
		busy1, steal1, total1 := hostCPU()
		runtime.ReadMemStats(&ms1)
		if c.traced {
			pprof.StopCPUProfile()
			p, err := parseProfile(prof.Bytes())
			if err != nil {
				fatalf("sim profile: %v", err)
			}
			samples = append(samples, p.samples...)
		}
		wall += lastCall
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		busy, steal, total = busy+busy1-busy0, steal+steal1-steal0, total+total1-total0
		callS := lastCall.Seconds()
		rep.attempted += simFlows * simCells
		if err != nil {
			rep.failed += simFlows * simCells
			fmt.Fprintf(os.Stderr, "perfbench: ExtThroughput: %v\n", err)
			continue
		}
		callDelivered := 0.0
		var csv bytes.Buffer
		tbl.RenderCSV(&csv)
		tables = append(tables, csv.String())
		xs := tbl.Xs()
		rep.check(len(xs) == 3, "table has %d loss rows, want 3", len(xs))
		for _, x := range xs {
			for _, win := range []int{1, 16} {
				frac := tbl.Mean(x, fmt.Sprintf("delivered(w=%d)", win))
				n := frac * simFlows
				// Delivered and undelivered flows must add up to the flows
				// the cell attempted: a whole count in [0, flows].
				rep.check(math.Abs(n-math.Round(n)) < 1e-6 && n >= 0 && n <= simFlows,
					"loss %v%% w=%d: delivered fraction %v is not a whole count of %d flows", x, win, frac, simFlows)
				callDelivered += math.Round(n)
				retx += tbl.Mean(x, fmt.Sprintf("retx_ratio(w=%d)", win))
				cells++
			}
		}
		delivered += callDelivered
		flowRates = append(flowRates, simFlows*simCells/callS)
		byteRates = append(byteRates, callDelivered*simFlowBytes/callS/1e6)
		if c.fault == "mismatch" {
			tables[len(tables)-1] += "x"
		}
		if c.fault == "panic" {
			panic("injected fault")
		}
	}
	round()

	rep.set("setup_s", median(buildMS)/1e3, len(buildMS))
	rep.set("experiments.build_world_ms", median(buildMS), len(buildMS))
	rep.check(probeFailed == 0, "%d of %d simulated probe chunks were not delivered", probeFailed, probeFailed+len(rttMS))
	rep.set("tunnel_setup_p50_ms", median(setupMS), len(setupMS))
	rep.set("chunk_rtt_p50_ms", median(rttMS), len(rttMS))
	rep.extra["chunk_rtt_p99_ms"] = quantile(rttMS, 0.99)

	for i := 1; i < len(tables); i++ {
		rep.check(tables[i] == tables[0], "call %d's table differs from call 1's at the same seed", i+1)
	}
	if c.seed == 2004 && len(tables) > 0 {
		sum := sha256.Sum256([]byte(tables[0]))
		got := hex.EncodeToString(sum[:])
		rep.check(got == digest2004, "seed 2004 table digest %s, want %s", got, digest2004)
	}

	flows := float64(rep.attempted - rep.failed)
	rep.set("exchanges_per_s", median(flowRates), len(flowRates))
	rep.set("goodput_MBps", median(byteRates), len(byteRates))
	rep.extra["exchanges_per_s.mean"] = flows / wall.Seconds()
	rep.set("max_rss_mb", float64(selfMaxRSS())/1024, 1)
	busyShare, stealShare := hostShares(0, 0, 0, busy, steal, total)
	rep.set("host.cpu_busy_share", busyShare, int(total))
	rep.extra["host.cpu_steal_share"] = stealShare
	rep.set("sim.allocs_per_flow", float64(allocs)/max(flows, 1), int(flows))
	rep.set("sim.alloc_bytes_per_flow", float64(allocBytes)/max(flows, 1), int(flows))
	rep.set("sim.gc_cycles", float64(gcs)/float64(max(len(tables), 1)), len(tables))
	rep.set("sim.delivered_ratio", delivered/max(flows, 1), int(flows))
	rep.set("sim.retx_ratio", retx/float64(max(cells, 1)), cells)
	rep.extra["sim.calls"] = float64(len(tables))
	rep.extra["sim.undelivered_flows"] = flows - delivered
	rep.extra["window_s"] = wall.Seconds()

	if c.traced {
		p := profile{samples: samples}
		shares, _ := p.shares(simCategories, classifySim)
		for _, cat := range simCategories {
			rep.set("sim.cpu_share."+cat, shares[cat], len(p.samples))
		}
		runLadder(rep)
	}
	rep.traceOverhead()
}

// simProbe times, in wall clock, the simulator's two latency-shaped
// operations on a fresh network over w: setting up one 3-hop tunnel
// (deploy its anchors, form it, resolve its hop hints) and simulating one
// 256-byte chunk through it to a destination and its acknowledgement
// back. It draws origins, payload and destinations from stream, so
// successive rounds probe different tunnels. It returns the set-up and
// round-trip times of the delivered probes and the number not delivered.
func simProbe(c config, w *experiments.World, stream *rng.Stream) (setupMS, rttMS []float64, failed int) {
	kernel := simnet.NewKernel()
	kernel.MaxSteps = 0
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(c.seed), w.OV.NumAddrs())
	w.Svc.Net = net
	eng := core.NewNetEngine(w.Svc, net)
	// Probes rotate over several origins so that no single node's place
	// in the overlay sets the figures.
	type origin struct {
		addr simnet.Addr
		in   *core.Initiator
	}
	origins := make([]origin, simOrigins)
	for i := range origins {
		node := w.OV.RandomLive(stream)
		in, err := core.NewInitiator(w.Svc, node, stream.SplitN("initiator", i))
		if err != nil {
			fatalf("probe initiator: %v", err)
		}
		origins[i] = origin{node.Ref().Addr, in}
	}
	content := make([]byte, 256)
	stream.Bytes(content)
	cfg := core.StreamConfig{Window: 1, SegSize: len(content)}
	for i := 0; i < simProbes; i++ {
		in := origins[i%len(origins)].in
		t0 := time.Now()
		if err := in.DeployDirect(3); err != nil {
			fatalf("probe deploy: %v", err)
		}
		tun, err := in.FormTunnel(3)
		if err != nil {
			fatalf("probe tunnel: %v", err)
		}
		cache := core.NewHintCache()
		if err := cache.Refresh(w.Svc, tun); err != nil {
			fatalf("probe hints: %v", err)
		}
		t1 := time.Now()
		var dest id.ID
		stream.Bytes(dest[:])
		st := eng.OpenTunnelStream(origins[i%len(origins)].addr, tun, cache, dest, cfg)
		ok := false
		st.OnComplete = func(delivered bool) { ok = delivered }
		st.Write(content)
		st.Close()
		if err := kernel.Run(); err != nil {
			fatalf("probe kernel: %v", err)
		}
		t2 := time.Now()
		// Retire the tunnel's anchors so every probe forms its tunnel from
		// a pool of the same size.
		in.Release(tun)
		for _, h := range tun.Hops {
			in.DropAnchor(h.HopID)
		}
		if !ok {
			failed++
			continue
		}
		setupMS = append(setupMS, ms(t1.Sub(t0)))
		rttMS = append(rttMS, ms(t2.Sub(t1)))
	}
	return setupMS, rttMS, failed
}
