package main

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"sync/atomic"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/procnode"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// The layer ladder times direct calls into each layer a chunk crosses,
// at the two chunk sizes the tunnel workloads use. Each rung reports
// time per operation (median of three timed batches) and heap
// allocations per operation (process-wide, fewest of the three).

// rung names one ladder measurement.
type rung struct {
	name, unit, better string
	perUnit            float64 // nanoseconds per reported unit; 0 for a rate
	allocs             string  // name of its allocs/op metric
}

var ladderSizes = []struct {
	label string
	n     int
}{{"64b", 64}, {"16k", 16 << 10}}

var ladderRungs = func() []rung {
	var out []rung
	sized := func(base, unit string, perUnit float64, allocBase string) {
		for _, s := range ladderSizes {
			out = append(out, rung{base + "." + s.label, unit, "lower", perUnit, allocBase + "." + s.label})
		}
	}
	sized("wire.append_frame_ns", "ns", 1, "wire.append_frame_allocs")
	sized("wire.read_frame_ns", "ns", 1, "wire.read_frame_allocs")
	sized("procnode.codec_encode_ns", "ns", 1, "procnode.codec_encode_allocs")
	sized("procnode.codec_decode_ns", "ns", 1, "procnode.codec_decode_allocs")
	sized("core.build_forward_us", "us", 1e3, "core.build_forward_allocs")
	out = append(out, rung{"core.build_reply_us", "us", "lower", 1e3, "core.build_reply_allocs"})
	sized("core.open_forward_ns", "ns", 1, "core.open_forward_allocs")
	// A reply peel opens only the fixed-size onion, never the data it
	// carries, so it has no chunk-size variants.
	out = append(out, rung{"core.open_reply_ns", "ns", "lower", 1, "core.open_reply_allocs"})
	sized("crypt.seal_ns", "ns", 1, "crypt.seal_allocs")
	sized("crypt.open_ns", "ns", 1, "crypt.open_allocs")
	out = append(out, rung{"tha.generate_us", "us", "lower", 1e3, "tha.generate_allocs"})
	sized("tcptransport.pingpong_us", "us", 1e3, "tcptransport.pingpong_allocs")
	out = append(out, rung{"tcptransport.frames_per_s.64b", "1/s", "higher", 0, "tcptransport.frame_allocs.64b"})
	return out
}()

// rungTarget is the length of one timed batch.
const rungTarget = 40 * time.Millisecond

// measure times fn(n) in batches sized to rungTarget.
func measure(fn func(n int)) (nsPerOp, allocsPerOp float64, ops int) {
	fn(1)
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= 4*time.Millisecond {
			n = int(float64(n)*float64(rungTarget)/float64(d)) + 1
			break
		}
		n *= 4
	}
	var nss []float64
	allocsPerOp = -1
	for rep := 0; rep < 3; rep++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&b)
		nss = append(nss, float64(d)/float64(n))
		if al := float64(b.Mallocs-a.Mallocs) / float64(n); allocsPerOp < 0 || al < allocsPerOp {
			allocsPerOp = al
		}
	}
	return median(nss), allocsPerOp, 3 * n
}

// runLadder measures every rung and records it in rep.
func runLadder(rep *report) {
	fns := ladderFuncs(rep)
	defer fns.close()
	for _, r := range ladderRungs {
		fn := fns.byName[r.name]
		if fn == nil {
			panic("perfbench: no ladder function for " + r.name)
		}
		ns, allocs, ops := measure(fn)
		v := 1e9 / ns
		if r.perUnit > 0 {
			v = ns / r.perUnit
		}
		rep.set(r.name, v, ops)
		rep.set(r.allocs, allocs, ops)
	}
	fns.checkDrops(rep)
}

type ladder struct {
	byName map[string]func(n int)
	a, b   *tcptransport.Transport
	regs   []*obs.Registry
}

func (l *ladder) close() {
	l.a.Close()
	l.b.Close()
}

// checkDrops fails the run if the transport rungs lost any frame: their
// timings assume every frame arrived.
func (l *ladder) checkDrops(rep *report) {
	for _, reg := range l.regs {
		s, err := snapshotOf(reg)
		if err != nil {
			fatalf("ladder registry: %v", err)
		}
		rep.check(s.Sum("tap_transport_dropped_total") == 0, "ladder transport dropped %v frames", s.Sum("tap_transport_dropped_total"))
	}
}

// Sinks keep results live so the compiler cannot drop the timed calls.
// Typed, so that keeping a result allocates nothing itself.
var (
	sinkBytes []byte
	sinkID    id.ID
	sinkAny   any // pointers and interfaces only
)

func ladderFuncs(rep *report) *ladder {
	must := func(err error) {
		if err != nil {
			fatalf("ladder fixture: %v", err)
		}
	}
	var nodeID id.ID
	_, err := rand.Read(nodeID[:])
	must(err)
	gen, err := tha.NewGenerator(nodeID[:], rand.Reader)
	must(err)
	secrets := func(k int) []tha.Secret {
		out := make([]tha.Secret, k)
		for i := range out {
			out[i], err = gen.Generate(rand.Reader)
			must(err)
		}
		return out
	}
	fw := &core.Tunnel{Hops: secrets(fwHops)}
	rp := &core.Tunnel{Hops: secrets(rpHops)}
	fwHints := []transport.Addr{1, 2, 3}
	rpHints := []transport.Addr{4, 5}
	stream := rng.New(1).Split("perfbench-ladder")
	key, err := crypt.NewKey(rand.Reader)
	must(err)
	codec := procnode.Codec{}

	l := &ladder{byName: make(map[string]func(n int))}
	rt, err := core.BuildReply(rp, rpHints, nodeID, stream)
	must(err)
	l.byName["core.build_reply_us"] = func(n int) {
		for i := 0; i < n; i++ {
			r, _ := core.BuildReply(rp, rpHints, nodeID, stream)
			sinkAny = r
		}
	}
	onion := make([]byte, len(rt.Onion))
	_, _, _, err = core.OpenReplyLayerInPlace(rp.Hops[0].Anchor, append(onion[:0], rt.Onion...))
	must(err)
	l.byName["core.open_reply_ns"] = func(n int) {
		for i := 0; i < n; i++ {
			copy(onion, rt.Onion)
			_, _, rest, _ := core.OpenReplyLayerInPlace(rp.Hops[0].Anchor, onion)
			sinkBytes = rest
		}
	}
	l.byName["tha.generate_us"] = func(n int) {
		for i := 0; i < n; i++ {
			s, _ := gen.Generate(rand.Reader)
			sinkID = s.HopID
		}
	}

	for _, sz := range ladderSizes {
		chunk := make([]byte, sz.n)
		_, err := rand.Read(chunk)
		must(err)
		env, err := core.BuildForward(fw, fwHints, nodeID, chunk, stream)
		must(err)
		kind, framePayload, err := codec.Encode(env)
		must(err)
		frame := wire.AppendFrame(nil, kind, framePayload)
		sealed, err := crypt.Seal(key, rand.Reader, chunk)
		must(err)
		_, err = core.OpenForwardLayerInPlace(fw.Hops[0].Anchor, append([]byte(nil), env.Sealed...))
		must(err)

		l.byName["core.build_forward_us."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				e, _ := core.BuildForward(fw, fwHints, nodeID, chunk, stream)
				sinkAny = e
			}
		}
		scratch := make([]byte, len(env.Sealed))
		l.byName["core.open_forward_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				copy(scratch, env.Sealed)
				layer, _ := core.OpenForwardLayerInPlace(fw.Hops[0].Anchor, scratch)
				sinkBytes = layer.Inner
			}
		}
		l.byName["procnode.codec_encode_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				_, p, _ := codec.Encode(env)
				sinkBytes = p
			}
		}
		l.byName["procnode.codec_decode_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				m, _ := codec.Decode(kind, framePayload)
				sinkAny = m
			}
		}
		dst := make([]byte, 0, len(frame))
		l.byName["wire.append_frame_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				dst = wire.AppendFrame(dst[:0], kind, framePayload)
			}
			sinkBytes = dst
		}
		rd := bytes.NewReader(frame)
		buf := make([]byte, len(framePayload))
		l.byName["wire.read_frame_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				rd.Reset(frame)
				_, p, _ := wire.ReadFrame(rd, buf)
				sinkBytes = p
			}
		}
		l.byName["crypt.seal_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				s, _ := crypt.Seal(key, rand.Reader, chunk)
				sinkBytes = s
			}
		}
		l.byName["crypt.open_ns."+sz.label] = func(n int) {
			for i := 0; i < n; i++ {
				p, _ := crypt.Open(key, sealed)
				sinkBytes = p
			}
		}
	}
	l.transportRungs(rep, nodeID)
	return l
}

// transportRungs adds the tcptransport rungs: two in-process transports
// over loopback, addresses 1 and 2.
func (l *ladder) transportRungs(rep *report, dest id.ID) {
	newTr := func() (*tcptransport.Transport, string) {
		reg := obs.NewRegistry()
		l.regs = append(l.regs, reg)
		tr := tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}, Registry: reg})
		hp, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			fatalf("ladder transport: %v", err)
		}
		return tr, hp
	}
	var hpA, hpB string
	l.a, hpA = newTr()
	l.b, hpB = newTr()
	l.a.SetPeer(2, hpB)
	l.b.SetPeer(1, hpA)

	// One-way rate: b counts arrivals and signals when a batch is in.
	// The batch stays well under SendQueue (256), so no frame drops.
	const batch = 128
	var got, want atomic.Int64
	echo := atomic.Bool{}
	arrived := make(chan struct{}, 1)
	l.a.Attach(1, transport.HandlerFunc(func(transport.Addr, transport.Message) { arrived <- struct{}{} }))
	l.b.Attach(2, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		if echo.Load() {
			l.b.Send(2, from, msg)
			return
		}
		if got.Add(1) == want.Load() {
			arrived <- struct{}{}
		}
	}))

	for _, sz := range ladderSizes {
		msg := &procnode.DataMsg{Dest: dest, Payload: make([]byte, sz.n)}
		l.byName["tcptransport.pingpong_us."+sz.label] = func(n int) {
			defer watchdog().Stop()
			echo.Store(true)
			for i := 0; i < n; i++ {
				l.a.Send(1, 2, msg)
				<-arrived
			}
		}
	}
	small := &procnode.DataMsg{Dest: dest, Payload: make([]byte, 64)}
	l.byName["tcptransport.frames_per_s.64b"] = func(n int) {
		defer watchdog().Stop()
		echo.Store(false)
		for sent := 0; sent < n; {
			k := min(batch, n-sent)
			want.Store(got.Load() + int64(k))
			for i := 0; i < k; i++ {
				l.a.Send(1, 2, small)
			}
			<-arrived
			sent += k
		}
	}
}

// watchdog fails the run if a transport rung stalls: a lost frame would
// otherwise leave it waiting forever.
func watchdog() *time.Timer {
	return time.AfterFunc(30*time.Second, func() { fatalf("ladder transport rung stalled: a frame was lost") })
}
