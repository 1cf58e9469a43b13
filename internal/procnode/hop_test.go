package procnode

import (
	"bytes"
	"context"
	"crypto/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// discardConn swallows writes and reports their lengths on wrote. Reads
// block until Close.
type discardConn struct {
	wrote  chan int
	closed chan struct{}
	once   sync.Once
}

// The wrote buffer holds far more writes than one relayed frame makes,
// so the writer never waits on a counter that is about to drain.
func newDiscardConn() *discardConn {
	return &discardConn{wrote: make(chan int, 1024), closed: make(chan struct{})}
}

func (c *discardConn) Write(p []byte) (int, error) {
	select {
	case c.wrote <- len(p):
	default: // nobody counting
	}
	return len(p), nil
}

// drain blocks until n bytes have been written.
func (c *discardConn) drain(n int) {
	for n > 0 {
		n -= <-c.wrote
	}
}

func (c *discardConn) Read([]byte) (int, error)         { <-c.closed; return 0, net.ErrClosed }
func (c *discardConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

type discardDialer struct{ conn *discardConn }

func (d discardDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	return d.conn, nil
}

// relayUnderTest is a node at address 1 whose only peer, address 2, is a
// discard connection: every envelope it relays is encoded and written,
// then thrown away.
func relayUnderTest(tb testing.TB) (*Node, *discardConn) {
	tb.Helper()
	conn := newDiscardConn()
	tr := tcptransport.New(tcptransport.Config{Codec: Codec{}, Dialer: discardDialer{conn}})
	tb.Cleanup(tr.Close)
	tr.SetPeer(2, "discard:0")
	return New(tr, 1, tb.Logf, obs.NewRegistry()), conn
}

// twoHopTunnel mints a tunnel whose first hop is to be installed on the
// relay under test; the second hop is hinted at the discard peer.
func twoHopTunnel(tb testing.TB, gen *tha.Generator) *core.Tunnel {
	tb.Helper()
	hops := make([]tha.Secret, 2)
	for i := range hops {
		var err error
		if hops[i], err = gen.Generate(rand.Reader); err != nil {
			tb.Fatal(err)
		}
	}
	return &core.Tunnel{Hops: hops}
}

// TestScheduleCacheBounded installs 10k anchors on one node and peels a
// forward envelope through each: the anchors holding a derived key
// schedule never outnumber the ring, and an anchor whose schedule was
// evicted long ago still peels, deriving its schedule again.
func TestScheduleCacheBounded(t *testing.T) {
	n, _ := relayUnderTest(t)
	gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(1).Split("schedule-cache")
	const anchors = 10_000
	tunnels := make([]*core.Tunnel, anchors)
	for i := range tunnels {
		tunnels[i] = twoHopTunnel(t, gen)
		n.install(tunnels[i].Hops[0].Anchor)
	}
	cached := func() int {
		c := 0
		for _, a := range n.anchors {
			if a.ScheduleCached() {
				c++
			}
		}
		return c
	}
	peel := func(tun *core.Tunnel) {
		t.Helper()
		env, err := core.BuildForward(tun, []transport.Addr{1, 2}, id.HashString("dest"), []byte("chunk"), stream)
		if err != nil {
			t.Fatal(err)
		}
		before := n.m.relaysForwarded.Load()
		n.handleForward(env)
		if n.m.relaysForwarded.Load() != before+1 {
			t.Fatalf("peel through anchor %s did not relay", tun.Hops[0].HopID.Short())
		}
	}
	for i, tun := range tunnels {
		peel(tun)
		if i%100 == 99 || i < scheduleCacheSize+2 {
			if c := cached(); c > scheduleCacheSize {
				t.Fatalf("after %d peels %d anchors hold a schedule, bound %d", i+1, c, scheduleCacheSize)
			}
		}
	}
	if c := cached(); c != scheduleCacheSize {
		t.Fatalf("%d cached schedules after %d peels, want the full ring of %d", c, anchors, scheduleCacheSize)
	}
	first := n.anchors[tunnels[0].Hops[0].HopID]
	if first.ScheduleCached() {
		t.Fatal("the first anchor's schedule survived 10k later admissions")
	}
	peel(tunnels[0])
	if !n.anchors[tunnels[0].Hops[0].HopID].ScheduleCached() {
		t.Fatal("re-peeling an evicted anchor did not re-admit it")
	}
	if c := cached(); c > scheduleCacheSize {
		t.Fatalf("%d cached schedules after re-admission, bound %d", c, scheduleCacheSize)
	}
}

// TestSealEchoMatchesSeal pins the responder's in-place echo sealing to
// crypt.Seal over the wire-encoded echo: same key and nonce, same bytes,
// also when the sealing buffer is reused, dirty, across sizes up and down.
func TestSealEchoMatchesSeal(t *testing.T) {
	key, err := crypt.NewKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, size := range []int{0, 1, 64, 127, 128, 1000, 1100, 16 << 10, 1100, 64, 0, 16 << 10} {
		chunk := make([]byte, size)
		rand.Read(chunk)
		nonce := make([]byte, crypt.NonceSize)
		rand.Read(nonce)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xa5
		}
		got, err := sealEcho(buf, key, bytes.NewReader(nonce), 7, 3, 1, chunk)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		w := wire.NewWriter(0)
		w.Uint64(7)
		w.Uint32(3)
		w.Byte(1)
		w.Blob(chunk)
		want, err := crypt.Seal(key, bytes.NewReader(nonce), w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte chunk: in-place echo differs from crypt.Seal", size)
		}
	}
}

// BenchmarkRelayHop measures one relay hop on the process path: decode a
// forward-envelope frame from a read buffer the codec aliases, peel one
// layer in place on a cached key schedule, encode the next envelope into
// a pooled buffer and write the frame to a connection that discards it.
// The per-iteration copy of the frame stands in for the transport's
// read; like the transport, the hop reads into the same buffer again
// whenever DeliverFrame reports done, and into a fresh one otherwise.
func BenchmarkRelayHop(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"16KiB", 16 << 10}} {
		b.Run(sz.name, func(b *testing.B) {
			n, conn := relayUnderTest(b)
			gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			tun := twoHopTunnel(b, gen)
			n.install(tun.Hops[0].Anchor)
			chunk := make([]byte, sz.n)
			env, err := core.BuildForward(tun, []transport.Addr{1, 2}, id.HashString("dest"), chunk, rng.New(1).Split("relay-hop"))
			if err != nil {
				b.Fatal(err)
			}
			var codec Codec
			kind, frame, err := codec.Encode(env)
			if err != nil {
				b.Fatal(err)
			}
			// The relayed frame: transport header plus the next envelope,
			// one layer shorter (its padding rides as a count).
			layer, err := core.OpenForwardLayer(tun.Hops[0].Anchor, env.Sealed)
			if err != nil {
				b.Fatal(err)
			}
			out := wire.FrameHeaderSize + 16 + encodedSize(&core.Envelope{Sealed: layer.Inner})
			var buf []byte
			hop := func() {
				if buf == nil {
					buf = make([]byte, len(frame))
				}
				copy(buf, frame)
				msg, err := codec.Decode(kind, buf)
				if err != nil {
					b.Fatal(err)
				}
				if !n.DeliverFrame(0, msg) {
					buf = nil
				}
				conn.drain(out)
			}
			hop() // dial and warm the pools
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop()
			}
		})
	}
}
