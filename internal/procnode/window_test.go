package procnode

import (
	"bytes"
	"crypto/rand"
	"sync/atomic"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/tha"
	"tap/internal/transport"
)

// interpose puts keep in front of n's handler: a message reaches n only
// when keep returns true. keep runs on n's dispatch loop.
func interpose(n *Node, keep func(from transport.Addr, msg transport.Message) bool) {
	n.tr.Detach(n.Addr)
	n.tr.Attach(n.Addr, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		if keep(from, msg) {
			n.Deliver(from, msg)
		}
	}))
}

// sevenNodeConfig is the integration test's shape over startOverlay:
// client 0, forward hops 1-3, destination 6, reply hops 4-5.
func sevenNodeConfig(chunk int, timeout time.Duration) StreamConfig {
	return StreamConfig{
		ForwardHops: []transport.Addr{1, 2, 3},
		ReplyHops:   []transport.Addr{4, 5},
		Dest:        6,
		ChunkSize:   chunk,
		Timeout:     timeout,
	}
}

func randomPayload(t *testing.T, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := rand.Read(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// waitNoAnchors waits for the deletes a finished exchange sent to land:
// every node's anchor gauge back at zero.
func waitNoAnchors(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := int64(0)
		for _, n := range nodes {
			held += n.m.anchorsHeld.Load()
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d anchors still held after the exchange", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowResendsDroppedChunk drops the first forward envelope the
// first hop sees. Its echo is the oldest outstanding one, so every other
// echo arrives first and opens only on a later key; the lost chunk is
// resent once, and the echo still comes back byte for byte.
func TestWindowResendsDroppedChunk(t *testing.T) {
	nodes := startOverlay(t, 7)
	client := nodes[0]
	var dropped atomic.Bool
	interpose(nodes[1], func(_ transport.Addr, msg transport.Message) bool {
		_, fw := msg.(*core.Envelope)
		return !fw || !dropped.CompareAndSwap(false, true)
	})
	payload := randomPayload(t, 8*64)
	echo, err := client.RoundTripStream(sevenNodeConfig(64, time.Second), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("no forward envelope was dropped")
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from the payload")
	}
	if got := client.m.streamRetransmits.Load(); got != 1 {
		t.Fatalf("%d retransmits, want 1", got)
	}
	if got := client.m.chunkRTT.Count(); got != 7 {
		t.Fatalf("%d chunk RTT samples, want 7: the resent chunk is not sampled", got)
	}
	waitNoAnchors(t, nodes)
}

// TestWindowReorderedReply holds the first echo back until the second
// has been delivered. Both still open, with no retransmission.
func TestWindowReorderedReply(t *testing.T) {
	nodes := startOverlay(t, 7)
	client := nodes[0]
	var (
		held      transport.Message
		heldFrom  transport.Addr
		reordered atomic.Bool
	)
	interpose(client, func(from transport.Addr, msg transport.Message) bool {
		if env, ok := msg.(*core.ReplyEnvelope); !ok || env.Target != client.ID || reordered.Load() {
			return true
		}
		if held == nil {
			held, heldFrom = msg, from
			return false
		}
		client.Deliver(from, msg)
		client.Deliver(heldFrom, held)
		reordered.Store(true)
		return false
	})
	payload := randomPayload(t, 8*64)
	echo, err := client.RoundTripStream(sevenNodeConfig(64, 0), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered.Load() {
		t.Fatal("no reply was held back")
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from the payload")
	}
	if got := client.m.streamRetransmits.Load(); got != 0 {
		t.Fatalf("%d retransmits, want 0", got)
	}
}

// TestDeployResendsOnlyUnackedAnchor drops one anchor ack: after the ack
// timer runs out, that anchor and no other is deployed again.
func TestDeployResendsOnlyUnackedAnchor(t *testing.T) {
	nodes := startOverlay(t, 7)
	client := nodes[0]
	var lostFrom atomic.Int64
	lostFrom.Store(-1)
	interpose(client, func(from transport.Addr, msg transport.Message) bool {
		_, ack := msg.(*AnchorAck)
		return !ack || !lostFrom.CompareAndSwap(-1, int64(from))
	})
	payload := randomPayload(t, 8*64)
	echo, err := client.RoundTripStream(sevenNodeConfig(64, time.Second), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo differs from the payload")
	}
	if got := client.m.streamRetransmits.Load(); got != 1 {
		t.Fatalf("%d retransmits, want 1", got)
	}
	lost := transport.Addr(lostFrom.Load())
	if lost < 1 || lost > 5 {
		t.Fatalf("dropped an ack from node %d, want a hop", lost)
	}
	for _, n := range nodes[1:6] {
		want := uint64(1)
		if n.Addr == lost {
			want = 2
		}
		if got := n.m.anchorInstalls.Load(); got != want {
			t.Errorf("node %d installed %d anchors, want %d", n.Addr, got, want)
		}
	}
	waitNoAnchors(t, nodes)
}

// TestBackToBackExchanges runs 200 exchanges in a row on one overlay, at
// the benchmark's two shapes: many small chunks all in the window at
// once, and 16 KiB chunks held back by the byte cap. Every echo is exact,
// nothing is resent, and every anchor deployed is deleted again.
func TestBackToBackExchanges(t *testing.T) {
	for _, sh := range []struct {
		name          string
		chunks, chunk int
	}{{"8x64B", 8, 64}, {"4x16KiB", 4, 16 << 10}} {
		t.Run(sh.name, func(t *testing.T) {
			nodes := startOverlay(t, 7)
			client := nodes[0]
			const exchanges = 200
			payloads := [][]byte{randomPayload(t, sh.chunks*sh.chunk), randomPayload(t, sh.chunks*sh.chunk)}
			cfg := sevenNodeConfig(sh.chunk, 0)
			for i := 0; i < exchanges; i++ {
				p := payloads[i%len(payloads)]
				echo, err := client.RoundTripStream(cfg, p)
				if err != nil {
					t.Fatalf("exchange %d: %v", i, err)
				}
				if !bytes.Equal(echo, p) {
					t.Fatalf("exchange %d: echo differs from the payload", i)
				}
			}
			if got := client.m.streamRetransmits.Load(); got != 0 {
				t.Fatalf("%d retransmits, want 0", got)
			}
			if got := client.m.streamChunks.Load(); got != exchanges*uint64(sh.chunks) {
				t.Fatalf("%d chunks round-tripped, want %d", got, exchanges*sh.chunks)
			}
			waitNoAnchors(t, nodes)
			var deleted uint64
			for _, n := range nodes {
				deleted += n.m.deletesOK.Load()
				if bad := n.m.deletesBadPW.Load() + n.m.deletesUnknown.Load(); bad != 0 {
					t.Errorf("node %d refused %d deletes", n.Addr, bad)
				}
			}
			if want := uint64(exchanges * 5); deleted != want {
				t.Fatalf("%d anchors deleted, want %d", deleted, want)
			}
		})
	}
}

// TestAnchorDeleteNeedsPassword: a delete with the wrong password leaves
// the anchor and its key schedule in place; the right one removes both;
// a second delete finds nothing.
func TestAnchorDeleteNeedsPassword(t *testing.T) {
	n, _ := relayUnderTest(t)
	gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := gen.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n.install(sec.Anchor)
	a, _ := n.anchor(sec.HopID)
	a.Sealer() // derive and cache the schedule, as a peel would
	if !a.ScheduleCached() {
		t.Fatal("schedule not cached")
	}

	wrong := sec.PW
	wrong[0] ^= 1
	n.Deliver(2, &AnchorDelete{HopID: sec.HopID, PW: wrong})
	if _, ok := n.anchors[sec.HopID]; !ok || !a.ScheduleCached() {
		t.Fatal("a wrong password removed the anchor")
	}
	if got := n.m.deletesBadPW.Load(); got != 1 {
		t.Fatalf("bad_pw deletes = %d, want 1", got)
	}

	n.Deliver(2, &AnchorDelete{HopID: sec.HopID, PW: sec.PW})
	if _, ok := n.anchors[sec.HopID]; ok {
		t.Fatal("the right password left the anchor in place")
	}
	if a.ScheduleCached() {
		t.Fatal("the deleted anchor's key schedule is still cached")
	}
	if got, held := n.m.deletesOK.Load(), n.m.anchorsHeld.Load(); got != 1 || held != 0 {
		t.Fatalf("ok deletes = %d, anchors held = %d; want 1, 0", got, held)
	}

	n.Deliver(2, &AnchorDelete{HopID: sec.HopID, PW: sec.PW})
	if got := n.m.deletesUnknown.Load(); got != 1 {
		t.Fatalf("unknown deletes = %d, want 1", got)
	}
}
