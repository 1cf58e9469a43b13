package procnode

import (
	"bytes"
	"crypto/rand"
	"fmt"
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

// strictLog fails t on any node log line: in these tests every one of
// them (a failed peel, an unroutable hop, a bad exit payload) means a
// frame arrived corrupted.
func strictLog(t *testing.T) func(format string, args ...any) {
	return func(format string, args ...any) {
		t.Errorf("node logged: "+format, args...)
	}
}

// roundTripClean runs one exchange and requires a byte-identical echo
// with no chunk resent: a corrupted frame fails its MAC at the next hop,
// is logged and dropped, and would surface as a resend.
func roundTripClean(t *testing.T, client *Node, cfg StreamConfig, payload []byte) {
	t.Helper()
	before := client.m.streamRetransmits.Load()
	echo, err := client.RoundTripStream(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echo of %d bytes differs from the payload", len(payload))
	}
	if r := client.m.streamRetransmits.Load() - before; r != 0 {
		t.Fatalf("%d chunks or anchors resent", r)
	}
}

// TestOwnershipLocalRelayAndEcho routes a tunnel through addresses that
// share a transport: forward hop 1 relays to hop 2 and the responder 3
// answers reply hop 4, each over the local path, while every relay
// recycles its frame buffers and the responder reuses its echo buffer.
// A local send that queued the caller's message by reference would hand
// hop 2 a frame buffer hop 1 had already given back, and hop 4 an echo
// buffer the responder had already resealed.
func TestOwnershipLocalRelayAndEcho(t *testing.T) {
	nodes := hostOverlay(t, [][]transport.Addr{{0}, {1, 2}, {3, 4}}, strictLog(t))
	cfg := StreamConfig{
		ForwardHops: []transport.Addr{1, 2},
		ReplyHops:   []transport.Addr{4, 1},
		Dest:        3,
	}
	for _, chunk := range []int{16 << 10, 4 << 10} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cfg.ChunkSize = chunk
			roundTripClean(t, nodes[0], cfg, randomPayload(t, 64*chunk))
		})
	}
}

// TestRecycleBulkExchange streams 64 chunks of 16 KiB through the
// seven-node overlay, whose relays all recycle their frame buffers: the
// echo comes back byte-identical, with nothing resent.
func TestRecycleBulkExchange(t *testing.T) {
	nodes := hostOverlay(t, [][]transport.Addr{{0}, {1}, {2}, {3}, {4}, {5}, {6}}, strictLog(t))
	roundTripClean(t, nodes[0], sevenNodeConfig(16<<10, 0), randomPayload(t, 64*16<<10))
}

// TestOwnershipParkedForward parks a relayed envelope and an echo behind
// a peer the relay cannot dial yet, recycles frame and echo buffers
// through the same relay meanwhile, then lets the peer appear: both
// parked messages arrive byte-identical. Parking by reference would send
// whatever later frames and echoes left in those buffers.
func TestOwnershipParkedForward(t *testing.T) {
	newTr := func() (*tcptransport.Transport, string) {
		tr := tcptransport.New(tcptransport.Config{Codec: Codec{}, Logf: t.Logf})
		t.Cleanup(tr.Close)
		hp, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return tr, hp
	}
	const senderAddr, relayAddr, sinkAddr, lateAddr = 0, 1, 2, 3
	sender, _ := newTr()
	relayTr, relayHP := newTr()
	sinkTr, sinkHP := newTr()
	lateTr, lateHP := newTr()
	sender.SetPeer(relayAddr, relayHP)
	relay := New(relayTr, relayAddr, strictLog(t), obs.NewRegistry())
	relay.SetPeers(map[transport.Addr]string{sinkAddr: sinkHP}) // lateAddr is unknown for now

	sunk := make(chan struct{}, 256) // outsizes the churn: the sink never blocks its loop
	sinkTr.Attach(sinkAddr, transport.HandlerFunc(func(transport.Addr, transport.Message) { sunk <- struct{}{} }))
	var (
		mu      sync.Mutex
		arrived []transport.Message
	)
	late := make(chan struct{}, 2) // one per parked message
	lateTr.Attach(lateAddr, transport.HandlerFunc(func(_ transport.Addr, msg transport.Message) {
		mu.Lock()
		arrived = append(arrived, msg)
		mu.Unlock()
		late <- struct{}{}
	}))

	senderID := NodeID(senderAddr)
	gen, err := tha.NewGenerator(senderID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	secret := func() tha.Secret {
		s, err := gen.Generate(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stream := rng.New(7).Split("parked-forward")
	var anchors []tha.Anchor
	// relayed is an envelope whose first layer the relay peels and relays
	// to next; it returns the envelope and the one the relay should send.
	relayed := func(next transport.Addr, seq uint64) (*core.Envelope, *core.Envelope) {
		tun := &core.Tunnel{Hops: []tha.Secret{secret(), secret()}}
		anchors = append(anchors, tun.Hops[0].Anchor)
		chunk := bytes.Repeat([]byte{byte(seq)}, 16<<10)
		env, err := core.BuildForward(tun, []transport.Addr{relayAddr, next}, id.HashString("dest"), chunk, stream)
		if err != nil {
			t.Fatal(err)
		}
		layer, err := core.OpenForwardLayer(tun.Hops[0].Anchor, env.Sealed)
		if err != nil {
			t.Fatal(err)
		}
		return env, &core.Envelope{HopID: layer.Next, Hint: layer.NextHint, Sealed: layer.Inner}
	}
	// request is an envelope whose exit layer asks the relay, as
	// responder, to echo chunk down a reply tunnel headed at next.
	request := func(next transport.Addr, key crypt.Key, chunk []byte) *core.Envelope {
		fw := &core.Tunnel{Hops: []tha.Secret{secret()}}
		anchors = append(anchors, fw.Hops[0].Anchor)
		rt, err := core.BuildReply(&core.Tunnel{Hops: []tha.Secret{secret()}}, []transport.Addr{next}, NodeID(senderAddr), stream)
		if err != nil {
			t.Fatal(err)
		}
		req := encodeRequest(1, 0, true, key, rt.Encode(), chunk)
		env, err := core.BuildForward(fw, []transport.Addr{relayAddr}, relay.ID, req, stream)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	parkedEnv, wantEnv := relayed(lateAddr, 0)
	echoKey, err := crypt.NewKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	echoChunk := bytes.Repeat([]byte("parked echo "), 1400)
	parkedReq := request(lateAddr, echoKey, echoChunk)
	const churn = 40
	var churnMsgs []transport.Message
	for i := 0; i < churn; i++ {
		env, _ := relayed(sinkAddr, uint64(i+1))
		key, err := crypt.NewKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		churnMsgs = append(churnMsgs, env, request(sinkAddr, key, bytes.Repeat([]byte{byte(i)}, 16<<10)))
	}
	installed := make(chan struct{})
	relayTr.Schedule(0, func() {
		for _, a := range anchors {
			relay.install(a)
		}
		close(installed)
	})
	<-installed

	sender.Send(senderAddr, relayAddr, parkedEnv)
	sender.Send(senderAddr, relayAddr, parkedReq)
	for i, m := range churnMsgs {
		sender.Send(senderAddr, relayAddr, m)
		select {
		case <-sunk:
		case <-time.After(10 * time.Second):
			t.Fatalf("churn message %d never reached the sink", i)
		}
	}
	if relay.m.parkRetries.Load() == 0 {
		t.Fatal("nothing parked: the relay could already reach the late peer")
	}
	relayTr.SetPeer(lateAddr, lateHP)
	for i := 0; i < 2; i++ {
		select {
		case <-late:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 parked messages arrived", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, msg := range arrived {
		switch m := msg.(type) {
		case *core.Envelope:
			if m.HopID != wantEnv.HopID || m.Hint != wantEnv.Hint || !bytes.Equal(m.Sealed, wantEnv.Sealed) {
				t.Error("parked envelope arrived changed")
			}
		case *core.ReplyEnvelope:
			plain, err := crypt.NewSealer(echoKey).OpenInPlace(m.Data)
			if err != nil {
				t.Errorf("parked echo does not open: %v", err)
				continue
			}
			r := wire.NewReader(plain)
			r.Uint64()
			r.Uint32()
			r.Byte()
			if got := r.Blob(); r.Done() != nil || !bytes.Equal(got, echoChunk) {
				t.Errorf("parked echo carries %q..., want %q...", got[:min(len(got), 12)], echoChunk[:12])
			}
		default:
			t.Errorf("unexpected %T at the late peer", msg)
		}
	}
}
