package procnode

import (
	"bytes"
	"crypto/rand"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/obs"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
)

// startOverlay brings up n nodes, each with its own tcptransport over
// localhost TCP, all fully meshed through a shared peer table — the same
// wiring the bulletin board performs for real processes.
func startOverlay(t *testing.T, n int) []*Node {
	t.Helper()
	hosts := make([][]transport.Addr, n)
	for i := range hosts {
		hosts[i] = []transport.Addr{transport.Addr(i)}
	}
	byAddr := hostOverlay(t, hosts, t.Logf)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = byAddr[transport.Addr(i)]
	}
	return nodes
}

// hostOverlay is startOverlay with several addresses per transport:
// hosts[i] lists the node addresses transport i carries, and sends
// between co-hosted addresses take the transport's local path. Every
// node logs through logf.
func hostOverlay(t *testing.T, hosts [][]transport.Addr, logf func(string, ...any)) map[transport.Addr]*Node {
	t.Helper()
	peers := make(map[transport.Addr]string)
	trs := make([]*tcptransport.Transport, len(hosts))
	for i, addrs := range hosts {
		trs[i] = tcptransport.New(tcptransport.Config{Codec: Codec{}, Logf: t.Logf})
		t.Cleanup(trs[i].Close)
		hp, err := trs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			peers[a] = hp
		}
	}
	nodes := make(map[transport.Addr]*Node)
	for i, addrs := range hosts {
		for _, a := range addrs {
			nodes[a] = New(trs[i], a, logf, obs.NewRegistry())
		}
	}
	for _, n := range nodes {
		n.SetPeers(peers)
	}
	return nodes
}

func TestNodeIDDeterministic(t *testing.T) {
	if NodeID(3) != NodeID(3) {
		t.Fatal("NodeID not deterministic")
	}
	if NodeID(3) == NodeID(4) {
		t.Fatal("NodeID collision across addresses")
	}
}

func TestAnchorDeployAck(t *testing.T) {
	nodes := startOverlay(t, 2)
	client, holder := nodes[0], nodes[1]

	gen, err := tha.NewGenerator(client.ID[:], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := gen.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.deploy([]transport.Addr{holder.Addr}, []tha.Secret{sec}, StreamConfig{Timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if held := holder.m.anchorsHeld.Load(); held != 1 {
		t.Fatalf("holder stores %d anchors", held)
	}
}

func TestRoundTripStreamSingleChunk(t *testing.T) {
	nodes := startOverlay(t, 7)
	client := nodes[0]
	payload := []byte("the quick brown fox jumps over the lazy dog")
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2, 3},
		ReplyHops:   []transport.Addr{4, 5},
		Dest:        6,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echo mismatch: %q", echo)
	}
}

func TestRoundTripStreamMultiChunk(t *testing.T) {
	nodes := startOverlay(t, 6)
	client := nodes[0]
	payload := bytes.Repeat([]byte("tunnel-hop-anchors!"), 200) // ~3.8 KiB
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2},
		ReplyHops:   []transport.Addr{3, 4},
		Dest:        5,
		ChunkSize:   256,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echo mismatch: %d vs %d bytes", len(echo), len(payload))
	}
}

// TestRelayCannotReadPayload is the anonymity sanity check in process
// form: a relay hop sees only the envelope addressed to its own hopid —
// sealed bytes that do not contain the plaintext.
func TestRelayCannotReadPayload(t *testing.T) {
	nodes := startOverlay(t, 4)
	client := nodes[0]

	// Capture what node 1 (the first forward hop) receives by wrapping
	// its handler. Detach the node and interpose.
	relay := nodes[1]
	var seen [][]byte
	relay.tr.Detach(relay.Addr)
	relay.tr.Attach(relay.Addr, transport.HandlerFunc(func(from transport.Addr, msg transport.Message) {
		if env, ok := msg.(*core.Envelope); ok {
			seen = append(seen, append([]byte(nil), env.Sealed...))
		}
		relay.Deliver(from, msg)
	}))

	secret := []byte("SECRET-PAYLOAD-MARKER")
	echo, err := client.RoundTripStream(StreamConfig{
		ForwardHops: []transport.Addr{1, 2},
		ReplyHops:   []transport.Addr{2, 1},
		Dest:        3,
	}, secret)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, secret) {
		t.Fatal("echo mismatch")
	}
	if len(seen) == 0 {
		t.Fatal("interposer saw no envelopes")
	}
	for i, s := range seen {
		if bytes.Contains(s, secret) {
			t.Fatalf("envelope %d leaks the plaintext payload", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var c Codec
	msgs := []transport.Message{
		&AnchorAck{HopID: NodeID(9)},
		&core.Envelope{HopID: NodeID(1), Hint: 4, Sealed: []byte("sealed"), Pad: 3},
		&core.ReplyEnvelope{Target: NodeID(2), Hint: transport.NoAddr, Onion: []byte("onion"), Data: []byte("data"), Pad: 1},
		&DataMsg{Dest: NodeID(3), Payload: []byte("payload")},
	}
	for _, m := range msgs {
		kind, payload, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := c.Decode(kind, payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		switch want := m.(type) {
		case *AnchorAck:
			if *got.(*AnchorAck) != *want {
				t.Fatalf("ack mismatch")
			}
		case *core.Envelope:
			g := got.(*core.Envelope)
			if g.HopID != want.HopID || g.Hint != want.Hint || !bytes.Equal(g.Sealed, want.Sealed) || g.Pad != want.Pad {
				t.Fatalf("envelope mismatch")
			}
		case *core.ReplyEnvelope:
			g := got.(*core.ReplyEnvelope)
			if g.Target != want.Target || g.Hint != want.Hint || !bytes.Equal(g.Onion, want.Onion) ||
				!bytes.Equal(g.Data, want.Data) || g.Pad != want.Pad {
				t.Fatalf("reply envelope mismatch")
			}
		case *DataMsg:
			g := got.(*DataMsg)
			if g.Dest != want.Dest || !bytes.Equal(g.Payload, want.Payload) {
				t.Fatalf("data mismatch")
			}
		}
	}
	if _, err := c.Decode(99, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
