package tcptransport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"tap/internal/transport"
)

// stampedBody is a self-checking message body: an 8-byte id followed by
// a length and a fill pattern that both derive from the id. A frame
// written from a buffer that was recycled (and re-encoded by another
// Send) before its writev finished arrives carrying another message's
// bytes, which fails the length or pattern check, or shows up as a
// duplicate id.
func stampedBody(msgID uint64) []byte {
	n := 8 + int(msgID*7919%3000)
	b := make([]byte, n)
	binary.BigEndian.PutUint64(b, msgID)
	for i := 8; i < n; i++ {
		b[i] = byte(msgID) ^ byte(i)
	}
	return b
}

func checkStamped(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("runt body of %d bytes", len(b))
	}
	msgID := binary.BigEndian.Uint64(b)
	want := stampedBody(msgID)
	if len(b) != len(want) {
		return msgID, fmt.Errorf("message %d: %d bytes, want %d", msgID, len(b), len(want))
	}
	for i := range b {
		if b[i] != want[i] {
			return msgID, fmt.Errorf("message %d: byte %d is %#x, want %#x", msgID, i, b[i], want[i])
		}
	}
	return msgID, nil
}

// stampCollector checks every delivered body and counts deliveries.
type stampCollector struct {
	mu   sync.Mutex
	seen map[uint64]bool
	errs []error
	n    chan struct{}
}

// The n buffer outsizes every test's message count, so Deliver never
// blocks the dispatch loop.
func newStampCollector() *stampCollector {
	return &stampCollector{seen: make(map[uint64]bool), n: make(chan struct{}, 1<<16)}
}

func (c *stampCollector) Deliver(_ transport.Addr, msg transport.Message) {
	msgID, err := checkStamped(msg.(textMsg).body)
	c.mu.Lock()
	if err == nil && c.seen[msgID] {
		err = fmt.Errorf("message %d delivered twice", msgID)
	}
	c.seen[msgID] = true
	if err != nil {
		c.errs = append(c.errs, err)
	}
	c.mu.Unlock()
	c.n <- struct{}{}
}

func (c *stampCollector) check(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, err := range c.errs {
		if i == 10 {
			t.Errorf("... and %d more", len(c.errs)-10)
			break
		}
		t.Error(err)
	}
}

// TestPooledBuffersOwnedUntilWritten sends distinct payloads from many
// goroutines over a loopback pair and requires every delivered body to
// be exactly the one sent. Encode buffers are pooled, so a buffer handed
// back before its writev completed would put one message's bytes on the
// wire under another's frame.
func TestPooledBuffersOwnedUntilWritten(t *testing.T) {
	a, b := newPair(t)
	c := newStampCollector()
	b.Attach(1, c)

	const senders, perSender = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				a.Send(0, 1, textMsg{body: stampedBody(uint64(g*perSender + i))})
				if i%16 == 15 {
					time.Sleep(time.Millisecond) // let the writer drain: no queue-full drops
				}
			}
		}(g)
	}
	wg.Wait()
	delivered := 0
	deadline := time.After(10 * time.Second)
	for delivered+int(a.Stats().Dropped) < senders*perSender {
		select {
		case <-c.n:
			delivered++
		case <-deadline:
			t.Fatalf("delivered %d of %d (dropped %d)", delivered, senders*perSender, a.Stats().Dropped)
		}
	}
	c.check(t)
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestPooledBuffersOwnedAcrossDrops drives every drop path while the
// writer is busy — a queue of four so sends overflow, and endpoint
// changes that tear the peer down with frames still queued — and then
// checks that whatever did arrive is intact. A buffer recycled on a drop
// path while still queued (or recycled twice) would surface as a
// corrupted or duplicated delivery.
func TestPooledBuffersOwnedAcrossDrops(t *testing.T) {
	a := New(Config{Codec: textCodec{}, SendQueue: 4})
	b := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := newStampCollector()
	b.Attach(1, c)
	a.SetPeer(1, bAddr)

	const senders, perSender = 6, 400
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		// Flip the endpoint: each change tears the live peer down
		// (discardQueued) and the next Send dials afresh.
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				a.SetPeer(1, bAddr)
				return
			case <-time.After(2 * time.Millisecond):
			}
			if i%2 == 0 {
				a.SetPeer(1, "127.0.0.1:1") // nothing listens: dial fails
			} else {
				a.SetPeer(1, bAddr)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				a.Send(0, 1, textMsg{body: stampedBody(uint64(g*perSender + i))})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-churned

	// Everything handed to Send is accounted for once the queues settle:
	// delivered by b, or dropped by a.
	deadline := time.After(10 * time.Second)
	delivered := 0
	for {
		select {
		case <-c.n:
			delivered++
			continue
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatalf("accounting never settled: delivered %d, dropped %d, sent %d",
				delivered, a.Stats().Dropped, senders*perSender)
		}
		if a.m.queueDepth.Load() == 0 && delivered+int(a.Stats().Dropped) >= senders*perSender {
			break
		}
	}
	c.check(t)
	st := a.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops: the drop paths were not exercised")
	}
	if got := uint64(delivered) + st.Dropped; got < senders*perSender {
		t.Fatalf("delivered %d + dropped %d < sent %d", delivered, st.Dropped, senders*perSender)
	}
}

// retainingCodec encodes into a buffer of its own instead of dst, keeps
// every buffer it returns, and complains if the transport ever hands one
// back to it as dst — which it would if it pooled a slice the codec
// still owns.
type retainingCodec struct {
	textCodec
	mu       sync.Mutex
	retained [][]byte
	bodies   [][]byte
	errs     []error
}

func (c *retainingCodec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	body := msg.(textMsg).body
	c.mu.Lock()
	defer c.mu.Unlock()
	if cap(dst) > 0 {
		for _, r := range c.retained {
			if &dst[:1][0] == &r[:1][0] {
				c.errs = append(c.errs, fmt.Errorf("transport pooled a codec-owned buffer"))
			}
		}
	}
	own := append(append(make([]byte, 0, len(dst)+len(body)), dst...), body...)
	c.retained = append(c.retained, own)
	c.bodies = append(c.bodies, append([]byte(nil), own...))
	return 1, own, nil
}

func TestCodecOwnedSliceNotPooled(t *testing.T) {
	codec := &retainingCodec{}
	a := New(Config{Codec: codec})
	b := New(Config{Codec: textCodec{}})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, bAddr)
	c := newStampCollector()
	b.Attach(1, c)
	const n = 300
	for i := 0; i < n; i++ {
		a.Send(0, 1, textMsg{body: stampedBody(uint64(i))})
		if i%32 == 31 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got+int(a.Stats().Dropped) < n; got++ {
		select {
		case <-c.n:
		case <-deadline:
			t.Fatalf("delivered %d of %d", got, n)
		}
	}
	c.check(t)
	codec.mu.Lock()
	defer codec.mu.Unlock()
	for _, err := range codec.errs {
		t.Fatal(err)
	}
	for i, r := range codec.retained {
		if string(r) != string(codec.bodies[i]) {
			t.Fatalf("codec-owned buffer %d was written to after encode", i)
		}
	}
}
