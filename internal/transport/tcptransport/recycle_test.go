package tcptransport

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tap/internal/transport"
)

// recycler is a RecyclingHandler: whatever the function returns is the
// done answer.
type recycler func(from transport.Addr, msg transport.Message) bool

func (r recycler) Deliver(from transport.Addr, msg transport.Message) { r(from, msg) }

func (r recycler) DeliverFrame(from transport.Addr, msg transport.Message) bool { return r(from, msg) }

// errList collects failures reported from the dispatch loop.
type errList struct {
	mu   sync.Mutex
	errs []error
}

func (e *errList) add(err error) {
	e.mu.Lock()
	e.errs = append(e.errs, err)
	e.mu.Unlock()
}

func (e *errList) check(t *testing.T) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, err := range e.errs {
		if i == 10 {
			t.Errorf("... and %d more", len(e.errs)-10)
			break
		}
		t.Error(err)
	}
}

// churnPool takes a pooled buffer of the class n falls in, scribbles over
// all of it and gives it back — what a reader does with a recycled
// buffer. A buffer handed back while a message still aliases it comes
// out of the pool here, so the scribble lands in that message.
func churnPool(n int) {
	b, bp := frameBuffer(true, n)
	copy(b[:cap(b)], scribble)
	recycleFrame(bp)
}

var scribble = bytes.Repeat([]byte{0xee}, maxPooledFrame)

// TestOwnershipPlainHandlerKeepsFrame: a plain Handler may keep what it
// is given, so its frame buffers are never reused. It keeps every 16 KiB
// message it receives while a RecyclingHandler on the same transport
// churns the frame pool, and after 1,000 later frames all of them still
// hold their bytes.
func TestOwnershipPlainHandlerKeepsFrame(t *testing.T) {
	a, b := newPair(t)
	a.SetPeer(2, b.ln.Addr().String())
	var (
		mu   sync.Mutex
		kept [][]byte
		errs errList
	)
	arrived := make(chan struct{}, 64) // outsizes a batch: handlers never block the loop
	b.Attach(1, transport.HandlerFunc(func(_ transport.Addr, msg transport.Message) {
		mu.Lock()
		kept = append(kept, msg.(textMsg).body)
		mu.Unlock()
		arrived <- struct{}{}
	}))
	b.Attach(2, recycler(func(_ transport.Addr, msg transport.Message) bool {
		body := msg.(textMsg).body
		if _, err := checkStamp(body, bulkBody); err != nil {
			errs.add(err)
		}
		churnPool(len(body))
		arrived <- struct{}{}
		return true
	}))

	const frames, batch = 1001, 16
	for sent := 0; sent < frames; {
		k := min(batch, frames-sent)
		for i := 0; i < k; i++ {
			id := uint64(sent + i)
			a.Send(0, transport.Addr(1+id%2), textMsg{body: bulkBody(id)})
		}
		for i := 0; i < k; i++ {
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Fatalf("frame %d of %d never arrived (dropped %d)", sent+i, frames, a.m.dropped())
			}
		}
		sent += k
	}
	errs.check(t)
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != (frames+1)/2 {
		t.Fatalf("plain handler kept %d messages, want %d", len(kept), (frames+1)/2)
	}
	for i, body := range kept {
		if _, err := checkStamp(body, bulkBody); err != nil {
			t.Fatalf("kept message %d changed after %d later frames: %v", i, frames-1-2*i, err)
		}
	}
}

// TestOwnershipRecycledOnlyAfterDeliver: a RecyclingHandler's buffer goes
// back to the pool only after DeliverFrame returns. The handler checks
// its message, churns the pool and sleeps — letting two busy connections
// read more frames — and checks the message again before it returns. A
// buffer recycled before the call would be scribbled over in between.
func TestOwnershipRecycledOnlyAfterDeliver(t *testing.T) {
	a1, b := newPair(t)
	a2 := New(Config{Codec: textCodec{}})
	t.Cleanup(a2.Close)
	a2.SetPeer(1, b.ln.Addr().String())

	var errs errList
	seen := make(chan struct{}, 1024) // outsizes the 300 messages sent
	b.Attach(1, recycler(func(_ transport.Addr, msg transport.Message) bool {
		body := msg.(textMsg).body
		before, err := checkStamp(body, bulkBody)
		if err != nil {
			errs.add(fmt.Errorf("on entry: %w", err))
		}
		churnPool(len(body))
		time.Sleep(20 * time.Microsecond)
		if after, err := checkStamp(body, bulkBody); err != nil || after != before {
			errs.add(fmt.Errorf("message %d changed during DeliverFrame: %v", before, err))
		}
		seen <- struct{}{}
		return true
	}))

	const perSender = 150
	var wg sync.WaitGroup
	for g, a := range []*Transport{a1, a2} {
		wg.Add(1)
		go func(g int, a *Transport) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				a.Send(0, 1, textMsg{body: bulkBody(uint64(g*perSender + i))})
				if i%16 == 15 {
					time.Sleep(time.Millisecond) // let the writer drain: no queue-full drops
				}
			}
		}(g, a)
	}
	wg.Wait()
	deadline := time.After(10 * time.Second)
	for got := 0; got+int(a1.m.dropped()+a2.m.dropped()) < 2*perSender; got++ {
		select {
		case <-seen:
		case <-deadline:
			t.Fatalf("delivered %d of %d", got, 2*perSender)
		}
	}
	errs.check(t)
}

// TestRecycleSteadyStateAllocs relays 16 KiB frames a → b → a through
// RecyclingHandlers: b forwards each one and reports done, a takes it
// and reports done. Once the pools are warm, a round trip (two frames
// read, two written) must allocate no payload-sized buffer.
func TestRecycleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random in race builds")
	}
	a, b := newPair(t)
	back := make(chan struct{}, 1)
	a.Attach(0, recycler(func(transport.Addr, transport.Message) bool { back <- struct{}{}; return true }))
	b.Attach(1, recycler(func(from transport.Addr, msg transport.Message) bool {
		b.Send(1, from, msg) // encodes before it returns
		return true
	}))
	msg := textMsg{body: bulkBody(1)}
	roundTrip := func() {
		a.Send(0, 1, msg)
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			t.Fatal("round trip lost a frame")
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip() // dial, warm the pools
	}
	const runs = 500
	allocs := testing.AllocsPerRun(runs, roundTrip)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.1f allocs, %d B per round trip of two %d-byte frames", allocs, perTrip, len(msg.body))
	// Boxing each decoded message costs a small allocation per frame; a
	// read buffer per frame would cost 2 × 16 KiB.
	if allocs > 8 {
		t.Errorf("%.1f allocations per round trip, want at most 8", allocs)
	}
	if perTrip > 2<<10 {
		t.Errorf("%d bytes allocated per round trip, want at most 2 KiB", perTrip)
	}
}
