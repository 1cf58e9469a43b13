// Package tcptransport implements the transport seam over real TCP
// connections between OS processes.
//
// Where the simulator models a link, this package opens one: every
// message is encoded by an application-supplied Codec, framed with
// internal/wire's length-prefixed magic/version header, and written to a
// per-peer TCP connection that is dialed on first use and reused for the
// peer's lifetime. Addresses stay the seam's small dense integers; a peer
// table maps each to a host:port, fed by the bulletin board
// (internal/board) in a deployment.
//
// Concurrency model. The transport preserves the seam's contract that
// engine callbacks never run concurrently: message deliveries, Schedule
// callbacks, and watcher notifications are all funneled through a single
// dispatch goroutine (the "loop"). Socket I/O lives on its own
// goroutines — one reader per accepted connection, one writer per dialed
// peer — so a slow peer never stalls the loop; a full outbound queue
// drops messages instead, which is exactly the unreliable-send semantics
// the seam promises and the layers above already recover from.
//
// Data path. Send encodes each message straight into a pooled buffer
// (Codec.AppendEncode) and queues it beside its 24-byte frame header; the
// peer's writer drains whatever is queued, up to writeBatch frames, into
// one writev (net.Buffers) and then recycles the buffers. Readers wrap
// each connection in a bufio.Reader and read every frame into a buffer of
// its own that the codec's Decode keeps, so decoded messages alias it
// instead of copying. One relayed frame thus costs one payload-sized
// allocation (the read buffer) and no transport-side payload copies.
//
// Dialing goes through the Dialer seam: the default is a net.Dialer with
// Config.DialTimeout, and tests (or an onion-routed deployment wrapping
// connections in another transport) inject their own — the same
// wrapper-with-transparent-fallback shape as a TorDialer around a node
// dialer.
//
// Trust model. The transport assumes it runs on a trusted network
// segment (localhost testbeds, a closed lab LAN): frames carry their
// source address in cleartext, inbound connections are not
// authenticated, and nothing is encrypted at this layer. See DESIGN.md
// §14 ("Trust model") for what that does and does not cost, and the
// Dialer seam for where a hardened deployment slots in an authenticated
// channel.
package tcptransport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tap/internal/obs"
	"tap/internal/transport"
	"tap/internal/wire"
)

// Codec translates between engine messages and frame payloads.
//
// AppendEncode appends msg's payload to dst and returns the frame kind
// and the extended slice, with append's contract: the result holds dst's
// bytes followed by the payload. dst is a buffer from the transport's
// pool, presized from msg.SizeBytes(), and goes back to the pool once the
// frame has been written (or dropped) — so the codec must retain neither
// dst nor the result. A result that does not share dst's backing array
// (the codec returned a buffer of its own, or append had to grow) is
// written but never pooled.
//
// Decode owns payload: every frame is read into a fresh buffer that the
// transport never touches again, so decoded messages may alias it
// instead of copying.
type Codec interface {
	AppendEncode(dst []byte, msg transport.Message) (kind byte, out []byte, err error)
	Decode(kind byte, payload []byte) (transport.Message, error)
}

// frameHeaderSize is the fixed prefix of every transport frame: the wire
// header followed by the source and destination addresses.
const frameHeaderSize = wire.FrameHeaderSize + 16

// encodeSlack is added to msg.SizeBytes() when presizing an encode
// buffer: codecs spend a few bytes on length prefixes and counters that
// SizeBytes does not report. maxPresize caps the presize, so a message
// whose SizeBytes claims more than it encodes (link padding rides as a
// count, not as bytes) cannot make Send allocate for it; a payload past
// the cap grows by append and is not pooled.
const (
	encodeSlack = 64
	maxPresize  = 64 << 10
)

// writeBatch caps the frames one writev carries (two iovecs each, well
// under the kernel's IOV_MAX).
const writeBatch = 64

// readBufferSize is the per-connection bufio size: several small frames
// per read syscall. Most of a payload larger than the buffer bypasses it
// and is read straight into the frame's own slice, so a bigger buffer
// would only add a copy (and resident memory per connection).
const readBufferSize = 4 << 10

// encodePool recycles encode buffers across frames (and transports).
// Entries are *[]byte so Put does not allocate.
var encodePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// outFrame is one queued frame: its header and the codec's payload. buf
// is the pool entry backing payload, or nil when the payload is not a
// pool buffer; it returns to the pool once the frame is written or
// dropped, and not before.
type outFrame struct {
	hdr     [frameHeaderSize]byte
	payload []byte
	buf     *[]byte
}

// release hands f's buffer back to the pool. f must not be used after.
func (f *outFrame) release() {
	if f.buf != nil {
		encodePool.Put(f.buf)
	}
	*f = outFrame{}
}

// sameArray reports whether a and b start at the same backing array
// element — whether the codec's result is the pooled buffer itself.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// Dialer is the connection-establishment seam. The zero Config uses a
// net.Dialer bounded by DialTimeout; tests inject failing or in-memory
// dialers, and a hardened deployment can wrap connections in another
// transport without this package knowing.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Config tunes a Transport. The zero value of every field has a usable
// default.
type Config struct {
	// Codec is required: it defines the message set on the wire.
	Codec Codec
	// DialTimeout bounds each connection attempt. Default 3s.
	DialTimeout time.Duration
	// LatencyCeiling is what MaxLatency reports — a coarse upper bound
	// used only to seed retransmit-timeout estimates. Default 200ms.
	LatencyCeiling time.Duration
	// BandwidthBitsPerSec, when positive, makes Serialization report
	// size*8/bandwidth; zero reports no serialization delay (TCP's own
	// pacing governs).
	BandwidthBitsPerSec int64
	// SendQueue is the per-peer outbound queue depth; a full queue drops
	// (unreliable-send semantics). Default 256.
	SendQueue int
	// Dialer overrides connection establishment. Default: net.Dialer
	// with DialTimeout.
	Dialer Dialer
	// Logf, when non-nil, receives diagnostic messages (dial failures,
	// decode errors). Default: silent.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the transport's metrics
	// (tap_transport_*; see DESIGN.md §15). One transport per registry:
	// the metric names are not instance-qualified. When nil the
	// transport keeps a private registry so Stats() still reports.
	Registry *obs.Registry
}

// metrics holds the transport's instruments. All counting flows through
// obs atomics — there is no separate stats bookkeeping — so a scrape and
// the Stats() accessor can never disagree.
type metrics struct {
	sent      *obs.Counter
	delivered *obs.Counter

	// Drops by cause; the Stats() accessor reports their sum.
	dropUnknownPeer *obs.Counter // destination not in the peer table (or transport closed)
	dropQueueFull   *obs.Counter // per-peer outbound queue overflow
	dropConnDown    *obs.Counter // peer torn down: late sends and drained queues
	dropNoHandler   *obs.Counter // delivery with no attached handler
	dropEncode      *obs.Counter // codec refused the message

	dials       *obs.Counter
	dialFails   *obs.Counter
	dialSeconds *obs.Histogram

	framesOut *obs.Counter
	framesIn  *obs.Counter
	bytesOut  *obs.Counter
	bytesIn   *obs.Counter

	decodeErrs *obs.Counter
	runtFrames *obs.Counter

	connsIn       *obs.Gauge
	connsOut      *obs.Gauge
	connOpensIn   *obs.Counter
	connOpensOut  *obs.Counter
	connClosesIn  *obs.Counter
	connClosesOut *obs.Counter

	queueDepth *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	dirIn := obs.Label{Name: "dir", Value: "in"}
	dirOut := obs.Label{Name: "dir", Value: "out"}
	reason := func(v string) obs.Label { return obs.Label{Name: "reason", Value: v} }
	const drop = "tap_transport_dropped_total"
	const dropHelp = "Messages lost by the transport, by cause."
	frames := "tap_transport_frames_total"
	framesHelp := "Frames crossing a socket, by direction."
	bytes := "tap_transport_bytes_total"
	bytesHelp := "Framed bytes crossing a socket, by direction."
	connsActive := "tap_transport_conns_active"
	connsActiveHelp := "Open TCP connections, by direction."
	connsOpened := "tap_transport_conns_opened_total"
	connsOpenedHelp := "TCP connections opened, by direction."
	connsClosed := "tap_transport_conns_closed_total"
	connsClosedHelp := "TCP connections closed, by direction."
	return &metrics{
		sent:      reg.Counter("tap_transport_sent_total", "Messages handed to Send."),
		delivered: reg.Counter("tap_transport_delivered_total", "Messages handed to a local handler."),

		dropUnknownPeer: reg.Counter(drop, dropHelp, reason("unknown_peer")),
		dropQueueFull:   reg.Counter(drop, dropHelp, reason("queue_full")),
		dropConnDown:    reg.Counter(drop, dropHelp, reason("conn_down")),
		dropNoHandler:   reg.Counter(drop, dropHelp, reason("no_handler")),
		dropEncode:      reg.Counter(drop, dropHelp, reason("encode")),

		dials:       reg.Counter("tap_transport_dials_total", "Connection attempts."),
		dialFails:   reg.Counter("tap_transport_dial_failures_total", "Failed connection attempts."),
		dialSeconds: reg.Histogram("tap_transport_dial_seconds", "Dial latency of successful connection attempts.", nil),

		framesOut: reg.Counter(frames, framesHelp, dirOut),
		framesIn:  reg.Counter(frames, framesHelp, dirIn),
		bytesOut:  reg.Counter(bytes, bytesHelp, dirOut),
		bytesIn:   reg.Counter(bytes, bytesHelp, dirIn),

		decodeErrs: reg.Counter("tap_transport_decode_errors_total", "Inbound frames the codec rejected."),
		runtFrames: reg.Counter("tap_transport_runt_frames_total", "Inbound frames too short to carry addresses."),

		connsIn:       reg.Gauge(connsActive, connsActiveHelp, dirIn),
		connsOut:      reg.Gauge(connsActive, connsActiveHelp, dirOut),
		connOpensIn:   reg.Counter(connsOpened, connsOpenedHelp, dirIn),
		connOpensOut:  reg.Counter(connsOpened, connsOpenedHelp, dirOut),
		connClosesIn:  reg.Counter(connsClosed, connsClosedHelp, dirIn),
		connClosesOut: reg.Counter(connsClosed, connsClosedHelp, dirOut),

		queueDepth: reg.Gauge("tap_transport_queue_depth", "Frames parked in per-peer outbound queues."),
	}
}

// StatsSnapshot is a point-in-time copy of the transport's core
// counters, kept for callers predating the metrics registry. Dropped
// aggregates every drop cause.
type StatsSnapshot struct {
	Sent      uint64 // messages handed to Send
	Delivered uint64 // messages handed to a local handler
	Dropped   uint64 // messages lost: unknown peer, full queue, dead conn, no handler, encode
	Dials     uint64 // connection attempts
	DialFails uint64 // failed connection attempts
	BytesSent uint64 // framed bytes written
}

// Stats reads the current counter values. Unlike the former exported
// Stats field there is no struct to read half-updated: every field is
// loaded from the same atomics the metrics endpoint scrapes.
func (t *Transport) Stats() StatsSnapshot {
	m := t.m
	return StatsSnapshot{
		Sent:      m.sent.Load(),
		Delivered: m.delivered.Load(),
		Dropped: m.dropUnknownPeer.Load() + m.dropQueueFull.Load() +
			m.dropConnDown.Load() + m.dropNoHandler.Load() + m.dropEncode.Load(),
		Dials:     m.dials.Load(),
		DialFails: m.dialFails.Load(),
		BytesSent: m.bytesOut.Load(),
	}
}

// peer is one outbound neighbor: its queue, its writer goroutine, and
// the quit channel that tears both down.
//
// p.out is NEVER closed. Send enqueues without holding the transport
// lock, so a close racing an enqueue would panic the process; teardown
// instead closes p.quit, which the writer and every enqueue select on,
// turning late sends into ordinary drops.
type peer struct {
	hostport string
	out      chan outFrame
	quit     chan struct{}
	stop     sync.Once
}

// shutdown signals the peer's writer to exit and pending or future
// enqueues to drop. Idempotent and safe from any goroutine.
func (p *peer) shutdown() { p.stop.Do(func() { close(p.quit) }) }

// Transport carries messages over TCP. Construct with New, then Listen
// (to accept inbound traffic) and SetPeer (to name outbound neighbors).
type Transport struct {
	cfg   Config
	start time.Time
	m     *metrics

	events chan func()
	quit   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	handlers map[transport.Addr]transport.Handler
	peers    map[transport.Addr]string
	conns    map[transport.Addr]*peer
	down     map[transport.Addr]bool
	watchers []func(addr transport.Addr, up bool)
	ln       net.Listener
	closed   bool
}

// New returns a transport ready for Listen/SetPeer. Call Close when done.
func New(cfg Config) *Transport {
	if cfg.Codec == nil {
		panic("tcptransport: Config.Codec is required")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.LatencyCeiling == 0 {
		cfg.LatencyCeiling = 200 * time.Millisecond
	}
	if cfg.SendQueue == 0 {
		cfg.SendQueue = 256
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{Timeout: cfg.DialTimeout}
	}
	t := &Transport{
		cfg:      cfg,
		start:    time.Now(),
		m:        newMetrics(cfg.Registry),
		events:   make(chan func(), 1024),
		quit:     make(chan struct{}),
		handlers: make(map[transport.Addr]transport.Handler),
		peers:    make(map[transport.Addr]string),
		conns:    make(map[transport.Addr]*peer),
		down:     make(map[transport.Addr]bool),
	}
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// loop is the single dispatch goroutine: every handler invocation,
// Schedule callback, and watcher notification runs here, serialized.
func (t *Transport) loop() {
	defer t.wg.Done()
	for {
		select {
		case fn := <-t.events:
			fn()
		case <-t.quit:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case fn := <-t.events:
					fn()
				default:
					return
				}
			}
		}
	}
}

// enqueue files fn onto the dispatch loop; after Close it is dropped.
func (t *Transport) enqueue(fn func()) {
	select {
	case t.events <- fn:
	case <-t.quit:
	}
}

// Listen starts accepting inbound connections on hostport (e.g.
// "127.0.0.1:0") and returns the bound address.
func (t *Transport) Listen(hostport string) (string, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return "", fmt.Errorf("tcptransport: listen %s: %w", hostport, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("tcptransport: transport closed")
	}
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *Transport) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection and dispatches
// them. The frame payload is [src:8][dst:8][codec payload]. Each frame is
// read through the connection's bufio.Reader into a buffer of its own,
// which the codec keeps.
//
// The src address is taken from the frame as-is: the transport trusts
// the network segment it runs on and does no per-connection
// authentication (DESIGN.md §14, "Trust model"). A hardened deployment
// binds identity to the connection via the Dialer seam.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.m.connsIn.Inc()
	t.m.connOpensIn.Inc()
	defer func() {
		t.m.connsIn.Dec()
		t.m.connClosesIn.Inc()
	}()
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Tear the connection down when the transport closes, so the
		// blocking ReadFrame returns — and exit with the loop, so a
		// connection dying on its own doesn't leak this watcher.
		select {
		case <-t.quit:
			conn.Close()
		case <-done:
		}
	}()
	br := bufio.NewReaderSize(conn, readBufferSize)
	for {
		hdr, err := br.Peek(wire.FrameHeaderSize)
		if err != nil {
			return
		}
		kind, n, err := wire.ParseFrameHeader(hdr)
		if err != nil {
			return
		}
		_, _ = br.Discard(wire.FrameHeaderSize) // cannot fail: Peek just buffered these bytes
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		t.m.framesIn.Inc()
		t.m.bytesIn.Add(uint64(wire.FrameHeaderSize + len(payload)))
		if len(payload) < 16 {
			t.m.runtFrames.Inc()
			t.logf("tcptransport: runt frame (%d bytes) from %s", len(payload), conn.RemoteAddr())
			return
		}
		src := transport.Addr(int64(binary.BigEndian.Uint64(payload[0:8])))
		dst := transport.Addr(int64(binary.BigEndian.Uint64(payload[8:16])))
		msg, err := t.cfg.Codec.Decode(kind, payload[16:])
		if err != nil {
			t.m.decodeErrs.Inc()
			t.logf("tcptransport: decode kind %d from %s: %v", kind, conn.RemoteAddr(), err)
			continue
		}
		t.deliverLocal(src, dst, msg)
	}
}

// deliverLocal routes a decoded (or loopback) message to dst's handler on
// the dispatch loop.
func (t *Transport) deliverLocal(src, dst transport.Addr, msg transport.Message) {
	t.enqueue(func() {
		t.mu.Lock()
		h := t.handlers[dst]
		t.mu.Unlock()
		if h == nil {
			t.m.dropNoHandler.Inc()
			return
		}
		t.m.delivered.Inc()
		h.Deliver(src, msg)
	})
}

// --- transport.Transport ----------------------------------------------------

// Now returns the time since the transport's construction — the wall
// clock rebased to a process-local epoch, mirroring the simulator's
// "duration since start" convention.
func (t *Transport) Now() transport.Time { return time.Since(t.start) }

// Schedule runs fn after delay on the dispatch loop, serialized with
// message deliveries.
func (t *Transport) Schedule(delay transport.Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	time.AfterFunc(delay, func() { t.enqueue(fn) })
}

// Send encodes and transmits msg. Local destinations (an attached
// handler in this process) short-circuit through the dispatch loop
// without touching a socket, so one process can host several addresses —
// the integration tests and single-binary demos rely on that. Remote
// messages are encoded into a pooled buffer and queued for the peer's
// writer; every drop path returns the buffer to the pool.
func (t *Transport) Send(src, dst transport.Addr, msg transport.Message) {
	t.m.sent.Inc()
	t.mu.Lock()
	_, local := t.handlers[dst]
	t.mu.Unlock()
	if local {
		t.deliverLocal(src, dst, msg)
		return
	}
	f, err := t.encode(src, dst, msg)
	if err != nil {
		t.logf("tcptransport: encode to %d: %v", dst, err)
		t.m.dropEncode.Inc()
		return
	}

	p := t.peerFor(dst)
	if p == nil {
		f.release()
		t.m.dropUnknownPeer.Inc()
		return
	}
	select {
	case <-p.quit:
		// Peer torn down between peerFor and the enqueue (endpoint
		// change, RemovePeer, Close). Drop; the next Send re-resolves.
		f.release()
		t.m.dropConnDown.Inc()
		return
	default:
	}
	select {
	case p.out <- f:
		t.m.queueDepth.Inc()
		select {
		case <-p.quit:
			// Teardown won the race between the quit pre-check and the
			// enqueue: the writer is gone and dropPeer's drain may already
			// have run, so this frame could sit in the dead channel
			// forever. Drain it ourselves — discardQueued is safe to run
			// concurrently with the teardown's own call, each frame is
			// received (and counted) exactly once.
			t.discardQueued(p)
		default:
		}
	default:
		// Full queue: the peer is slower than we produce. Drop, as an
		// overloaded link would.
		f.release()
		t.m.dropQueueFull.Inc()
	}
}

// encode builds msg's frame: the codec appends the payload to a pooled
// buffer, and the header is filled in beside it.
func (t *Transport) encode(src, dst transport.Addr, msg transport.Message) (outFrame, error) {
	bp := encodePool.Get().(*[]byte)
	if need := min(msg.SizeBytes()+encodeSlack, maxPresize); cap(*bp) < need {
		*bp = make([]byte, 0, need)
	}
	kind, payload, err := t.cfg.Codec.AppendEncode((*bp)[:0], msg)
	if err != nil {
		encodePool.Put(bp)
		return outFrame{}, err
	}
	f := outFrame{payload: payload}
	if sameArray(payload, *bp) {
		f.buf = bp
	} else {
		// Not our buffer (or no longer): write it, never pool it.
		encodePool.Put(bp)
	}
	wire.PutFrameHeader(f.hdr[:], kind, 16+len(payload))
	binary.BigEndian.PutUint64(f.hdr[wire.FrameHeaderSize:], uint64(int64(src)))
	binary.BigEndian.PutUint64(f.hdr[wire.FrameHeaderSize+8:], uint64(int64(dst)))
	return f, nil
}

// peerFor returns the live peer record for dst, creating its queue and
// writer goroutine on first use (the connection itself is dialed by the
// writer). Unknown destinations return nil.
func (t *Transport) peerFor(dst transport.Addr) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if p := t.conns[dst]; p != nil {
		return p
	}
	hostport, ok := t.peers[dst]
	if !ok {
		return nil
	}
	p := &peer{hostport: hostport, out: make(chan outFrame, t.cfg.SendQueue), quit: make(chan struct{})}
	t.conns[dst] = p
	t.wg.Add(1)
	go t.writeLoop(dst, p)
	return p
}

// writeLoop owns one peer's connection: dial once (per connection
// lifetime), then drain the queue onto it — everything already queued,
// up to writeBatch frames, in one writev. Any error tears the peer down;
// the next Send re-creates it, so reconnection is lazy and the engine
// above sees only message loss in between.
//
// Frames count as out when their batch is handed to writev, before the
// call: a receiver may deliver a frame before the call returns, and
// whoever has seen the delivery must find the frame counted. The frames
// a failed writev did not finish are counted as conn_down drops as well.
func (t *Transport) writeLoop(dst transport.Addr, p *peer) {
	defer t.wg.Done()
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.DialTimeout)
	t.m.dials.Inc()
	dialStart := time.Now()
	conn, err := t.cfg.Dialer.DialContext(ctx, "tcp", p.hostport)
	cancel()
	if err != nil {
		t.m.dialFails.Inc()
		t.logf("tcptransport: dial %d (%s): %v", dst, p.hostport, err)
		t.dropPeer(dst, p, false)
		return
	}
	t.m.dialSeconds.Observe(time.Since(dialStart).Seconds())
	t.m.connsOut.Inc()
	t.m.connOpensOut.Inc()
	defer func() {
		t.m.connsOut.Dec()
		t.m.connClosesOut.Inc()
	}()
	defer conn.Close()
	t.markUp(dst)
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Unblock a stuck Write when the transport closes or the peer is
		// torn down; exit with the loop otherwise, so connection churn
		// doesn't accumulate watchers.
		select {
		case <-t.quit:
			conn.Close()
		case <-p.quit:
			conn.Close()
		case <-done:
		}
	}()
	batch := make([]outFrame, 0, writeBatch)
	iov := make([][]byte, 0, 2*writeBatch)
	var bufs net.Buffers
	for {
		select {
		case <-p.quit:
			return
		case f := <-p.out:
			batch = append(batch[:0], f)
		}
	fill:
		for len(batch) < writeBatch {
			select {
			case f := <-p.out:
				batch = append(batch, f)
			default:
				break fill
			}
		}
		t.m.queueDepth.Add(-int64(len(batch)))
		iov = iov[:0]
		size := 0
		for i := range batch {
			iov = append(iov, batch[i].hdr[:], batch[i].payload)
			size += frameHeaderSize + len(batch[i].payload)
		}
		t.m.framesOut.Add(uint64(len(batch)))
		t.m.bytesOut.Add(uint64(size))
		bufs = iov
		raceReleaseIO()
		written, err := bufs.WriteTo(conn)
		unsent := 0
		for i := range batch {
			if written -= int64(frameHeaderSize + len(batch[i].payload)); written < 0 {
				unsent++
			}
			batch[i].release()
		}
		if err != nil {
			t.m.dropConnDown.Add(uint64(unsent))
			t.logf("tcptransport: write %d (%s): %v", dst, p.hostport, err)
			t.dropPeer(dst, p, true)
			return
		}
	}
}

// dropPeer tears a dead peer down, counts its queued frames as drops,
// and — if it was still the live record for dst — marks the address
// down for Reachable. A stale peer (already replaced by SetPeer) is
// drained without touching the fresh endpoint's state.
func (t *Transport) dropPeer(dst transport.Addr, p *peer, hadConn bool) {
	p.shutdown()
	t.mu.Lock()
	current := t.conns[dst] == p
	if current {
		delete(t.conns, dst)
	}
	wasDown := t.down[dst]
	if current {
		t.down[dst] = true
	}
	watchers := t.snapshotWatchersLocked()
	t.mu.Unlock()
	t.discardQueued(p)
	if current && !wasDown {
		for _, fn := range watchers {
			fn := fn
			t.enqueue(func() { fn(dst, false) })
		}
	}
	_ = hadConn
}

// discardQueued drains whatever was queued behind a dead connection,
// counting each frame as a drop and recycling its buffer.
func (t *Transport) discardQueued(p *peer) {
	for {
		select {
		case f := <-p.out:
			f.release()
			t.m.queueDepth.Dec()
			t.m.dropConnDown.Inc()
		default:
			return
		}
	}
}

// snapshotWatchersLocked copies the watcher list for use outside the lock.
func (t *Transport) snapshotWatchersLocked() []func(transport.Addr, bool) {
	out := make([]func(transport.Addr, bool), len(t.watchers))
	copy(out, t.watchers)
	return out
}

// markUp clears the down flag after a successful dial and notifies
// watchers of the recovery.
func (t *Transport) markUp(dst transport.Addr) {
	t.mu.Lock()
	wasDown := t.down[dst]
	delete(t.down, dst)
	watchers := t.snapshotWatchersLocked()
	t.mu.Unlock()
	if wasDown {
		for _, fn := range watchers {
			fn := fn
			t.enqueue(func() { fn(dst, true) })
		}
	}
}

// Attach binds h to addr. Attaching over a live handler is a programming
// error, matching the simulator.
func (t *Transport) Attach(addr transport.Addr, h transport.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers[addr] != nil {
		panic(fmt.Sprintf("tcptransport: address %d already attached", addr))
	}
	t.handlers[addr] = h
}

// Detach removes the handler at addr.
func (t *Transport) Detach(addr transport.Addr) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Attached reports whether addr has a live local handler.
func (t *Transport) Attached(addr transport.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlers[addr] != nil
}

// Reachable reports whether addr is worth dialing: it is local, or in the
// peer table and not known-dead since its last failure. SetPeer clears
// the dead mark, so a refreshed peer-set entry restores optimism.
func (t *Transport) Reachable(addr transport.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers[addr] != nil {
		return true
	}
	_, known := t.peers[addr]
	return known && !t.down[addr]
}

// Grow is a no-op: the TCP address space is the peer table.
func (t *Transport) Grow(n int) {}

// WatchAddrs registers fn for up/down transitions observed through
// dialing: a failed dial or dead connection reports down, a successful
// re-dial reports up. Watchers run on the dispatch loop.
func (t *Transport) WatchAddrs(fn func(addr transport.Addr, up bool)) {
	t.mu.Lock()
	t.watchers = append(t.watchers, fn)
	t.mu.Unlock()
}

// Serialization reports the configured bandwidth estimate's clocking
// time, or zero when none is configured.
func (t *Transport) Serialization(size int) transport.Time {
	if t.cfg.BandwidthBitsPerSec <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(int64(size) * 8 * int64(time.Second) / t.cfg.BandwidthBitsPerSec)
}

// MaxLatency reports the configured latency ceiling.
func (t *Transport) MaxLatency() transport.Time { return t.cfg.LatencyCeiling }

// --- peer table -------------------------------------------------------------

// SetPeer maps addr to a host:port, replacing any previous mapping and
// clearing a down mark. A changed mapping tears down the old connection
// so the next send dials the new endpoint.
func (t *Transport) SetPeer(addr transport.Addr, hostport string) {
	t.mu.Lock()
	prev, had := t.peers[addr]
	t.peers[addr] = hostport
	delete(t.down, addr)
	var stale *peer
	if had && prev != hostport {
		if p := t.conns[addr]; p != nil {
			stale = p
			delete(t.conns, addr)
		}
	}
	t.mu.Unlock()
	if stale != nil {
		stale.shutdown()
		t.discardQueued(stale)
	}
}

// RemovePeer forgets addr. In-flight queue contents are dropped.
func (t *Transport) RemovePeer(addr transport.Addr) {
	t.mu.Lock()
	delete(t.peers, addr)
	delete(t.down, addr)
	p := t.conns[addr]
	delete(t.conns, addr)
	t.mu.Unlock()
	if p != nil {
		p.shutdown()
		t.discardQueued(p)
	}
}

// Peers returns a snapshot of the peer table.
func (t *Transport) Peers() map[transport.Addr]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[transport.Addr]string, len(t.peers))
	for a, hp := range t.peers {
		out[a] = hp
	}
	return out
}

// Close stops the listener, the dispatch loop, and every peer writer,
// and waits for them to exit.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ln := t.ln
	conns := t.conns
	t.conns = make(map[transport.Addr]*peer)
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range conns {
		p.shutdown()
	}
	close(t.quit)
	t.wg.Wait()
}

var _ transport.Transport = (*Transport)(nil)
