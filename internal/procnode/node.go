package procnode

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/obs"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

// NodeID derives a node's DHT identifier from its transport address.
// Every member computes the same mapping, which is what lets the
// full-membership index resolve exit destinations and reply tails
// without a directory service.
func NodeID(addr transport.Addr) id.ID {
	return id.HashString(fmt.Sprintf("tapnode/%d", addr))
}

// Node is one overlay member: an anchor store plus the relay logic for
// forward envelopes, reply envelopes, and exit payloads. Relay state
// (the anchor store) is touched only from the transport's dispatch loop
// — the seam's serialization contract, the same discipline the simulated
// engines rely on — so it needs no lock; only the membership index,
// which SetPeers writes from the joining goroutine, carries one.
type Node struct {
	Addr transport.Addr
	ID   id.ID

	tr   *tcptransport.Transport
	logf func(format string, args ...any)
	m    *nodeMetrics

	anchors   map[id.ID]tha.Anchor
	schedules scheduleRing

	// byID is the full-membership node-ID index. Unlike anchors it is
	// written off-loop (SetPeers runs on the joining goroutine), so it
	// carries its own lock.
	idMu sync.RWMutex
	byID map[id.ID]transport.Addr // nodeID → transport address

	// Initiator-side notification channels, consumed by RoundTripStream.
	// Their 64 slots hold a whole exchange's acks and a full chunk window
	// (windowChunks) with room left for late duplicates, so the dispatch
	// loop never blocks on them; an overflowing one drops and logs.
	acks    chan id.ID
	replies chan []byte

	// echo is the responder's sealing buffer, reused for every echo: Send
	// encodes before it returns, and a parked reply copies it.
	echo []byte
}

// New attaches a node at addr on tr. Pass a nil logf for silence and a
// nil reg to run without metrics (obs's no-op sink).
func New(tr *tcptransport.Transport, addr transport.Addr, logf func(format string, args ...any), reg *obs.Registry) *Node {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := &Node{
		Addr:    addr,
		ID:      NodeID(addr),
		tr:      tr,
		logf:    logf,
		m:       newNodeMetrics(reg),
		anchors: make(map[id.ID]tha.Anchor),
		byID:    map[id.ID]transport.Addr{NodeID(addr): addr},
		acks:    make(chan id.ID, 64),
		replies: make(chan []byte, 64),
	}
	tr.Attach(addr, n)
	return n
}

var _ tcptransport.RecyclingHandler = (*Node)(nil)

// SetPeers installs the bulletin board's peer table: transport endpoints
// for dialing and the node-ID index for destination resolution.
func (n *Node) SetPeers(peers map[transport.Addr]string) {
	n.idMu.Lock()
	defer n.idMu.Unlock()
	for a, hp := range peers {
		if a != n.Addr {
			n.tr.SetPeer(a, hp)
		}
		n.byID[NodeID(a)] = a
	}
}

// lookupID resolves a node ID through the membership index.
func (n *Node) lookupID(target id.ID) (transport.Addr, bool) {
	n.idMu.RLock()
	defer n.idMu.RUnlock()
	a, ok := n.byID[target]
	return a, ok
}

// scheduleCacheSize bounds how many of a node's anchors keep a derived
// key schedule (expanded AES key plus keyed HMAC state, about a KiB
// each). Anchors leave only when their initiator deletes them, and an
// initiator that dies mid-exchange never does, so caching one schedule
// per anchor held would let absent initiators pin memory.
const scheduleCacheSize = 64

// scheduleRing is the fixed set of anchors allowed to hold a derived key
// schedule. An anchor is admitted on a peel that finds its schedule
// missing, taking the oldest slot and dropping that anchor's schedule;
// the peel then derives the schedule once and later peels reuse it. An
// evicted anchor still peels: its next peel re-admits it and re-derives.
type scheduleRing struct {
	slots [scheduleCacheSize]tha.Anchor
	next  int
}

// admit makes room for a's schedule unless it already holds one.
func (r *scheduleRing) admit(a tha.Anchor) {
	if a.ScheduleCached() {
		return
	}
	r.slots[r.next].DropSchedule()
	r.slots[r.next] = a
	r.next = (r.next + 1) % scheduleCacheSize
}

// anchor returns the anchor for hop, admitted to the schedule ring so the
// peel that follows runs on a cached schedule.
func (n *Node) anchor(hop id.ID) (tha.Anchor, bool) {
	a, ok := n.anchors[hop]
	if ok {
		n.schedules.admit(a)
	}
	return a, ok
}

// install stores an initiator's anchor with an empty schedule slot.
func (n *Node) install(a tha.Anchor) {
	n.anchors[a.HopID] = a.WithScheduleSlot()
	n.m.anchorInstalls.Inc()
	n.m.anchorsHeld.Set(int64(len(n.anchors)))
}

// remove is the holder's half of §3.4 deletion: the anchor goes, with
// its cached key schedule, only if d.PW hashes to the stored H(PW).
// Unknown hops and wrong passwords are counted and ignored.
func (n *Node) remove(d *AnchorDelete) {
	a, ok := n.anchors[d.HopID]
	switch {
	case !ok:
		n.m.deletesUnknown.Inc()
	case !a.PWHash.Verify(d.PW):
		n.m.deletesBadPW.Inc()
	default:
		a.DropSchedule()
		delete(n.anchors, d.HopID)
		n.m.deletesOK.Inc()
		n.m.anchorsHeld.Set(int64(len(n.anchors)))
	}
}

// Deliver implements transport.Handler: the single entry point for all
// overlay traffic.
func (n *Node) Deliver(from transport.Addr, msg transport.Message) { n.DeliverFrame(from, msg) }

// DeliverFrame implements tcptransport.RecyclingHandler. It reports done
// — the frame buffer behind msg may be reused — only when msg left
// nothing behind: a control message (Decode copied its fields), a relayed
// envelope, exit payload or echo sent synchronously (Send encodes before
// it returns), or a message dropped on an error. A send parked behind an
// unreachable peer or a lagging index copies what it needs and reports
// not-done, and so does a reply that reaches home: the initiator reads
// its echo straight from the frame.
func (n *Node) DeliverFrame(from transport.Addr, msg transport.Message) (done bool) {
	switch m := msg.(type) {
	case *AnchorMsg:
		n.install(m.Anchor)
		n.sendTo(from, &AnchorAck{HopID: m.Anchor.HopID}, 0)
	case *AnchorAck:
		n.m.anchorAcks.Inc()
		select {
		case n.acks <- m.HopID:
		default:
			n.logf("procnode %d: ack channel full, dropping ack for %s", n.Addr, m.HopID.Short())
		}
	case *AnchorDelete:
		n.remove(m)
	case *core.Envelope:
		return n.handleForward(m)
	case *core.ReplyEnvelope:
		return n.handleReply(m)
	case *DataMsg:
		if m.Dest == n.ID {
			return n.handleExitPayload(m.Payload)
		}
		// Exit hops address DataMsg directly; a mismatch means a stale
		// membership view somewhere.
		n.logf("procnode %d: data for foreign node %s", n.Addr, m.Dest.Short())
	default:
		n.logf("procnode %d: unexpected message %T", n.Addr, msg)
	}
	return true
}

// resolve maps an overlay identifier to a transport address: the §5 hint
// when present, else the full-membership node-ID index.
func (n *Node) resolve(hint transport.Addr, target id.ID) (transport.Addr, bool) {
	if hint != transport.NoAddr {
		return hint, true
	}
	return n.lookupID(target)
}

// Membership lag tolerance: a node that cannot yet resolve a node ID —
// typically because the target joined after this node's last peer-table
// refresh — parks the message and retries on the dispatch loop instead
// of dropping it. This is what lets a freshly joined initiator receive
// its first reply without eating a full initiator-side retransmit
// timeout.
const (
	resolveRetries = 25
	resolveDelay   = 200 * time.Millisecond
)

// sendResolved sends msg to the node whose ID is target through sendTo.
// While the membership index lags it parks msg — copied on the first
// park — and retries; after resolveRetries misses the message is dropped
// with a log line. It reports done as sendTo does.
func (n *Node) sendResolved(target id.ID, msg transport.Message, attempt int) (done bool) {
	if dst, ok := n.lookupID(target); ok {
		return n.sendTo(dst, msg, 0)
	}
	if attempt >= resolveRetries {
		n.m.resolveDrops.Inc()
		n.logf("procnode %d: cannot resolve node %s after %d attempts, dropping",
			n.Addr, target.Short(), attempt)
		return true
	}
	if attempt == 0 {
		msg = parked(msg)
	}
	n.m.parkRetries.Inc()
	n.tr.Schedule(resolveDelay, func() { n.sendResolved(target, msg, attempt+1) })
	return false
}

// sendTo sends msg to dst, parking it — copied on the first park — while
// dst has no dialable endpoint yet: the mirror image of sendResolved for
// plain transport addresses. A relay answering a freshly joined member
// (an anchor ack to an initiator it has never refreshed into its peer
// table) hits this on the first exchange; after the retry budget the
// send is attempted anyway so the transport's drop accounting sees it.
// done is false only when msg was parked: Send keeps none of its bytes.
func (n *Node) sendTo(dst transport.Addr, msg transport.Message, attempt int) (done bool) {
	if n.tr.Reachable(dst) || attempt >= resolveRetries {
		n.tr.Send(n.Addr, dst, msg)
		return true
	}
	if attempt == 0 {
		msg = parked(msg)
	}
	n.m.parkRetries.Inc()
	n.tr.Schedule(resolveDelay, func() { n.sendTo(dst, msg, attempt+1) })
	return false
}

// parked returns msg with its byte fields copied, for a send that
// outlives the delivery: they alias the frame buffer or the echo buffer.
func parked(msg transport.Message) transport.Message {
	switch m := msg.(type) {
	case *core.Envelope:
		c := *m
		c.Sealed = bytes.Clone(m.Sealed)
		return &c
	case *core.ReplyEnvelope:
		c := *m
		c.Onion, c.Data = bytes.Clone(m.Onion), bytes.Clone(m.Data)
		return &c
	case *DataMsg:
		c := *m
		c.Payload = bytes.Clone(m.Payload)
		return &c
	}
	return msg
}

// handleForward peels one forward layer and relays, or — at the exit —
// routes the payload to its destination node. It reports done as
// DeliverFrame does.
func (n *Node) handleForward(env *core.Envelope) (done bool) {
	a, ok := n.anchor(env.HopID)
	if !ok {
		n.logf("procnode %d: no anchor for hop %s", n.Addr, env.HopID.Short())
		return true
	}
	// The codec gave us the frame buffer: peel in place.
	t0 := n.tr.Now()
	layer, err := core.OpenForwardLayerInPlace(a, env.Sealed)
	if err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return true
	}
	n.m.peelsForward.Inc()
	n.m.peelSeconds.Observe((n.tr.Now() - t0).Seconds())
	if layer.IsExit {
		if layer.Dest == n.ID {
			return n.handleExitPayload(layer.Payload)
		}
		// The payload aliases the frame buffer; nothing touches it before
		// the DataMsg is encoded or parked.
		return n.sendResolved(layer.Dest, &DataMsg{Dest: layer.Dest, Payload: layer.Payload}, 0)
	}
	dst, ok := n.resolve(layer.NextHint, layer.Next)
	if !ok {
		n.logf("procnode %d: cannot route hop %s (no hint, no index entry)", n.Addr, layer.Next.Short())
		return true
	}
	next := &core.Envelope{HopID: layer.Next, Hint: layer.NextHint, Sealed: layer.Inner}
	next.PadToMatch(env.SizeBytes())
	n.m.relaysForwarded.Inc()
	return n.sendTo(dst, next, 0)
}

// handleReply peels one reply layer when this node anchors the target
// hop, or consumes the envelope when it is the initiator's own bid. It
// reports done as DeliverFrame does.
func (n *Node) handleReply(env *core.ReplyEnvelope) (done bool) {
	a, ok := n.anchor(env.Target)
	if !ok {
		if env.Target == n.ID {
			// The tail hop resolved our bid: the reply is home. The echo
			// goes to RoundTripStream in the frame buffer, uncopied.
			n.m.repliesHome.Inc()
			select {
			case n.replies <- env.Data:
				return false
			default:
				n.logf("procnode %d: reply channel full", n.Addr)
				return true
			}
		}
		n.logf("procnode %d: no anchor for reply hop %s", n.Addr, env.Target.Short())
		return true
	}
	t0 := n.tr.Now()
	next, hint, rest, err := core.OpenReplyLayerInPlace(a, env.Onion)
	if err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return true
	}
	n.m.peelsReply.Inc()
	n.m.peelSeconds.Observe((n.tr.Now() - t0).Seconds())
	out := &core.ReplyEnvelope{Target: next, Hint: hint, Onion: rest, Data: env.Data}
	out.PadToMatch(env.SizeBytes())
	if hint != transport.NoAddr {
		return n.sendTo(hint, out, 0)
	}
	// The tail layer names the initiator's bid with no hint; resolve it
	// through the membership index, tolerating a lagging view.
	return n.sendResolved(next, out, 0)
}

// Exit payload format (the plaintext the exit layer reveals, §4's
// {fid, K_I, T_r} extended with stream framing):
//
//	sid uint64, seq uint32, fin byte, key blob, replyTunnel blob, chunk blob
//
// Echo payload, sealed under key:
//
//	sid uint64, seq uint32, fin byte, chunk blob

func encodeRequest(sid uint64, seq uint32, fin bool, key crypt.Key, rt, chunk []byte) []byte {
	w := wire.NewWriter(32 + len(rt) + len(chunk))
	w.Uint64(sid)
	w.Uint32(seq)
	if fin {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Blob(key[:])
	w.Blob(rt)
	w.Blob(chunk)
	return w.Bytes()
}

// handleExitPayload is the responder role: decode a stream request, seal
// the echo under the request's key into the node's echo buffer, and
// launch it down the reply tunnel. It reports done as DeliverFrame does.
func (n *Node) handleExitPayload(payload []byte) (done bool) {
	n.m.exitPayloads.Inc()
	r := wire.NewReader(payload)
	sid := r.Uint64()
	seq := r.Uint32()
	fin := r.Byte()
	var key crypt.Key
	copy(key[:], r.Blob())
	rtEnc := r.Blob()
	chunk := r.Blob()
	if err := r.Done(); err != nil {
		n.logf("procnode %d: bad exit payload: %v", n.Addr, err)
		return true
	}
	rt, err := core.DecodeReplyTunnel(rtEnc)
	if err != nil {
		n.logf("procnode %d: %v", n.Addr, err)
		return true
	}
	sealed, err := sealEcho(n.echo, key, rand.Reader, sid, seq, fin, chunk)
	if err != nil {
		n.logf("procnode %d: sealing echo: %v", n.Addr, err)
		return true
	}
	n.echo = sealed
	dst, ok := n.resolve(rt.FirstHint, rt.First)
	if !ok {
		n.logf("procnode %d: cannot route reply head %s", n.Addr, rt.First.Short())
		return true
	}
	return n.sendTo(dst, &core.ReplyEnvelope{
		Target: rt.First, Hint: rt.FirstHint, Onion: rt.Onion, Data: sealed,
	}, 0)
}

// sealEcho seals the echo payload for (sid, seq, fin, chunk) under key
// into buf's backing array, growing it when too small, and returns the
// sealed bytes. The header is written straight into the sealed buffer
// and the chunk is encrypted from where it lies, so the reply costs no
// plaintext copy; the output is bit-identical to crypt.Seal over the
// wire-encoded echo with the same nonce source. chunk must not overlap
// buf.
func sealEcho(buf []byte, key crypt.Key, nonces io.Reader, sid uint64, seq uint32, fin byte, chunk []byte) ([]byte, error) {
	var hdr [8 + 4 + 1 + binary.MaxVarintLen64]byte
	binary.BigEndian.PutUint64(hdr[0:], sid)
	binary.BigEndian.PutUint32(hdr[8:], seq)
	hdr[12] = fin
	hdrLen := 13 + binary.PutUvarint(hdr[13:], uint64(len(chunk)))
	size := crypt.Overhead + hdrLen + len(chunk)
	sealed := slices.Grow(buf[:0], size)[:size]
	copy(sealed[crypt.NonceSize:], hdr[:hdrLen])
	if err := crypt.NewSealer(key).SealInPlaceFrom(sealed, nonces, hdrLen, chunk); err != nil {
		return nil, err
	}
	return sealed, nil
}
