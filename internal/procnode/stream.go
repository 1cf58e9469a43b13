package procnode

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/rng"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/wire"
)

// StreamConfig shapes one RoundTripStream exchange.
type StreamConfig struct {
	// ForwardHops and ReplyHops name the nodes that will host the
	// tunnels' anchors, in hop order. Both must be non-empty.
	ForwardHops []transport.Addr
	ReplyHops   []transport.Addr
	// Dest is the responder node.
	Dest transport.Addr
	// ChunkSize splits the payload into stream chunks. Default 512.
	ChunkSize int
	// Timeout is each anchor's ack timer and each chunk's echo timer.
	// Default 5s.
	Timeout time.Duration
	// Retries is how many times a lost anchor deploy or chunk is
	// retransmitted before the stream fails. Default 3.
	Retries int
}

func (c *StreamConfig) defaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = 512
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
}

// The chunk window: one exchange keeps at most windowChunks chunks and
// windowBytes payload bytes in flight (a chunk larger than windowBytes
// still goes, alone). The byte cap is what keeps a bulk exchange from
// queueing ahead of other flows' set-up traffic at the shared relays;
// DESIGN.md §14 gives the measurement it was picked by.
const (
	windowChunks = 16
	windowBytes  = 32 << 10
)

// RoundTripStream runs the full paper flow as one initiator call: mint
// anchors, deploy them to the configured hop nodes, build the forward
// tunnel and the pre-peeled reply tunnel, then stream the payload
// through the overlay in onion-sealed chunks. Each chunk travels the
// forward tunnel to the responder, which seals its echo under the
// chunk's key and sends it back down the reply tunnel; the reassembled
// echo is returned.
//
// All anchors are deployed at once and no chunk leaves before every ack
// is in (no install-vs-traffic race). Chunks then flow under a bounded
// window, each with its own key and its own retransmit timer: transport
// losses (a full send queue, a dropped connection) surface as timeouts
// and are resent from the initiator. Whatever the outcome, every
// deployed anchor is deleted again (§3.4) before the call returns.
func (n *Node) RoundTripStream(cfg StreamConfig, payload []byte) ([]byte, error) {
	cfg.defaults()
	if len(cfg.ForwardHops) == 0 || len(cfg.ReplyHops) == 0 {
		return nil, fmt.Errorf("procnode: both tunnels need at least one hop")
	}

	// The onion builders draw nonces and padding from a deterministic
	// stream; seed it from the OS entropy pool since nothing here needs
	// replay.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("procnode: seeding: %w", err)
	}
	stream := rng.New(binary.BigEndian.Uint64(seed[:])).Split("procnode-stream")

	gen, err := tha.NewGenerator(n.ID[:], rand.Reader)
	if err != nil {
		return nil, err
	}
	holders := slices.Concat(cfg.ForwardHops, cfg.ReplyHops)
	secrets := make([]tha.Secret, len(holders))
	for i := range secrets {
		if secrets[i], err = gen.Generate(rand.Reader); err != nil {
			return nil, err
		}
	}
	defer n.deleteAnchors(holders, secrets)
	if err := n.deploy(holders, secrets, cfg); err != nil {
		return nil, err
	}

	nf := len(cfg.ForwardHops)
	fwTunnel := &core.Tunnel{Hops: secrets[:nf]}
	rpTunnel := &core.Tunnel{Hops: secrets[nf:]}
	rt, err := core.BuildReply(rpTunnel, cfg.ReplyHops, n.ID, stream)
	if err != nil {
		return nil, err
	}
	rtEnc := rt.Encode()
	destID := NodeID(cfg.Dest)

	var sidBuf [8]byte
	if _, err := rand.Read(sidBuf[:]); err != nil {
		return nil, err
	}
	sid := binary.BigEndian.Uint64(sidBuf[:])

	nChunks := (len(payload) + cfg.ChunkSize - 1) / cfg.ChunkSize
	if nChunks == 0 {
		nChunks = 1 // an empty payload still round-trips one fin chunk
	}
	chunkAt := func(seq int) []byte {
		lo := seq * cfg.ChunkSize
		return payload[lo:min(lo+cfg.ChunkSize, len(payload))]
	}
	echo := make([]byte, len(payload))
	var (
		flight      []*sentChunk // outstanding, in send order
		flightBytes int
		next, done  int
	)
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	for done < nChunks {
		for next < nChunks && (len(flight) == 0 ||
			len(flight) < windowChunks && flightBytes+len(chunkAt(next)) <= windowBytes) {
			c := &sentChunk{seq: next, data: chunkAt(next), sends: 1}
			key, err := crypt.NewKey(rand.Reader)
			if err != nil {
				return nil, err
			}
			req := encodeRequest(sid, uint32(next), next == nChunks-1, key, rtEnc, c.data)
			if c.env, err = core.BuildForward(fwTunnel, cfg.ForwardHops, destID, req, stream); err != nil {
				return nil, err
			}
			c.sealer = crypt.NewSealer(key)
			c.sent = time.Now()
			c.due = c.sent.Add(cfg.Timeout)
			n.tr.Send(n.Addr, cfg.ForwardHops[0], c.env)
			flight = append(flight, c)
			flightBytes += len(c.data)
			next++
		}

		due := flight[0].due
		for _, c := range flight[1:] {
			if c.due.Before(due) {
				due = c.due
			}
		}
		resetTimer(timer, time.Until(due))
		select {
		case sealed := <-n.replies:
			i, got := openEcho(flight, sid, sealed)
			if i < 0 {
				continue // a duplicate echo, or a late one from an earlier exchange
			}
			c := flight[i]
			if !bytes.Equal(got, c.data) {
				return nil, fmt.Errorf("procnode: chunk %d echo mismatch (%d vs %d bytes)", c.seq, len(got), len(c.data))
			}
			copy(echo[c.seq*cfg.ChunkSize:], got)
			if c.sends == 1 { // Karn's rule: a resent chunk's echo is ambiguous
				n.m.chunkRTT.Observe(time.Since(c.sent).Seconds())
			}
			n.m.streamChunks.Inc()
			// Dropping the chunk frees its envelope, sealer and payload
			// reference now, not when the exchange ends.
			flightBytes -= len(c.data)
			flight = slices.Delete(flight, i, i+1)
			done++
		case <-timer.C:
			now := time.Now()
			for _, c := range flight {
				if c.due.After(now) {
					continue
				}
				if c.sends > cfg.Retries {
					return nil, fmt.Errorf("procnode: chunk %d/%d lost after %d attempts", c.seq+1, nChunks, c.sends)
				}
				// The same envelope under the same key, so an echo of the
				// original that was only late still opens.
				n.m.streamRetransmits.Inc()
				n.tr.Send(n.Addr, cfg.ForwardHops[0], c.env)
				c.sends++
				c.due = now.Add(cfg.Timeout)
			}
		}
	}
	return echo, nil
}

// sentChunk is one outstanding chunk of a RoundTripStream exchange.
type sentChunk struct {
	seq    int
	data   []byte         // the payload bytes it carries
	env    *core.Envelope // what goes on the wire, resent as is
	sealer *crypt.Sealer  // the chunk key's schedule, which opens the echo
	sent   time.Time      // first send
	due    time.Time      // retransmit deadline
	sends  int
}

// openEcho finds the outstanding chunk whose key opens a reply and
// returns its index in flight and the echoed bytes, which alias sealed;
// -1 when no key opens it. Replies carry no cleartext chunk id (a reply
// hop could link a flow's chunks by it), so keys are tried in send
// order: every hop is one FIFO TCP connection served by one dispatch
// loop, so the oldest chunk is the normal hit and the rest are tried
// only after a loss or a resend.
func openEcho(flight []*sentChunk, sid uint64, sealed []byte) (int, []byte) {
	for i, c := range flight {
		plain, err := c.sealer.OpenInPlace(sealed)
		if err != nil {
			continue // wrong key: sealed is untouched
		}
		r := wire.NewReader(plain)
		gotSid := r.Uint64()
		gotSeq := r.Uint32()
		_ = r.Byte() // fin echo
		got := r.Blob()
		if r.Done() != nil || gotSid != sid || int(gotSeq) != c.seq {
			return -1, nil
		}
		return i, got
	}
	return -1, nil
}

// resetTimer rearms t for d, discarding a expiry nobody received.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// deploy sends every anchor to its holder at once and waits for the
// whole ack set. When the timer runs out, only the anchors still
// unacknowledged are sent again, up to cfg.Retries times.
func (n *Node) deploy(holders []transport.Addr, secrets []tha.Secret, cfg StreamConfig) error {
	acked := make([]bool, len(secrets))
	missing := len(secrets)
	send := func(i int) { n.tr.Send(n.Addr, holders[i], &AnchorMsg{Anchor: secrets[i].Anchor}) }
	for i := range secrets {
		send(i)
	}
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	for attempt := 0; missing > 0; {
		select {
		case hop := <-n.acks:
			// Acks for hops outside this set are stale ones from an
			// earlier exchange's redeploys.
			for i, s := range secrets {
				if !acked[i] && s.HopID == hop {
					acked[i] = true
					missing--
				}
			}
		case <-timer.C:
			if attempt >= cfg.Retries {
				i := slices.Index(acked, false)
				return fmt.Errorf("procnode: deploying anchor %s to node %d: no ack after %d attempts",
					secrets[i].HopID.Short(), holders[i], attempt+1)
			}
			attempt++
			for i := range secrets {
				if !acked[i] {
					n.m.streamRetransmits.Inc()
					send(i)
				}
			}
			timer.Reset(cfg.Timeout)
		}
	}
	return nil
}

// deleteAnchors sends each holder the §3.4 deletion for its anchor,
// proving ownership with the password only this initiator knows. The
// deletes are fire-and-forget: one that is lost leaves an anchor behind,
// which costs its holder memory and nothing else.
func (n *Node) deleteAnchors(holders []transport.Addr, secrets []tha.Secret) {
	for i, s := range secrets {
		n.tr.Send(n.Addr, holders[i], &AnchorDelete{HopID: s.HopID, PW: s.PW})
	}
}
