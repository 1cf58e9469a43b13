package procnode

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
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
	// Timeout bounds each network wait (anchor ack, chunk echo).
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

// RoundTripStream runs the full paper flow as one initiator call: mint
// anchors, deploy them to the configured hop nodes (acknowledged, so no
// install-vs-traffic race), build the forward tunnel and the pre-peeled
// reply tunnel, then stream the payload through the overlay in
// onion-sealed chunks. Each chunk travels the forward tunnel to the
// responder, which seals its echo under the chunk's key and sends it
// back down the reply tunnel; the reassembled echo is returned.
//
// Transport losses (a full send queue, a dropped connection) surface as
// per-chunk timeouts and are retried from the initiator, mirroring the
// simulator's reliability layer in miniature.
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
	mint := func(k int) ([]tha.Secret, error) {
		out := make([]tha.Secret, k)
		for i := range out {
			if out[i], err = gen.Generate(rand.Reader); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	fwSecrets, err := mint(len(cfg.ForwardHops))
	if err != nil {
		return nil, err
	}
	rpSecrets, err := mint(len(cfg.ReplyHops))
	if err != nil {
		return nil, err
	}

	// Deploy every anchor and wait for its holder's ack.
	deploy := func(hops []transport.Addr, secrets []tha.Secret) error {
		for i, hop := range hops {
			a := secrets[i].Anchor
			for attempt := 0; ; attempt++ {
				if attempt > 0 {
					n.m.streamRetransmits.Inc()
				}
				n.tr.Send(n.Addr, hop, &AnchorMsg{Anchor: a})
				if n.awaitAck(a.HopID, cfg.Timeout) {
					break
				}
				if attempt >= cfg.Retries {
					return fmt.Errorf("procnode: deploying anchor %s to node %d: no ack after %d attempts",
						a.HopID.Short(), hop, attempt+1)
				}
			}
		}
		return nil
	}
	if err := deploy(cfg.ForwardHops, fwSecrets); err != nil {
		return nil, err
	}
	if err := deploy(cfg.ReplyHops, rpSecrets); err != nil {
		return nil, err
	}

	fwTunnel := &core.Tunnel{Hops: fwSecrets}
	rpTunnel := &core.Tunnel{Hops: rpSecrets}
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

	// Stream the chunks, strictly one in flight: send, await echo,
	// verify, advance.
	var echoed bytes.Buffer
	nChunks := (len(payload) + cfg.ChunkSize - 1) / cfg.ChunkSize
	if nChunks == 0 {
		nChunks = 1 // an empty payload still round-trips one fin chunk
	}
	for seq := 0; seq < nChunks; seq++ {
		lo := seq * cfg.ChunkSize
		hi := lo + cfg.ChunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		chunk := payload[lo:hi]
		fin := seq == nChunks-1

		key, err := crypt.NewKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		req := encodeRequest(sid, uint32(seq), fin, key, rtEnc, chunk)
		env, err := core.BuildForward(fwTunnel, cfg.ForwardHops, destID, req, stream)
		if err != nil {
			return nil, err
		}
		sealer := crypt.NewSealer(key)
		var echo []byte
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				n.m.streamRetransmits.Inc()
			}
			n.tr.Send(n.Addr, cfg.ForwardHops[0], env)
			echo = n.awaitEcho(sealer, sid, uint32(seq), cfg.Timeout)
			if echo != nil {
				break
			}
			if attempt >= cfg.Retries {
				return nil, fmt.Errorf("procnode: chunk %d/%d lost after %d attempts", seq+1, nChunks, attempt+1)
			}
		}
		if !bytes.Equal(echo, chunk) {
			return nil, fmt.Errorf("procnode: chunk %d echo mismatch (%d vs %d bytes)", seq, len(echo), len(chunk))
		}
		n.m.streamChunks.Inc()
		echoed.Write(echo)
	}
	return echoed.Bytes(), nil
}

// awaitAck waits for an anchor ack with the given hop id, discarding
// stale acks from earlier retries.
func (n *Node) awaitAck(hopID id.ID, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case got := <-n.acks:
			if got == hopID {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}

// awaitEcho waits for the reply carrying (sid, seq), opening candidates
// in place with the chunk key's sealer; the returned echo aliases the
// reply's frame buffer. Replies that fail to open (stale retransmits of
// an earlier chunk, sealed under a different key) are discarded.
func (n *Node) awaitEcho(sealer *crypt.Sealer, sid uint64, seq uint32, timeout time.Duration) []byte {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case sealed := <-n.replies:
			plain, err := sealer.OpenInPlace(sealed)
			if err != nil {
				continue
			}
			r := wire.NewReader(plain)
			gotSid := r.Uint64()
			gotSeq := r.Uint32()
			_ = r.Byte() // fin echo
			chunk := r.Blob()
			if r.Done() != nil || gotSid != sid || gotSeq != seq {
				continue
			}
			return chunk
		case <-deadline.C:
			return nil
		}
	}
}
