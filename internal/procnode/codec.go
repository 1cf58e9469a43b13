// Package procnode is the overlay node for the real-process deployment
// mode: the engine a tapnode process runs on top of tcptransport.
//
// It reuses the simulator's onion cryptography — the tunnel hop anchors
// of internal/tha and the layered envelopes of internal/core — but none
// of its oracles. Where a simulated hop consults the global directory,
// a procnode holds only the anchors initiators deployed to it; where the
// simulated engine routes with the Pastry overlay, a procnode follows
// the §5 address hints baked into each onion layer, falling back to a
// full-membership node-ID index (fed by the bulletin board) only to
// resolve exit destinations and the reply tail. That is the optimized
// mode of the paper with the bootstrap oracle made explicit.
package procnode

import (
	"fmt"

	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/wire"
)

// Frame kinds of the node-to-node protocol.
const (
	kindAnchor    = 1 // install a tunnel hop anchor
	kindAnchorAck = 2 // confirm an installation
	kindForward   = 3 // a forward-tunnel envelope (core.Envelope)
	kindReply     = 4 // a reply-tunnel envelope (core.ReplyEnvelope)
	kindData      = 5 // an exit payload en route to its destination node
)

// AnchorMsg deploys one anchor <hopid, K, H(PW)> onto the receiving
// node. In the simulator this is a PAST replica insert; here the
// initiator addresses the holder directly.
type AnchorMsg struct {
	Anchor tha.Anchor
}

// SizeBytes implements transport.Message.
func (m *AnchorMsg) SizeBytes() int { return tha.WireSize }

// AnchorAck confirms an anchor installation, closing the
// deploy-before-use race: initiators wait for every hop's ack before
// sending traffic through a tunnel.
type AnchorAck struct {
	HopID id.ID
}

// SizeBytes implements transport.Message.
func (m *AnchorAck) SizeBytes() int { return id.Size }

// DataMsg carries an exit payload from the tunnel's exit hop to the
// destination node named inside the innermost layer.
type DataMsg struct {
	Dest    id.ID
	Payload []byte
}

// SizeBytes implements transport.Message.
func (m *DataMsg) SizeBytes() int { return id.Size + len(m.Payload) }

// Codec frames the procnode message set for tcptransport.
//
// Buffer ownership follows tcptransport.Codec: AppendEncode appends to
// the buffer it is given, and Decode keeps the payload it is given —
// decoded envelopes and exit payloads alias the frame buffer, which the
// transport hands over with the frame. A relay therefore peels the frame
// where it landed and copies the surviving bytes exactly once, into the
// next frame's encode buffer.
type Codec struct{}

// Encode returns msg's frame kind and payload in a new buffer presized to
// the exact encoded length: one allocation, through AppendEncode.
func (c Codec) Encode(msg transport.Message) (byte, []byte, error) {
	return c.AppendEncode(make([]byte, 0, encodedSize(msg)), msg)
}

// AppendEncode implements tcptransport.Codec.
func (Codec) AppendEncode(dst []byte, msg transport.Message) (byte, []byte, error) {
	w := wire.WriterOn(dst)
	switch m := msg.(type) {
	case *AnchorMsg:
		w.ID(m.Anchor.HopID)
		w.Blob(m.Anchor.Key[:])
		w.Blob(m.Anchor.PWHash[:])
		return kindAnchor, w.Bytes(), nil
	case *AnchorAck:
		w.ID(m.HopID)
		return kindAnchorAck, w.Bytes(), nil
	case *core.Envelope:
		w.ID(m.HopID)
		w.Int64(int64(m.Hint))
		w.Blob(m.Sealed)
		w.Uint32(uint32(m.Pad))
		return kindForward, w.Bytes(), nil
	case *core.ReplyEnvelope:
		w.ID(m.Target)
		w.Int64(int64(m.Hint))
		w.Blob(m.Onion)
		w.Blob(m.Data)
		w.Uint32(uint32(m.Pad))
		return kindReply, w.Bytes(), nil
	case *DataMsg:
		w.ID(m.Dest)
		w.Blob(m.Payload)
		return kindData, w.Bytes(), nil
	default:
		return 0, dst, fmt.Errorf("procnode: cannot encode %T", msg)
	}
}

// encodedSize is the exact payload length AppendEncode produces for msg
// (0 for a message it rejects).
func encodedSize(msg transport.Message) int {
	blob := func(n int) int { return uvarintLen(n) + n }
	switch m := msg.(type) {
	case *AnchorMsg:
		return id.Size + blob(len(m.Anchor.Key)) + blob(len(m.Anchor.PWHash))
	case *AnchorAck:
		return id.Size
	case *core.Envelope:
		return id.Size + 8 + blob(len(m.Sealed)) + 4
	case *core.ReplyEnvelope:
		return id.Size + 8 + blob(len(m.Onion)) + blob(len(m.Data)) + 4
	case *DataMsg:
		return id.Size + blob(len(m.Payload))
	default:
		return 0
	}
}

// uvarintLen is the encoded length of n as a uvarint.
func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// Decode implements tcptransport.Codec. The returned message aliases
// payload. Only the canonical encoding of each message is accepted (fixed
// key and hash widths, minimal length prefixes, no trailing bytes), so
// whatever decodes re-encodes to the same bytes.
func (Codec) Decode(kind byte, payload []byte) (transport.Message, error) {
	r := wire.NewReader(payload)
	switch kind {
	case kindAnchor:
		var m AnchorMsg
		m.Anchor.HopID = r.ID()
		key, pwHash := r.Blob(), r.Blob()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: anchor: %w", err)
		}
		if len(key) != len(m.Anchor.Key) || len(pwHash) != len(m.Anchor.PWHash) {
			return nil, fmt.Errorf("procnode: anchor: %d-byte key, %d-byte password hash", len(key), len(pwHash))
		}
		copy(m.Anchor.Key[:], key)
		copy(m.Anchor.PWHash[:], pwHash)
		return &m, nil
	case kindAnchorAck:
		m := &AnchorAck{HopID: r.ID()}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: anchor ack: %w", err)
		}
		return m, nil
	case kindForward:
		var m core.Envelope
		m.HopID = r.ID()
		m.Hint = transport.Addr(r.Int64())
		m.Sealed = r.Blob()
		m.Pad = int(r.Uint32())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: forward envelope: %w", err)
		}
		return &m, nil
	case kindReply:
		var m core.ReplyEnvelope
		m.Target = r.ID()
		m.Hint = transport.Addr(r.Int64())
		m.Onion = r.Blob()
		m.Data = r.Blob()
		m.Pad = int(r.Uint32())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: reply envelope: %w", err)
		}
		return &m, nil
	case kindData:
		m := &DataMsg{Dest: r.ID()}
		m.Payload = r.Blob()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("procnode: data: %w", err)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("procnode: unknown frame kind %d", kind)
	}
}

// compile-time interface checks for the message set
var (
	_ transport.Message = (*AnchorMsg)(nil)
	_ transport.Message = (*AnchorAck)(nil)
	_ transport.Message = (*DataMsg)(nil)
)
