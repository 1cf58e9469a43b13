package procnode

import (
	"bytes"
	"testing"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/tha"
	"tap/internal/transport"
)

// codecSamples is one valid message per frame kind.
func codecSamples() []transport.Message {
	var a tha.Anchor
	a.HopID = id.HashString("sample/anchor")
	for i := range a.Key {
		a.Key[i] = byte(i)
	}
	for i := range a.PWHash {
		a.PWHash[i] = byte(100 + i)
	}
	return []transport.Message{
		&AnchorMsg{Anchor: a},
		&AnchorAck{HopID: NodeID(9)},
		&core.Envelope{HopID: NodeID(1), Hint: 4, Sealed: bytes.Repeat([]byte("s"), 200), Pad: 3},
		&core.ReplyEnvelope{Target: NodeID(2), Hint: transport.NoAddr, Onion: []byte("onion"), Data: []byte("data"), Pad: 1},
		&DataMsg{Dest: NodeID(3), Payload: []byte("payload")},
		&AnchorDelete{HopID: a.HopID, PW: crypt.Password{1, 2, 3}},
	}
}

// TestEncodeIsOneExactAllocation pins Encode to AppendEncode into a
// buffer of exactly the encoded size.
func TestEncodeIsOneExactAllocation(t *testing.T) {
	var c Codec
	for _, m := range codecSamples() {
		_, p, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if len(p) != cap(p) {
			t.Fatalf("%T: %d bytes in a %d-byte buffer", m, len(p), cap(p))
		}
		if allocs := testing.AllocsPerRun(100, func() { c.Encode(m) }); allocs != 1 {
			t.Fatalf("%T: Encode does %v allocations, want 1", m, allocs)
		}
	}
}

// TestDecodeAliasesPayload checks the ownership contract from the
// decoding side: the bytes of a decoded envelope are the frame's own.
func TestDecodeAliasesPayload(t *testing.T) {
	var c Codec
	kind, p, err := c.Encode(&core.Envelope{HopID: NodeID(1), Sealed: []byte("sealed")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Decode(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	sealed := m.(*core.Envelope).Sealed
	sealed[0] = 'S'
	if !bytes.Contains(p, []byte("Sealed")) {
		t.Fatal("decoded envelope does not alias the frame payload")
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	var c Codec
	_, anchor, err := c.Encode(codecSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A short key blob: hop id, then a 15-byte key.
	short := append([]byte(nil), anchor[:id.Size]...)
	short = append(short, crypt.KeySize-1)
	short = append(short, anchor[id.Size+1:id.Size+crypt.KeySize]...)
	short = append(short, anchor[id.Size+1+crypt.KeySize:]...)
	if _, err := c.Decode(kindAnchor, short); err == nil {
		t.Fatal("anchor with a short key accepted")
	}
	// A delete whose password blob is one byte short.
	_, del, err := c.Encode(&AnchorDelete{HopID: NodeID(4)})
	if err != nil {
		t.Fatal(err)
	}
	del[id.Size]--
	if _, err := c.Decode(kindDelete, del[:len(del)-1]); err == nil {
		t.Fatal("delete with a short password accepted")
	}
	// A padded length prefix: 0x87 0x00 encodes 7 in two bytes.
	dest := NodeID(3)
	data := append(dest[:], 0x87, 0x00)
	data = append(data, "payload"...)
	if _, err := c.Decode(kindData, data); err == nil {
		t.Fatal("padded length prefix accepted")
	}
}

// FuzzCodecDecode feeds arbitrary frames to Decode: it must never panic,
// and whatever it accepts must re-encode to the identical bytes.
func FuzzCodecDecode(f *testing.F) {
	var c Codec
	for _, m := range codecSamples() {
		kind, p, err := c.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, p)
	}
	f.Add(byte(kindData), []byte{})
	dest := NodeID(3)
	f.Add(byte(kindData), append(append(dest[:], 0x87, 0x00), "payload"...)) // padded length prefix
	f.Add(byte(99), []byte("unknown kind"))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		in := append([]byte(nil), payload...)
		msg, err := c.Decode(kind, payload)
		if err != nil {
			return
		}
		gotKind, out, err := c.AppendEncode(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		if gotKind != kind || !bytes.Equal(out, in) {
			t.Fatalf("kind %d: re-encoded %x, decoded from %x", kind, out, in)
		}
		if n := encodedSize(msg); n != len(out) {
			t.Fatalf("%T: encodedSize %d, encoded %d bytes", msg, n, len(out))
		}
	})
}
