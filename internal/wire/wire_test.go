package wire

import (
	"bytes"
	"errors"
	"testing"

	"tap/internal/id"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Byte(7)
	w.Uint32(0xdeadbeef)
	w.Uint64(1 << 40)
	w.Int64(-12345)
	nid := id.HashString("n")
	w.ID(nid)
	w.Blob([]byte("payload"))
	w.String("hello")

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -12345 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.ID(); got != nid {
		t.Fatalf("ID = %s", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlob(t *testing.T) {
	w := NewWriter(8)
	w.Blob(nil)
	r := NewReader(w.Bytes())
	if got := r.Blob(); len(got) != 0 {
		t.Fatalf("empty blob read as %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uint64()
	if r.Err() != ErrShort {
		t.Fatalf("err = %v, want ErrShort", r.Err())
	}
	// Subsequent reads keep failing without panicking.
	r.ID()
	r.Blob()
	if r.Err() != ErrShort {
		t.Fatalf("sticky error lost")
	}
}

func TestOversizeBlobPrefix(t *testing.T) {
	w := NewWriter(8)
	w.Blob([]byte("abc"))
	buf := w.Bytes()
	buf[0] = 200 // claim 200 bytes follow
	r := NewReader(buf)
	r.Blob()
	if r.Err() != ErrOversize {
		t.Fatalf("err = %v, want ErrOversize", r.Err())
	}
}

func TestDoneDetectsTrailing(t *testing.T) {
	w := NewWriter(8)
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	r.Byte()
	if err := r.Done(); err == nil {
		t.Fatalf("trailing byte not detected")
	}
}

func TestRemaining(t *testing.T) {
	w := NewWriter(8)
	w.Uint32(1)
	r := NewReader(w.Bytes())
	if r.Remaining() != 4 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.Uint32()
	if r.Remaining() != 0 {
		t.Fatalf("Remaining after read = %d", r.Remaining())
	}
}

func TestZeroValueReads(t *testing.T) {
	// After an error, value reads return zero values.
	r := NewReader(nil)
	if r.Byte() != 0 || r.Uint32() != 0 || r.Uint64() != 0 || !r.ID().IsZero() || r.Blob() != nil {
		t.Fatalf("post-error reads not zero-valued")
	}
}

// TestBlobRejectsPaddedPrefix: a length prefix in a longer-than-minimal
// uvarint form decodes to the same length as the minimal one, so
// accepting it would break decode/re-encode identity.
func TestBlobRejectsPaddedPrefix(t *testing.T) {
	for _, buf := range [][]byte{
		{0x80, 0x00},                // 0 in two bytes
		{0x83, 0x00, 'a', 'b', 'c'}, // 3 in two bytes
		{0x80, 0x80, 0x00},          // 0 in three bytes
	} {
		r := NewReader(buf)
		r.Blob()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Fatalf("%x: got %v, want ErrNonCanonical", buf, r.Err())
		}
	}
	// Minimal multi-byte prefixes still decode.
	w := NewWriter(0)
	w.Blob(make([]byte, 300))
	r := NewReader(w.Bytes())
	if b := r.Blob(); len(b) != 300 || r.Done() != nil {
		t.Fatalf("300-byte blob: %d bytes, %v", len(b), r.Done())
	}
}
