package procnode_test

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/procnode"
	"tap/internal/tha"
	"tap/internal/transport"
	"tap/internal/transport/tcptransport"
	"tap/internal/wire"
)

var updateFrames = flag.Bool("update-frames", false, "rewrite testdata/frames.golden from the current encoder")

// recordConn is a net.Conn that keeps every byte written to it. Reads
// block until Close.
type recordConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed chan struct{}
	once   sync.Once
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *recordConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *recordConn) Read([]byte) (int, error)         { <-c.closed; return 0, net.ErrClosed }
func (c *recordConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *recordConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *recordConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *recordConn) SetDeadline(time.Time) error      { return nil }
func (c *recordConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

type recordDialer struct{ conn *recordConn }

func (d recordDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	return d.conn, nil
}

// goldenMessages is one fixed message per frame kind, plus a forward
// envelope large enough to outgrow a default encode buffer.
func goldenMessages() []transport.Message {
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*31)
		}
		return b
	}
	var a tha.Anchor
	a.HopID = id.HashString("golden/anchor")
	copy(a.Key[:], fill(crypt.KeySize, 1))
	copy(a.PWHash[:], fill(32, 2))
	var pw crypt.Password
	copy(pw[:], fill(crypt.PasswordSize, 8))
	return []transport.Message{
		&procnode.AnchorMsg{Anchor: a},
		&procnode.AnchorAck{HopID: id.HashString("golden/ack")},
		&core.Envelope{HopID: id.HashString("golden/fw"), Hint: 4, Sealed: fill(300, 3), Pad: 17},
		&core.Envelope{HopID: id.HashString("golden/fw-big"), Hint: transport.NoAddr, Sealed: fill(20000, 4), Pad: 0},
		&core.ReplyEnvelope{Target: id.HashString("golden/rp"), Hint: 5, Onion: fill(150, 5), Data: fill(700, 6), Pad: 9},
		&procnode.DataMsg{Dest: id.HashString("golden/data"), Payload: fill(64, 7)},
		&procnode.AnchorDelete{HopID: id.HashString("golden/delete"), PW: pw},
	}
}

// TestWireFramesGolden pins the bytes a transport puts on the wire for
// every procnode message kind: frame header, source and destination
// addresses, and the codec payload. The golden was written by the
// encoder that built each frame in one contiguous buffer; a gathered
// (writev) write must reproduce it byte for byte.
func TestWireFramesGolden(t *testing.T) {
	conn := &recordConn{closed: make(chan struct{})}
	tr := tcptransport.New(tcptransport.Config{Codec: procnode.Codec{}, Dialer: recordDialer{conn}})
	defer tr.Close()
	tr.SetPeer(9, "recorded:0")
	msgs := goldenMessages()
	for _, m := range msgs {
		tr.Send(3, 9, m)
	}
	// Wait until every frame has been written.
	var got []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		got = conn.bytes()
		frames, rest := 0, got
		for len(rest) > 0 {
			_, _, r, err := wire.ParseFrame(rest)
			if err != nil {
				break
			}
			frames, rest = frames+1, r
		}
		if frames == len(msgs) && len(rest) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames written (%d stray bytes)", frames, len(msgs), len(rest))
		}
		time.Sleep(time.Millisecond)
	}
	path := filepath.Join("testdata", "frames.golden")
	if *updateFrames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("wire bytes differ from %s at offset %d (%d vs %d bytes)", path, i, len(got), len(want))
			}
		}
		t.Fatalf("wire bytes are a prefix of %s (%d vs %d bytes)", path, len(got), len(want))
	}
}
