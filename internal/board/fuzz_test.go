package board

import (
	"maps"
	"testing"

	"tap/internal/transport"
)

// FuzzDecodePeers feeds the board client's peer-list decoder arbitrary
// payloads. Whatever decodes must hold no more entries than the payload
// has room for and survive a re-encode unchanged. The committed corpus
// (testdata/fuzz/FuzzDecodePeers) holds a bare count of 2³²−1, which a
// decoder that presizes its map from the count before checking it
// against the payload would turn into a request for terabytes.
func FuzzDecodePeers(f *testing.F) {
	f.Add(encodePeers(nil))
	f.Add(encodePeers(map[transport.Addr]string{0: "127.0.0.1:7000", 5: "", -1: "[::1]:9"}))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0}) // count 2, one entry
	f.Fuzz(func(t *testing.T, b []byte) {
		peers, err := decodePeers(b)
		if err != nil {
			return
		}
		if len(peers) > len(b)/minPeerEntry {
			t.Fatalf("%d peers decoded from %d bytes", len(peers), len(b))
		}
		again, err := decodePeers(encodePeers(peers))
		if err != nil {
			t.Fatalf("re-encoded peer list does not decode: %v", err)
		}
		if !maps.Equal(again, peers) {
			t.Fatalf("re-encode changed the peer list: %v, then %v", peers, again)
		}
	})
}
