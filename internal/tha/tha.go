// Package tha implements Tunnel Hop Anchors, the mechanism that decouples
// TAP tunnels from fixed nodes (§3 of the paper).
//
// A tunnel hop is identified by a hopid — a DHT key — and anchored by a
// record <hopid, K, H(PW)> replicated on the k nodes numerically closest
// to hopid. The node currently closest is the *tunnel hop node*; the other
// replica holders are candidates that take over on failure. K is the
// symmetric layer key for that hop; H(PW) lets the owner, and only the
// owner, delete the anchor later by revealing PW.
//
// Anchor generation (§3.2) must be collision-free across nodes yet
// unlinkable to the generating node: hopid = H(node_ID, hkey, t) with a
// per-node secret hkey and a deployment counter t, so nobody can
// recompute the mapping without the secret.
package tha

import (
	"errors"
	"fmt"
	"io"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/simnet"
)

// Anchor is the stored THA record <hopid, K, H(PW)>.
type Anchor struct {
	HopID  id.ID
	Key    crypt.Key
	PWHash crypt.PasswordHash

	// sealer caches the layer-crypto key schedule for Key. Deploy installs
	// an empty cell, so every copy of the record handed out by the replica
	// store — anchors are passed by value — shares one schedule and a hop
	// node pays the subkey derivation once per anchor, not once per
	// message. The schedule itself is derived lazily on first use: most
	// deployed anchors never seal a message (availability and corruption
	// experiments deploy hundreds of thousands), so deployment must not
	// pay AES/HMAC setup. It is node-local state, never serialized:
	// WireSize excludes it. Like the rest of the simulator it assumes
	// single-goroutine use.
	sealer *sealerCell
}

// sealerCell is the shared, lazily-filled key-schedule slot.
type sealerCell struct{ s *crypt.Sealer }

// Sealer returns the anchor's cached key schedule, deriving it on first
// use. Anchors that never passed through Deploy (hand-built test values)
// get an uncached throwaway schedule.
func (a Anchor) Sealer() *crypt.Sealer {
	if a.sealer != nil {
		if a.sealer.s == nil {
			a.sealer.s = crypt.NewSealer(a.Key)
		}
		return a.sealer.s
	}
	return crypt.NewSealer(a.Key)
}

// WithScheduleSlot returns a copy of a with a fresh, empty key-schedule
// slot — what Deploy installs — shared by every further copy. Nodes that
// store anchors outside a Directory use it to cache per-anchor schedules.
func (a Anchor) WithScheduleSlot() Anchor {
	a.sealer = &sealerCell{}
	return a
}

// ScheduleCached reports whether a's slot holds a derived key schedule.
func (a Anchor) ScheduleCached() bool { return a.sealer != nil && a.sealer.s != nil }

// DropSchedule empties a's slot, releasing its derived schedule; the next
// Sealer call derives it again. Holders that bound schedule memory evict
// through it.
func (a Anchor) DropSchedule() {
	if a.sealer != nil {
		a.sealer.s = nil
	}
}

// WireSize is the encoded anchor size used for network-cost accounting
// (hopid + key + password hash).
const WireSize = id.Size + crypt.KeySize + 32

// Secret is the owner's view of an anchor: the record plus the deletion
// password. Secrets never leave the initiator.
type Secret struct {
	Anchor
	PW crypt.Password
}

// Generator produces node-specific, unlinkable anchors.
type Generator struct {
	nodeID []byte
	hkey   [16]byte
	next   uint64
}

// NewGenerator creates a generator for the node identified by nodeID
// (e.g. the encoding of its public key), with a fresh secret hkey drawn
// from r.
func NewGenerator(nodeID []byte, r io.Reader) (*Generator, error) {
	g := &Generator{nodeID: append([]byte(nil), nodeID...)}
	if _, err := io.ReadFull(r, g.hkey[:]); err != nil {
		return nil, fmt.Errorf("tha: drawing hkey: %w", err)
	}
	return g, nil
}

// Generate mints the next anchor: hopid = H(node_ID ‖ hkey ‖ t), a fresh
// random key, and a fresh password. The counter t advances every call, so
// repeated generation never collides with the node's own earlier anchors;
// the hash makes cross-node collisions negligible and the hkey makes the
// hopid unlinkable to the node.
func (g *Generator) Generate(r io.Reader) (Secret, error) {
	t := g.next
	g.next++
	var tbuf [8]byte
	for i := 0; i < 8; i++ {
		tbuf[i] = byte(t >> (8 * (7 - i)))
	}
	hopID := id.Hash(g.nodeID, g.hkey[:], tbuf[:])
	key, err := crypt.NewKey(r)
	if err != nil {
		return Secret{}, err
	}
	pw, err := crypt.NewPassword(r)
	if err != nil {
		return Secret{}, err
	}
	return Secret{
		Anchor: Anchor{HopID: hopID, Key: key, PWHash: pw.Hash()},
		PW:     pw,
	}, nil
}

// Counter returns the next t value (how many anchors were generated).
func (g *Generator) Counter() uint64 { return g.next }

// --- directory ---------------------------------------------------------------

// Directory is the storage-side view of all deployed anchors: a typed
// layer over the PAST replication manager that enforces the paper's access
// rules. Only the replica-set nodes of a hopid (verifiable by the numeric
// closeness constraint) may read an anchor; only the owner (verifiable by
// PW) may delete it; deployment may be charged a CPU puzzle.
type Directory struct {
	ov  *pastry.Overlay
	mgr *past.Manager

	// PuzzleDifficulty, when positive, requires a hashcash payment per
	// deployment (§3.3's anti-flood charge). Zero disables it.
	PuzzleDifficulty int

	deployed uint64
	rejected uint64
}

// NewDirectory layers anchor semantics on an existing replication
// manager.
func NewDirectory(ov *pastry.Overlay, mgr *past.Manager) *Directory {
	return &Directory{ov: ov, mgr: mgr}
}

// Manager exposes the underlying replication manager.
func (d *Directory) Manager() *past.Manager { return d.mgr }

// Errors returned by directory operations.
var (
	ErrPuzzleRequired = errors.New("tha: deployment requires a valid puzzle solution")
	ErrNotFound       = errors.New("tha: anchor not found (lost or never deployed)")
	ErrAccessDenied   = errors.New("tha: requester is not in the anchor's replica set")
	ErrBadPassword    = errors.New("tha: password proof failed")
)

// Puzzle returns the CPU-payment challenge for deploying hopid.
func (d *Directory) Puzzle(hopID id.ID) crypt.Puzzle {
	return crypt.Puzzle{Challenge: hopID[:], Difficulty: d.PuzzleDifficulty}
}

// Deploy stores the anchor on its replica set. nonce must solve
// Puzzle(anchor.HopID) when a difficulty is configured; a bad payment is
// rejected before any storage happens.
func (d *Directory) Deploy(a Anchor, nonce uint64) error {
	if d.PuzzleDifficulty > 0 {
		if err := d.Puzzle(a.HopID).Verify(nonce); err != nil {
			d.rejected++
			return fmt.Errorf("%w: %v", ErrPuzzleRequired, err)
		}
	}
	// Install the key-schedule cell all replica copies will share; the
	// schedule is derived on the first message this anchor processes.
	a.sealer = &sealerCell{}
	if err := d.mgr.Insert(a.HopID, a); err != nil {
		return fmt.Errorf("tha: deploy: %w", err)
	}
	d.deployed++
	return nil
}

// DeployedCount returns the number of successful deployments.
func (d *Directory) DeployedCount() uint64 { return d.deployed }

// RejectedCount returns the number of deployments rejected for missing
// CPU payment.
func (d *Directory) RejectedCount() uint64 { return d.rejected }

// Available reports whether the anchor still has at least one live
// replica — the condition for its tunnel hop to function.
func (d *Directory) Available(hopID id.ID) bool {
	_, ok := d.mgr.Lookup(hopID)
	return ok
}

// HopNode returns the current tunnel hop node for hopid: the live node
// numerically closest to it. The bool is false when the anchor no longer
// exists (all replicas lost), in which case the hop — and its tunnel — is
// broken even though some node still owns the id space.
func (d *Directory) HopNode(hopID id.ID) (*pastry.Node, bool) {
	if !d.Available(hopID) {
		return nil, false
	}
	return d.ov.OwnerOf(hopID), true
}

// FetchAsHolder returns the anchor to a node claiming to hold it. The
// claim is verified by the paper's "verifiable constraint": the requester
// must actually store the anchor, which the replication manager only does
// for nodes in the hopid's replica set.
func (d *Directory) FetchAsHolder(holder simnet.Addr, hopID id.ID) (Anchor, error) {
	st := d.mgr.StoreAt(holder)
	if st == nil {
		return Anchor{}, ErrAccessDenied
	}
	v, ok := st.Get(hopID)
	if !ok {
		// Either the anchor doesn't exist or this node is not a replica —
		// indistinguishable to the node itself, denied either way.
		return Anchor{}, ErrAccessDenied
	}
	return v.(Anchor), nil
}

// FetchAsOwner returns the anchor to a requester proving ownership with
// the password.
func (d *Directory) FetchAsOwner(hopID id.ID, pw crypt.Password) (Anchor, error) {
	v, ok := d.mgr.Lookup(hopID)
	if !ok {
		return Anchor{}, ErrNotFound
	}
	a := v.(Anchor)
	if !a.PWHash.Verify(pw) {
		return Anchor{}, ErrBadPassword
	}
	return a, nil
}

// Delete removes the anchor after verifying the password proof (§3.4):
// the replica holders hash the presented PW and compare with the stored
// H(PW).
func (d *Directory) Delete(hopID id.ID, pw crypt.Password) error {
	v, ok := d.mgr.Lookup(hopID)
	if !ok {
		return ErrNotFound
	}
	a := v.(Anchor)
	if !a.PWHash.Verify(pw) {
		return ErrBadPassword
	}
	if !d.mgr.Delete(hopID) {
		return ErrNotFound
	}
	return nil
}

// ReplicaAddrs returns the addresses currently holding the anchor, the
// set an adversary learns the anchor from if any member is malicious.
func (d *Directory) ReplicaAddrs(hopID id.ID) []simnet.Addr {
	return d.mgr.Replicas(hopID)
}
