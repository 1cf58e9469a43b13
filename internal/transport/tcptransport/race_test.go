//go:build race

package tcptransport

// raceEnabled reports a race build, where sync.Pool drops a share of its
// entries on purpose, so allocation counts mean nothing.
const raceEnabled = true
