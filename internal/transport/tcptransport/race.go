//go:build race

package tcptransport

import "syscall"

// raceReleaseIO tells the race detector that everything this goroutine
// did so far happens before whatever a later read from any descriptor
// observes. syscall.Write makes that release for every write, and
// syscall.Read makes the matching acquire, which is how a test that
// synchronizes through a loopback connection stays ordered for the
// detector. The writev behind net.Buffers bypasses syscall.Write, so the
// writer makes the release itself: a zero-length write to an invalid
// descriptor, which touches no socket. Race builds only.
func raceReleaseIO() { _, _ = syscall.Write(-1, nil) }
