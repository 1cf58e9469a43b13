//go:build !race

package tcptransport

// raceReleaseIO is a no-op outside race builds; see race.go.
func raceReleaseIO() {}
