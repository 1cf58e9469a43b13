//go:build !race

package tcptransport

const raceEnabled = false
