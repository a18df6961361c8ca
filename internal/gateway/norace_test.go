//go:build !race

package gateway

// raceEnabled reports a -race build, under which allocation counts drift.
const raceEnabled = false
