//go:build !race

package racedetect

// Enabled reports whether the race detector is active.
const Enabled = false
