//go:build race

// Package racedetect reports whether the binary was built with the race
// detector. Tests use it to skip assertions the detector's instrumentation
// invalidates: timing shapes, which it slows ~10x, and allocation counts,
// which it inflates.
package racedetect

// Enabled reports that the race detector is active.
const Enabled = true
