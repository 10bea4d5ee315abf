//go:build race

package paris

// raceSlack is how many more rounds a timing assertion allows under the race
// detector: its ~10x slowdown stretches a hop to a good part of a 5 ms round,
// so a node that fell back to its deadline stays one round ahead of its late
// input (docs/INVARIANTS.md, stabilization rule) far more often than it
// otherwise would.
const raceSlack = 1
