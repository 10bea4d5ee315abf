//go:build !race

package paris

// raceSlack is how many more rounds a timing assertion allows under the race
// detector.
const raceSlack = 0
