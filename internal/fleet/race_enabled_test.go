//go:build race

package fleet

// raceEnabled lets allocation-counting tests skip under the race detector,
// which makes sync.Pool drop pooled items at random.
const raceEnabled = true
