//go:build !race

package experiments

// See race_on_test.go.
const raceEnabled = false
