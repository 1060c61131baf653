//go:build race

package emblookup_test

const raceEnabled = true
