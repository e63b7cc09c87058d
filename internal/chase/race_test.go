//go:build race

package chase_test

const raceEnabled = true
