//go:build !race

package metascope_test

const raceEnabled = false
