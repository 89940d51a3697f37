//go:build !race

package transform

const raceEnabled = false
