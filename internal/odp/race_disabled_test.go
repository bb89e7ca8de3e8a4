//go:build !race

package odp

const raceEnabled = false
