//go:build !race

package link

const raceEnabled = false
