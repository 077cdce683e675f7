//go:build race

package exper

func init() { raceEnabled = true }
