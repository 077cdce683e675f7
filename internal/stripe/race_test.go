//go:build race

package stripe

func init() { raceEnabled = true }
