package main

import "testing"

// BenchmarkMicro runs the per-layer microbenchmarks the traced run
// reports, e.g. go test -run '^$' -bench Micro/sim.block_wake.
func BenchmarkMicro(b *testing.B) {
	for _, m := range micros {
		b.Run(m.Name, m.Fn)
	}
}
