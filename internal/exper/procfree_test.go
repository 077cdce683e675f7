package exper

import (
	"testing"
)

// TestFabricCellRunsProcFree replays one small 4:1 fabric cell per
// system (8 clients, 64 ops each) and checks that the replay clients
// run their operations without processes of their own: the async ops,
// the namespace and span fan-outs and the protocol calls are callback
// step machines, so a cell starts about one process per client (the
// replaying caller) rather than about two per operation, and holds
// about one coroutine per client. The event count is pinned at the
// value of the process-style clients: the step machines post the same
// events at the same (at, seq) places.
func TestFabricCellRunsProcFree(t *testing.T) {
	const clients = 8
	for _, tc := range []struct {
		system string
		events uint64
	}{
		{"NFS", 70310},
		{"DAFS", 70940},
		{"ODAFS", 64042},
	} {
		t.Run(tc.system, func(t *testing.T) {
			cfg := ReplayConfig{
				System: tc.system, Shards: fabricShards, Clients: clients, Depth: fabricDepth,
				Fabric: FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: 4},
			}
			sess := NewReplaySession(FabricGen(0.01), cfg)
			defer sess.Close()
			res, err := sess.Replay("fabric", nil)
			if err != nil {
				t.Fatal(err)
			}
			s := sess.Cluster.S
			procs, coros, events := s.Procs(), s.Coroutines(), s.Events()
			t.Logf("%d ops: %d procs (%.3f per op), %d coroutines, %d events",
				res.Ops, procs, float64(procs)/float64(res.Ops), coros, events)
			if res.Ops != int64(clients*len(sess.Trace())) {
				t.Fatalf("%d ops completed, want %d", res.Ops, clients*len(sess.Trace()))
			}
			if per := float64(procs) / float64(res.Ops); per >= 0.1 {
				t.Errorf("%.3f processes started per op, want < 0.1", per)
			}
			if coros > 2*clients+16 {
				t.Errorf("%d coroutines, want <= %d", coros, 2*clients+16)
			}
			if events != tc.events {
				t.Errorf("%d events, want %d (the process-style clients' count)", events, tc.events)
			}
		})
	}
}
