package exper

import (
	"testing"

	"danas/internal/trace"
)

// TestFabricCellRunsProcFree replays one small 4:1 fabric cell per
// system (8 clients, 64 ops each) and checks that the replay clients
// run their operations without processes of their own: the async ops,
// the namespace and span fan-outs and the protocol calls are callback
// step machines, so a cell starts about one process per client (the
// replaying caller) rather than about two per operation, and holds
// about one coroutine per client. The event count is pinned: the step
// machines post the events of the process-style clients at the same
// (at, seq) places, and every queued operation starts at an event of
// its own. The NFS rows pin theirs from the count of the worker-pool
// facade they once ran on, whose first submission started Depth
// workers per client, Depth-1 of which found nothing to run; the
// cached clients' rows never ran on that pool.
//
// The replicated NFS rows replay 64 ops of one client, at the default
// queue depth, over 4 shards of one replica each (replica Groups under
// the striped client). Their
// namespace operations and replicated writes still run on processes,
// so their process count is pinned, below the count when the async
// facade's workers were processes; a read runs as the serving copy's
// task and starts none, which the read-only row checks by replaying twice
// as many reads through a queue of depth 1 at the same count (neither
// the reads nor the queue's slots may start a process).
func TestFabricCellRunsProcFree(t *testing.T) {
	const clients = 8
	fabric := ReplayConfig{
		Shards: fabricShards, Clients: clients, Depth: fabricDepth,
		Fabric: FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: 4},
	}
	replicated := ReplayConfig{System: "NFS", Shards: 4, Replicas: 1}
	readOnly := FabricGen(0.01)
	readOnly.ReadFrac = 1
	for _, tc := range []struct {
		name   string
		cfg    ReplayConfig
		gen    trace.GenConfig
		events uint64
		// pooled marks a row whose events count is the worker pool's,
		// idle worker starts included.
		pooled bool
		// procs, when set, pins the processes started, which must stay
		// below parentProcs, the count with worker processes.
		procs, parentProcs int
	}{
		{name: "NFS", events: 70310, pooled: true},
		{name: "DAFS", events: 70940},
		{name: "ODAFS", events: 64042},
		{name: "NFS-replicated", cfg: replicated, gen: FabricGen(0.01), events: 9966, pooled: true, procs: 223, parentProcs: 272},
		{name: "NFS-replicated-read", cfg: replicated, gen: readOnly, events: 9066, pooled: true, procs: 193, parentProcs: 257},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, gen := tc.cfg, tc.gen
			if cfg.System == "" {
				cfg, gen = fabric, FabricGen(0.01)
				cfg.System = tc.name
			}
			ops, procs, coros, events := replayCell(t, cfg, gen)
			t.Logf("%d ops: %d procs (%.3f per op), %d coroutines, %d events",
				ops, procs, float64(procs)/float64(ops), coros, events)
			if tc.procs == 0 {
				if per := float64(procs) / float64(ops); per >= 0.1 {
					t.Errorf("%.3f processes started per op, want < 0.1", per)
				}
				if coros > 2*clients+16 {
					t.Errorf("%d coroutines, want <= %d", coros, 2*clients+16)
				}
			} else if procs != tc.procs || procs >= tc.parentProcs {
				t.Errorf("%d processes started, want %d (below %d)", procs, tc.procs, tc.parentProcs)
			}
			want := tc.events
			if tc.pooled {
				depth := cfg.Depth
				if depth <= 0 {
					depth = traceDepth
				}
				want -= uint64(max(cfg.Clients, 1) * (depth - 1))
			}
			if events != want {
				t.Errorf("%d events, want %d", events, want)
			}
			if gen.ReadFrac == 1 {
				gen.Ops, cfg.Depth = 2*gen.Ops, 1
				if _, more, _, _ := replayCell(t, cfg, gen); more != procs {
					t.Errorf("%d processes for twice the reads at depth 1, want %d: a read or a queue slot started one", more, procs)
				}
			}
		})
	}
}

// replayCell replays gen on a fresh session of cfg and returns the ops
// completed, and the processes, coroutines and events of its scheduler.
func replayCell(t *testing.T, cfg ReplayConfig, gen trace.GenConfig) (ops int64, procs, coros int, events uint64) {
	t.Helper()
	sess := NewReplaySession(gen, cfg)
	defer sess.Close()
	res, err := sess.Replay("fabric", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(max(cfg.Clients, 1) * len(sess.Trace())); res.Ops != want {
		t.Fatalf("%d ops completed, want %d", res.Ops, want)
	}
	s := sess.Cluster.S
	return res.Ops, s.Procs(), s.Coroutines(), s.Events()
}
