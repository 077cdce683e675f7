package exper

import "danas/internal/sim"

// The axes and constants of the failure, write-mix and replication
// sweeps. Their cells are scenario specs (package scenario builds and
// runs them and renders their tables); the axes stay here beside the
// replay machinery they parameterize.

// FailureShardCounts is the fleet-size axis of the failure experiment.
var FailureShardCounts = []int{1, 2, 4, 8}

// FailureScheds names the injected fault patterns: "crash" takes shard 0
// down for the fault window (cold cache and invalidated ORDMA exports on
// restart); "degrade" clamps shard 0's link to 1/DegradeFactor of its
// bandwidth over the same window.
var FailureScheds = []string{"crash", "degrade"}

const (
	// FailRTO and FailRetries bound client-side recovery: both the RPC
	// stacks and the DAFS sessions retransmit with exponential backoff
	// from FailRTO and give up after FailRetries, so an op against a
	// dead shard either recovers transparently once it restarts or
	// fails with a typed timeout the replay counts — never a hang.
	FailRTO     = 2 * sim.Millisecond
	FailRetries = 7
	// DegradeFactor divides the victim link's bandwidth during the
	// degradation window.
	DegradeFactor = 8
)

// WriteMixReadFracs is the mix axis: from the paper's read-only regime
// (where ORDMA shines) down to a pure write stream (where every
// protocol is gated by the shards' ability to destage dirty data,
// §4.2.2).
var WriteMixReadFracs = []float64{1.0, 0.9, 0.7, 0.5, 0.3, 0.0}

// WriteMixShardCounts is the fleet-size axis of the write-mix sweep.
var WriteMixShardCounts = []int{1, 2, 4, 8}

// WriteMixCommitEvery is how many writes ride between the trace's
// periodic whole-file commits.
const WriteMixCommitEvery = 32

// ReplicationAcks is the write acknowledgement policy axis of the
// replication experiment.
var ReplicationAcks = []string{"sync", "quorum", "async"}

// ReplicationCounts is the replicas-per-shard axis (the unreplicated
// baseline rows run alongside at zero).
var ReplicationCounts = []int{1, 2}

const (
	// ReplicationShards fixes the fleet size: replication multiplies the
	// machine count per shard, so the sweep holds the shard axis at two
	// and spends its cells on the ack × replica-count grid.
	ReplicationShards = 2
	// ReplRetries is the shallow retransmission budget replicated cells
	// run with. The failure experiment's deep budget rides a whole outage
	// out on backoff, so failover would never fire; three attempts
	// exhaust in a few RTOs and hand the op to the failover path while
	// the primary is still dark.
	ReplRetries = 3
)
