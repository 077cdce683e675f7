package nas

import (
	"danas/internal/host"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/wire"
)

// CallTable is a protocol client's table of outstanding calls, shared by
// the RPC and DAFS session stacks: it assigns transaction IDs, matches
// replies to the calls waiting on them — any number may be outstanding
// — and drives retransmission and timeout. T is the reply a call
// resolves with; M is the sent request the protocol's resend puts back
// on the wire. Each stack keeps only its own send and resend.
type CallTable[T, M any] struct {
	nextXID uint64
	pending map[uint64]*Call[T, M]
	pool    *sim.Pool[Call[T, M]] // the simulation's call records, for reuse
	resend  func(*M)

	// RetransmitTimeout, when nonzero, re-sends an unanswered request
	// after each timeout with exponential backoff (sim.Retry's shared
	// policy), up to MaxRetries times; then the call fails with
	// ErrTimeout, so a dead server never hangs its caller.
	RetransmitTimeout sim.Duration
	MaxRetries        int

	Calls uint64
	// Retransmits counts re-sent requests; TimedOut counts calls that
	// exhausted their budget and failed.
	Retransmits uint64
	TimedOut    uint64
}

// Call is one call's record: its request, its reply, and the
// completion its caller waits on. Records belong to the simulation, not
// to one table: Begin takes one from the pool the table was given, which
// every table of the same record type on the scheduler shares, and End
// puts it back once the caller has read the reply. A record is matched
// to replies only through its table and its call's XID, which the table
// never reuses, so a late reply, or a retransmission timer, of a call
// that has ended finds no call and cannot touch a later call that reuses
// the record, on this table or on another whose XIDs count the same
// numbers. Request and reply live here, not on the caller's stack, so a
// process blocked in a call keeps a small stack.
type Call[T, M any] struct {
	// Req is the request as sent: the protocol sets it before Wait, and
	// its resend re-sends it while the call is pending.
	Req M
	// Reply is the reply: the protocol's receive path fills it in before
	// Resolve.
	Reply  T
	sig    *sim.Signal
	xid    uint64
	span   *obs.Span
	failed bool // the retransmission budget ran out
}

// Resolve completes the call with its Reply, waking its caller.
func (c *Call[T, M]) Resolve() { c.sig.Fire() }

// Init readies the table. pool is the simulation's pool of call
// records (a sim.PoolKey's, on the table's scheduler). resend re-sends
// a pending call's request from event context (the protocol's
// retransmission timer), charging its send cost asynchronously.
func (t *CallTable[T, M]) Init(pool *sim.Pool[Call[T, M]], resend func(*M)) {
	t.pending = make(map[uint64]*Call[T, M])
	t.pool = pool
	t.resend = resend
}

// Begin registers a call made on j: it stamps hdr with the next XID and
// j's span, and returns the call's record, with a zero request and
// reply, from the pool.
func (t *CallTable[T, M]) Begin(j *host.Job, hdr *wire.Header) *Call[T, M] {
	t.nextXID++
	hdr.XID = t.nextXID
	hdr.Span = j.Span
	t.Calls++
	c := t.pool.Get()
	if c.sig == nil {
		c.sig = sim.NewSignal(j.Sched())
	} else {
		var zero T
		c.Reply, c.failed = zero, false
		c.sig.Reset()
	}
	c.xid, c.span = hdr.XID, hdr.Span
	t.pending[hdr.XID] = c
	return c
}

// Answer removes and returns the pending call a reply carrying xid
// answers: nil for a stale or duplicate reply. The caller fills in its
// Reply and resolves it.
func (t *CallTable[T, M]) Answer(xid uint64) *Call[T, M] {
	c := t.pending[xid]
	if c != nil {
		delete(t.pending, xid)
	}
	return c
}

// End returns an answered or failed call's record to the pool. Its
// Reply stays as it is until a Begin takes the record, so a caller may
// read it on until it next lets another process run or begins another
// call, on any table of the simulation.
func (t *CallTable[T, M]) End(c *Call[T, M]) {
	var zero M
	c.Req = zero
	t.pool.Put(c)
}

// Outstanding returns the number of in-flight calls.
func (t *CallTable[T, M]) Outstanding() int { return len(t.pending) }

// Await waits on j, a step of the caller's machine, until call c has
// its reply; Result then returns it. With a retransmit timeout set it
// first arms retransmission of the just-sent request c.Req; a call
// whose budget runs out fails with ErrTimeout. A machine that Await
// left waiting goes on to Result when j.Step is called.
func (t *CallTable[T, M]) Await(j *host.Job, c *Call[T, M]) bool {
	if t.RetransmitTimeout > 0 {
		t.arm(j.Sched(), c)
	}
	return j.Wait(c.sig)
}

// Result returns the ended wait's reply, c's Reply, or ErrTimeout.
func (c *Call[T, M]) Result() (*T, error) {
	if c.failed {
		return nil, ErrTimeout
	}
	return &c.Reply, nil
}

// arm runs the call's retransmission in event context. Each fired timer
// means the interval since the last transmission was spent waiting on a
// lost exchange: that dead time is the span's retry phase. The timers
// know the call by its XID: once it is answered, they stop, so they
// re-send its record's request only while the call holds the record.
func (t *CallTable[T, M]) arm(s *sim.Scheduler, c *Call[T, M]) {
	xid, sp := c.xid, c.span
	lastSend := s.Now()
	answered := func() bool { return t.pending[xid] != c }
	sim.Retry(s, t.RetransmitTimeout, t.MaxRetries, answered,
		func() {
			t.Retransmits++
			now := s.Now()
			sp.CountRetry()
			sp.Add(obs.PhaseRetry, now.Sub(lastSend))
			lastSend = now
			t.resend(&c.Req)
		},
		func() {
			delete(t.pending, xid)
			t.TimedOut++
			sp.Add(obs.PhaseRetry, s.Now().Sub(lastSend))
			c.failed = true
			c.Resolve()
		})
}

// StatusErr maps a reply's wire status to the typed nas error both
// protocol stacks report.
func StatusErr(st uint32) error {
	switch st {
	case wire.StatusOK:
		return nil
	case wire.StatusNoEnt:
		return ErrNoEnt
	case wire.StatusExist:
		return ErrExist
	case wire.StatusStale:
		return ErrStale
	default:
		return ErrIO
	}
}
