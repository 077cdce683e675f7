package nas

import (
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
	pending map[uint64]*sim.Future[*T]
	resend  func(M)

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

// Init readies the table. resend re-sends a request from event context
// (the protocol's retransmission timer), charging its send cost
// asynchronously.
func (t *CallTable[T, M]) Init(resend func(M)) {
	t.pending = make(map[uint64]*sim.Future[*T])
	t.resend = resend
}

// Begin registers a call: it stamps hdr with the next XID and the
// caller's active span, and returns the future the call's reply
// resolves.
func (t *CallTable[T, M]) Begin(p *sim.Proc, hdr *wire.Header) *sim.Future[*T] {
	t.nextXID++
	hdr.XID = t.nextXID
	hdr.Span = obs.Active(p)
	t.Calls++
	fut := sim.NewFuture[*T](p.Sched())
	t.pending[hdr.XID] = fut
	return fut
}

// Answer removes and returns the pending call a reply carrying xid
// answers: nil for a stale or duplicate reply.
func (t *CallTable[T, M]) Answer(xid uint64) *sim.Future[*T] {
	fut := t.pending[xid]
	if fut != nil {
		delete(t.pending, xid)
	}
	return fut
}

// Outstanding returns the number of in-flight calls.
func (t *CallTable[T, M]) Outstanding() int { return len(t.pending) }

// Wait blocks until the call begun with hdr has its reply, and returns
// it. With a retransmit timeout set it first arms retransmission of the
// just-sent request m; a call whose budget runs out fails with
// ErrTimeout.
func (t *CallTable[T, M]) Wait(p *sim.Proc, hdr *wire.Header, fut *sim.Future[*T], m M) (*T, error) {
	if t.RetransmitTimeout > 0 {
		t.arm(p.Sched(), hdr, fut, m)
	}
	if v := fut.Value(p); v != nil {
		return v, nil
	}
	return nil, ErrTimeout
}

// arm runs the call's retransmission in event context. Each fired timer
// means the interval since the last transmission was spent waiting on a
// lost exchange: that dead time is the span's retry phase.
func (t *CallTable[T, M]) arm(s *sim.Scheduler, hdr *wire.Header, fut *sim.Future[*T], m M) {
	xid, sp := hdr.XID, hdr.Span
	lastSend := s.Now()
	sim.Retry(s, t.RetransmitTimeout, t.MaxRetries, fut.Fired,
		func() {
			t.Retransmits++
			now := s.Now()
			sp.CountRetry()
			sp.Add(obs.PhaseRetry, now.Sub(lastSend))
			lastSend = now
			t.resend(m)
		},
		func() {
			delete(t.pending, xid)
			t.TimedOut++
			sp.Add(obs.PhaseRetry, s.Now().Sub(lastSend))
			fut.Resolve(nil)
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
