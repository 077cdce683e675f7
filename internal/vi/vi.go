// Package vi models the Virtual Interface architecture layer the DAFS
// client and server ride on: connected queue pairs over GM messaging, send
// and receive descriptors, completion by polling or blocking, and — for
// Optimistic DAFS — RDMA descriptors whose status field can report the
// recoverable ("soft") transport errors that carry ORDMA exceptions
// (§4.1, "NIC-to-NIC exceptions").
//
// VI-GM is a host-based library mapping VI operations onto GM, so the
// latency and bandwidth of VI track GM (paper Table 2: identical numbers
// for VI-poll and GM).
package vi

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
)

// QP is one side of a connected queue pair.
type QP struct {
	name    string
	n       *nic.NIC
	ep      *nic.Endpoint
	peer    *QP
	timeout sim.Duration // bound on RDMA descriptor completion; 0 = wait forever
	free    []*rdmaDone  // completed descriptors' records, for reuse
}

// SetRDMATimeout bounds every subsequent RDMA descriptor on this QP: if
// no completion (data, ack, or exception) arrives within d, the
// descriptor completes with nic.StatusTimeout instead of blocking
// forever — required once a fabric can black-hole frames at a down
// switch. Zero restores unbounded waiting.
func (q *QP) SetRDMATimeout(d sim.Duration) { q.timeout = d }

// Connect creates a connected queue pair between two NICs. port must be
// unique per NIC; mode selects each side's completion discipline
// (poll or blocking/interrupt).
func Connect(a, b *nic.NIC, portA, portB int, modeA, modeB nic.NotifyMode) (*QP, *QP) {
	qa := &QP{
		name: fmt.Sprintf("%s/qp%d", a.Name(), portA),
		n:    a,
		ep:   a.NewEndpoint(portA, modeA),
	}
	qb := &QP{
		name: fmt.Sprintf("%s/qp%d", b.Name(), portB),
		n:    b,
		ep:   b.NewEndpoint(portB, modeB),
	}
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// Name returns the queue pair name.
func (q *QP) Name() string { return q.name }

// NIC returns the underlying NIC.
func (q *QP) NIC() *nic.NIC { return q.n }

// Peer returns the other side of the connection.
func (q *QP) Peer() *QP { return q.peer }

// Mode returns the receive completion discipline.
func (q *QP) Mode() nic.NotifyMode { return q.ep.Mode }

// SetMode changes the completion discipline (the paper's §5.2 switches the
// DAFS server from interrupts to polling).
func (q *QP) SetMode(m nic.NotifyMode) { q.ep.Mode = m }

// Msg describes one message to send on the connection.
type Msg struct {
	HeaderBytes  int
	PayloadBytes int64
	Header       any
	Payload      any
	// Tag requests RDDP-RPC direct placement at the receiver (used by the
	// pre-posting NFS client, not by DAFS).
	Tag uint64
	// Span, when non-nil, attributes the message's flight time to the
	// carried operation's wire phase.
	Span *obs.Span
}

// Send posts a message toward the peer from process context.
func (q *QP) Send(p *sim.Proc, m *Msg) {
	q.n.Send(p, &nic.Message{
		To:           q.peer.n,
		Port:         q.peer.ep.PortNum(),
		HeaderBytes:  m.HeaderBytes,
		PayloadBytes: m.PayloadBytes,
		Header:       m.Header,
		Payload:      m.Payload,
		Tag:          m.Tag,
		Span:         m.Span,
	})
}

// SendAsync posts a message from event context (no host cost charged;
// callers account for it).
func (q *QP) SendAsync(m *Msg) {
	q.n.SendAsync(&nic.Message{
		To:           q.peer.n,
		Port:         q.peer.ep.PortNum(),
		HeaderBytes:  m.HeaderBytes,
		PayloadBytes: m.PayloadBytes,
		Header:       m.Header,
		Payload:      m.Payload,
		Tag:          m.Tag,
		Span:         m.Span,
	})
}

// Recv blocks until a message arrives from the peer.
func (q *QP) Recv(p *sim.Proc) nic.Message {
	return q.ep.Recv(p)
}

// Listen calls fn, from event callbacks, on every message from the peer,
// event for event as a process calling Recv and serving each message
// would (see nic.Endpoint.Listen).
func (q *QP) Listen(fn func(nic.Message) bool) *nic.Listener {
	return q.ep.Listen(fn)
}

// RDMAResult is a completed RDMA descriptor: Status carries ORDMA
// exceptions as recoverable transport errors.
type RDMAResult struct {
	Status nic.Status
}

// OK reports success.
func (r RDMAResult) OK() bool { return r.Status == nic.StatusOK }

// RDMA issues a get/put against the peer's memory and blocks until the
// descriptor completes, charging the completion cost per the QP's mode.
func (q *QP) RDMA(p *sim.Proc, kind nic.OpKind, va uint64, length int64, cap []byte) RDMAResult {
	j := host.Carried(q.n.Host(), p)
	var m RDMAOp
	q.RDMAThen(&j, &m, kind, va, length, cap)
	return m.Result
}

// RDMAOp is one RDMA run as a step machine over a host.Job: the
// descriptor's completion record and the charge or wait it is at. A
// caller keeps one and reuses it.
type RDMAOp struct {
	q     *QP
	d     *rdmaDone
	kind  nic.OpKind
	va    uint64
	len   int64
	cap   []byte
	stage rdmaStage
	// Result is the completed descriptor's status.
	Result RDMAResult
}

type rdmaStage uint8

const (
	rdmaPost     rdmaStage = iota // post cost charged: issue the descriptor
	rdmaComplete                  // charge the completion's consumption
	rdmaFinished                  // the completion consumed
)

// rdmaDone is a descriptor's completion record: the status the NIC
// delivers and the signal its waiter waits on. A QP keeps the records
// of completed descriptors for its next ones; the NIC delivers a
// descriptor's completion exactly once, so a record is free again once
// its waiter has seen it.
type rdmaDone struct {
	sig  *sim.Signal
	st   nic.Status
	done func(nic.Status) // d.complete, bound once
}

func (d *rdmaDone) complete(st nic.Status) {
	d.st = st
	d.sig.Fire()
}

// RDMAThen is RDMA as a step machine over j: it reports true once
// m.Result holds the completion; otherwise j waits, and j.Step must call
// m.Step until it reports true. The descriptor's whole flight —
// request, remote DMA, data stream, ack — is wire time of the operation
// driving it; the host-side post and completion costs are CPU time.
func (q *QP) RDMAThen(j *host.Job, m *RDMAOp, kind nic.OpKind, va uint64, length int64, cap []byte) bool {
	j.H = q.n.Host()
	var d *rdmaDone
	if k := len(q.free); k > 0 {
		d = q.free[k-1]
		q.free = q.free[:k-1]
		d.sig.Reset()
	} else {
		d = &rdmaDone{sig: sim.NewSignal(j.Sched())}
		d.done = d.complete
	}
	*m = RDMAOp{q: q, d: d, kind: kind, va: va, len: length, cap: cap}
	if !j.Compute(q.n.PostCost()) {
		return false
	}
	return m.Step(j)
}

// Step advances the RDMA on j, as RDMAThen.
func (m *RDMAOp) Step(j *host.Job) bool {
	q := m.q
	for {
		switch m.stage {
		case rdmaPost:
			q.n.RDMAAsync(q.op(m.kind, m.va, m.len, m.cap, m.d.done))
			m.cap = nil
			m.stage = rdmaComplete
			j.Open(obs.PhaseWire)
			if !j.Wait(m.d.sig) {
				return false
			}
		case rdmaComplete:
			// Charge the completion consumption cost in the waiter's
			// context.
			m.stage = rdmaFinished
			if !j.Compute(q.CompletionCost()) {
				return false
			}
		case rdmaFinished:
			m.Result = RDMAResult{Status: m.d.st}
			q.free = append(q.free, m.d)
			m.d = nil
			return true
		}
	}
}

// CompletionCost is the host CPU a waiter pays to consume an RDMA
// completion: the poll, or in Intr mode the scheduler wakeup.
func (q *QP) CompletionCost() sim.Duration {
	if q.ep.Mode == nic.Poll {
		return q.n.Host().P.PollGet
	}
	return q.n.Host().P.SchedWakeup
}

// RDMAAsync issues a get/put from event context (no host cost charged
// here) and delivers the completion status to done, after the NIC's
// notification per the QP's mode.
func (q *QP) RDMAAsync(kind nic.OpKind, va uint64, length int64, cap []byte, done func(nic.Status)) {
	q.n.RDMAAsync(q.op(kind, va, length, cap, done))
}

// op builds a descriptor against the peer's memory under the QP's mode
// and RDMA timeout.
func (q *QP) op(kind nic.OpKind, va uint64, length int64, cap []byte, done func(nic.Status)) nic.Op {
	return nic.Op{
		Kind:    kind,
		Target:  q.peer.n,
		VA:      va,
		Len:     length,
		Cap:     cap,
		Notify:  q.ep.Mode,
		Done:    done,
		Timeout: q.timeout,
	}
}
