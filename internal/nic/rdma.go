package nic

import (
	"fmt"

	"danas/internal/sim"
)

// Status is the completion status of an RDMA operation. Anything other
// than StatusOK is a recoverable ("soft") transport error in the VI
// descriptor sense — the ORDMA exception mechanism of §4.1.
type Status int

const (
	StatusOK Status = iota
	// StatusNotExported: no valid TPT translation for the target range.
	StatusNotExported
	// StatusNotResident: translation exists but the page is not resident.
	StatusNotResident
	// StatusLocked: the host holds the target locked (e.g. updating it).
	StatusLocked
	// StatusBadCapability: capability MAC verification failed.
	StatusBadCapability
	// StatusBadRequest: malformed request (zero length etc.).
	StatusBadRequest
	// StatusTimeout: the initiator's completion timer fired before any
	// completion (data, ack, or exception) arrived — the path to the
	// target is black-holed (e.g. a down switch). Local, soft: the far
	// end may still have executed the operation.
	StatusTimeout
)

func (st Status) String() string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusNotExported:
		return "not-exported"
	case StatusNotResident:
		return "not-resident"
	case StatusLocked:
		return "locked"
	case StatusBadCapability:
		return "bad-capability"
	case StatusBadRequest:
		return "bad-request"
	case StatusTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// OpKind distinguishes remote reads from remote writes.
type OpKind int

const (
	Get OpKind = iota // remote read: data flows target -> initiator
	Put               // remote write: data flows initiator -> target
)

// Op is one RDMA operation issued by this NIC against a remote NIC.
type Op struct {
	Kind   OpKind
	Target *NIC
	VA     uint64
	Len    int64
	Cap    []byte // capability presented with the request
	Notify NotifyMode
	// Done receives the completion status at the initiator. Run after
	// notification cost has been charged per Notify.
	Done func(Status)
	// Timeout, when positive, bounds the wait for initiator-side
	// completion: if nothing (data, ack, exception) has arrived when it
	// expires, the op completes with StatusTimeout. Completions racing
	// in later are discarded by the exactly-once guard.
	Timeout sim.Duration

	initiator *NIC // stamped by RDMAAsync
	rejected  bool // target validation failed; drop its data frames
	completed bool // initiator completion already delivered
}

// ctrlBytes is the wire size of a get/put control header (descriptor,
// addresses, lengths) excluding any capability.
const ctrlBytes = 64

// exceptionBytes is the wire size of a NIC-to-NIC exception report.
const exceptionBytes = 32

// rdmaFlight tags frames belonging to RDMA traffic.
type rdmaFlight struct {
	op        *Op    // the operation this frame belongs to
	ctrl      bool   // request/control frame (carries the Op by reference)
	exception Status // nonzero on exception frames
	ack       bool   // put acknowledgement back to the initiator
}

// RDMA issues op from process context, charging the host post cost
// (descriptor build + doorbell).
func (n *NIC) RDMA(p *sim.Proc, op *Op) {
	n.h.Compute(p, n.PostCost())
	n.RDMAAsync(op)
}

// RDMAAsync issues op from event context (no host cost charged here).
func (n *NIC) RDMAAsync(op *Op) {
	if op.Target == nil || op.Target == n {
		panic("nic: RDMA needs a remote target")
	}
	op.initiator = n
	if op.Timeout > 0 {
		n.s.After(op.Timeout, n.newTask(taskTimeout, op).run)
	}
	switch op.Kind {
	case Get:
		// Send a small control frame; data streams back from the target.
		n.sendRDMAFrames(op.Target, ctrlBytes+len(op.Cap), 0, rdmaFlight{op: op, ctrl: true})
	case Put:
		// Control frame immediately; the data stream after the put
		// startup latency. The send gate releases any traffic the host
		// posts in between (e.g. the RPC reply) together with — never
		// ahead of — the data, preserving connection ordering.
		n.sendRDMAFrames(op.Target, ctrlBytes+len(op.Cap), 0, rdmaFlight{op: op, ctrl: true})
		release := n.s.Now().Add(n.p.NICPutLatency)
		if release > n.sendGate {
			n.sendGate = release
		}
		n.s.At(release, n.newTask(taskPutStream, op).run)
	default:
		panic("nic: unknown RDMA kind")
	}
}

// sendRDMAFrames pushes one small control/exception frame through the
// firmware+DMA+wire pipeline.
func (n *NIC) sendRDMAFrames(to *NIC, bytes int, extraFw sim.Duration, r rdmaFlight) {
	fl := n.newFlight(to, bytes, false)
	fl.rdma = r
	n.transmit(fl, extraFw)
}

// streamData fragments and transmits an RDMA data stream. quirkStall adds
// per-fragment firmware time (the GM get bug, §5.2). op is attached so the
// far end can recognise completion.
func (n *NIC) streamData(to *NIC, length int64, op *Op, quirkStall sim.Duration) {
	frag := int64(n.p.GMFragSize)
	sent := int64(0)
	for sent < length {
		bytes := frag
		if length-sent < bytes {
			bytes = length - sent
		}
		sent += bytes
		fl := n.newFlight(to, int(bytes), sent >= length)
		fl.rdma.op = op
		n.transmit(fl, quirkStall)
	}
}

// rdmaFragArrived handles RDMA frames after the standard receive pipeline
// (DMA + firmware) has run; last marks the last fragment of a data stream.
func (n *NIC) rdmaFragArrived(r rdmaFlight, last bool) {
	switch {
	case r.ctrl && r.op.Kind == Get:
		n.serveGet(r.op)
	case r.ctrl && r.op.Kind == Put:
		n.servePutCtrl(r.op)
	case r.exception != StatusOK:
		n.completeOp(r.op, r.exception)
	case r.ack:
		n.completeOp(r.op, StatusOK)
	case last:
		// Last data fragment.
		if r.op.Kind == Get {
			// Data arrived back at the get initiator.
			n.completeOp(r.op, StatusOK)
		} else if !r.op.rejected {
			// Put data fully placed at the target; notify the initiator
			// with a small ack so completion reflects remote placement.
			n.stats.PutsServed++
			init := r.op.initiator
			n.sendRDMAFrames(init, exceptionBytes, 0, rdmaFlight{op: r.op, ack: true})
		}
	}
}

// serveGet validates and serves a remote read against local memory
// — entirely in NIC firmware, no host CPU (the whole point of ORDMA).
// Validation happens when the request reaches the firmware; once its pages
// are TLB-resident they are pinned and locked (§4.1), so the transfer
// cannot be invalidated underneath us.
func (n *NIC) serveGet(op *Op) {
	extra := sim.Duration(0)
	if n.TPT.UseCapabilities {
		extra += n.p.NICCapVerify
	}
	_, st := n.TPT.lookup(op.VA, op.Len, op.Cap)
	if st == StatusOK {
		extra += n.tlbCharge(op)
	}
	t := n.newTask(taskGetValidated, op)
	t.st = st
	n.fw.Serve(n.p.NICGetProcess+extra, t.run)
}

// getValidated runs when the firmware has validated a get: it raises the
// exception, or starts the data stream after the descriptor fetch.
func (n *NIC) getValidated(t *task) {
	op, st := t.op, t.st
	if st != StatusOK {
		t.release()
		n.stats.Exceptions++
		if st == StatusBadCapability {
			n.stats.CapRejects++
		}
		n.sendRDMAFrames(op.initiator, exceptionBytes, 0, rdmaFlight{op: op, exception: st})
		return
	}
	n.stats.GetsServed++
	t.quirk = 0
	if q := n.p.GMGetQuirkSize; q > 0 && op.Len >= q {
		t.quirk = n.p.GMGetQuirkStall
	}
	// Descriptor fetch and firmware scheduling latency: delays the
	// response but does not occupy the firmware station.
	t.kind = taskGetStream
	n.s.After(n.p.NICGetLatency, t.run)
}

// servePutCtrl validates an incoming put. Data frames follow on the wire;
// on validation failure an exception races ahead of them (the data is
// discarded at arrival in real hardware; we simply let the frames drain).
func (n *NIC) servePutCtrl(op *Op) {
	extra := sim.Duration(0)
	if n.TPT.UseCapabilities {
		extra += n.p.NICCapVerify
	}
	_, st := n.TPT.lookup(op.VA, op.Len, op.Cap)
	if st == StatusOK {
		extra += n.tlbCharge(op)
	}
	t := n.newTask(taskPutValidated, op)
	t.st = st
	n.fw.Serve(n.p.NICPutProcess+extra, t.run)
}

// tlbCharge walks the op's pages through the NIC TLB, charging miss costs:
// the NIC interrupts the host, which reloads the entry by PIO (§4.1).
func (n *NIC) tlbCharge(op *Op) sim.Duration {
	var extra sim.Duration
	first := pageOf(op.VA)
	last := pageOf(op.VA + uint64(maxInt64(op.Len, 1)) - 1)
	for pg := first; pg <= last; pg++ {
		if n.tlb.touch(pg) {
			n.stats.TLBHits++
		} else {
			n.stats.TLBMisses++
			extra += n.p.NICTLBMissCost
			n.stats.Interrupts++
			n.h.Interrupt(n.p.PIOWrite, nil)
		}
	}
	return extra
}

// completeOp delivers an initiator-side completion with the configured
// notification discipline. An operation completes exactly once.
func (n *NIC) completeOp(op *Op, st Status) {
	if op.completed {
		return
	}
	op.completed = true
	if op.Done == nil {
		return
	}
	t := n.newTask(taskNotify, op)
	t.st, t.done = st, op.Done
	switch op.Notify {
	case Poll:
		n.s.After(0, t.run)
	case Intr:
		n.stats.Interrupts++
		n.h.Interrupt(0, t.run)
	}
}

// task is one deferred step of an operation at this NIC, run by a plain
// event: the firmware finishing a get's or put's validation, a data
// stream starting, an initiator's timeout, a completion reaching the
// host, or a message reaching its endpoint or leaving the send gate.
// Tasks are pooled per NIC with their callback bound once, so the
// steps of an operation allocate nothing.
type task struct {
	n     *NIC
	kind  taskKind
	op    *Op
	msg   *Message
	ep    *Endpoint
	st    Status
	quirk sim.Duration
	done  func(Status)
	run   func() // t.fire
}

// taskKind names the step a task runs.
type taskKind uint8

const (
	taskGetValidated taskKind = iota // target firmware has checked a get
	taskGetStream                    // a served get's data starts streaming back
	taskPutValidated                 // target firmware has checked a put
	taskPutStream                    // a put's data starts streaming out
	taskTimeout                      // an initiator's completion timer expired
	taskNotify                       // an op's completion reaches the host
	taskQueue                        // an interrupt has delivered a message to its endpoint
	taskSend                         // a message held behind the send gate is released
)

func (n *NIC) newTask(kind taskKind, op *Op) *task {
	var t *task
	if k := len(n.tasks); k > 0 {
		t = n.tasks[k-1]
		n.tasks = n.tasks[:k-1]
	} else {
		t = &task{n: n}
		t.run = t.fire
	}
	t.kind, t.op = kind, op
	return t
}

// release returns t to its NIC's pool.
func (t *task) release() {
	n := t.n
	*t = task{n: n, run: t.run}
	n.tasks = append(n.tasks, t)
}

func (t *task) fire() {
	n, op := t.n, t.op
	switch t.kind {
	case taskGetValidated:
		n.getValidated(t)
	case taskGetStream:
		quirk := t.quirk
		t.release()
		n.streamData(op.initiator, op.Len, op, quirk)
	case taskPutValidated:
		st := t.st
		t.release()
		if st != StatusOK {
			op.rejected = true
			n.stats.Exceptions++
			n.sendRDMAFrames(op.initiator, exceptionBytes, 0, rdmaFlight{op: op, exception: st})
		}
		// Accept: data fragments will be DMA'd straight into host memory
		// as they arrive; no host CPU involvement at the target.
	case taskPutStream:
		t.release()
		n.streamData(op.Target, op.Len, op, 0)
	case taskTimeout:
		t.release()
		if !op.completed {
			n.stats.RDMATimeouts++
		}
		n.completeOp(op, StatusTimeout)
	case taskNotify:
		done, st := t.done, t.st
		t.release()
		done(st)
	case taskQueue:
		m, ep := t.msg, t.ep
		t.release()
		m.queuedAt = n.s.Now()
		ep.queue.Put(*m)
		m.release()
	case taskSend:
		m := t.msg
		t.release()
		n.sendNow(m)
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
