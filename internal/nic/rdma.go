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

// Op describes one RDMA operation issued by this NIC against a remote
// NIC. RDMA and RDMAAsync take it by value: the initiator NIC copies it
// into a record of its own (opRec), so the caller may reuse or discard
// its Op at once.
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
}

// opRec is the initiator NIC's record of an issued op. Every frame on
// the wire (rdmaFlight.op) and every task that refers to the record
// holds a count on it; the last to let go returns it to the initiator's
// free list. So a frame or timer arriving after the op completed still
// finds the op's own record, with its exactly-once guard set, and never
// the record's next user. A frame dropped on the way keeps its count,
// and its record is left to the collector.
type opRec struct {
	Op
	initiator *NIC
	refs      int32
	rejected  bool // target validation failed; drop its data frames
	completed bool // initiator completion already delivered
}

// newOp returns a pooled or fresh record of op issued by n, held by no
// one yet.
func (n *NIC) newOp(op *Op) *opRec {
	var r *opRec
	if k := len(n.ops); k > 0 {
		r = n.ops[k-1]
		n.ops = n.ops[:k-1]
	} else {
		r = new(opRec)
	}
	r.Op, r.initiator = *op, n
	return r
}

// hold adds a holder of r.
func (r *opRec) hold() { r.refs++ }

// drop lets go of one hold on r, and returns r to its initiator's free
// list if that was the last.
func (r *opRec) drop() {
	if r.refs--; r.refs > 0 {
		return
	}
	n := r.initiator
	*r = opRec{}
	n.ops = append(n.ops, r)
}

// ctrlBytes is the wire size of a get/put control header (descriptor,
// addresses, lengths) excluding any capability.
const ctrlBytes = 64

// exceptionBytes is the wire size of a NIC-to-NIC exception report.
const exceptionBytes = 32

// rdmaFlight tags frames belonging to RDMA traffic.
type rdmaFlight struct {
	op        *opRec // the operation this frame belongs to, held
	ctrl      bool   // request/control frame (carries the Op by reference)
	exception Status // nonzero on exception frames
	ack       bool   // put acknowledgement back to the initiator
}

// RDMA issues op from process context, charging the host post cost
// (descriptor build + doorbell).
func (n *NIC) RDMA(p *sim.Proc, op Op) {
	n.h.Compute(p, n.PostCost())
	n.RDMAAsync(op)
}

// RDMAAsync issues op from event context (no host cost charged here).
func (n *NIC) RDMAAsync(desc Op) {
	if desc.Target == nil || desc.Target == n {
		panic("nic: RDMA needs a remote target")
	}
	op := n.newOp(&desc)
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
	r.op.hold()
	fl := n.newFlight(to, bytes, false)
	fl.rdma = r
	n.transmit(fl, extraFw)
}

// streamData fragments and transmits an RDMA data stream. quirkStall adds
// per-fragment firmware time (the GM get bug, §5.2). op is attached so the
// far end can recognise completion.
func (n *NIC) streamData(to *NIC, length int64, op *opRec, quirkStall sim.Duration) {
	frag := int64(n.p.GMFragSize)
	sent := int64(0)
	for sent < length {
		bytes := frag
		if length-sent < bytes {
			bytes = length - sent
		}
		sent += bytes
		op.hold()
		fl := n.newFlight(to, int(bytes), sent >= length)
		fl.rdma.op = op
		n.transmit(fl, quirkStall)
	}
}

// rdmaFragArrived handles RDMA frames after the standard receive pipeline
// (DMA + firmware) has run; last marks the last fragment of a data stream.
// The frame's hold on its op ends here.
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
	r.op.drop()
}

// serveGet validates and serves a remote read against local memory
// — entirely in NIC firmware, no host CPU (the whole point of ORDMA).
// Validation happens when the request reaches the firmware; once its pages
// are TLB-resident they are pinned and locked (§4.1), so the transfer
// cannot be invalidated underneath us.
func (n *NIC) serveGet(op *opRec) {
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
// exception, or starts the data stream after the descriptor fetch. It
// reports whether t lives on, as the stream's start, with its hold on
// the op.
func (n *NIC) getValidated(t *task) bool {
	op, st := t.op, t.st
	if st != StatusOK {
		t.release()
		n.stats.Exceptions++
		if st == StatusBadCapability {
			n.stats.CapRejects++
		}
		n.sendRDMAFrames(op.initiator, exceptionBytes, 0, rdmaFlight{op: op, exception: st})
		return false
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
	return true
}

// servePutCtrl validates an incoming put. Data frames follow on the wire;
// on validation failure an exception races ahead of them (the data is
// discarded at arrival in real hardware; we simply let the frames drain).
func (n *NIC) servePutCtrl(op *opRec) {
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
func (n *NIC) tlbCharge(op *opRec) sim.Duration {
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
func (n *NIC) completeOp(op *opRec, st Status) {
	if op.completed {
		return
	}
	op.completed = true
	if op.Done == nil {
		return
	}
	t := n.newTask(taskNotify, nil)
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
// steps of an operation allocate nothing. A task with an op holds it
// (see opRec) until it has run.
type task struct {
	n     *NIC
	kind  taskKind
	op    *opRec
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

func (n *NIC) newTask(kind taskKind, op *opRec) *task {
	var t *task
	if k := len(n.tasks); k > 0 {
		t = n.tasks[k-1]
		n.tasks = n.tasks[:k-1]
	} else {
		t = &task{n: n}
		t.run = t.fire
	}
	t.kind, t.op = kind, op
	if op != nil {
		op.hold()
	}
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
		if n.getValidated(t) {
			return
		}
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
	if op != nil {
		op.drop()
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
