package nic

import (
	"fmt"

	"danas/internal/netsim"
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
	target    *NIC   // frame destination
	ctrl      bool   // request/control frame (carries the Op by reference)
	exception Status // nonzero on exception frames
	last      bool   // last data fragment
	ack       bool   // put acknowledgement back to the initiator
}

// RDMA issues op from process context, charging the host post cost
// (descriptor build + doorbell).
func (n *NIC) RDMA(p *sim.Proc, op *Op) {
	n.h.Compute(p, n.p.GMSendCost+n.p.PIOWrite)
	n.RDMAAsync(op)
}

// RDMAAsync issues op from event context (no host cost charged here).
func (n *NIC) RDMAAsync(op *Op) {
	if op.Target == nil || op.Target == n {
		panic("nic: RDMA needs a remote target")
	}
	op.initiator = n
	if op.Timeout > 0 {
		n.s.After(op.Timeout, func() {
			if !op.completed {
				n.stats.RDMATimeouts++
			}
			n.completeOp(op, StatusTimeout)
		})
	}
	switch op.Kind {
	case Get:
		// Send a small control frame; data streams back from the target.
		n.sendRDMAFrames(op.Target, ctrlBytes+len(op.Cap), 0, &rdmaFlight{
			op: op, target: op.Target, ctrl: true,
		})
	case Put:
		// Control frame immediately; the data stream after the put
		// startup latency. The send gate releases any traffic the host
		// posts in between (e.g. the RPC reply) together with — never
		// ahead of — the data, preserving connection ordering.
		n.sendRDMAFrames(op.Target, ctrlBytes+len(op.Cap), 0, &rdmaFlight{
			op: op, target: op.Target, ctrl: true,
		})
		release := n.s.Now().Add(n.p.NICPutLatency)
		if release > n.sendGate {
			n.sendGate = release
		}
		n.s.At(release, func() {
			n.streamData(op.Target, op.Len, op, 0)
		})
	default:
		panic("nic: unknown RDMA kind")
	}
}

// sendRDMAFrames pushes one small control/exception frame through the
// firmware+DMA+wire pipeline.
func (n *NIC) sendRDMAFrames(to *NIC, bytes int, extraFw sim.Duration, fl *rdmaFlight) {
	n.stats.FragsSent++
	fwDone := n.fw.Serve(n.p.NICFragProcess+extraFw, nil)
	n.dma.ServeAt(fwDone, sim.TransferTime(int64(bytes), n.p.NICDMABandwidth), func() {
		n.port.Send(&netsim.Frame{To: to.port, Bytes: bytes, Payload: &flight{rdma: fl, bytes: bytes}})
	})
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
		last := sent >= length
		fl := &rdmaFlight{op: op, target: to, last: last}
		n.stats.FragsSent++
		fwDone := n.fw.Serve(n.p.NICFragProcess+quirkStall, nil)
		b := bytes
		n.dma.ServeAt(fwDone, sim.TransferTime(b, n.p.NICDMABandwidth), func() {
			n.port.Send(&netsim.Frame{To: to.port, Bytes: int(b), Payload: &flight{rdma: fl, bytes: int(b)}})
		})
	}
}

// rdmaFragArrived handles RDMA frames after the standard receive pipeline
// (DMA + firmware) has run.
func (n *NIC) rdmaFragArrived(fl *flight) {
	r := fl.rdma
	switch {
	case r.ctrl && r.op.Kind == Get:
		n.serveGet(r.op)
	case r.ctrl && r.op.Kind == Put:
		n.servePutCtrl(r.op)
	case r.exception != StatusOK:
		n.completeOp(r.op, r.exception)
	case r.ack:
		n.completeOp(r.op, StatusOK)
	case r.last:
		// Last data fragment.
		if r.op.Kind == Get {
			// Data arrived back at the get initiator.
			n.completeOp(r.op, StatusOK)
		} else if !r.op.rejected {
			// Put data fully placed at the target; notify the initiator
			// with a small ack so completion reflects remote placement.
			n.stats.PutsServed++
			init := r.op.initiator
			n.sendRDMAFrames(init, exceptionBytes, 0, &rdmaFlight{op: r.op, target: init, ack: true})
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
	n.fw.Serve(n.p.NICGetProcess+extra, func() {
		if st != StatusOK {
			n.stats.Exceptions++
			if st == StatusBadCapability {
				n.stats.CapRejects++
			}
			n.sendRDMAFrames(op.initiator, exceptionBytes, 0,
				&rdmaFlight{op: op, target: op.initiator, exception: st})
			return
		}
		n.stats.GetsServed++
		quirk := sim.Duration(0)
		if q := n.p.GMGetQuirkSize; q > 0 && op.Len >= q {
			quirk = n.p.GMGetQuirkStall
		}
		// Descriptor fetch and firmware scheduling latency: delays the
		// response but does not occupy the firmware station.
		n.s.After(n.p.NICGetLatency, func() {
			n.streamData(op.initiator, op.Len, op, quirk)
		})
	})
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
	n.fw.Serve(n.p.NICPutProcess+extra, func() {
		if st != StatusOK {
			op.rejected = true
			n.stats.Exceptions++
			n.sendRDMAFrames(op.initiator, exceptionBytes, 0,
				&rdmaFlight{op: op, target: op.initiator, exception: st})
			return
		}
		// Accept: data fragments will be DMA'd straight into host memory
		// as they arrive; no host CPU involvement at the target.
	})
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
	done := op.Done
	if done == nil {
		return
	}
	switch op.Notify {
	case Poll:
		n.s.After(0, func() { done(st) })
	case Intr:
		n.stats.Interrupts++
		n.h.Interrupt(0, func() { done(st) })
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
