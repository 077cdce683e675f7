// Package nic models a programmable network interface controller of the
// LANai9.2 class: a firmware processor, a DMA engine on the I/O bus, GM-style
// reliable messaging with 4 KB fragmentation, remote get/put (RDMA), a
// translation-and-protection table (TPT) with an on-board TLB, and the two
// RDDP mechanisms the paper evaluates — pre-posted buffer matching with
// header splitting (RDDP-RPC) and remote memory access (RDDP-RDMA), plus the
// Optimistic RDMA extension (NIC-to-NIC recoverable exceptions).
package nic

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/obs"
	"danas/internal/sim"
)

// NotifyMode selects how a host consumes NIC completions.
type NotifyMode int

const (
	// Poll: the host discovers the completion by polling; cheap, no
	// interrupt, no reschedule.
	Poll NotifyMode = iota
	// Intr: the NIC interrupts; the host wakes the blocked thread.
	Intr
)

func (m NotifyMode) String() string {
	if m == Poll {
		return "poll"
	}
	return "intr"
}

// Message is one GM-level message (or one Ethernet-emulation packet).
//
// The NIC owns the record a message travels in. Send and SendAsync copy
// the caller's Message into a record from the sending NIC's free list,
// so the caller may reuse or discard its own at once. On delivery the
// record is handed to a bound handler, valid only for the duration of
// that call, or copied by value into the endpoint's receive queue; then
// it goes back to the sender's free list. Recv and Listen hand out
// copies the receiver keeps.
type Message struct {
	From, To *NIC
	Port     int // destination endpoint number
	// HeaderBytes is protocol header length on the wire; PayloadBytes is
	// data payload length.
	HeaderBytes  int
	PayloadBytes int64
	// Header and Payload carry typed upper-level content; the simulator
	// charges time by the byte counts above.
	Header  any
	Payload any
	// Tag, when nonzero, asks the receiving NIC to match a pre-posted
	// buffer (RDDP-RPC). On delivery, Direct reports whether the payload
	// was placed directly into the pre-posted buffer.
	Tag    uint64
	Direct bool
	// FragSize overrides the NIC fragmentation unit (0 = GM default).
	FragSize int
	// Span, when non-nil, is the observability span of the operation
	// this message carries; delivery attributes the send-to-arrival
	// wall time to its wire phase. Never serialized — it rides the
	// simulator's typed Header/Payload channel, not the wire bytes.
	Span *obs.Span

	sentAt   sim.Time // stamped by sendNow for wire attribution
	queuedAt sim.Time // stamped at endpoint-queue entry for queue-phase attribution
}

// Size returns total wire bytes before framing overhead.
func (m *Message) Size() int64 { return int64(m.HeaderBytes) + m.PayloadBytes }

// Endpoint is a receive queue bound to a port number, the GM-port /
// VI-queue-pair receive side. Mode selects completion notification.
type Endpoint struct {
	nic   *NIC
	port  int
	Mode  NotifyMode
	queue *sim.Queue[Message]
}

// Recv blocks until a message arrives and charges the notification cost
// in the receiving thread's context: the poll consume, or in Intr mode
// the scheduler wakeup (the interrupt entry was charged at delivery).
func (e *Endpoint) Recv(p *sim.Proc) Message {
	m := e.queue.Get(p)
	// Receive-queue wait — messages piling up behind a busy worker — is
	// the carried op's queue phase (zero when the worker was parked).
	m.Span.Add(obs.PhaseQueue, p.Now().Sub(m.queuedAt))
	e.nic.h.Compute(p, e.notifyCost())
	return m
}

// notifyCost is the host CPU a receiver pays to consume one completion.
func (e *Endpoint) notifyCost() sim.Duration {
	if e.Mode == Poll {
		return e.nic.p.PollGet
	}
	return e.nic.p.SchedWakeup
}

// Listen calls fn, from event callbacks, on every message the endpoint
// receives: a receiver with no process, such as a user-level event loop
// or a server session. Event for event it runs the loop a process
// calling Recv and then serving the message would run, starting where
// that process would first wake, so fn runs at the instant, and after
// the same events, as the code after Recv would. fn must not block; it
// reports whether it is done with the message. If not, the loop waits,
// as that process would while serving it, until the returned Listener's
// Resume.
func (e *Endpoint) Listen(fn func(Message) bool) *Listener {
	l := &Listener{e: e, fn: fn}
	l.step = l.run
	e.nic.s.After(0, l.step)
	return l
}

// Listener is the state of one Listen loop.
type Listener struct {
	e    *Endpoint
	fn   func(Message) bool
	m    Message // received, its notification cost being charged
	got  bool
	step func() // l.run, bound once
}

// Resume continues a loop whose fn finished a message later: call it
// where the serving process would have returned to Recv.
func (l *Listener) Resume() { l.run() }

// run steps the Recv loop until it has to wait: for a message, for the
// CPU to finish charging one's notification cost, or for fn to finish.
func (l *Listener) run() {
	e := l.e
	for {
		if !l.got {
			m, ok := e.queue.GetOr(l.step)
			if !ok {
				return
			}
			m.Span.Add(obs.PhaseQueue, e.nic.s.Now().Sub(m.queuedAt))
			l.m, l.got = m, true
			if !e.nic.h.ComputeThen(e.notifyCost(), l.step) {
				return
			}
		}
		m := l.m
		l.m, l.got = Message{}, false
		if !l.fn(m) {
			return
		}
	}
}

// Pending returns queued, undelivered messages.
func (e *Endpoint) Pending() int { return e.queue.Len() }

// PortNum returns the endpoint's bound port number.
func (e *Endpoint) PortNum() int { return e.port }

// NIC is one network interface controller.
type NIC struct {
	name string
	s    *sim.Scheduler
	h    *host.Host
	p    *host.Params
	port *netsim.Port

	fw  *sim.Station // firmware (LANai) processor
	dma *sim.Station // DMA engine on the I/O bus

	endpoints map[int]*Endpoint
	handlers  map[int]func(*Message)
	// preposted holds, by tag, the remaining capacity of each pre-posted
	// receive buffer awaiting a tagged RPC response (RDDP-RPC, §2.2(a) of
	// the paper): a response arriving as several IP fragments consumes
	// it incrementally.
	preposted map[uint64]int64
	nextPort  int

	// TPT is the translation and protection table for memory this host
	// exports; TLB is the on-NIC translation cache (see tpt.go).
	TPT *TPT
	tlb *tlb

	// sendGate enforces per-connection FIFO ordering across put startup
	// latency: traffic posted after a put is released no earlier than the
	// put's data stream (see rdma.go).
	sendGate sim.Time

	// flights, tasks, msgs and ops hold this NIC's finished fragments,
	// steps, message records and RDMA records for reuse (see flight,
	// task, Message and opRec).
	flights []*flight
	tasks   []*task
	msgs    []*Message
	ops     []*opRec

	stats Stats
}

// Stats counts NIC-level events for assertions and reporting.
type Stats struct {
	MsgsSent, MsgsRecv   uint64
	FragsSent, FragsRecv uint64
	DirectPlacements     uint64 // RDDP-RPC payloads placed without host copy
	GetsServed           uint64 // remote gets served from this NIC's memory
	PutsServed           uint64
	Exceptions           uint64 // ORDMA faults signalled to remote initiators
	TLBHits, TLBMisses   uint64
	CapRejects           uint64
	Interrupts           uint64
	RDMATimeouts         uint64 // initiator completions forced by Op.Timeout
}

// New creates a NIC for host h attached to fabric port port.
func New(h *host.Host, port *netsim.Port) *NIC {
	n := &NIC{
		name:      h.Name + "/nic",
		s:         h.S,
		h:         h,
		p:         h.P,
		port:      port,
		fw:        sim.NewStation(h.S, h.Name+"/nic/fw"),
		dma:       sim.NewStation(h.S, h.Name+"/nic/dma"),
		endpoints: make(map[int]*Endpoint),
		handlers:  make(map[int]func(*Message)),
		preposted: make(map[uint64]int64),
	}
	n.TPT = newTPT(n)
	n.tlb = newTLB(&n.TPT.pt, h.P.NICTLBSize)
	port.Attach(n)
	return n
}

// Name returns the NIC name.
func (n *NIC) Name() string { return n.name }

// Host returns the owning host.
func (n *NIC) Host() *host.Host { return n.h }

// Port returns the fabric attachment.
func (n *NIC) Port() *netsim.Port { return n.port }

// Stats returns a copy of the event counters.
func (n *NIC) StatsSnapshot() Stats { return n.stats }

// FwStation and DMAStation expose the internal stations for utilization
// reporting in experiments.
func (n *NIC) FwStation() *sim.Station  { return n.fw }
func (n *NIC) DMAStation() *sim.Station { return n.dma }

// AllocPort returns a fresh unused port number (port 0 is reserved for the
// Ethernet emulation).
func (n *NIC) AllocPort() int {
	for {
		n.nextPort++
		if _, used := n.endpoints[n.nextPort]; used {
			continue
		}
		if _, used := n.handlers[n.nextPort]; used {
			continue
		}
		return n.nextPort
	}
}

// NewEndpoint binds a receive endpoint to a port number.
func (n *NIC) NewEndpoint(port int, mode NotifyMode) *Endpoint {
	if _, dup := n.endpoints[port]; dup {
		panic(fmt.Sprintf("nic: duplicate endpoint %d on %s", port, n.name))
	}
	e := &Endpoint{
		nic:   n,
		port:  port,
		Mode:  mode,
		queue: sim.NewQueue[Message](n.s, fmt.Sprintf("%s/ep%d", n.name, port)),
	}
	n.endpoints[port] = e
	return e
}

// BindHandler delivers messages on the given port by calling fn in event
// context with no host cost charged; the layer above decides the
// notification accounting (the Ethernet-emulation path uses this to apply
// interrupt coalescing and per-packet protocol costs). fn gets the NIC's
// own record of the message, valid only until fn returns: the record is
// then recycled, so fn copies what it keeps.
func (n *NIC) BindHandler(port int, fn func(*Message)) {
	if _, dup := n.endpoints[port]; dup {
		panic(fmt.Sprintf("nic: port %d already has an endpoint on %s", port, n.name))
	}
	if _, dup := n.handlers[port]; dup {
		panic(fmt.Sprintf("nic: duplicate handler %d on %s", port, n.name))
	}
	n.handlers[port] = fn
}

// PrePost registers a tagged receive buffer so a future inbound message
// carrying the tag has its payload placed directly (RDDP-RPC). The caller
// charges the host-side cost (one PIO per pre-post).
func (n *NIC) PrePost(tag uint64, bytes int64) {
	n.preposted[tag] = bytes
}

// CancelPrePost removes a pre-posted buffer (e.g. on RPC failure).
func (n *NIC) CancelPrePost(tag uint64) {
	delete(n.preposted, tag)
}

// PrePosted returns the number of outstanding pre-posted buffers.
func (n *NIC) PrePosted() int { return len(n.preposted) }

// Send transmits m from process context, charging the host send cost
// (library + doorbell) before the NIC pipeline takes over.
func (n *NIC) Send(p *sim.Proc, m *Message) {
	n.h.Compute(p, n.PostCost())
	n.SendAsync(m)
}

// PostCost is the host CPU of posting one send or RDMA descriptor: the
// library call and the doorbell.
func (n *NIC) PostCost() sim.Duration { return n.p.GMSendCost + n.p.PIOWrite }

// SendAsync transmits a copy of m from event context; the caller is
// responsible for any host-side CPU accounting.
func (n *NIC) SendAsync(m *Message) {
	if m.To == nil {
		panic("nic: message without destination")
	}
	r := n.newMsg(m)
	// Respect the ordering gate: messages queued behind an in-flight put
	// startup are released with it, never ahead of its data.
	if n.sendGate > n.s.Now() {
		t := n.newTask(taskSend, nil)
		t.msg = r
		n.s.At(n.sendGate, t.run)
		return
	}
	n.sendNow(r)
}

// newMsg returns a pooled or fresh message record holding a copy of m.
func (n *NIC) newMsg(m *Message) *Message {
	var r *Message
	if k := len(n.msgs); k > 0 {
		r = n.msgs[k-1]
		n.msgs = n.msgs[:k-1]
	} else {
		r = new(Message)
	}
	*r = *m
	return r
}

// release returns the delivered record m to its sender's free list.
func (m *Message) release() {
	o := m.From
	*m = Message{}
	o.msgs = append(o.msgs, m)
}

func (n *NIC) sendNow(m *Message) {
	m.From = n
	m.sentAt = n.s.Now()
	n.stats.MsgsSent++
	frag := m.FragSize
	if frag <= 0 {
		frag = n.p.GMFragSize
	}
	total := m.Size()
	if total <= 0 {
		total = 1 // a bare signal still occupies a minimal frame
	}
	nfrags := int((total + int64(frag) - 1) / int64(frag))
	sent := int64(0)
	for i := 0; i < nfrags; i++ {
		bytes := int64(frag)
		if total-sent < bytes {
			bytes = total - sent
		}
		sent += bytes
		fl := n.newFlight(m.To, int(bytes), i == nfrags-1)
		fl.msg = m
		n.transmit(fl, 0)
	}
}

// flight is one fragment on its way from its origin NIC to its
// destination: the frame it rides on the wire, the message or RDMA
// context it belongs to, and its two pipeline callbacks, bound once when
// the flight is first built. When the destination's firmware has handled
// it, the flight goes back to its origin's free list. A frame dropped by
// a down switch takes its flight with it.
type flight struct {
	origin *NIC
	to     *NIC
	frame  netsim.Frame
	last   bool     // last fragment of its message or data stream
	msg    *Message // nil on RDMA traffic
	// rdma is the context of get/put traffic (see rdma.go); its op is
	// nil on message fragments.
	rdma rdmaFlight

	sent   func() // fl.send: the origin's DMA engine has pulled it
	placed func() // fl.arrive: the destination's firmware has handled it
}

// newFlight returns a pooled or fresh flight of bytes toward to.
func (n *NIC) newFlight(to *NIC, bytes int, last bool) *flight {
	var fl *flight
	if k := len(n.flights); k > 0 {
		fl = n.flights[k-1]
		n.flights = n.flights[:k-1]
	} else {
		fl = &flight{origin: n}
		fl.sent, fl.placed = fl.send, fl.arrive
	}
	fl.to, fl.last = to, last
	fl.frame = netsim.Frame{To: to.port, Bytes: bytes, Payload: fl}
	return fl
}

// transmit runs fl through the origin's send pipeline: the firmware
// prepares the fragment (plus extraFw), the DMA engine pulls it from host
// memory, then it serializes on the wire. ServeAt preserves pipelining
// across the three stations.
func (n *NIC) transmit(fl *flight, extraFw sim.Duration) {
	n.stats.FragsSent++
	fwDone := n.fw.Serve(n.p.NICFragProcess+extraFw, nil)
	n.dma.ServeAt(fwDone, sim.TransferTime(int64(fl.frame.Bytes), n.p.NICDMABandwidth), fl.sent)
}

func (fl *flight) send() { fl.origin.port.Send(&fl.frame) }

// DeliverFrame implements netsim.Sink: a fragment has arrived from the wire.
func (n *NIC) DeliverFrame(f *netsim.Frame) {
	fl, ok := f.Payload.(*flight)
	if !ok {
		panic("nic: foreign frame payload")
	}
	n.stats.FragsRecv++
	// DMA the fragment into host memory, then firmware bookkeeping.
	dmaDone := n.dma.Serve(sim.TransferTime(int64(f.Bytes), n.p.NICDMABandwidth), nil)
	n.fw.ServeAt(dmaDone, n.p.NICFragProcess, fl.placed)
}

// arrive hands the placed fragment to its destination and recycles fl.
func (fl *flight) arrive() {
	n, m, r, last := fl.to, fl.msg, fl.rdma, fl.last
	o := fl.origin
	*fl = flight{origin: o, sent: fl.sent, placed: fl.placed}
	o.flights = append(o.flights, fl)
	switch {
	case r.op != nil:
		n.rdmaFragArrived(r, last)
	case last:
		n.msgArrived(m)
	}
}

// msgArrived runs when the last fragment of a message has been placed.
func (n *NIC) msgArrived(m *Message) {
	n.stats.MsgsRecv++
	// Wire attribution: NIC pipeline, serialization, switching, and
	// trunk queueing from the send instant to full arrival.
	m.Span.Add(obs.PhaseWire, n.s.Now().Sub(m.sentAt))
	if m.Tag != 0 {
		if left, ok := n.preposted[m.Tag]; ok {
			// Header split: payload goes straight to the pre-posted user
			// buffer; only headers reach the protocol code. Multi-fragment
			// responses consume the buffer incrementally.
			if left -= m.PayloadBytes; left <= 0 {
				delete(n.preposted, m.Tag)
			} else {
				n.preposted[m.Tag] = left
			}
			m.Direct = true
			n.stats.DirectPlacements++
		}
	}
	if fn, ok := n.handlers[m.Port]; ok {
		fn(m)
		m.release()
		return
	}
	ep, ok := n.endpoints[m.Port]
	if !ok {
		panic(fmt.Sprintf("nic: %s has no endpoint %d", n.name, m.Port))
	}
	switch ep.Mode {
	case Poll:
		m.queuedAt = n.s.Now()
		ep.queue.Put(*m)
		m.release()
	case Intr:
		// GM/VI events take a full interrupt each; coalescing exists only
		// on the Ethernet-emulation path (§5, testbed description).
		n.stats.Interrupts++
		t := n.newTask(taskQueue, nil)
		t.msg, t.ep = m, ep
		n.h.Interrupt(0, t.run)
	}
}
