// Package udpip models the general-purpose network path the paper's
// standard-NFS baseline uses: UDP/IP over the NIC's Ethernet emulation with
// a 9 KB jumbo MTU, checksum offload, and interrupt coalescing. Per-packet
// protocol processing and data copies are charged to the host CPU — the
// overhead RDDP exists to remove.
package udpip

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
)

// etherPort is the NIC port number reserved for the Ethernet emulation.
const etherPort = 0

// ipHeaderBytes approximates Ethernet+IP+UDP header bytes per packet.
const ipHeaderBytes = 46

// Datagram is one UDP datagram as seen by sockets.
//
// The sending stack owns the record a datagram travels in: a send takes
// it from the stack's free list, and it goes back there once the
// receiving stack has processed every fragment and, if they reassembled
// into a delivered datagram, once the socket's reader is done with it.
// A Listen callback gets the record valid only for the duration of that
// call, so it copies what it keeps; Recv hands out a copy the reader
// keeps. A datagram whose fragment a down switch dropped never returns
// to its free list and is left to the collector.
type Datagram struct {
	From     *Stack
	FromPort int
	Bytes    int64 // UDP payload length
	Body     any   // typed upper-layer content
	// Direct reports that the receiving NIC placed the payload straight
	// into a pre-posted buffer (RDDP-RPC header splitting): the reader
	// skips all payload copies.
	Direct bool

	// span/sentAt attribute the datagram's flight — first fragment out to
	// reassembly complete — to the carried operation's wire phase. Each IP
	// fragment is its own NIC message, so the NIC-level hook cannot cover
	// UDP; attribution happens here at reassembly completion instead.
	// queuedAt stamps entry into the socket receive queue: the wait until
	// a reader picks the datagram up attributes to the queue phase.
	span     *obs.Span
	sentAt   sim.Time
	queuedAt sim.Time
	// frags counts the fragments the receiving stack has yet to process
	// (reassemble, or drop at a down or lossy host).
	frags int
}

// fragment is the wire context of one IP fragment of a datagram. It
// comes from its sending stack's free list and goes back to it once the
// receiving stack has processed it (or dropped it), with its interrupt
// callback bound once when first built.
type fragment struct {
	at      *Stack    // the receiving stack, set on arrival
	d       *Datagram // its From is the sending stack
	dstPort int
	id      uint64
	total   int
	input   func() // f.arrived, bound once
}

// reasmKey identifies a datagram under reassembly. IDs are assigned per
// sending stack, so — like real IP reassembly — the key must include the
// source or concurrent senders' fragments would be conflated.
type reasmKey struct {
	from *Stack
	id   uint64
}

// reasmState is one partially reassembled datagram.
type reasmState struct {
	got  int
	born sim.Time
}

// reasmEntry records a reassembly's key and birth time in the arrival
// FIFO the expiry sweep walks. The birth time doubles as a generation:
// a stale FIFO entry whose key was completed (or re-created by a later
// datagram) no longer matches the map state and is skipped, so recycled
// IP ids after a sender restart never collide with leftover state.
type reasmEntry struct {
	key  reasmKey
	born sim.Time
}

// DefaultReasmTimeout bounds how long a partial datagram may wait for
// missing fragments before its state is reclaimed. It is far above any
// healthy inter-fragment gap (which is microseconds even on a congested
// degraded link), so it only ever fires after real fragment loss.
const DefaultReasmTimeout = sim.Second

// Stack is one host's UDP/IP stack bound to its NIC.
type Stack struct {
	h     *host.Host
	n     *nic.NIC
	socks map[int]*Socket
	// reassembly buffers datagram fragments by (source, ID); reasmOrder
	// is the arrival-ordered FIFO the expiry sweep walks.
	reasmMap   map[reasmKey]reasmState
	reasmOrder sim.Ring[reasmEntry]
	nextID     uint64

	// ReasmTimeout is how long partial-fragment state may linger before
	// being reclaimed (<= 0 disables the sweep). Sustained loss — or a
	// sender that crashed mid-datagram — would otherwise leak reassembly
	// state forever.
	ReasmTimeout sim.Duration

	// down marks the host crashed: every packet in or out is dropped
	// (failure injection; see SetDown).
	down bool

	// lossRate drops arriving packets with the given probability
	// (failure injection; UDP provides no reliability, the RPC layer's
	// retransmission recovers).
	lossRate float64
	lossRNG  *sim.Rand

	frags  []*fragment // finished fragments sent from here, for reuse
	dgrams []*Datagram // finished datagrams sent from here, for reuse

	PacketsIn, PacketsOut, PacketsDropped uint64
	// ReasmExpired counts partial datagrams reclaimed by the timeout.
	ReasmExpired uint64
}

// NewStack attaches a UDP/IP stack to a NIC.
func NewStack(n *nic.NIC) *Stack {
	st := &Stack{
		h:            n.Host(),
		n:            n,
		socks:        make(map[int]*Socket),
		reasmMap:     make(map[reasmKey]reasmState),
		ReasmTimeout: DefaultReasmTimeout,
	}
	n.BindHandler(etherPort, st.packetArrived)
	return st
}

// SetDown marks the stack's host crashed (true) or restarted (false).
// While down, arriving packets are dropped before any protocol
// processing and nothing is transmitted — the wire behaviour of a dead
// machine. Crashing also discards reassembly state: a rebooted kernel
// has lost those buffers, and dropping them keeps recycled IP ids from
// completing against a dead sender's leftover fragments.
func (st *Stack) SetDown(down bool) {
	st.down = down
	if down {
		st.reasmMap = make(map[reasmKey]reasmState)
		st.reasmOrder = sim.Ring[reasmEntry]{}
	}
}

// Down reports whether the stack is crashed.
func (st *Stack) Down() bool { return st.down }

// ReasmPending returns the number of partially reassembled datagrams.
func (st *Stack) ReasmPending() int { return len(st.reasmMap) }

// gcReasm reclaims partial reassemblies older than ReasmTimeout. It is
// run opportunistically on packet arrival (no timer events, so healthy
// runs schedule nothing extra); stale FIFO heads whose reassembly
// already completed are popped without effect.
func (st *Stack) gcReasm(now sim.Time) {
	if st.ReasmTimeout <= 0 {
		return
	}
	for st.reasmOrder.Len() > 0 {
		head := st.reasmOrder.Front()
		if e, live := st.reasmMap[head.key]; live && e.born == head.born {
			if now.Sub(e.born) < st.ReasmTimeout {
				return // FIFO is arrival-ordered: the rest are younger
			}
			delete(st.reasmMap, head.key)
			st.ReasmExpired++
		}
		st.reasmOrder.Pop()
	}
}

// Host returns the owning host.
func (st *Stack) Host() *host.Host { return st.h }

// NIC returns the attached NIC (the hybrid NFS server RDMA-writes to the
// client NIC it learns from the request's source stack).
func (st *Stack) NIC() *nic.NIC { return st.n }

// Socket binds a UDP socket to port.
func (st *Stack) Socket(port int) *Socket {
	if _, dup := st.socks[port]; dup {
		panic(fmt.Sprintf("udpip: port %d in use on %s", port, st.h.Name))
	}
	sk := &Socket{
		stack: st,
		port:  port,
		queue: sim.NewQueue[*Datagram](st.h.S, fmt.Sprintf("%s/udp%d", st.h.Name, port)),
	}
	st.socks[port] = sk
	return sk
}

// SetLoss enables random inbound packet drops at the given rate,
// deterministically from seed.
func (st *Stack) SetLoss(rate float64, seed uint64) {
	st.lossRate = rate
	st.lossRNG = sim.NewRand(seed)
}

// packetArrived runs in event context for each IP fragment delivered by
// the NIC: coalesced interrupt, per-packet input processing, reassembly,
// then socket delivery.
func (st *Stack) packetArrived(m *nic.Message) {
	frag := m.Header.(*fragment)
	if st.down {
		st.PacketsDropped++
		frag.drop()
		return // dead host: the wire sees a black hole
	}
	if st.lossRate > 0 && st.lossRNG.Float64() < st.lossRate {
		st.PacketsDropped++
		frag.drop()
		return
	}
	st.PacketsIn++
	if m.Direct {
		frag.d.Direct = true
	}
	frag.at = st
	st.h.CoalescedInterrupt(st.h.P.UDPRecvPacket, frag.input)
}

// arrived is a fragment's input processing at its receiving stack, once
// the interrupt has been taken: reassembly, then socket delivery.
func (f *fragment) arrived() {
	st, d, id, total, dstPort := f.at, f.d, f.id, f.total, f.dstPort
	f.release()
	d.frags--
	now := st.h.S.Now()
	st.gcReasm(now)
	if total > 1 {
		key := reasmKey{from: d.From, id: id}
		e, ok := st.reasmMap[key]
		if !ok {
			e = reasmState{born: now}
			st.reasmOrder.Push(reasmEntry{key: key, born: e.born})
		}
		e.got++
		if e.got < total {
			st.reasmMap[key] = e
			d.releaseIfDone()
			return
		}
		delete(st.reasmMap, key)
	}
	sk, ok := st.socks[dstPort]
	if !ok {
		d.release() // no listener: datagram dropped, as UDP does
		return
	}
	d.span.Add(obs.PhaseWire, now.Sub(d.sentAt))
	d.queuedAt = now
	sk.queue.Put(d)
}

// newFragment returns a pooled or fresh fragment sent from st.
func (st *Stack) newFragment(d *Datagram, dstPort int, id uint64, total int) *fragment {
	var f *fragment
	if k := len(st.frags); k > 0 {
		f = st.frags[k-1]
		st.frags = st.frags[:k-1]
	} else {
		f = &fragment{}
		f.input = f.arrived
	}
	f.d, f.dstPort, f.id, f.total = d, dstPort, id, total
	return f
}

// release returns f to its sending stack's free list.
func (f *fragment) release() {
	o := f.d.From
	*f = fragment{input: f.input}
	o.frags = append(o.frags, f)
}

// drop discards f unprocessed at its receiving host, and its datagram
// with it once no other fragment is left to process.
func (f *fragment) drop() {
	d := f.d
	f.release()
	d.frags--
	d.releaseIfDone()
}

// releaseIfDone returns a datagram that will not be delivered to its
// sending stack's free list once the receiver has processed every
// fragment of it. A fragment lost on the way leaves it to the collector.
func (d *Datagram) releaseIfDone() {
	if d.frags == 0 {
		d.release()
	}
}

// release returns d to its sending stack's free list.
func (d *Datagram) release() {
	o := d.From
	*d = Datagram{}
	o.dgrams = append(o.dgrams, d)
}

// Socket is a bound UDP endpoint.
type Socket struct {
	stack *Stack
	port  int
	queue *sim.Queue[*Datagram]
}

// Port returns the bound port number.
func (sk *Socket) Port() int { return sk.port }

// SendTo transmits a datagram of the given payload size to (dst, dstPort),
// charging syscall, user-to-mbuf copy, and per-packet output costs.
// copyBytes normally equals bytes; kernel callers that hand down mbuf
// chains pass 0 to skip the user copy. A nonzero tag asks the receiving
// NIC to match a pre-posted buffer (RDDP-RPC).
func (sk *Socket) SendTo(p *sim.Proc, dst *Stack, dstPort int, bytes int64, body any, copyBytes int64, tag uint64) {
	j := host.Carried(sk.stack.h, p)
	var s Sender
	sk.SendThen(&j, &s, dst, dstPort, bytes, body, copyBytes, tag)
}

// Sender is the state of one send run as a step machine: the datagram
// being sent and the charge it is at. A caller keeps one and reuses it
// (see SendThen).
type Sender struct {
	sk        *Socket
	dst       *Stack
	dstPort   int
	bytes     int64
	body      any
	copyBytes int64
	tag       uint64
	d         *Datagram
	id        uint64
	i, total  int
	stage     sendStage
}

type sendStage uint8

const (
	sendSyscall sendStage = iota // charge the syscall
	sendCopy                     // syscall charged: charge the copy
	sendOpen                     // copy charged: build the datagram
	sendOutput                   // charge the next fragment's output
	sendPost                     // output charged: post the fragment
)

// SendThen is SendTo as a step machine over j (see host.Job): it starts
// sending through s and reports true once every fragment is posted;
// otherwise j waits on a charge, and j.Step must call s.Step until it
// reports true. The datagram carries j's span.
func (sk *Socket) SendThen(j *host.Job, s *Sender, dst *Stack, dstPort int, bytes int64, body any, copyBytes int64, tag uint64) bool {
	*s = Sender{sk: sk, dst: dst, dstPort: dstPort, bytes: bytes, body: body, copyBytes: copyBytes, tag: tag}
	if sk.stack.down {
		return true // crashed host: nothing leaves, nothing is charged
	}
	return s.Step(j)
}

// Step advances the send for j, as SendThen.
func (s *Sender) Step(j *host.Job) bool {
	h := s.sk.stack.h
	for {
		switch s.stage {
		case sendSyscall:
			s.stage = sendCopy
			if !j.Compute(h.P.SyscallCost) {
				return false
			}
		case sendCopy:
			s.stage = sendOpen
			if s.copyBytes > 0 && !j.Compute(h.CopyCost(s.copyBytes)) {
				return false
			}
		case sendOpen:
			s.d, s.id, s.total = s.sk.open(s.bytes, s.body, j.Span)
			s.stage = sendOutput
		case sendOutput:
			if s.i == s.total {
				*s = Sender{}
				return true
			}
			s.stage = sendPost
			if !j.Compute(h.P.UDPSendPacket + h.P.PIOWrite) {
				return false
			}
		case sendPost:
			if s.i == 0 {
				s.d.sentAt = h.S.Now()
			}
			s.sk.sendFragment(s.dst, s.dstPort, s.d, s.id, s.i, s.total, s.tag)
			s.i++
			s.stage = sendOutput
		}
	}
}

// open builds the datagram a send transmits, carrying span, in a pooled
// or fresh record, and numbers it with the stack's next IP id: it
// returns the datagram, the id and its fragment count.
func (sk *Socket) open(bytes int64, body any, span *obs.Span) (*Datagram, uint64, int) {
	st := sk.stack
	var d *Datagram
	if k := len(st.dgrams); k > 0 {
		d = st.dgrams[k-1]
		st.dgrams = st.dgrams[:k-1]
	} else {
		d = new(Datagram)
	}
	maxFrag := int64(st.h.P.EtherMTU - ipHeaderBytes)
	total := int(max(1, (bytes+maxFrag-1)/maxFrag))
	*d = Datagram{From: st, FromPort: sk.port, Bytes: bytes, Body: body, span: span, frags: total}
	st.nextID++
	return d, st.nextID, total
}

// sendFragment hands IP fragment i of total of d to the NIC.
func (sk *Socket) sendFragment(dst *Stack, dstPort int, d *Datagram, id uint64, i, total int, tag uint64) {
	st := sk.stack
	maxFrag := int64(st.h.P.EtherMTU - ipHeaderBytes)
	fb := min(maxFrag, d.Bytes-int64(i)*maxFrag)
	st.PacketsOut++
	st.n.SendAsync(&nic.Message{
		To:           dst.n,
		Port:         etherPort,
		HeaderBytes:  ipHeaderBytes,
		PayloadBytes: fb,
		Header:       st.newFragment(d, dstPort, id, total),
		Tag:          tag,
		FragSize:     st.h.P.EtherMTU,
	})
}

// SendToAsync transmits from event context (kernel timers, retransmission
// paths): host costs are charged to the CPU asynchronously and the packets
// go out immediately.
func (sk *Socket) SendToAsync(dst *Stack, dstPort int, bytes int64, body any, tag uint64) {
	if sk.stack.down {
		return // crashed host: nothing leaves, nothing is charged
	}
	h := sk.stack.h
	d, id, total := sk.open(bytes, body, nil)
	for i := 0; i < total; i++ {
		h.ComputeAsync(h.P.UDPSendPacket+h.P.PIOWrite, nil)
		sk.sendFragment(dst, dstPort, d, id, i, total, tag)
	}
}

// Recv blocks until a datagram arrives, charging the syscall and the
// scheduler wakeup, and returns a copy of it the caller keeps. The
// mbuf-to-destination copy is charged by the caller, which knows whether
// the destination is a user buffer or the buffer cache.
func (sk *Socket) Recv(p *sim.Proc) *Datagram {
	h := sk.stack.h
	h.Syscall(p)
	d := sk.queue.Get(p)
	// Receive-queue wait — a busy reader lets datagrams pile up behind
	// it — is the carried op's queue phase (zero when the reader was
	// already parked here).
	d.span.Add(obs.PhaseQueue, p.Now().Sub(d.queuedAt))
	kept := *d
	d.release()
	h.Compute(p, h.P.SchedWakeup)
	return &kept
}

// Listen calls fn, from event callbacks, on every datagram the socket
// receives: a receiver with no process, such as the kernel's RPC reply
// demux or an rpcd worker. Event for event it runs the loop a process
// calling Recv and then serving the datagram would run, charges
// included, starting where that process would first wake, so fn runs at
// the instant, and after the same events, as the code after Recv would.
// fn must not block, and gets the datagram valid only until it returns
// (see Datagram); it reports whether it is done serving it. If not, the
// loop waits, as that process would while serving it, until the
// returned Listener's Resume. Several loops on one socket take
// datagrams in the order they started waiting, as processes would.
func (sk *Socket) Listen(fn func(*Datagram) bool) *Listener {
	l := &Listener{sk: sk, fn: fn}
	l.step = l.run
	sk.stack.h.S.After(0, l.step)
	return l
}

// Listener is the state of one Listen loop: the Recv step it is at.
type Listener struct {
	sk    *Socket
	fn    func(*Datagram) bool
	d     *Datagram // received, the wakeup being charged
	state listenState
	step  func() // l.run, bound once
}

type listenState uint8

const (
	listenSyscall listenState = iota // enter Recv: charge the syscall
	listenGet                        // take a datagram, or wait for one
	listenDeliver                    // wakeup charged: hand d to fn
)

// Resume continues a loop whose fn finished a datagram later: call it
// where the serving process would have returned to Recv.
func (l *Listener) Resume() { l.run() }

// run steps the Recv loop until it has to wait: for the CPU, for a
// datagram, or for fn to finish.
func (l *Listener) run() {
	h := l.sk.stack.h
	for {
		switch l.state {
		case listenSyscall:
			l.state = listenGet
			if !h.ComputeThen(h.P.SyscallCost, l.step) {
				return
			}
		case listenGet:
			d, ok := l.sk.queue.GetOr(l.step)
			if !ok {
				return
			}
			d.span.Add(obs.PhaseQueue, h.S.Now().Sub(d.queuedAt))
			l.d, l.state = d, listenDeliver
			if !h.ComputeThen(h.P.SchedWakeup, l.step) {
				return
			}
		case listenDeliver:
			d := l.d
			l.d, l.state = nil, listenSyscall
			done := l.fn(d)
			d.release()
			if !done {
				return
			}
		}
	}
}

// Pending returns queued datagrams.
func (sk *Socket) Pending() int { return sk.queue.Len() }
