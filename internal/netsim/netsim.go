// Package netsim models the cluster interconnect: full-duplex links from
// each host NIC to a central switch, with finite bandwidth, per-frame
// framing overhead, propagation delay, and a store-and-forward switch
// latency. It reproduces the paper's 2 Gb/s Myrinet fabric at the
// granularity the evaluation depends on: fragment serialization and link
// contention.
//
// netsim carries opaque frames; fragmentation, DMA and protocol processing
// belong to the NIC model layered above (internal/nic).
package netsim

import (
	"fmt"

	"danas/internal/sim"
)

// Frame is one wire fragment. Bytes counts upper-layer bytes (headers +
// payload data); the link adds LineConfig.Overhead for preamble, CRC and
// routing.
type Frame struct {
	From, To *Port
	Bytes    int
	Payload  any // opaque upper-layer context, delivered to the sink
}

// Sink receives frames arriving at a port.
type Sink interface {
	DeliverFrame(f *Frame)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(f *Frame)

// DeliverFrame calls fn(f).
func (fn SinkFunc) DeliverFrame(f *Frame) { fn(f) }

// LineConfig describes one link's physical characteristics.
type LineConfig struct {
	Bandwidth float64      // bytes/second on the wire
	Overhead  int          // framing bytes added per frame
	PropDelay sim.Duration // one-way propagation to/from the switch
}

// Fabric is the interconnect: one or more leaf switches with attached
// host links, and — in multi-leaf topologies — spine switches joined by
// oversubscribed trunk bundles (see Topology in topology.go).
type Fabric struct {
	s         *sim.Scheduler
	topo      Topology
	ports     []*Port
	leaves    []*leaf
	spineDown []bool
	dropped   uint64
	hops      []*hop // finished hops, reused by the next frames
}

// NewFabric creates an empty single-switch fabric with the given
// store-and-forward switch latency: the degenerate one-leaf topology.
func NewFabric(s *sim.Scheduler, switchLatency sim.Duration) *Fabric {
	return NewFabricWith(s, Star(switchLatency))
}

// Port is a host's attachment point: one transmit line toward the switch
// and one receive line from the switch.
type Port struct {
	name string
	fab  *Fabric
	cfg  LineConfig
	leaf int
	up   *sim.Station // host -> switch direction
	down *sim.Station // switch -> host direction
	sink Sink

	framesIn, framesOut uint64
	bytesIn, bytesOut   int64
}

// AddPort attaches a new port to the fabric's first leaf (the only one
// in the degenerate star).
func (f *Fabric) AddPort(name string, cfg LineConfig) *Port {
	return f.AddLeafPort(name, cfg, 0)
}

// Leaf returns the index of the leaf switch the port attaches to.
func (p *Port) Leaf() int { return p.leaf }

// Ports returns all attached ports.
func (f *Fabric) Ports() []*Port { return f.ports }

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Attach sets the frame sink (normally the NIC receive path).
func (p *Port) Attach(sink Sink) { p.sink = sink }

// Config returns the port's line configuration.
func (p *Port) Config() LineConfig { return p.cfg }

// SetBandwidth changes the port's line rate (failure injection: link
// degradation). Frames already queued keep the serialization time they
// were enqueued with; frames sent afterwards serialize at the new rate,
// in both directions (the rate applies to this port's uplink and to
// downlink serialization toward it).
func (p *Port) SetBandwidth(bytesPerSec float64) { p.cfg.Bandwidth = bytesPerSec }

// txTime returns the serialization time of a frame on this line.
func (p *Port) txTime(bytes int) sim.Duration {
	return sim.TransferTime(int64(bytes+p.cfg.Overhead), p.cfg.Bandwidth)
}

// Send transmits f from p toward f.To. The frame serializes on p's uplink,
// crosses the switch fabric (one leaf on the same-leaf path, leaf ->
// spine -> leaf otherwise), serializes on the destination downlink, and
// is finally handed to the destination sink. Panics if f.To is nil, or
// if the destination has no sink — checked here, at submission, so a
// miswired fabric fails with both port names instead of deep inside a
// delivery callback (Fabric.Arm catches this even earlier).
func (p *Port) Send(f *Frame) {
	if f.To == nil {
		panic(fmt.Sprintf("netsim: frame from %s has no destination", p.name))
	}
	if f.From == nil {
		f.From = p
	}
	dst := f.To
	if dst.sink == nil {
		panic(fmt.Sprintf("netsim: port %s has no sink (frame from %s; fabric not armed?)",
			dst.name, p.name))
	}
	p.framesOut++
	p.bytesOut += int64(f.Bytes)
	fab := p.fab
	h := fab.newHop()
	h.src, h.fr, h.stage = p, f, hopUplinked
	if p.leaf != dst.leaf {
		h.spine = fab.SpineFor(p.leaf, dst.leaf)
	}
	p.up.Serve(p.txTime(f.Bytes), h.step)
}

// hop carries one frame across the fabric as a chain of plain events.
// Each stage serializes the frame on a station or crosses a switch, then
// posts the next stage through the one callback bound when the hop was
// first built. A frame whose route stays on one leaf skips the trunk
// stages. A finished hop goes back to the fabric for the next frame.
type hop struct {
	fab   *Fabric
	src   *Port
	fr    *Frame
	spine int // the ECMP spine of a cross-leaf route
	stage hopStage
	step  func() // h.advance
}

// hopStage names what has just happened to a frame in flight.
type hopStage uint8

const (
	hopUplinked    hopStage = iota // serialized on the source uplink
	hopAtLeaf                      // at the source leaf switch
	hopTrunkedUp                   // serialized on the leaf's up-trunk
	hopAtSpine                     // at the spine switch
	hopTrunkedDown                 // serialized on the destination leaf's down-trunk
	hopAtDstLeaf                   // at the destination leaf switch
	hopDownlinked                  // serialized on the destination downlink
	hopArrived                     // propagated to the destination host
)

func (f *Fabric) newHop() *hop {
	if n := len(f.hops); n > 0 {
		h := f.hops[n-1]
		f.hops = f.hops[:n-1]
		return h
	}
	h := &hop{fab: f}
	h.step = h.advance
	return h
}

// release returns h to its fabric once its frame is delivered or dropped.
func (h *hop) release() {
	h.src, h.fr = nil, nil
	h.fab.hops = append(h.fab.hops, h)
}

// drop black-holes the frame at a down switch.
func (h *hop) drop() {
	h.fab.dropped++
	h.release()
}

// advance runs the stage after h.stage: the host -> leaf [-> spine ->
// leaf] -> host route of Port.Send, one store-and-forward step per event.
func (h *hop) advance() {
	f, fr := h.fab, h.fr
	s, dst := f.s, fr.To
	switch h.stage {
	case hopUplinked:
		h.stage = hopAtLeaf
		s.After(h.src.cfg.PropDelay+f.topo.LeafLatency, h.step)
	case hopAtLeaf:
		lf := f.leaves[h.src.leaf]
		if lf.down {
			h.drop()
			return
		}
		if h.src.leaf == dst.leaf {
			h.downlink()
			return
		}
		h.stage = hopTrunkedUp
		f.trunkServe(lf, lf.up[h.spine], fr, h.step)
	case hopTrunkedUp:
		h.stage = hopAtSpine
		s.After(f.topo.TrunkProp+f.topo.SpineLatency, h.step)
	case hopAtSpine:
		if f.spineDown[h.spine] {
			h.drop()
			return
		}
		dl := f.leaves[dst.leaf]
		h.stage = hopTrunkedDown
		f.trunkServe(dl, dl.dn[h.spine], fr, h.step)
	case hopTrunkedDown:
		h.stage = hopAtDstLeaf
		s.After(f.topo.TrunkProp+f.topo.LeafLatency, h.step)
	case hopAtDstLeaf:
		if f.leaves[dst.leaf].down {
			h.drop()
			return
		}
		h.downlink()
	case hopDownlinked:
		h.stage = hopArrived
		s.After(dst.cfg.PropDelay, h.step)
	case hopArrived:
		h.release()
		dst.framesIn++
		dst.bytesIn += int64(fr.Bytes)
		dst.sink.DeliverFrame(fr)
	}
}

// downlink serializes the frame on the destination port's downlink.
func (h *hop) downlink() {
	dst := h.fr.To
	h.stage = hopDownlinked
	dst.down.Serve(dst.txTime(h.fr.Bytes), h.step)
}

// OneWayLatency returns the zero-load latency of a frame of the given size
// between two same-leaf ports with this port's line configuration on both
// ends. For cross-leaf paths see Fabric.PathLatency.
func (p *Port) OneWayLatency(bytes int) sim.Duration {
	return 2*p.txTime(bytes) + 2*p.cfg.PropDelay + p.fab.topo.LeafLatency
}

// TxUtilization returns the uplink utilization since its last epoch mark.
func (p *Port) TxUtilization() float64 { return p.up.Utilization() }

// RxUtilization returns the downlink utilization since its last epoch mark.
func (p *Port) RxUtilization() float64 { return p.down.Utilization() }

// MarkEpoch restarts utilization accounting on both directions.
func (p *Port) MarkEpoch() {
	p.up.MarkEpoch()
	p.down.MarkEpoch()
}

// Stats returns cumulative frame and byte counts (in, out).
func (p *Port) Stats() (framesIn, framesOut uint64, bytesIn, bytesOut int64) {
	return p.framesIn, p.framesOut, p.bytesIn, p.bytesOut
}
