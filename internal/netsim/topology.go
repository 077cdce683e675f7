// Leaf/spine topology: the fabric generalized from one central switch
// to a two-tier Clos — leaf switches with host-facing ports, spine
// switches joining them, and per-leaf trunk bundles whose capacity is
// the leaf's host-facing bandwidth divided by an explicit
// oversubscription ratio. The single-switch star every pre-fabric
// experiment runs on is exactly the one-leaf degenerate topology: same
// construction, same event chain, byte-identical artifacts.
package netsim

import (
	"fmt"
	"strings"

	"danas/internal/sim"
)

// Topology declares the interconnect shape. The zero value is invalid;
// use Star() for the degenerate single-switch fabric.
type Topology struct {
	// Leaves is the number of leaf (host-facing) switches; 1 is the
	// degenerate star and needs none of the trunk fields.
	Leaves int
	// LeafPorts caps host ports per leaf (0 = uncapped). Attaching past
	// the cap panics with the port name — topology misconfiguration is
	// a construction error, not a mid-simulation surprise.
	LeafPorts int
	// Spines is the number of spine switches trunk bundles spread over.
	Spines int
	// Oversub is the leaf oversubscription ratio N in N:1: the leaf's
	// attached host-facing bandwidth divided by its total trunk
	// bandwidth toward the spines (the datacenter convention). 1 is a
	// non-blocking fabric.
	Oversub int
	// DownlinkBandwidth is the host line rate (bytes/second) trunk
	// capacity derives from: a leaf with H attached ports gets
	// H*DownlinkBandwidth/Oversub of trunk bandwidth in each direction,
	// split evenly across the spines.
	DownlinkBandwidth float64
	// TrunkOverhead is the per-frame framing overhead on trunk hops.
	TrunkOverhead int
	// LeafLatency and SpineLatency are the store-and-forward latencies
	// per switch hop; TrunkProp is the propagation delay of each trunk
	// link.
	LeafLatency  sim.Duration
	SpineLatency sim.Duration
	TrunkProp    sim.Duration
}

// Star is the degenerate one-leaf topology: the paper's single central
// switch with the given store-and-forward latency.
func Star(switchLatency sim.Duration) Topology {
	return Topology{Leaves: 1, LeafLatency: switchLatency}
}

// Validate rejects an unbuildable topology.
func (t Topology) Validate() error {
	if t.Leaves < 1 {
		return fmt.Errorf("netsim: topology needs at least 1 leaf, got %d", t.Leaves)
	}
	if t.LeafPorts < 0 {
		return fmt.Errorf("netsim: negative leaf port cap %d", t.LeafPorts)
	}
	if t.Leaves == 1 {
		return nil
	}
	if t.Spines < 1 {
		return fmt.Errorf("netsim: %d leaves need at least 1 spine", t.Leaves)
	}
	if t.Oversub < 1 {
		return fmt.Errorf("netsim: oversubscription ratio must be at least 1, got %d", t.Oversub)
	}
	if t.DownlinkBandwidth <= 0 {
		return fmt.Errorf("netsim: multi-leaf topology needs a positive downlink bandwidth")
	}
	return nil
}

// trunk is one direction of one leaf's bundle toward one spine: a
// serialization station plus its traffic accounting.
type trunk struct {
	st         *sim.Station
	frames     uint64
	bytes      int64
	maxBacklog sim.Duration
}

// leaf is one leaf switch: its attached-port count (which sizes the
// trunk bundle), fault state, and per-spine trunk pairs.
type leaf struct {
	down      bool
	hostPorts int
	// clamp, when positive, overrides the bundle's derived total rate
	// (trunk degradation); 0 restores the oversubscription-derived rate.
	clamp float64
	up    []*trunk // toward each spine
	dn    []*trunk // from each spine
}

// NewFabricWith builds a fabric over an explicit topology. An invalid
// topology panics: fabrics are constructed from validated configuration.
func NewFabricWith(s *sim.Scheduler, topo Topology) *Fabric {
	if err := topo.Validate(); err != nil {
		panic(err.Error())
	}
	f := &Fabric{s: s, topo: topo}
	f.leaves = make([]*leaf, topo.Leaves)
	for l := range f.leaves {
		lf := &leaf{}
		if topo.Leaves > 1 {
			lf.up = make([]*trunk, topo.Spines)
			lf.dn = make([]*trunk, topo.Spines)
			for sp := 0; sp < topo.Spines; sp++ {
				lf.up[sp] = &trunk{st: sim.NewStation(s, fmt.Sprintf("leaf%d/trunk-up%d", l, sp))}
				lf.dn[sp] = &trunk{st: sim.NewStation(s, fmt.Sprintf("leaf%d/trunk-dn%d", l, sp))}
			}
		}
		f.leaves[l] = lf
	}
	if topo.Leaves > 1 {
		f.spineDown = make([]bool, topo.Spines)
	}
	return f
}

// Topo returns the fabric's topology.
func (f *Fabric) Topo() Topology { return f.topo }

// Leaves returns the leaf-switch count (1 for the star).
func (f *Fabric) Leaves() int { return f.topo.Leaves }

// Spines returns the spine-switch count — 0 for the star, which has no
// second tier to fail.
func (f *Fabric) Spines() int {
	if f.topo.Leaves == 1 {
		return 0
	}
	return f.topo.Spines
}

// AddLeafPort attaches a new port to the given leaf. Panics (naming the
// port) on a leaf out of range or already at its port cap.
func (f *Fabric) AddLeafPort(name string, cfg LineConfig, leafIdx int) *Port {
	if leafIdx < 0 || leafIdx >= f.topo.Leaves {
		panic(fmt.Sprintf("netsim: cannot attach port %q: leaf %d outside topology of %d leaves",
			name, leafIdx, f.topo.Leaves))
	}
	lf := f.leaves[leafIdx]
	if f.topo.LeafPorts > 0 && lf.hostPorts >= f.topo.LeafPorts {
		panic(fmt.Sprintf("netsim: cannot attach port %q: leaf %d is full (%d ports)",
			name, leafIdx, f.topo.LeafPorts))
	}
	p := &Port{
		name: name,
		fab:  f,
		cfg:  cfg,
		leaf: leafIdx,
		up:   sim.NewStation(f.s, name+"/up"),
		down: sim.NewStation(f.s, name+"/down"),
	}
	lf.hostPorts++
	f.ports = append(f.ports, p)
	return p
}

// Arm verifies every attached port has a sink, returning an error that
// names each unattached port. Experiments call it before the simulation
// runs so a miswired fabric fails fast instead of panicking deep inside
// a delivery callback.
func (f *Fabric) Arm() error {
	var missing []string
	for _, p := range f.ports {
		if p.sink == nil {
			missing = append(missing, p.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("netsim: ports with no sink attached: %s", strings.Join(missing, ", "))
	}
	return nil
}

// MustArm is Arm, panicking on a miswired fabric.
func (f *Fabric) MustArm() {
	if err := f.Arm(); err != nil {
		panic(err.Error())
	}
}

// SpineFor returns the spine carrying traffic between two leaves: ECMP
// hashed per leaf pair, symmetric so both directions of a flow share
// one spine and per-pair frame ordering is preserved. With leaves (a,b)
// and S spines the pair rides spine (a+b) mod S.
func (f *Fabric) SpineFor(a, b int) int { return (a + b) % f.topo.Spines }

// SetLeafDown black-holes (or restores) a leaf switch: frames arriving
// at the leaf — from its hosts or from the spines — are dropped while
// it is down. Frames already past it continue.
func (f *Fabric) SetLeafDown(i int, down bool) { f.leaves[i].down = down }

// SetSpineDown black-holes (or restores) a spine switch: frames
// arriving at the spine are dropped while it is down.
func (f *Fabric) SetSpineDown(i int, down bool) { f.spineDown[i] = down }

// ClampTrunk clamps a leaf's trunk bundle to the given total rate in
// bytes/second per direction (split evenly across the spines). Frames
// already serializing keep their enqueued service time.
func (f *Fabric) ClampTrunk(leafIdx int, bytesPerSec float64) { f.leaves[leafIdx].clamp = bytesPerSec }

// RestoreTrunk returns a leaf's trunk bundle to its
// oversubscription-derived rate.
func (f *Fabric) RestoreTrunk(leafIdx int) { f.leaves[leafIdx].clamp = 0 }

// TrunkRate returns a leaf's current trunk-bundle rate in bytes/second
// per direction: attached host bandwidth over the oversubscription
// ratio, unless clamped.
func (f *Fabric) TrunkRate(leafIdx int) float64 { return f.trunkRate(f.leaves[leafIdx]) }

func (f *Fabric) trunkRate(lf *leaf) float64 {
	if lf.clamp > 0 {
		return lf.clamp
	}
	return float64(lf.hostPorts) * f.topo.DownlinkBandwidth / float64(f.topo.Oversub)
}

// Dropped counts frames black-holed by a down switch.
func (f *Fabric) Dropped() uint64 { return f.dropped }

// TrunkStats aggregates one leaf's trunk bundle since construction
// (frames, bytes) and since the last epoch mark (utilization): the
// hottest spine trunk in each direction, and the deepest backlog any
// trunk queue reached (observed at enqueue).
type TrunkStats struct {
	UpFrames, DownFrames uint64
	UpBytes, DownBytes   int64
	UpUtil, DownUtil     float64
	MaxBacklog           sim.Duration
}

// TrunkStats returns the leaf's trunk-bundle accounting (zero value on
// the star, which has no trunks).
func (f *Fabric) TrunkStats(leafIdx int) TrunkStats {
	var ts TrunkStats
	lf := f.leaves[leafIdx]
	for _, t := range lf.up {
		ts.UpFrames += t.frames
		ts.UpBytes += t.bytes
		ts.UpUtil = max(ts.UpUtil, t.st.Utilization())
		ts.MaxBacklog = max(ts.MaxBacklog, t.maxBacklog)
	}
	for _, t := range lf.dn {
		ts.DownFrames += t.frames
		ts.DownBytes += t.bytes
		ts.DownUtil = max(ts.DownUtil, t.st.Utilization())
		ts.MaxBacklog = max(ts.MaxBacklog, t.maxBacklog)
	}
	return ts
}

// MarkEpoch restarts utilization and backlog accounting on every trunk
// (host ports mark their own epochs).
func (f *Fabric) MarkEpoch() {
	for _, lf := range f.leaves {
		for _, t := range lf.up {
			t.st.MarkEpoch()
			t.maxBacklog = 0
		}
		for _, t := range lf.dn {
			t.st.MarkEpoch()
			t.maxBacklog = 0
		}
	}
}

// trunkServe pushes one frame through a trunk station at the leaf's
// current per-spine rate, recording the backlog it queued behind.
func (f *Fabric) trunkServe(lf *leaf, t *trunk, fr *Frame, done func()) {
	if backlog := t.st.BusyUntil().Sub(f.s.Now()); backlog > t.maxBacklog {
		t.maxBacklog = backlog
	}
	t.frames++
	t.bytes += int64(fr.Bytes)
	rate := f.trunkRate(lf) / float64(f.topo.Spines)
	t.st.Serve(sim.TransferTime(int64(fr.Bytes+f.topo.TrunkOverhead), rate), done)
}

// PathLatency returns the zero-load latency of one frame from src to
// dst: the closed-form sum of every serialization, propagation, and
// store-and-forward term on the route (the multi-hop generalization of
// OneWayLatency).
func (f *Fabric) PathLatency(src, dst *Port, bytes int) sim.Duration {
	d := src.txTime(bytes) + src.cfg.PropDelay + f.topo.LeafLatency
	if src.leaf != dst.leaf {
		trunkTx := sim.TransferTime(int64(bytes+f.topo.TrunkOverhead),
			f.trunkRate(f.leaves[src.leaf])/float64(f.topo.Spines))
		d += trunkTx + f.topo.TrunkProp + f.topo.SpineLatency
		trunkTx = sim.TransferTime(int64(bytes+f.topo.TrunkOverhead),
			f.trunkRate(f.leaves[dst.leaf])/float64(f.topo.Spines))
		d += trunkTx + f.topo.TrunkProp + f.topo.LeafLatency
	}
	return d + dst.txTime(bytes) + dst.cfg.PropDelay
}
