package stripe

import (
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

// Group is one shard's replica set behind a single nas.Client face:
// reads and namespace lookups go to the serving copy, writes reach
// every live copy under the ack policy, commits run on every live copy
// so each session resolves its own verifier, and a serving copy that
// stops answering fails over (the embedded Set's rules).
//
// Used as the per-shard sub-clients of the striped Client, a Group
// turns S shards × (R+1) copies into the flat S-wide fleet the striping
// layer already understands: replication is invisible above it.
type Group struct {
	*Set[Session]
	idle *setTask[Session] // the task blocking calls drive, while none runs
}

var _ nas.Client = (*Group)(nil)

// NewGroup builds the replica set from its copy sessions (copy 0 =
// primary, all retry-armed by the caller — a session that cannot time
// out can never trigger failover). The set records every open name's
// per-copy handles.
func NewGroup(policy AckPolicy, copies []Session) *Group {
	set := NewSet(policy, len(copies), copies, nil)
	set.handles = make(map[string][]*nas.Handle)
	return &Group{Set: set}
}

// Name implements nas.Client.
func (g *Group) Name() string { return g.copies[0].Name() }

// NewTask implements nas.Client: the set's task (see setTask), whose
// opens and closes run the group's Open and Close, on every live copy.
func (g *Group) NewTask() nas.Task { return g.newTask(g) }

// run drives a task of the group's through op from p.
func (g *Group) run(p *sim.Proc, op nas.Op) (int64, error) {
	t := g.idle
	if t == nil {
		t = g.newTask(g)
	}
	g.idle = nil
	j := host.Carried(nil, p) // the copies' tasks charge on their own hosts
	nas.RunOp(t, &j, &op)
	g.idle = t
	return t.n, t.err
}

// Open implements nas.Client: the name resolves on every live copy so
// each session holds its own handle (failover targets included).
func (g *Group) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	return g.nameOp(p, name, Session.Open)
}

// Create implements nas.Client: the name is created on every live copy
// (the namespace, like the data, is replicated).
func (g *Group) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return g.nameOp(p, name, Session.Create)
}

// nameOp runs Set.NameOp and records the per-copy handles under name.
func (g *Group) nameOp(p *sim.Proc, name string,
	op func(in Session, wp *sim.Proc, name string) (*nas.Handle, error)) (*nas.Handle, error) {
	hs, err := g.NameOp(p, name, op)
	if err != nil {
		return nil, err
	}
	g.handles[name] = hs
	return hs[g.serving], nil
}

// Getattr implements nas.Client (serving copy, with failover).
func (g *Group) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	var size int64
	err := g.Do(p, func(wp *sim.Proc, copy int, in Session) error {
		var err error
		size, err = in.Getattr(wp, g.copyHandle(h, copy))
		return err
	})
	return size, err
}

// Read implements nas.Client (serving copy, with failover): reads need
// only one copy, and keeping them on one session preserves that
// session's cache and transport state.
func (g *Group) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return g.run(p, nas.Op{Kind: nas.OpRead, H: h, Off: off, N: n, BufID: bufID})
}

// Write implements nas.Client: the write reaches every live copy, the
// ack policy decides how many acknowledgements complete it.
func (g *Group) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return g.run(p, nas.Op{Kind: nas.OpWrite, H: h, Off: off, N: n, BufID: bufID})
}

// WriteData implements nas.Client, replicating like Write.
func (g *Group) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	return g.Set.Write(p, "grp-wdata", func(wp *sim.Proc, copy int, in Session) (int64, error) {
		return in.WriteData(wp, g.copyHandle(h, copy), off, data)
	})
}

// Commit implements nas.Client: every live copy commits — each session
// resolves its own verifier and re-issues its own lost ranges — with
// the same ack requirement as writes, the serving copy authoritative.
func (g *Group) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	_, err := g.run(p, nas.Op{Kind: nas.OpCommit, H: h, Off: off, N: n})
	return err
}

// Remove implements nas.Client: the name is removed from every live
// copy under the ack policy (Set.Remove).
func (g *Group) Remove(p *sim.Proc, name string) error {
	delete(g.handles, name)
	return g.Set.Remove(p, name)
}

// Close implements nas.Client: every live copy's handle is released.
func (g *Group) Close(p *sim.Proc, h *nas.Handle) error {
	hs := g.handles[h.Name]
	delete(g.handles, h.Name)
	return g.Fan(p, "grp-close", func(wp *sim.Proc, copy int, in Session) error {
		ch := h
		if hs != nil && copy < len(hs) && hs[copy] != nil {
			ch = hs[copy]
		}
		return in.Close(wp, ch)
	})
}
