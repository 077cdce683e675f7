package core

import (
	"fmt"
	"testing"

	"danas/internal/dafs"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
)

// raceEnabled is set when the race detector instruments the build; it
// allocates on its own, so allocation budgets are not checked then.
var raceEnabled bool

// shardRig is a striped fleet on one switch: one optimistic DAFS server
// machine per shard, each holding a warm copy of the same file (the
// namespace is replicated across shards), and one client machine.
type shardRig struct {
	s       *sim.Scheduler
	servers [][]*dafs.Server
	nic     *nic.NIC
}

func newShardRig(t *testing.T, shards int, fileSize int64) *shardRig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	r := &shardRig{s: s}
	for i := range shards {
		name := "server" + string(rune('A'+i))
		sn := nic.New(host.New(s, name, p), fab.AddPort(name, cfg))
		fs := fsim.NewFS()
		sc := fsim.NewServerCache(fs, fsim.NewDisk(s, name+"-disk", p.DiskSeek, p.DiskBW), 4096, 1<<12)
		srv := dafs.NewServer(s, sn, fs, sc, true) // exports what Warm inserts
		f, _ := fs.Create("data", fileSize)
		sc.Warm(f)
		r.servers = append(r.servers, []*dafs.Server{srv})
	}
	r.nic = nic.New(host.New(s, "client", p), fab.AddPort("client", cfg))
	return r
}

// mount mounts a cached ODAFS client over every shard, striped by
// 4 KB units (one cache block per unit).
func (r *shardRig) mount(cfg Config) *Client {
	layout := stripe.Layout{Shards: len(r.servers), Unit: 4096}
	return NewReplicatedClient(r.s, r.nic, r.servers, nic.Poll, cfg, layout, stripe.AckSync)
}

// TestStripedCachedAllocations pins the allocations of the cached
// client's striped paths on a 4-shard fleet — a 16 KB write (one span
// per shard), a range commit over the same bytes, a warm 16 KB read
// (four ORDMA gets, the data blocks evicted but their references
// kept), a 4 KB cache hit submitted and reaped through the async facade
// and the same hit through the blocking Read, an open under a delegation
// — and of mounting one client over 8 shards. Client and servers
// count together: a process serves one operation per token it takes
// from a queue, so a round allocates only what the operation does. A
// striping layer that allocates per span or per shard shows here before
// it shows in a fleet's setup time; so does one that stops recycling
// the span, fan-out, fetch, call, message or RDMA records.
func TestStripedCachedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations vary from run to run")
	}
	const size = 16384
	r := newShardRig(t, 4, 1<<20)
	c := r.mount(Config{BlockSize: 4096, DataBlocks: 4, Headers: 64, UseORDMA: true})
	var h *nas.Handle
	r.s.Go("open", func(p *sim.Proc) { h, _ = c.Open(p, "data") })
	r.s.Run()
	ac := c.Async(2)
	ops := []struct {
		name   string
		budget float64
		run    func(p *sim.Proc, round int) error
	}{
		{"write", 0, func(p *sim.Proc, _ int) error {
			_, err := c.Write(p, h, 0, size, 1)
			return err
		}},
		{"commit", 27, func(p *sim.Proc, _ int) error { return c.Commit(p, h, 0, size) }},
		// Alternating between two ranges, each read evicts the other's
		// four data blocks, so every read fetches through the directory.
		{"warm read", 6, func(p *sim.Proc, round int) error {
			_, err := c.Read(p, h, int64(round%2)*size, size, 1)
			return err
		}},
		// A cache hit through the async facade: its operation records,
		// with their jobs and bound callbacks, are reused.
		{"async hit read", 0, func(p *sim.Proc, round int) error {
			hits := c.Stats().LocalHits
			tag := ac.Submit(p, nas.Op{Kind: nas.OpRead, H: h, N: 4096, BufID: 1})
			comps := ac.Wait(p)
			switch {
			case len(comps) != 1 || comps[0].Tag != tag || comps[0].N != 4096:
				return fmt.Errorf("completions %+v, want tag %d's", comps, tag)
			case round > 0 && c.Stats().LocalHits == hits:
				return fmt.Errorf("round %d missed the cache", round)
			}
			return comps[0].Err
		}},
		// The same hit through the blocking Read, which looks the block
		// up on its caller's job and takes no op record.
		{"blocking hit read", 0, func(p *sim.Proc, round int) error {
			hits := c.Stats().LocalHits
			got, err := c.Read(p, h, 0, 4096, 1)
			switch {
			case err != nil:
				return err
			case got != 4096:
				return fmt.Errorf("read %d bytes, want 4096", got)
			case round > 0 && c.Stats().LocalHits == hits:
				return fmt.Errorf("round %d missed the cache", round)
			}
			return nil
		}},
		// An open under the delegation the first open was granted.
		{"delegated open", 0, func(p *sim.Proc, _ int) error {
			opens := c.Stats().LocalOpens
			if _, err := c.Open(p, "data"); err != nil {
				return err
			}
			if c.Stats().LocalOpens == opens {
				return fmt.Errorf("open went to the servers")
			}
			return nil
		}},
	}
	for _, op := range ops {
		tokens := sim.NewQueue[int](r.s, "tokens")
		round := 0
		r.s.Go(op.name, func(p *sim.Proc) {
			for {
				tokens.Get(p)
				if err := op.run(p, round); err != nil {
					t.Errorf("%s: %v", op.name, err)
				}
				round++
			}
		})
		step := func() { tokens.Put(0); r.s.Run() }
		for range 8 {
			step()
		}
		got := testing.AllocsPerRun(50, step)
		t.Logf("%s: %.1f allocations", op.name, got)
		if got > op.budget {
			t.Errorf("%s allocates %.1f times, budget %.0f", op.name, got, op.budget)
		}
	}
	if st := c.Stats(); st.ORDMASuccesses == 0 {
		t.Errorf("warm reads never used ORDMA: %+v", st)
	}

	wide := newShardRig(t, 8, 1<<20)
	cfg := Config{BlockSize: 4096, DataBlocks: 64, Headers: 64, UseORDMA: true}
	got := testing.AllocsPerRun(20, func() { wide.mount(cfg) })
	t.Logf("mount over 8 shards: %.1f allocations", got)
	if budget := 258.0; got > budget {
		t.Errorf("mounting over 8 shards allocates %.1f times, budget %.0f", got, budget)
	}
}
