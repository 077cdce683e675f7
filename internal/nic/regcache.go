package nic

import (
	"danas/internal/host"
	"danas/internal/sim"
)

// RegEntry is a cached buffer registration: the pinned pages plus the TPT
// segment exporting the buffer for inbound RDMA.
type RegEntry struct {
	Reg *host.Registration
	Seg *Segment
}

// RegCache caches NIC buffer registrations by application buffer identity.
// DAFS and the NFS-hybrid client use it to avoid per-I/O registration
// (§3.1: "avoid registering application buffers with the NIC on each I/O by
// caching registrations"); the pre-posting client pointedly does not.
type RegCache struct {
	n *NIC
	m map[uint64]*RegEntry

	Hits, Misses uint64
}

// NewRegCache creates an empty registration cache on n.
func NewRegCache(n *NIC) *RegCache {
	return &RegCache{n: n, m: make(map[uint64]*RegEntry)}
}

// Get returns the registration for buffer bufID of the given size,
// registering and exporting it on first use (charged to the host CPU).
func (rc *RegCache) Get(p *sim.Proc, bufID uint64, bytes int64) (*RegEntry, error) {
	j := host.Carried(rc.n.h, p)
	var m RegGet
	rc.GetThen(&j, &m, bufID, bytes)
	return m.Entry, m.Err
}

// RegGet is a Get run as a step machine over a host.Job. A caller keeps
// one and reuses it.
type RegGet struct {
	rc    *RegCache
	bufID uint64
	bytes int64
	pin   host.Pin
	stage regStage
	// Entry and Err are the finished Get's registration and failure.
	Entry *RegEntry
	Err   error
}

type regStage uint8

const (
	regUnpinning regStage = iota // releasing the stale entry
	regPin                       // register the buffer
	regPinning                   // registration charged
	regInstall                   // mapping installed on the NIC
)

// GetThen is Get as a step machine over j: it reports true once m.Entry
// or m.Err holds the outcome (at once on a hit); otherwise j waits on a
// charge, and j.Step must call m.Step until it reports true.
func (rc *RegCache) GetThen(j *host.Job, m *RegGet, bufID uint64, bytes int64) bool {
	if e, ok := rc.m[bufID]; ok && e.Reg.Bytes >= bytes {
		rc.Hits++
		m.Entry, m.Err = e, nil
		return true
	}
	rc.Misses++
	*m = RegGet{rc: rc, bufID: bufID, bytes: bytes, stage: regPin}
	if old, ok := rc.m[bufID]; ok {
		// Re-registering a grown buffer: release the stale entry.
		rc.n.TPT.Invalidate(old.Seg)
		m.stage = regUnpinning
		if !rc.n.h.VM.UnregisterThen(j, &m.pin, old.Reg) {
			return false
		}
	}
	return m.Step(j)
}

// Step advances the Get on j, as GetThen.
func (m *RegGet) Step(j *host.Job) bool {
	rc := m.rc
	for {
		switch m.stage {
		case regUnpinning:
			m.pin.Step(j)
			delete(rc.m, m.bufID)
			m.stage = regPin
		case regPin:
			m.stage = regPinning
			if !rc.n.h.VM.RegisterThen(j, &m.pin, m.bytes) {
				return false
			}
		case regPinning:
			m.pin.Step(j)
			if m.pin.Err != nil {
				m.Err = m.pin.Err
				return true
			}
			m.stage = regInstall
			m.Entry = &RegEntry{Reg: m.pin.Reg, Seg: rc.n.TPT.Export(m.bytes)}
			if !j.Compute(rc.n.p.PIOWrite) { // install the mapping on the NIC
				return false
			}
		case regInstall:
			rc.m[m.bufID] = m.Entry
			return true
		}
	}
}

// Len returns the number of cached registrations.
func (rc *RegCache) Len() int { return len(rc.m) }

// DropAll unregisters everything (unmount).
func (rc *RegCache) DropAll(p *sim.Proc) {
	for id, e := range rc.m {
		rc.n.TPT.Invalidate(e.Seg)
		rc.n.h.VM.Unregister(p, e.Reg)
		delete(rc.m, id)
	}
}
