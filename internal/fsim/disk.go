package fsim

import (
	"danas/internal/host"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Disk models the server's disk subsystem as a single FIFO device with
// positioning time plus media transfer. The paper's experiments run warm
// (server cache hits), so the disk matters only for miss-path experiments
// (the ORDMA success-rate ablation) and PostMark file-set creation.
type Disk struct {
	st   *sim.Station
	seek sim.Duration
	bw   float64

	Reads, Writes uint64
	BytesRead     int64
	BytesWritten  int64
}

// NewDisk creates a disk with the given average positioning time and
// media bandwidth (bytes/s).
func NewDisk(s *sim.Scheduler, name string, seek sim.Duration, bw float64) *Disk {
	return &Disk{st: sim.NewStation(s, name), seek: seek, bw: bw}
}

// Read blocks p for one read I/O of n bytes. Wall time (device
// queueing included) attributes to the active span's disk phase.
func (d *Disk) Read(p *sim.Proc, n int64) {
	d.Reads++
	d.BytesRead += n
	d.serve(p, n)
}

// ReadThen is the callback twin of Read (see host.Job).
func (d *Disk) ReadThen(j *host.Job, n int64) bool {
	d.Reads++
	d.BytesRead += n
	return j.Then(d.st, d.seek+sim.TransferTime(n, d.bw), obs.PhaseDisk)
}

// Write blocks p for one write I/O of n bytes. Wall time (device
// queueing included) attributes to the active span's disk phase.
func (d *Disk) Write(p *sim.Proc, n int64) {
	d.Writes++
	d.BytesWritten += n
	d.serve(p, n)
}

// serve blocks p for one I/O, attributing the wall time to the active
// span's disk phase (write-behind brackets rebucket it into stall).
func (d *Disk) serve(p *sim.Proc, n int64) {
	svc := d.seek + sim.TransferTime(n, d.bw)
	sp := obs.Active(p)
	if sp == nil {
		d.st.Wait(p, svc)
		return
	}
	t0 := p.Now()
	d.st.Wait(p, svc)
	sp.Add(obs.PhaseDisk, p.Now().Sub(t0))
}

// Utilization reports the device utilization since its last epoch.
func (d *Disk) Utilization() float64 { return d.st.Utilization() }

// MarkEpoch restarts utilization accounting at the current instant.
func (d *Disk) MarkEpoch() { d.st.MarkEpoch() }
