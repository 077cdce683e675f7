// Package nas defines the common client-side file access interface that
// all five evaluated systems implement: standard NFS, NFS pre-posting
// (RDDP-RPC), NFS hybrid (RDDP-RDMA), DAFS, and Optimistic DAFS. The
// experiment harness and examples program against this interface.
package nas

import (
	"errors"

	"danas/internal/sim"
)

// Handle is an open file.
type Handle struct {
	FH   uint64 // server file handle
	Size int64  // size at open time
	Name string
}

// Client is a mounted NAS client. bufID identifies the application buffer
// used for a transfer so clients that cache NIC registrations can reuse
// them (DAFS and NFS-hybrid do; NFS pre-posting deliberately does not,
// registering on the fly per I/O as the paper describes).
type Client interface {
	// Name identifies the protocol variant (for reports).
	Name() string
	// Open resolves a file by name.
	Open(p *sim.Proc, name string) (*Handle, error)
	// Read transfers n bytes at off into the buffer identified by bufID.
	Read(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error)
	// Write transfers n bytes at off from the buffer identified by bufID.
	Write(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error)
	// Getattr fetches current attributes (size).
	Getattr(p *sim.Proc, h *Handle) (int64, error)
	// Create makes a new file.
	Create(p *sim.Proc, name string) (*Handle, error)
	// Remove deletes a file.
	Remove(p *sim.Proc, name string) error
	// Close releases the handle.
	Close(p *sim.Proc, h *Handle) error
	// WriteData writes real bytes (for workloads that verify content);
	// timing is charged like Write plus the payload copy.
	WriteData(p *sim.Proc, h *Handle, off int64, data []byte) (int64, error)
	// Commit makes earlier unstable writes to [off, off+n) durable on
	// the server's disk, NFSv3-style (n <= 0 commits the whole file). A
	// client that detects a changed server write verifier — the server
	// crashed and lost uncommitted dirty data — re-issues the lost
	// writes stably before returning. Against a server without
	// write-behind it is a no-op.
	Commit(p *sim.Proc, h *Handle, off, n int64) error
	// NewTask returns a task running the client's operations as step
	// machines (see Task), for one caller to keep and reuse.
	NewTask() Task
}

// ContentSource resolves file bytes by handle — the simulation's content
// back-channel. Transfers are timed by Client.Read/Write; the actual bytes
// live in the server file system and are materialized through this
// interface once the simulated transfer has completed.
type ContentSource interface {
	ReadAtFH(fh uint64, p []byte, off int64) (int, error)
}

// ReadData performs a timed read via c and then materializes the bytes
// from src into buf. It returns the bytes read; on a ContentSource
// failure the partial count materialized before the error is returned
// alongside it rather than discarded.
func ReadData(p *sim.Proc, c Client, src ContentSource, h *Handle, off int64, buf []byte, bufID uint64) (int, error) {
	n, err := c.Read(p, h, off, int64(len(buf)), bufID)
	if err != nil {
		return int(n), err
	}
	return src.ReadAtFH(h.FH, buf[:n], off)
}

// ErrStale is returned for operations on handles the server no longer
// recognizes.
var ErrStale = errors.New("nas: stale file handle")

// ErrNoEnt is returned when a name does not resolve.
var ErrNoEnt = errors.New("nas: no such file")

// ErrExist is returned when creating an existing name.
var ErrExist = errors.New("nas: file exists")

// ErrIO is returned for generic remote failures.
var ErrIO = errors.New("nas: i/o error")

// ErrTimeout is returned when an operation gives up after bounded
// retries against an unresponsive server — the typed, countable outcome
// of a shard crash or partition (never a hang, never a panic).
var ErrTimeout = errors.New("nas: operation timed out")
