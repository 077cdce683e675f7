package nas

import (
	"danas/internal/host"
	"danas/internal/sim"
)

// Driver is a client's blocking side over its task (see Task), written
// once for every client: each blocking method takes an idle record,
// drives its task with a job carried by the caller's process, reads the
// task's Result and returns the record. A task on a carried job makes
// exactly the kernel calls of the client's straight-line method, and
// sets the job's host in its first stage, so the driver needs none. A
// client embeds a Driver for its Open, Close, Read, Write, Commit and
// NewTask; Take and Put serve its own paths that need a record.
//
// A blocking call made from inside another call's task body (a commit
// re-issuing the writes a server crash lost, say) takes a record of its
// own, since the outer one is not returned until its call is done. A
// task drops its request's references (handles, payloads, completion
// records) when its operation finishes, and Put drops the job's
// process, so an idle record pins nothing but its last outcome.
//
// O is the client, whose tasks newTask makes: a driver keeps the client
// and a plain function rather than a closure over it, so mounting a
// client allocates nothing for its driver.
type Driver[O any, T Task] struct {
	owner   O
	newTask func(O) T
	idle    []*Carried[T]
}

// Carried is a driver's record: a task and the job a blocking call
// carries it on.
type Carried[T Task] struct {
	Task T
	Job  host.Job
}

// NewDriver returns a driver whose records run the tasks newTask makes
// for owner.
func NewDriver[O any, T Task](owner O, newTask func(O) T) Driver[O, T] {
	return Driver[O, T]{owner: owner, newTask: newTask}
}

// NewTask implements Client: a task of the driver's kind, for one caller
// to keep.
func (d *Driver[O, T]) NewTask() Task { return d.newTask(d.owner) }

// Take returns an idle record, or a new one, its job carried by p, with
// p's active span and no host yet.
func (d *Driver[O, T]) Take(p *sim.Proc) *Carried[T] {
	var c *Carried[T]
	if k := len(d.idle); k > 0 {
		c = d.idle[k-1]
		d.idle = d.idle[:k-1]
	} else {
		c = &Carried[T]{Task: d.newTask(d.owner)}
	}
	c.Job = host.Carried(nil, p)
	return c
}

// Put returns a record whose call is done, dropping its job.
func (d *Driver[O, T]) Put(c *Carried[T]) {
	c.Job = host.Job{}
	d.idle = append(d.idle, c)
}

// Open implements Client.
func (d *Driver[O, T]) Open(p *sim.Proc, name string) (*Handle, error) {
	c := d.Take(p)
	c.Task.Open(&c.Job, name)
	_, h, err := c.Task.Result()
	d.Put(c)
	return h, err
}

// Close implements Client.
func (d *Driver[O, T]) Close(p *sim.Proc, h *Handle) error {
	c := d.Take(p)
	c.Task.Close(&c.Job, h)
	_, err := d.done(c)
	return err
}

// Read implements Client.
func (d *Driver[O, T]) Read(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error) {
	c := d.Take(p)
	c.Task.Read(&c.Job, h, off, n, bufID)
	return d.done(c)
}

// Write implements Client.
func (d *Driver[O, T]) Write(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error) {
	c := d.Take(p)
	c.Task.Write(&c.Job, h, off, n, bufID)
	return d.done(c)
}

// Commit implements Client.
func (d *Driver[O, T]) Commit(p *sim.Proc, h *Handle, off, n int64) error {
	c := d.Take(p)
	c.Task.Commit(&c.Job, h, off, n)
	_, err := d.done(c)
	return err
}

// done returns a finished call's bytes moved and error, and its record.
func (d *Driver[O, T]) done(c *Carried[T]) (int64, error) {
	n, _, err := c.Task.Result()
	d.Put(c)
	return n, err
}
