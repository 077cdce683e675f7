package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// shareLayers are the buckets host CPU is charged to. A profile sample
// goes to the innermost frame of a danas/internal package, so
// allocation and channel work a layer triggers counts against it. The
// sim kernel is split three ways (see simBucket); packages not listed,
// and the benchmark's own code, go to "other". Samples with no danas
// frame go to "gc" (collector workers) or "runtime" (mostly the Go
// scheduler switching goroutines, the other half of each Proc handoff).
var shareLayers = []string{
	"sim.queue", "sim.handoff", "sim.other",
	"netsim", "nic", "vi", "udpip", "rpc", "wire", "nfs", "dafs",
	"core", "cache", "stripe", "nas", "wb", "fsim", "host",
	"workload", "postmark", "metrics", "obs",
	"other", "gc", "runtime",
}

// layerProfile accumulates CPU profile samples by layer over any number
// of profiled intervals.
type layerProfile struct {
	buf     bytes.Buffer
	samples map[string]int64
	total   int64
}

func (lp *layerProfile) start() error {
	lp.buf.Reset()
	return pprof.StartCPUProfile(&lp.buf)
}

func (lp *layerProfile) stop() error {
	pprof.StopCPUProfile()
	stacks, counts, err := decodeProfile(lp.buf.Bytes())
	if err != nil {
		return err
	}
	if lp.samples == nil {
		lp.samples = make(map[string]int64)
	}
	for i, st := range stacks {
		lp.samples[classify(st)] += counts[i]
		lp.total += counts[i]
	}
	return nil
}

// share returns the layer's percentage of all samples.
func (lp *layerProfile) share(layer string) float64 {
	if lp == nil || lp.total == 0 {
		return 0
	}
	return float64(lp.samples[layer]) * 100 / float64(lp.total)
}

const danasPrefix = "danas/internal/"

// classify names the layer a sample's stack (innermost frame first) is
// charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		pkg, ok := strings.CutPrefix(fn, danasPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "sim" {
			return simBucket(strings.TrimPrefix(fn, danasPrefix+"sim."))
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "runtime"
}

// simBucket splits the kernel: "handoff" is the coroutine switch
// between the event loop and a Proc, "queue" the event heap and the
// loop that posts to and pops from it, "other" the rest (stations,
// resources, signals, queues). It keys on function names, so a kernel
// rewrite that renames them must update it.
func simBucket(fn string) string {
	for _, p := range []string{"(*Scheduler).wake", "(*Proc).block", "(*Proc).yieldToLoop", "(*Proc).waitResume", "(*Proc).run", "(*Scheduler).Go"} {
		if strings.HasPrefix(fn, p) {
			return "sim.handoff"
		}
	}
	for _, p := range []string{"eventHeap.", "(*eventHeap).", "(*Scheduler).post", "(*Scheduler).runUntil", "(*Scheduler).Run", "(*Scheduler).After", "(*Scheduler).At"} {
		if strings.HasPrefix(fn, p) {
			return "sim.queue"
		}
	}
	return "sim.other"
}

var errProfile = errors.New("malformed CPU profile")

// decodeProfile reads a gzipped pprof CPU profile: each sample's stack
// as function names, innermost (and innermost inlined) first, and its
// sample count. It understands the subset of profile.proto the Go
// runtime writes.
func decodeProfile(data []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errProfile, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errProfile, err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcNames := map[uint64]int64{}   // function id -> string table index
	var strs []string
	top := pb{b: raw}
	for top.next() {
		switch top.field {
		case 2: // Sample
			m := pb{b: top.bytes()}
			var s sample
			for m.next() {
				switch m.field {
				case 1:
					s.locs = m.uints(s.locs)
				case 2:
					vals := m.uints(nil)
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
				default:
					m.skip()
				}
			}
			samples = append(samples, s)
		case 4: // Location
			m := pb{b: top.bytes()}
			var id uint64
			var fns []uint64
			for m.next() {
				switch m.field {
				case 1:
					id = m.varint()
				case 4: // Line
					l := pb{b: m.bytes()}
					for l.next() {
						if l.field == 1 {
							fns = append(fns, l.varint())
						} else {
							l.skip()
						}
					}
				default:
					m.skip()
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			m := pb{b: top.bytes()}
			var id uint64
			var name int64
			for m.next() {
				switch m.field {
				case 1:
					id = m.varint()
				case 2:
					name = int64(m.varint())
				default:
					m.skip()
				}
			}
			funcNames[id] = name
		case 6: // string table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip()
		}
	}
	if top.err != nil {
		return nil, nil, top.err
	}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		stacks = append(stacks, stack)
		counts = append(counts, s.count)
	}
	return stacks, counts, nil
}

// pb walks the fields of one protobuf message.
type pb struct {
	b     []byte
	field int
	wire  int
	err   error
}

// next advances to the next field, reporting false at the end or on a
// malformed message.
func (p *pb) next() bool {
	if p.err != nil || len(p.b) == 0 {
		return false
	}
	key := p.varint()
	p.field, p.wire = int(key>>3), int(key&7)
	return p.err == nil
}

func (p *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			break
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errProfile
	return 0
}

// bytes returns a length-delimited field's payload.
func (p *pb) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.err = errProfile
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// uints appends a repeated integer field, packed or not.
func (p *pb) uints(dst []uint64) []uint64 {
	if p.wire == 2 {
		q := pb{b: p.bytes()}
		for len(q.b) > 0 && q.err == nil {
			dst = append(dst, q.varint())
		}
		if q.err != nil {
			p.err = q.err
		}
		return dst
	}
	return append(dst, p.varint())
}

// skip discards the current field's value.
func (p *pb) skip() {
	switch p.wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.err = errProfile
	}
}

func (p *pb) advance(n int) {
	if n > len(p.b) {
		p.err = errProfile
		return
	}
	p.b = p.b[n:]
}
