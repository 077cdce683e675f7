package exper

import (
	"danas/internal/metrics"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/vi"
)

// Table2Row is one baseline measurement.
type Table2Row struct {
	Protocol  string
	RTTMicros float64
	MBps      float64
}

// Table2 reproduces the paper's Table 2 — baseline network performance of
// GM, VI (poll and blocking) and UDP/Ethernet over the simulated Myrinet:
// one-byte round-trip time and large-message bandwidth. These are the
// calibration anchors (paper: GM 23us/244MB/s, VI poll 23/244, VI block
// 53/244, UDP 80us/166MB/s).
func Table2(scale Scale) []Table2Row {
	specs := []struct {
		protocol string
		rtt, bw  func() float64
	}{
		{"GM", gmRTT, func() float64 { return gmBW(scale) }},
		{"VI poll", func() float64 { return viRTT(nic.Poll) }, func() float64 { return viBW(scale) }},
		{"VI block", func() float64 { return viRTT(nic.Intr) }, func() float64 { return viBW(scale) }},
		{"UDP/Ethernet", udpRTT, func() float64 { return udpBW(scale) }},
	}
	g := RunGrid(len(specs), 2,
		func(i, j int) string {
			kind := "rtt"
			if j == 1 {
				kind = "bw"
			}
			return "table2/" + specs[i].protocol + "/" + kind
		},
		func(i, j int) float64 {
			if j == 0 {
				return specs[i].rtt()
			}
			return specs[i].bw()
		})
	rows := make([]Table2Row, len(specs))
	for i, s := range specs {
		rows[i] = Table2Row{Protocol: s.protocol, RTTMicros: g.At(i, 0), MBps: g.At(i, 1)}
	}
	return rows
}

// Table2AsTable renders rows for display.
func Table2AsTable(rows []Table2Row) *metrics.Table {
	t := metrics.NewTable("Table 2: baseline network performance",
		"row", "us | MB/s", "RTT(us)", "BW(MB/s)")
	for i, r := range rows {
		t.Set(float64(i+1), "RTT(us)", r.RTTMicros)
		t.Set(float64(i+1), "BW(MB/s)", r.MBps)
		_ = r.Protocol
	}
	return t
}

// baselineCluster is the Table 2 testbed: one client and one server
// with a token file cache, since no measurement touches a file.
func baselineCluster() *Cluster {
	return NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
}

// pingRounds is the number of round trips each RTT averages over.
const pingRounds = 64

// pingPong runs pingRounds round trips — ping on the client, echo on the
// server — and returns the mean round-trip time in microseconds. It
// closes cl.
func pingPong(cl *Cluster, echo, ping func(p *sim.Proc)) float64 {
	defer cl.Close()
	var rtt sim.Duration
	cl.Go("echo", func(p *sim.Proc) {
		for i := 0; i < pingRounds; i++ {
			echo(p)
		}
	})
	cl.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < pingRounds; i++ {
			ping(p)
		}
		rtt = p.Now().Sub(start) / pingRounds
	})
	cl.Run()
	return rtt.Micros()
}

// streamBW streams count messages from source to sink, which returns the
// payload bytes each receive delivered, and returns the bandwidth in MB/s
// up to the last receive. It closes cl.
func streamBW(cl *Cluster, count int, sink func(p *sim.Proc) int64, source func(p *sim.Proc)) float64 {
	defer cl.Close()
	var got int64
	var done sim.Time
	cl.Go("sink", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			got += sink(p)
			done = p.Now()
		}
	})
	cl.Go("source", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			source(p)
		}
	})
	cl.Run()
	return float64(got) / 1e6 / sim.Duration(done).Seconds()
}

// bigMsgBytes is the large-message size of the GM and VI bandwidth runs.
const bigMsgBytes = 512 * 1024

// bigMsgCount is how many large messages the GM and VI bandwidth runs
// stream at the given scale.
func bigMsgCount(scale Scale) int {
	return max(int(scale.bytes(64<<20)/bigMsgBytes), 4)
}

// gmRTT measures a one-byte ping-pong over raw GM messaging with polling,
// the gm_allsize-equivalent.
func gmRTT() float64 {
	cl := baselineCluster()
	a, b := cl.Nodes[0].NIC, cl.Shards[0].NIC
	epA := a.NewEndpoint(77, nic.Poll)
	epB := b.NewEndpoint(77, nic.Poll)
	return pingPong(cl, func(p *sim.Proc) {
		epB.Recv(p)
		b.Send(p, &nic.Message{To: a, Port: 77, HeaderBytes: 1})
	}, func(p *sim.Proc) {
		a.Send(p, &nic.Message{To: b, Port: 77, HeaderBytes: 1})
		epA.Recv(p)
	})
}

// gmBW measures streaming GM bandwidth with large messages.
func gmBW(scale Scale) float64 {
	cl := baselineCluster()
	a, b := cl.Nodes[0].NIC, cl.Shards[0].NIC
	ep := b.NewEndpoint(78, nic.Poll)
	return streamBW(cl, bigMsgCount(scale), func(p *sim.Proc) int64 {
		return ep.Recv(p).PayloadBytes
	}, func(p *sim.Proc) {
		a.Send(p, &nic.Message{To: b, Port: 78, HeaderBytes: 16, PayloadBytes: bigMsgBytes})
	})
}

// viConnect builds the baseline testbed and connects one VI between its
// client and server in the given completion mode.
func viConnect(mode nic.NotifyMode) (*Cluster, *vi.QP, *vi.QP) {
	cl := baselineCluster()
	a, b := cl.Nodes[0].NIC, cl.Shards[0].NIC
	qa, qb := vi.Connect(a, b, a.AllocPort(), b.AllocPort(), mode, mode)
	return cl, qa, qb
}

// viRTT measures the VI ping-pong in the given completion mode.
func viRTT(mode nic.NotifyMode) float64 {
	cl, qa, qb := viConnect(mode)
	return pingPong(cl, func(p *sim.Proc) {
		qb.Recv(p)
		qb.Send(p, &vi.Msg{HeaderBytes: 1})
	}, func(p *sim.Proc) {
		qa.Send(p, &vi.Msg{HeaderBytes: 1})
		qa.Recv(p)
	})
}

// viBW measures VI streaming bandwidth (polling).
func viBW(scale Scale) float64 {
	cl, qa, qb := viConnect(nic.Poll)
	return streamBW(cl, bigMsgCount(scale), func(p *sim.Proc) int64 {
		return qb.Recv(p).PayloadBytes
	}, func(p *sim.Proc) {
		qa.Send(p, &vi.Msg{HeaderBytes: 16, PayloadBytes: bigMsgBytes})
	})
}

// udpRTT measures the one-byte UDP/Ethernet ping-pong (netperf-style).
func udpRTT() float64 {
	cl := baselineCluster()
	srv := cl.Shards[0].Stack
	a := cl.Nodes[0].Stack.Socket(5001)
	b := srv.Socket(5001)
	return pingPong(cl, func(p *sim.Proc) {
		d := b.Recv(p)
		b.SendTo(p, d.From, d.FromPort, 1, nil, 1, 0)
	}, func(p *sim.Proc) {
		a.SendTo(p, srv, 5001, 1, nil, 1, 0)
		a.Recv(p)
	})
}

// udpBW measures UDP streaming receive throughput with MTU-sized
// datagrams, copies on both sides — the netperf UDP_STREAM equivalent.
func udpBW(scale Scale) float64 {
	cl := baselineCluster()
	srv := cl.Shards[0]
	a := cl.Nodes[0].Stack.Socket(5002)
	b := srv.Stack.Socket(5002)
	msg := int64(cl.P.EtherMTU - 46)
	return streamBW(cl, max(int(scale.bytes(32<<20)/msg), 16), func(p *sim.Proc) int64 {
		d := b.Recv(p)
		srv.Host.Copy(p, d.Bytes) // socket buffer -> application buffer
		return d.Bytes
	}, func(p *sim.Proc) {
		a.SendTo(p, srv.Stack, 5002, msg, nil, msg, 0)
	})
}
