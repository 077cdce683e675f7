package exper

import (
	"testing"
)

// The experiment harness is exercised at tiny scale: these tests assert
// the paper's qualitative claims (who wins, where, by roughly what factor)
// rather than absolute numbers, which bench/danas-bench report.
const tiny = Scale(0.04)

func TestTable2Anchors(t *testing.T) {
	rows := Table2(tiny)
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Protocol] = r
	}
	check := func(name string, rtt, bw float64, tolPct float64) {
		r := byName[name]
		if r.RTTMicros < rtt*(1-tolPct) || r.RTTMicros > rtt*(1+tolPct) {
			t.Errorf("%s RTT %.1fus, want %.0f±%.0f%%", name, r.RTTMicros, rtt, tolPct*100)
		}
		if r.MBps < bw*(1-tolPct) || r.MBps > bw*(1+tolPct) {
			t.Errorf("%s BW %.1f MB/s, want %.0f±%.0f%%", name, r.MBps, bw, tolPct*100)
		}
	}
	// Paper Table 2 within 10%.
	check("GM", 23, 244, 0.10)
	check("VI poll", 23, 244, 0.10)
	check("VI block", 53, 244, 0.10)
	check("UDP/Ethernet", 80, 166, 0.10)
}

func TestTable3Claims(t *testing.T) {
	rows := Table3(tiny)
	get := func(name string) Table3Row {
		for _, r := range rows {
			if r.Mechanism == name {
				return r
			}
		}
		t.Fatalf("row %q missing", name)
		return Table3Row{}
	}
	inline, direct, ordma := get("RPC in-line read"), get("RPC direct read"), get("ORDMA read")
	// ORDMA beats both RPC mechanisms in both columns.
	if ordma.InMemMicros >= direct.InMemMicros || ordma.InCacheMicros >= direct.InCacheMicros {
		t.Errorf("ORDMA (%.0f/%.0f) not faster than direct RPC (%.0f/%.0f)",
			ordma.InMemMicros, ordma.InCacheMicros, direct.InMemMicros, direct.InCacheMicros)
	}
	// Paper's headline: ~36% lower response time than direct RPC (±10 points).
	imp := (direct.InMemMicros - ordma.InMemMicros) / direct.InMemMicros
	if imp < 0.26 || imp > 0.46 {
		t.Errorf("ORDMA improvement over direct RPC = %.0f%%, want ~36%%", imp*100)
	}
	// The cache layer costs more for inline (extra copy) than for the
	// direct-placement mechanisms.
	inlineDelta := inline.InCacheMicros - inline.InMemMicros
	directDelta := direct.InCacheMicros - direct.InMemMicros
	if inlineDelta <= directDelta {
		t.Errorf("inline cache delta %.1f <= direct cache delta %.1f", inlineDelta, directDelta)
	}
}

func TestFig3Claims(t *testing.T) {
	// Larger than `tiny`: at very small file sizes the one-time buffer
	// registrations dominate client CPU and distort Figure 4's tail.
	thr, cpu := Fig34(Scale(0.12))
	// At 64KB+: the RDDP systems near the link, standard NFS far below.
	for _, system := range []string{"NFS pre-posting", "NFS hybrid", "DAFS"} {
		v, ok := thr.Get(64, system)
		if !ok || v < 200 {
			t.Errorf("%s at 64KB = %.0f MB/s, want link-bound (>200)", system, v)
		}
	}
	nfs64, _ := thr.Get(64, "NFS")
	if nfs64 > 90 {
		t.Errorf("standard NFS at 64KB = %.0f MB/s, want copy-bound (<90)", nfs64)
	}
	// Throughput grows (or stays) with block size for every system up to
	// saturation.
	for _, system := range Systems {
		v4, _ := thr.Get(4, system)
		v64, _ := thr.Get(64, system)
		if v64 < v4 {
			t.Errorf("%s throughput fell from %.0f (4KB) to %.0f (64KB)", system, v4, v64)
		}
	}
	// Figure 4: DAFS client CPU lowest; at >=64KB it is below 15%.
	dafs64, _ := cpu.Get(64, "DAFS")
	pp64, _ := cpu.Get(64, "NFS pre-posting")
	hy64, _ := cpu.Get(64, "NFS hybrid")
	if dafs64 >= 15 {
		t.Errorf("DAFS client CPU at 64KB = %.1f%%, paper says <15%%", dafs64)
	}
	if !(dafs64 < hy64 && hy64 < pp64) {
		t.Errorf("client CPU ordering broken: DAFS %.1f, hybrid %.1f, pp %.1f", dafs64, hy64, pp64)
	}
}

func TestFig6Claims(t *testing.T) {
	tbl, _ := Fig6(Scale(0.08))
	for _, ratio := range Fig6HitRatios {
		o, _ := tbl.Get(float64(ratio), "ODAFS")
		d, _ := tbl.Get(float64(ratio), "DAFS")
		if o <= d {
			t.Errorf("at %d%% hit ratio ODAFS %.0f <= DAFS %.0f txns/s", ratio, o, d)
		}
		// Paper: ~34% higher throughput; accept 15-75%.
		if imp := o/d - 1; imp < 0.15 || imp > 0.75 {
			t.Errorf("at %d%%: ODAFS advantage %.0f%%, want ~34%%", ratio, imp*100)
		}
	}
	// Monotone in hit ratio.
	for _, series := range []string{"DAFS", "ODAFS"} {
		v25, _ := tbl.Get(25, series)
		v75, _ := tbl.Get(75, series)
		if v75 <= v25 {
			t.Errorf("%s throughput not increasing with hit ratio: %.0f -> %.0f", series, v25, v75)
		}
	}
}

func TestFig7Claims(t *testing.T) {
	tbl := Fig7(Scale(0.08))
	// ODAFS saturates the link at 4-32KB.
	for _, kb := range []int{4, 8, 16, 32} {
		v, _ := tbl.Get(float64(kb), "ODAFS")
		if v < 220 {
			t.Errorf("ODAFS at %dKB = %.0f MB/s, want link-bound", kb, v)
		}
	}
	// The GM get quirk dips the 64KB point below the 32KB one.
	v64, _ := tbl.Get(64, "ODAFS")
	v32, _ := tbl.Get(32, "ODAFS")
	if v64 >= v32 {
		t.Errorf("GM get quirk missing: ODAFS 64KB %.0f >= 32KB %.0f", v64, v32)
	}
	// DAFS is server-CPU-bound at 4KB and approaches the link by 32KB.
	d4, _ := tbl.Get(4, "DAFS")
	d32, _ := tbl.Get(32, "DAFS")
	if d4 > 150 || d32 < 200 {
		t.Errorf("DAFS shape wrong: %.0f at 4KB, %.0f at 32KB", d4, d32)
	}
	// Polling improves DAFS at 4KB; ODAFS still wins by roughly the
	// paper's 32%.
	dp4, ok := tbl.Get(4, "DAFS (polling)")
	if !ok || dp4 <= d4 {
		t.Errorf("polling did not improve DAFS at 4KB: %.0f vs %.0f", dp4, d4)
	}
	o4, _ := tbl.Get(4, "ODAFS")
	if imp := o4/dp4 - 1; imp < 0.15 || imp > 0.60 {
		t.Errorf("ODAFS advantage over polling DAFS = %.0f%%, want ~32%%", imp*100)
	}
}

func TestAblationsRun(t *testing.T) {
	// Smoke: every ablation completes and produces the expected series.
	if tbl := AblationCapability(tiny); tbl == nil {
		t.Fatal("capability ablation empty")
	} else {
		off, _ := tbl.Get(0, "mean latency (us)")
		on, _ := tbl.Get(1, "mean latency (us)")
		if on <= off {
			t.Errorf("capabilities should add latency: off %.1f on %.1f", off, on)
		}
	}
	if tbl := AblationBatchIO(tiny); tbl == nil {
		t.Fatal("batch ablation empty")
	} else {
		b1, _ := tbl.Get(1, "client us/read")
		b64, _ := tbl.Get(64, "client us/read")
		if b64 >= b1 {
			t.Errorf("batching should amortize client cost: %.1f vs %.1f", b1, b64)
		}
	}
}

func TestAblationTLBMonotone(t *testing.T) {
	tbl := AblationTLB(Scale(0.02))
	lo, _ := tbl.Get(9, "mean latency (us)")
	hi, _ := tbl.Get(9000, "mean latency (us)")
	if hi <= lo {
		t.Errorf("latency should grow with TLB miss cost: %.0f vs %.0f", lo, hi)
	}
	miss, _ := tbl.Get(9, "miss rate %")
	if miss < 50 {
		t.Errorf("thrashing config should miss heavily, got %.0f%%", miss)
	}
}

func TestAblationWriteRatioShrinksAdvantage(t *testing.T) {
	tbl := AblationWriteRatio(Scale(0.05))
	adv := func(pct float64) float64 {
		o, _ := tbl.Get(pct, "ODAFS")
		d, _ := tbl.Get(pct, "DAFS")
		return o / d
	}
	allReads, halfWrites := adv(100), adv(50)
	if allReads <= 1.0 {
		t.Errorf("ODAFS should win at 100%% reads: advantage %.2f", allReads)
	}
	if halfWrites >= allReads {
		t.Errorf("write traffic should shrink ODAFS's advantage: %.2f -> %.2f", allReads, halfWrites)
	}
}

func TestAblationSuccessRateConverges(t *testing.T) {
	tbl := AblationSuccessRate(Scale(0.02))
	o100, _ := tbl.Get(100, "ODAFS")
	d100, _ := tbl.Get(100, "DAFS")
	o25, _ := tbl.Get(25, "ODAFS")
	d25, _ := tbl.Get(25, "DAFS")
	if o100 <= d100 {
		t.Errorf("with valid refs ODAFS %.1f <= DAFS %.1f", o100, d100)
	}
	// At low validity both are disk-dominated: the gap narrows (§4.2.2).
	gapHigh := o100 / d100
	gapLow := o25 / d25
	if gapLow >= gapHigh {
		t.Errorf("ODAFS advantage should shrink with success rate: %.2f -> %.2f", gapHigh, gapLow)
	}
}
