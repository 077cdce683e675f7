package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"danas/internal/nas"
	"danas/internal/sim"
)

func genCfg() GenConfig {
	return GenConfig{
		Ops:      2000,
		Files:    8,
		FileSize: 1 << 20,
		IOSize:   16 * 1024,
		ReadFrac: 0.7,
		FileZipf: 0.9,
		OffZipf:  0.9,
		Rate:     5000,
		Seed:     7,
	}
}

// TestGenerateDeterministic checks the generator is a pure function of
// its config: two invocations yield identical traces, and a different
// seed yields a different one.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(genCfg()), Generate(genCfg())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from the same config differ")
	}
	other := genCfg()
	other.Seed++
	if reflect.DeepEqual(a, Generate(other)) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateShape checks bounds and mixes: arrivals non-decreasing,
// offsets in range and aligned, read fraction near the configured mix,
// every file within the configured population.
func TestGenerateShape(t *testing.T) {
	cfg := genCfg()
	tr := Generate(cfg)
	if len(tr) != cfg.Ops {
		t.Fatalf("got %d records, want %d", len(tr), cfg.Ops)
	}
	var reads int
	var prev sim.Duration
	for i, r := range tr {
		if r.At < prev {
			t.Fatalf("record %d: arrival %v before %v", i, r.At, prev)
		}
		prev = r.At
		if r.Off < 0 || r.Off+r.Size > cfg.FileSize {
			t.Fatalf("record %d: range [%d, %d) outside file size %d", i, r.Off, r.Off+r.Size, cfg.FileSize)
		}
		if r.Off%cfg.IOSize != 0 || r.Size != cfg.IOSize {
			t.Fatalf("record %d: off %d size %d not aligned to IO size %d", i, r.Off, r.Size, cfg.IOSize)
		}
		if !strings.HasPrefix(r.File, "f") {
			t.Fatalf("record %d: unexpected file %q", i, r.File)
		}
		if r.Kind == nas.OpRead {
			reads++
		}
	}
	frac := float64(reads) / float64(len(tr))
	if frac < cfg.ReadFrac-0.05 || frac > cfg.ReadFrac+0.05 {
		t.Errorf("read fraction %.3f, want %.2f±0.05", frac, cfg.ReadFrac)
	}
	// Mean arrival rate within 10% of configured.
	rate := float64(len(tr)-1) / tr.Duration().Seconds()
	if rate < cfg.Rate*0.9 || rate > cfg.Rate*1.1 {
		t.Errorf("mean rate %.0f ops/s, want ~%.0f", rate, cfg.Rate)
	}
	if exts := tr.Extents(); len(exts) > cfg.Files {
		t.Errorf("%d distinct files, config allows %d", len(exts), cfg.Files)
	}
	if tr.Bytes() != int64(cfg.Ops)*cfg.IOSize {
		t.Errorf("Bytes() = %d, want %d", tr.Bytes(), int64(cfg.Ops)*cfg.IOSize)
	}
}

// TestGenerateZipfSkews checks the Zipf knobs actually skew: with a hot
// exponent, the most popular file draws far more than its uniform share
// and the most popular block likewise; with exponent 0 the spread is
// roughly uniform.
func TestGenerateZipfSkews(t *testing.T) {
	hotShare := func(zipf float64) (fileShare, blockShare float64) {
		cfg := genCfg()
		cfg.FileZipf, cfg.OffZipf = zipf, zipf
		tr := Generate(cfg)
		files := map[string]int{}
		blocks := map[[2]interface{}]int{}
		for _, r := range tr {
			files[r.File]++
			blocks[[2]interface{}{r.File, r.Off}]++
		}
		var maxF, maxB int
		for _, n := range files {
			maxF = max(maxF, n)
		}
		for _, n := range blocks {
			maxB = max(maxB, n)
		}
		return float64(maxF) / float64(len(tr)), float64(maxB) / float64(len(tr))
	}
	hotF, hotB := hotShare(0.9)
	uniF, _ := hotShare(0)
	// 8 files uniform -> hottest ~12.5%; Zipf(0.9) -> ~35%.
	if hotF < 0.25 {
		t.Errorf("Zipf hottest file drew %.1f%% of ops, want a pronounced hot spot", hotF*100)
	}
	if uniF > 0.20 {
		t.Errorf("uniform hottest file drew %.1f%% of ops, want near 1/8", uniF*100)
	}
	if hotB < 2*uniF/8 {
		t.Errorf("Zipf hottest block drew only %.2f%% of ops", hotB*100)
	}
}

// TestCodecRoundTrip checks Encode/Decode is lossless and the format
// tolerates comments and blank lines.
func TestCodecRoundTrip(t *testing.T) {
	tr := Generate(genCfg())[:64]
	var buf bytes.Buffer
	buf.WriteString("# synthetic trace\n\n")
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("decoded trace differs from encoded")
	}
}

// TestCodecRoundTripCommits checks commit records — including the
// whole-file form with size zero — survive the codec losslessly, both
// hand-built and as emitted by the generator's CommitEvery knob.
func TestCodecRoundTripCommits(t *testing.T) {
	cfg := genCfg()
	cfg.ReadFrac = 0.5
	cfg.CommitEvery = 8
	gen := Generate(cfg)
	commits := 0
	for _, r := range gen {
		if r.Kind == nas.OpCommit {
			commits++
		}
	}
	if commits == 0 {
		t.Fatal("CommitEvery=8 generated no commit records")
	}
	for name, tr := range map[string]Trace{
		"generated": gen[:min(len(gen), 128)],
		"hand-built": {
			{At: 0, Kind: nas.OpWrite, File: "f", Off: 0, Size: 4096},
			{At: 10, Kind: nas.OpCommit, File: "f", Off: 0, Size: 0},    // whole file
			{At: 20, Kind: nas.OpCommit, File: "f", Off: 4096, Size: 8}, // range
		},
	} {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("%s: decoded trace differs from encoded", name)
		}
	}
}

// TestCommitEveryPreservesRWStream checks adding periodic commits does
// not perturb the R/W records: the same config with CommitEvery zero is
// exactly the commit-bearing trace with its commit records removed.
func TestCommitEveryPreservesRWStream(t *testing.T) {
	cfg := genCfg()
	cfg.ReadFrac = 0.5
	plain := Generate(cfg)
	cfg.CommitEvery = 4
	var stripped Trace
	for _, r := range Generate(cfg) {
		if r.Kind != nas.OpCommit {
			stripped = append(stripped, r)
		}
	}
	if !reflect.DeepEqual(plain, stripped) {
		t.Fatal("CommitEvery perturbed the read/write record stream")
	}
}

// TestDecodeUnknownKindTyped is the typed-rejection contract: a record
// kind outside the codec fails with an error wrapping ErrUnknownKind —
// never a silent skip — so foreign traces cannot replay as a different
// workload than they describe.
func TestDecodeUnknownKindTyped(t *testing.T) {
	_, err := Decode(strings.NewReader("12 R f00 0 4096\n13 Q f00 0 4096\n"))
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("Decode unknown kind: err = %v, want ErrUnknownKind", err)
	}
	if _, err := Decode(strings.NewReader("12 R f00 0 4096\n")); err != nil {
		t.Fatalf("known kinds must still decode: %v", err)
	}
	if err := (Trace{{At: 0, Kind: nas.OpKind(9), File: "f", Off: 0, Size: 1}}).Encode(&bytes.Buffer{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("Encode unknown kind: err = %v, want ErrUnknownKind", err)
	}
}

// TestDecodeRejectsMalformed checks each malformed shape errors rather
// than silently yielding records.
func TestDecodeRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"12 R f00 0",                           // too few fields
		"12 R f00 0 4096 extra",                // too many fields
		"12 X f00 0 4096",                      // bad kind
		"-1 R f00 0 4096",                      // negative arrival
		"12 R f00 -4 4096",                     // negative offset
		"12 R f00 0 0",                         // zero size
		"abc R f00 0 4096",                     // non-numeric arrival
		"100 R f00 0 4096\n50 R f00 4096 4096", // arrivals out of order
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", bad)
		}
	}
}

// TestEncodeRejectsUndecodable checks Encode refuses exactly what
// Decode would reject — bad names and out-of-range numeric fields — so
// a trace written successfully is always readable back.
func TestEncodeRejectsUndecodable(t *testing.T) {
	for name, tr := range map[string]Trace{
		"whitespace name":  {{At: 0, File: "has space", Off: 0, Size: 1}},
		"empty name":       {{At: 0, File: "", Off: 0, Size: 1}},
		"negative arrival": {{At: -1, File: "f", Off: 0, Size: 1}},
		"negative offset":  {{At: 0, File: "f", Off: -4, Size: 1}},
		"zero size":        {{At: 0, File: "f", Off: 0, Size: 0}},
		"arrivals out of order": {
			{At: 100, File: "f", Off: 0, Size: 1},
			{At: 50, File: "f", Off: 0, Size: 1},
		},
	} {
		if err := tr.Encode(&bytes.Buffer{}); err == nil {
			t.Errorf("Encode accepted %s", name)
		}
	}
}

// TestExtentsCoverAndOrder checks extents cover every touched range and
// keep first-appearance order.
func TestExtentsCoverAndOrder(t *testing.T) {
	tr := Trace{
		{File: "b", Off: 0, Size: 100},
		{File: "a", Off: 50, Size: 10},
		{File: "b", Off: 400, Size: 100},
	}
	exts := tr.Extents()
	want := []FileExtent{{File: "b", Size: 500}, {File: "a", Size: 60}}
	if !reflect.DeepEqual(exts, want) {
		t.Fatalf("Extents() = %+v, want %+v", exts, want)
	}
}

// FuzzDecode checks the codec's round-trip contract on arbitrary input:
// every trace Decode accepts, Encode must write, and decoding that text
// must give the same trace back.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Generate(genCfg())[:32].Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("0 C f 0 0\n") // a whole-file commit record
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatalf("Encode rejected a decoded trace: %v", err)
		}
		back, err := Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decode of encoded form: %v\n%s", err, enc.String())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("Decode(Encode(t)) != t\nencoded:\n%s", enc.String())
		}
	})
}
