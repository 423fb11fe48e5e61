package codec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// ladderTestRungs builds a 3-rung 64x64 → 32x32 → 16x16 chain with fresh
// searcher instances per rung (the Rung contract).
func ladderTestRungs(mut func(*Config)) []Rung {
	sizes := []frame.Size{{W: 64, H: 64}, {W: 32, H: 32}, {W: 16, H: 16}}
	rungs := make([]Rung, len(sizes))
	for i, sz := range sizes {
		cfg := Config{Qp: 14, SearchRange: 7, IntraPeriod: 4, Searcher: &search.PBM{}}
		if mut != nil {
			mut(&cfg)
		}
		rungs[i] = Rung{Size: sz, Cfg: cfg}
	}
	return rungs
}

// TestLadderBitIdenticalAcrossModes pins the ladder determinism contract:
// every rung's packet stream is byte-identical whether the rungs analyse
// serially, on private wavefront workers, with the cross-frame pipeline,
// or on a shared cross-session pool — and each rung decodes independently
// with the unmodified packet decoder.
func TestLadderBitIdenticalAcrossModes(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.Size{W: 64, H: 64}, 8, 5)

	pool := NewPool(3)
	defer pool.Close()
	modes := []struct {
		name string
		mut  func(*Config)
	}{
		{"serial", nil},
		{"workers", func(c *Config) { c.Workers = 4 }},
		{"pipeline", func(c *Config) { c.Pipeline = true }},
		{"pool", func(c *Config) { c.Pool = pool; c.Pipeline = true }},
	}

	var base [][][]byte
	for _, m := range modes {
		packets, stats, err := EncodeLadder(ladderTestRungs(m.mut), frames)
		if err != nil {
			t.Fatalf("%s: EncodeLadder: %v", m.name, err)
		}
		if len(packets) != 3 {
			t.Fatalf("%s: %d rungs, want 3", m.name, len(packets))
		}
		for r, pkts := range packets {
			if len(pkts) != len(frames)+1 {
				t.Fatalf("%s rung %d: %d packets, want %d", m.name, r, len(pkts), len(frames)+1)
			}
			if stats[r] == nil || len(stats[r].Frames) != len(frames) {
				t.Fatalf("%s rung %d: missing stats", m.name, r)
			}
		}
		if base == nil {
			base = packets
			continue
		}
		for r := range packets {
			for i := range packets[r] {
				if !bytes.Equal(packets[r][i], base[r][i]) {
					t.Fatalf("%s rung %d packet %d differs from serial", m.name, r, i)
				}
			}
		}
	}

	// Every rung decodes independently with the unmodified decoder.
	wantSizes := []frame.Size{{W: 64, H: 64}, {W: 32, H: 32}, {W: 16, H: 16}}
	for r, pkts := range base {
		dec, err := NewPacketDecoder(pkts[0])
		if err != nil {
			t.Fatalf("rung %d: header: %v", r, err)
		}
		if dec.Size() != wantSizes[r] {
			t.Fatalf("rung %d: decodes as %v, want %v", r, dec.Size(), wantSizes[r])
		}
		for i, pkt := range pkts[1:] {
			f, err := dec.DecodePacket(pkt)
			if err != nil {
				t.Fatalf("rung %d frame %d: decode: %v", r, i, err)
			}
			if f.Size() != wantSizes[r] {
				t.Fatalf("rung %d frame %d: size %v", r, i, f.Size())
			}
		}
	}
}

// TestLadderSingleRungMatchesEncodePackets: a 1-rung ladder is exactly
// the plain packet encode, so the ladder path cannot disturb
// single-rendition output.
func TestLadderSingleRungMatchesEncodePackets(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 6, 9)
	cfg := Config{Qp: 16, SearchRange: 7, Searcher: &search.PBM{}}
	want, _, err := EncodePackets(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EncodeLadder([]Rung{{Size: frame.SQCIF, Cfg: Config{Qp: 16, SearchRange: 7, Searcher: &search.PBM{}}}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != len(want) {
		t.Fatalf("packet count %d vs %d", len(got[0]), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[0][i], want[i]) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

// TestLadderRungsMatchIndependentEncodes: every rung is a plain
// EncodeStream fed by the downscale chain, so rung r's packets must be
// byte-identical to EncodePackets of the source downscaled r times —
// including a rate-controlled rung, whose frame-lag controller sees only
// its own rung's bits.
func TestLadderRungsMatchIndependentEncodes(t *testing.T) {
	top := frame.Size{W: 128, H: 128}
	frames := video.Generate(video.TableTennis, top, 10, 5)
	cfgs := []Config{
		{Qp: 14, SearchRange: 15, Searcher: &search.PBM{}},
		{Qp: 14, SearchRange: 15, Searcher: &search.PBM{}, TargetKbps: 60, FPS: 30},
		{Qp: 14, SearchRange: 15, Searcher: &search.PBM{}},
	}
	rungs := make([]Rung, len(cfgs))
	for r, cfg := range cfgs {
		rungs[r] = Rung{Size: frame.Size{W: top.W >> r, H: top.H >> r}, Cfg: cfg}
	}
	got, _, err := EncodeLadder(rungs, frames)
	if err != nil {
		t.Fatal(err)
	}
	in := frames
	for r, cfg := range cfgs {
		if r > 0 {
			down := make([]*frame.Frame, len(in))
			for i, f := range in {
				down[i] = frame.DownscaleFrame(f)
			}
			in = down
		}
		cfg.Searcher = &search.PBM{}
		want, _, err := EncodePackets(cfg, in)
		if err != nil {
			t.Fatalf("rung %d: %v", r, err)
		}
		if !packetsEqual(got[r], want) {
			t.Errorf("rung %d: ladder packets differ from an independent encode", r)
		}
	}
}

func TestParseLadderSpec(t *testing.T) {
	specs, err := ParseLadderSpec("64x64@300,32x32@120,16x16")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].TargetKbps != 300 || specs[2].TargetKbps != 0 {
		t.Fatalf("parsed %+v", specs)
	}
	if specs[1].Size != (frame.Size{W: 32, H: 32}) {
		t.Fatalf("rung 1 size %v", specs[1].Size)
	}
	for _, bad := range []string{
		"",
		"64x64,48x48",   // not a 2:1 chain
		"64x64,32x32@x", // bad bitrate
		"65x64",         // not macroblock-aligned
		"64",            // not WxH
	} {
		if _, err := ParseLadderSpec(bad); err == nil {
			t.Errorf("ParseLadderSpec(%q) accepted", bad)
		}
	}
}

// TestLadderPacketFraming round-trips rung-tagged records.
func TestLadderPacketFraming(t *testing.T) {
	var buf bytes.Buffer
	pw := NewLadderPacketWriter(&buf)
	type rec struct {
		rung, index int
		data        []byte
	}
	recs := []rec{
		{0, 0, []byte("hdr0")}, {1, 0, []byte("hdr1")},
		{0, 1, []byte("f0r0")}, {1, 1, []byte{}}, {0, 2, []byte("f1r0")},
	}
	for _, r := range recs {
		if err := pw.WritePacket(r.rung, r.index, r.data); err != nil {
			t.Fatal(err)
		}
	}
	pr := NewLadderPacketReader(&buf)
	for i, want := range recs {
		rung, idx, data, err := pr.ReadPacket()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rung != want.rung || idx != want.index || !bytes.Equal(data, want.data) {
			t.Fatalf("record %d: got (%d,%d,%q)", i, rung, idx, data)
		}
	}
	if _, _, _, err := pr.ReadPacket(); err == nil {
		t.Fatal("expected EOF")
	}
	// A corrupt rung index is rejected, not trusted.
	var b2 bytes.Buffer
	NewLadderPacketWriter(&b2).WritePacket(maxLadderRung+1, 0, nil)
	if _, _, _, err := NewLadderPacketReader(&b2).ReadPacket(); err == nil {
		t.Fatal("implausible rung accepted")
	}
}

func TestValidateLadder(t *testing.T) {
	ok := []RungSpec{{Size: frame.Size{W: 128, H: 96}}, {Size: frame.Size{W: 64, H: 48}}}
	if err := ValidateLadder(ok); err != nil {
		t.Fatal(err)
	}
	if err := ValidateLadder(nil); err == nil {
		t.Error("empty ladder accepted")
	}
}

// TestLadderStreamSizeMismatch: a source that is not the top rung's
// format fails fast instead of poisoning the chain mid-flight.
func TestLadderStreamSizeMismatch(t *testing.T) {
	l, err := NewLadderStream(ladderTestRungs(nil), func(int, Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bad := frame.NewFrame(frame.SQCIF)
	if err := l.EncodeFrame(bad); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestLadderEmitErrorPoisons: an emit failure on any rung surfaces on
// EncodeFrame/Close and the chain still drains cleanly.
func TestLadderEmitErrorPoisons(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.Size{W: 64, H: 64}, 6, 3)
	boom := fmt.Errorf("sink full")
	n := 0
	l, err := NewLadderStream(ladderTestRungs(nil), func(r int, p Packet) error {
		n++
		if n > 4 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var encErr error
	for _, f := range frames {
		if encErr = l.EncodeFrame(f); encErr != nil {
			break
		}
	}
	_, closeErr := l.Close()
	if closeErr == nil {
		t.Fatal("emit error did not surface")
	}
}
