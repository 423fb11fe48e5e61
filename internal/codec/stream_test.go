package codec

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// packetsEqual reports whether two packet sequences are byte-identical.
func packetsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPacketsPipelineBitIdentical pins the packet path to the PR 1/PR 2
// machinery: EncodePackets must produce byte-identical packets for every
// Workers count, with and without the cross-frame pipeline, and on a
// shared Pool — the packets counterpart of TestPipelineBitIdentical.
func TestPacketsPipelineBitIdentical(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 8, 3)
	profiles := []struct {
		name string
		cfg  Config
	}{
		{"acbm", Config{Qp: 14, Searcher: core.New(core.DefaultParams)}},
		{"fsbm-arith", Config{Qp: 16, Searcher: &search.FSBM{}, Entropy: EntropyArith}},
		{"pbm-ap-deblock", Config{Qp: 12, Searcher: &search.PBM{}, AdvancedPrediction: true, Deblock: true, IntraPeriod: 4}},
	}
	for _, p := range profiles {
		cfg := p.cfg
		cfg.Workers = 1
		cfg.Searcher = reforge(t, p.cfg)
		ref, refStats, err := EncodePackets(cfg, frames)
		if err != nil {
			t.Fatalf("%s serial: %v", p.name, err)
		}
		for _, workers := range []int{1, 4} {
			for _, pipeline := range []bool{false, true} {
				cfg := p.cfg
				cfg.Workers = workers
				cfg.Pipeline = pipeline
				cfg.Searcher = reforge(t, p.cfg)
				got, stats, err := EncodePackets(cfg, frames)
				if err != nil {
					t.Fatalf("%s workers=%d pipeline=%v: %v", p.name, workers, pipeline, err)
				}
				if !packetsEqual(ref, got) {
					t.Fatalf("%s workers=%d pipeline=%v: packets differ from serial", p.name, workers, pipeline)
				}
				if len(stats.Frames) != len(refStats.Frames) {
					t.Fatalf("%s workers=%d pipeline=%v: %d frame stats, want %d",
						p.name, workers, pipeline, len(stats.Frames), len(refStats.Frames))
				}
			}
		}
		// Shared-pool analysis (the vcodecd serving mode) must match too.
		pool := NewPool(3)
		cfg = p.cfg
		cfg.Pool = pool
		cfg.Pipeline = true
		cfg.Searcher = reforge(t, p.cfg)
		got, _, err := EncodePackets(cfg, frames)
		pool.Close()
		if err != nil {
			t.Fatalf("%s pool: %v", p.name, err)
		}
		if !packetsEqual(ref, got) {
			t.Fatalf("%s: shared-pool packets differ from serial", p.name)
		}
	}
}

// reforge returns a fresh searcher equivalent to the profile's (encoders
// must not share a stateful searcher across runs).
func reforge(t *testing.T, cfg Config) search.Searcher {
	t.Helper()
	switch s := cfg.Searcher.(type) {
	case *core.ACBM:
		return core.New(s.Params)
	case *search.FSBM:
		return &search.FSBM{}
	case *search.PBM:
		return &search.PBM{}
	}
	t.Fatalf("unknown searcher %T", cfg.Searcher)
	return nil
}

// TestEncodeStreamIncremental drives the session API directly: packets
// must arrive in order, one per EncodeFrame (serial mode), each decodable
// the moment it is emitted — the property the serving layer's first-packet
// latency rests on.
func TestEncodeStreamIncremental(t *testing.T) {
	frames := video.Generate(video.Carphone, frame.SQCIF, 5, 1)
	var (
		dec     *PacketDecoder
		decoded int
		emitted []int
	)
	s := NewEncodeStream(Config{Qp: 16}, func(p Packet) error {
		emitted = append(emitted, p.Index)
		if p.Index == 0 {
			d, err := NewPacketDecoder(p.Data)
			if err != nil {
				return err
			}
			dec = d
			return nil
		}
		if p.Stats.Bits != 8*len(p.Data) {
			return fmt.Errorf("packet %d: stats bits %d for %d bytes", p.Index, p.Stats.Bits, len(p.Data))
		}
		f, err := dec.DecodePacket(p.Data)
		if err != nil {
			return err
		}
		if f.Size() != frame.SQCIF {
			return fmt.Errorf("packet %d: decoded size %v", p.Index, f.Size())
		}
		decoded++
		return nil
	})
	for i, f := range frames {
		if err := s.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Serial mode: the packet (and, first, the header) must have been
		// emitted before EncodeFrame returned.
		if want := i + 2; len(emitted) != want {
			t.Fatalf("after frame %d: %d packets emitted, want %d", i, len(emitted), want)
		}
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if decoded != len(frames) || len(stats.Frames) != len(frames) {
		t.Fatalf("decoded %d, stats %d, want %d", decoded, len(stats.Frames), len(frames))
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emit order %v", emitted)
		}
	}
	if _, err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.EncodeFrame(frames[0]); err == nil {
		t.Fatal("EncodeFrame accepted after Close")
	}
}

// TestEncodeStreamEmitError checks an emit failure poisons the stream in
// both serial and pipeline mode: later EncodeFrames and Close surface it.
func TestEncodeStreamEmitError(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 2)
	boom := fmt.Errorf("consumer gone")
	for _, pipeline := range []bool{false, true} {
		n := 0
		s := NewEncodeStream(Config{Qp: 16, Pipeline: pipeline}, func(p Packet) error {
			n++
			if n > 3 {
				return boom
			}
			return nil
		})
		var encodeErr error
		for _, f := range frames {
			if err := s.EncodeFrame(f); err != nil {
				encodeErr = err
				break
			}
		}
		_, closeErr := s.Close()
		if closeErr != boom {
			t.Fatalf("pipeline=%v: Close error %v, want %v", pipeline, closeErr, boom)
		}
		if !pipeline && encodeErr != boom {
			t.Fatalf("serial: EncodeFrame error %v, want %v", encodeErr, boom)
		}
	}
}

// TestEncodeStreamRateControl: the frame-lag rate controller must keep
// the pipeline overlap through the streaming API — no serial degradation
// — while the packets stay decodable and byte-identical to a serial
// rate-controlled stream.
func TestEncodeStreamRateControl(t *testing.T) {
	frames := video.Generate(video.TableTennis, frame.SQCIF, 10, 3)
	var ref [][]byte
	serial := NewEncodeStream(Config{Qp: 14, FPS: 30, TargetKbps: 40}, func(p Packet) error {
		ref = append(ref, p.Data)
		return nil
	})
	for i, f := range frames {
		if err := serial.EncodeFrame(f); err != nil {
			t.Fatalf("serial frame %d: %v", i, err)
		}
	}
	if _, err := serial.Close(); err != nil {
		t.Fatal(err)
	}

	var pkts [][]byte
	s := NewEncodeStream(Config{Qp: 14, FPS: 30, TargetKbps: 40, Pipeline: true}, func(p Packet) error {
		pkts = append(pkts, p.Data)
		return nil
	})
	if s.w.jobs == nil {
		t.Fatal("rate-controlled stream degraded to serial")
	}
	for i, f := range frames {
		if err := s.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	stats, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitrateKbps() <= 0 {
		t.Fatal("no rate recorded")
	}
	if !packetsEqual(ref, pkts) {
		t.Fatal("pipelined rate-controlled packets differ from serial")
	}
	dec, err := NewPacketDecoder(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkts); i++ {
		if _, err := dec.DecodePacket(pkts[i]); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
}

// TestSharedPoolConcurrentSessions runs several sessions on one Pool at
// once (the vcodecd scheduling model) and checks every session's packets
// are byte-identical to the serial encode. Run under -race by make test.
func TestSharedPoolConcurrentSessions(t *testing.T) {
	const sessions = 4
	frames := video.Generate(video.Foreman, frame.SQCIF, 6, 5)
	ref, _, err := EncodePackets(Config{Qp: 14, Workers: 1, Searcher: core.New(core.DefaultParams)}, frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := EncodePackets(Config{
				Qp: 14, Pool: pool, Pipeline: true,
				Searcher: core.New(core.DefaultParams),
			}, frames)
			if err != nil {
				errs[i] = err
				return
			}
			if !packetsEqual(ref, got) {
				errs[i] = fmt.Errorf("session %d: packets differ from serial", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPacketFramingRoundTrip: the uvarint container must reproduce index
// and payload exactly, tolerate gaps, and reject implausible records.
func TestPacketFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	payloads := map[int][]byte{0: {1, 2, 3}, 1: {}, 3: bytes.Repeat([]byte{0xAB}, 300)}
	for _, idx := range []int{0, 1, 3} { // index 2 deliberately missing
		if err := pw.WritePacket(idx, payloads[idx]); err != nil {
			t.Fatal(err)
		}
	}
	pr := NewPacketReader(&buf)
	var got []int
	for {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payloads[idx]) {
			t.Fatalf("index %d: payload mismatch", idx)
		}
		got = append(got, idx)
	}
	if fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("indices %v", got)
	}

	// Truncated payload must not be a clean EOF.
	var trunc bytes.Buffer
	if err := NewPacketWriter(&trunc).WritePacket(0, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	b := trunc.Bytes()[:trunc.Len()-1]
	pr = NewPacketReader(bytes.NewReader(b))
	if _, _, err := pr.ReadPacket(); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: err = %v", err)
	}

	// A record claiming a huge payload must be rejected before allocating.
	pr = NewPacketReader(bytes.NewReader([]byte{
		0x00,                               // index 0
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // length ≫ maxFramedPacket
	}))
	if _, _, err := pr.ReadPacket(); err == nil {
		t.Fatal("implausible length accepted")
	}
	if err := NewPacketWriter(io.Discard).WritePacket(-1, nil); err == nil {
		t.Fatal("negative index accepted")
	}
}
