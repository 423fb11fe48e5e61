// Command vcodec is the end-user tool of the codec substrate: it encodes
// YUV4MPEG2 video into the repository's bitstream format with a selectable
// motion estimator (including ACBM), and decodes such streams back to
// YUV4MPEG2.
//
// Usage:
//
//	vcodec encode -i in.y4m -o out.acbm -qp 16 -me acbm -entropy arith
//	vcodec encode -i in.y4m -o out.acbm -workers 4 -pipeline
//	vcodec encode -i in.y4m -o out.acbm -kbps 80 -workers 4 -pipeline
//	vcodec encode -i in.y4m -o out.acbm -ladder 128x96@300,64x48@100
//	vcodec decode -i out.acbm -o roundtrip.y4m
//	vcodec info   -i out.acbm
//	vcodec ladder-split -i session.bin -o out.acbm
//
// ladder-split demultiplexes a saved /encode?ladder= session stream
// (interleaved per-rung records) into one plain packetized artifact per
// rung — byte-identical to what `encode -ladder` writes offline.
//
// -workers spreads macroblock analysis across a wavefront worker pool and
// -pipeline overlaps entropy coding of each frame with analysis of the
// next; both produce bitstreams byte-identical to the single-threaded
// encoder (only wall-clock changes).
//
// -kbps enables frame-level rate control (the quantiser tracks the
// target bitrate) and -budget caps the motion-search cost (positions/MB,
// ACBM only). Both compose with -workers and -pipeline: the frame-lag
// controllers decide each frame's parameters before analysis and observe
// results after entropy coding, so rate- and budget-controlled encodes
// parallelise fully and the bits are identical for every such setting.
// Invalid combinations (negative targets, -budget with a non-ACBM
// estimator) are rejected up front.
//
// -packets (all three subcommands) switches to the packetized transport:
// each frame is an independently parseable record (uvarint index, uvarint
// length, payload — the same framing vcodecd streams over HTTP), so a
// lossy channel can drop packets without desynchronising the parser.
// `decode -packets` conceals dropped or corrupt frame packets by
// repeating the previous reconstruction instead of erroring, recovering
// fully at the next intra frame (use -gop at encode time); a stream cut
// mid-record (truncated download, crashed relay) just ends the clip at
// the damage instead of failing (codec.DecodePacketStream).
//
// Synthetic input for a self-contained demo:
//
//	go run ./cmd/seqgen -profile foreman -o f.y4m
//	go run ./cmd/vcodec encode -i f.y4m -o f.acbm -qp 14 -me acbm
//	go run ./cmd/vcodec decode -i f.acbm -o f_dec.y4m
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: vcodec encode|decode|info [flags]"))
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = runEncode(os.Args[2:])
	case "decode":
		err = runDecode(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "ladder-split":
		err = runLadderSplit(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want encode, decode, info or ladder-split)", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	var (
		in      = fs.String("i", "", "input .y4m path")
		out     = fs.String("o", "", "output bitstream path")
		qp      = fs.Int("qp", 16, "quantiser parameter (1..31)")
		me      = fs.String("me", "acbm", "motion estimator: acbm|fsbm|pbm|rcfsbm|tss|ntss|4ss|ds|cds|hexbs")
		rng     = fs.Int("range", 15, "search range p in full pels (0..64, 0 = default 15)")
		entropy = fs.String("entropy", "expgolomb", "entropy backend: expgolomb|arith")
		gop     = fs.Int("gop", 0, "intra period (0 = first frame only)")
		alpha   = fs.Int("alpha", core.DefaultParams.Alpha, "ACBM α")
		beta    = fs.Int("beta", core.DefaultParams.Beta, "ACBM β")
		workers = fs.Int("workers", 0, "macroblock-analysis goroutines (0 = GOMAXPROCS, 1 = sequential; output is identical for every value, including rate-controlled encodes)")
		pipe    = fs.Bool("pipeline", false, "overlap entropy coding of frame n with analysis of frame n+1 (byte-identical output; composes with -kbps/-budget)")
		kbps    = fs.Float64("kbps", 0, "target bitrate in kbit/s (0 = constant -qp; frame-lag rate control, composes with -workers/-pipeline)")
		budget  = fs.Float64("budget", 0, "target motion-search positions/MB (0 = off; ACBM only, composes with -workers/-pipeline)")
		packets = fs.Bool("packets", false, "write the packetized transport (independently parseable frame records) instead of the contiguous stream")
		ladder  = fs.String("ladder", "", "simulcast ladder spec WxH@kbps,... (top rung first, each rung half the previous; writes one packetized artifact per rung, -o gaining a .rN suffix)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("encode: -i and -o are required")
	}
	if *kbps < 0 {
		return fmt.Errorf("encode: -kbps must be positive (got %g)", *kbps)
	}
	if *budget < 0 {
		return fmt.Errorf("encode: -budget must be positive (got %g)", *budget)
	}
	if *rng < 0 || *rng > codec.MaxSearchRange {
		return fmt.Errorf("encode: -range must be in 0..%d (got %d)", codec.MaxSearchRange, *rng)
	}
	searcher, err := makeSearcher(*me, *alpha, *beta, *budget)
	if err != nil {
		return err
	}
	mode, err := parseEntropy(*entropy)
	if err != nil {
		return err
	}

	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	stream, err := frame.ReadY4M(inF)
	if err != nil {
		return err
	}
	if len(stream.Frames) == 0 {
		return fmt.Errorf("encode: %s contains no frames", *in)
	}
	fps := stream.FPS()
	if fps == 0 {
		fps = 30
	}
	cfg := codec.Config{
		Qp: *qp, SearchRange: *rng, Searcher: searcher,
		FPS: fps, IntraPeriod: *gop, Entropy: mode,
		Workers: *workers, Pipeline: *pipe, TargetKbps: *kbps,
	}
	if *ladder != "" {
		if *kbps > 0 {
			return fmt.Errorf("encode: -kbps is per-rung in a ladder (use -ladder WxH@kbps)")
		}
		return encodeLadder(cfg, *ladder, *out, stream.Frames, func() (search.Searcher, error) {
			return makeSearcher(*me, *alpha, *beta, *budget)
		})
	}
	var (
		stats *codec.SequenceStats
		bs    []byte
	)
	if *packets {
		pkts, st, err := codec.EncodePackets(cfg, stream.Frames)
		if err != nil {
			return err
		}
		stats = st
		var buf bytes.Buffer
		pw := codec.NewPacketWriter(&buf)
		for i, pkt := range pkts {
			if err := pw.WritePacket(i, pkt); err != nil {
				return err
			}
		}
		bs = buf.Bytes()
	} else {
		st, b, err := codec.EncodeSequence(cfg, stream.Frames)
		if err != nil {
			return err
		}
		stats, bs = st, b
	}
	if err := os.WriteFile(*out, bs, 0o644); err != nil {
		return err
	}
	format := "stream"
	if *packets {
		format = "packets"
	}
	fmt.Printf("encoded %d frames (%v) with %s/%s at Qp %d (%s)\n",
		len(stream.Frames), stream.Frames[0].Size(), searcher.Name(), mode, *qp, format)
	fmt.Printf("  %d bytes, %.1f kbit/s @ %.3g fps, PSNR-Y %.2f dB, %.0f search positions/MB\n",
		len(bs), stats.BitrateKbps(), fps, stats.AvgPSNRY(), stats.AvgSearchPointsPerMB())
	if *kbps > 0 {
		fmt.Printf("  rate control: target %.1f kbit/s (%.0f%% achieved)\n",
			*kbps, 100*stats.BitrateKbps() / *kbps)
	}
	return nil
}

// encodeLadder runs the simulcast path: one EncodeLadder pass over the
// source, one packetized artifact per rung (out.rN.ext), each decodable
// by `vcodec decode -packets` with no ladder awareness.
func encodeLadder(cfg codec.Config, spec, out string, frames []*frame.Frame, newSearcher func() (search.Searcher, error)) error {
	specs, err := codec.ParseLadderSpec(spec)
	if err != nil {
		return err
	}
	if sz := frames[0].Size(); sz != specs[0].Size {
		return fmt.Errorf("encode: source is %v but ladder top rung is %v", sz, specs[0].Size)
	}
	rungs := make([]codec.Rung, len(specs))
	for i, s := range specs {
		rcfg := cfg
		rcfg.TargetKbps = s.TargetKbps
		// Fresh searcher per rung: the rungs analyse concurrently and
		// stateful searchers (budgeted ACBM) must not be shared.
		if rcfg.Searcher, err = newSearcher(); err != nil {
			return err
		}
		rungs[i] = codec.Rung{Size: s.Size, Cfg: rcfg}
	}
	packets, stats, err := codec.EncodeLadder(rungs, frames)
	if err != nil {
		return err
	}
	fmt.Printf("encoded %d frames into a %d-rung ladder\n", len(frames), len(specs))
	for r, pkts := range packets {
		var buf bytes.Buffer
		pw := codec.NewPacketWriter(&buf)
		for i, pkt := range pkts {
			if err := pw.WritePacket(i, pkt); err != nil {
				return err
			}
		}
		path := rungPath(out, r)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		target := ""
		if specs[r].TargetKbps > 0 {
			target = fmt.Sprintf(", target %.1f kbit/s", specs[r].TargetKbps)
		}
		fmt.Printf("  rung %d %v: %s, %d bytes, %.1f kbit/s%s, PSNR-Y %.2f dB, %.0f positions/MB\n",
			r, specs[r].Size, path, buf.Len(), stats[r].BitrateKbps(), target,
			stats[r].AvgPSNRY(), stats[r].AvgSearchPointsPerMB())
	}
	return nil
}

// rungPath derives rung r's artifact path from the -o path: the ".rN"
// tag slots in ahead of the extension (out.acbm → out.r1.acbm).
func rungPath(out string, r int) string {
	if dot := strings.LastIndexByte(out, '.'); dot > strings.LastIndexByte(out, '/') {
		return fmt.Sprintf("%s.r%d%s", out[:dot], r, out[dot:])
	}
	return fmt.Sprintf("%s.r%d", out, r)
}

// runLadderSplit demultiplexes an interleaved ladder stream (the wire
// format vcodecd's /encode?ladder= sessions emit: uvarint rung, index,
// length, payload) into one plain packetized artifact per rung — byte
// for byte what `encode -ladder` writes, so a saved session can be
// compared against or decoded by the offline tools.
func runLadderSplit(args []string) error {
	fs := flag.NewFlagSet("ladder-split", flag.ExitOnError)
	var (
		in  = fs.String("i", "", "input interleaved ladder stream path")
		out = fs.String("o", "", "output path stem (rung r lands at stem.rN.ext)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("ladder-split: -i and -o are required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	type rungOut struct {
		buf  bytes.Buffer
		pw   *codec.PacketWriter
		next int
	}
	var rungs []*rungOut
	pr := codec.NewLadderPacketReader(bytes.NewReader(data))
	for {
		rung, idx, pkt, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ladder-split: %w", err)
		}
		for len(rungs) <= rung {
			r := &rungOut{}
			r.pw = codec.NewPacketWriter(&r.buf)
			rungs = append(rungs, r)
		}
		ro := rungs[rung]
		// Rungs interleave freely, but within one rung the stream is
		// strictly in order — a gap means the capture lost data, which
		// a split must refuse rather than silently paper over.
		if idx != ro.next {
			return fmt.Errorf("ladder-split: rung %d packet index %d, want %d", rung, idx, ro.next)
		}
		if err := ro.pw.WritePacket(idx, pkt); err != nil {
			return err
		}
		ro.next++
	}
	if len(rungs) == 0 {
		return fmt.Errorf("ladder-split: %s contains no packets", *in)
	}
	for r, ro := range rungs {
		path := rungPath(*out, r)
		if err := os.WriteFile(path, ro.buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("rung %d: %d packets, %d bytes → %s\n", r, ro.next, ro.buf.Len(), path)
	}
	return nil
}

func runDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	var (
		in      = fs.String("i", "", "input bitstream path")
		out     = fs.String("o", "", "output .y4m path")
		fps     = fs.Int("fps", 30, "frame rate tag for the output Y4M")
		packets = fs.Bool("packets", false, "input is the packetized transport; dropped or corrupt frame packets are concealed, not fatal")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decode: -i and -o are required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var frames []*frame.Frame
	concealed := 0
	if *packets {
		frames, concealed, err = decodePacketFile(data)
	} else {
		frames, err = codec.Decode(data)
	}
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("decode: empty stream")
	}
	outF, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer outF.Close()
	if err := frame.WriteY4M(outF, frames, *fps, 1); err != nil {
		return err
	}
	if concealed > 0 {
		fmt.Printf("decoded %d frames (%v, %d concealed) to %s\n", len(frames), frames[0].Size(), concealed, *out)
	} else {
		fmt.Printf("decoded %d frames (%v) to %s\n", len(frames), frames[0].Size(), *out)
	}
	return nil
}

// decodePacketFile reconstructs a packetized file, concealing dropped
// (missing index) and corrupt frame packets by repeating the previous
// reconstruction — the loss behaviour of the paper's variable-bandwidth
// channel, applied to a file a lossy relay already chewed on. The fault
// policy (codec.DecodePacketStream) makes every mid-stream damage mode
// non-fatal: untrustworthy records are discarded, a truncated tail just
// ends the clip early, and the predictive stream resynchronises at the
// next intra frame — decode degrades, it does not error.
func decodePacketFile(data []byte) ([]*frame.Frame, int, error) {
	res, err := codec.DecodePacketStream(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	if res.Truncated != nil {
		fmt.Fprintf(os.Stderr, "decode: stream truncated mid-record, kept %d frames (%v)\n",
			len(res.Frames), res.Truncated)
	}
	return res.Frames, res.Concealed, nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	var (
		in      = fs.String("i", "", "input bitstream path")
		packets = fs.Bool("packets", false, "input is the packetized transport")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -i is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if *packets {
		return packetInfo(*in, data)
	}
	d, err := codec.NewDecoder(data)
	if err != nil {
		return err
	}
	n := 0
	for d.More() {
		if _, err := d.DecodeFrame(); err != nil {
			return fmt.Errorf("info: frame %d: %w", n, err)
		}
		n++
	}
	fmt.Printf("%s: %v, entropy %v, %d frames, %d bytes\n",
		*in, d.Size(), d.EntropyMode(), n, len(data))
	return nil
}

// packetInfo summarises a packetized file without reconstructing pixels:
// record count, payload bytes, missing frame indices, and records whose
// indices cannot be trusted (same policy as decodePacketFile).
func packetInfo(name string, data []byte) error {
	pr := codec.NewPacketReader(bytes.NewReader(data))
	idx, hdr, err := pr.ReadPacket()
	if err != nil {
		return fmt.Errorf("info: reading header packet: %w", err)
	}
	if idx != 0 {
		return fmt.Errorf("info: header packet missing (first record has index %d)", idx)
	}
	dec, err := codec.NewPacketDecoder(hdr)
	if err != nil {
		return err
	}
	frames, dropped, ignored, payload := 0, 0, 0, len(hdr)
	truncated := false
	next := 1
	for {
		idx, pkt, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Same policy as decode: a broken record ends the stream,
			// the records before it still count.
			truncated = true
			break
		}
		if idx < next || idx-next > codec.MaxConcealGap {
			ignored++
			continue
		}
		dropped += idx - next
		frames++
		payload += len(pkt)
		next = idx + 1
	}
	extra := ""
	if ignored > 0 {
		extra = fmt.Sprintf(", %d untrustworthy records ignored", ignored)
	}
	if truncated {
		extra += ", truncated mid-record"
	}
	fmt.Printf("%s: %v, packets, %d frame packets (%d dropped%s), %d payload bytes, %d bytes\n",
		name, dec.Size(), frames, dropped, extra, payload, len(data))
	return nil
}

// makeSearcher resolves -me via the shared name table; only ACBM takes
// the CLI's α/β overrides and the -budget complexity cap, so it is
// special-cased ahead of the lookup.
func makeSearcher(name string, alpha, beta int, budget float64) (search.Searcher, error) {
	if strings.ToLower(name) == "acbm" {
		p := core.DefaultParams
		p.Alpha, p.Beta = alpha, beta
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if budget > 0 {
			return core.NewBudgeted(budget, p)
		}
		return core.New(p), nil
	}
	if budget > 0 {
		return nil, fmt.Errorf("-budget requires -me acbm (the budget servos ACBM's thresholds; got -me %s)", name)
	}
	return core.SearcherByName(name)
}

func parseEntropy(name string) (codec.EntropyMode, error) {
	switch strings.ToLower(name) {
	case "expgolomb", "eg", "":
		return codec.EntropyExpGolomb, nil
	case "arith", "arithmetic", "sac":
		return codec.EntropyArith, nil
	}
	return 0, fmt.Errorf("unknown entropy backend %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcodec:", err)
	os.Exit(1)
}
