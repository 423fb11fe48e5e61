package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// The simulcast ladder benchmark behind BENCH_ladder.json: encode one
// source into an N-rung ABR ladder two ways and compare.
//
//   - Independent: each rendition encoded on its own — downscale chain
//     from the source plus a full-effort motion search (TopSearcher) at
//     every rung, which is what producing the ladder takes without
//     cross-layer sharing.
//   - Ladder: codec.EncodeLadder — the source ingested once, rungs
//     pipelined with a one-frame lag, the lower rungs on a cheaper
//     searcher (LowSearcher, PBM by default).
//
// The report carries the wall-clock speedup and per-rung quality/bitrate
// of both modes, so the cheap lower-rung search is accountable for its
// PSNR. Rung 0 runs the same searcher in both modes, so its ladder
// stream must be byte-identical to its independent encode — the
// benchmark fails rather than report a speedup over different bits.

// LadderConfig configures RunLadder.
type LadderConfig struct {
	// Profile is the synthetic clip (callers pass video.TableTennis for
	// the headline run: its pan+zoom gives a spatially diverse motion
	// field at every rung).
	Profile video.Profile
	// Size is the top rung; each following rung halves both dimensions.
	// Every rung must stay 16-aligned (default 128x128).
	Size  frame.Size
	Rungs int
	// Frames per encode (default 30).
	Frames      int
	Qp          int
	SearchRange int
	Seed        uint64
	// TopSearcher is the full-effort estimator: the ladder's rung 0 and
	// every rung of the independent baseline (default fsbm).
	TopSearcher string
	// LowSearcher runs the ladder's lower rungs (default pbm).
	LowSearcher string
	// Repeats per timed mode; the fastest repeat is reported (default 3).
	Repeats int
}

func (c LadderConfig) withDefaults() LadderConfig {
	if c.Size == (frame.Size{}) {
		c.Size = frame.Size{W: 256, H: 256}
	}
	if c.Rungs <= 0 {
		c.Rungs = 3
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.Qp <= 0 {
		c.Qp = 16
	}
	if c.SearchRange <= 0 {
		c.SearchRange = 15
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.TopSearcher == "" {
		c.TopSearcher = "fsbm"
	}
	if c.LowSearcher == "" {
		c.LowSearcher = "pbm"
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// LadderRungReport is one rung's side-by-side comparison.
type LadderRungReport struct {
	Size string `json:"size"`
	// Searcher is the estimator the ladder ran on this rung (TopSearcher
	// on rung 0, LowSearcher below).
	Searcher string `json:"searcher"`

	IndependentPointsPerMB float64 `json:"independent_points_per_block"`
	IndependentPSNRY       float64 `json:"independent_psnr_y_db"`
	IndependentKbps        float64 `json:"independent_kbps"`

	LadderPointsPerMB float64 `json:"ladder_points_per_block"`
	LadderPSNRY       float64 `json:"ladder_psnr_y_db"`
	LadderKbps        float64 `json:"ladder_kbps"`
}

// LadderResult is the full report, serialisable to BENCH_ladder.json.
type LadderResult struct {
	Profile     string `json:"profile"`
	TopSize     string `json:"top_size"`
	Rungs       int    `json:"rungs"`
	Frames      int    `json:"frames"`
	Qp          int    `json:"qp"`
	SearchRange int    `json:"search_range"`
	TopSearcher string `json:"top_searcher"`
	LowSearcher string `json:"low_searcher"`
	Host        Host   `json:"host"`

	// IndependentWallNs is the fastest serial pass producing every
	// rendition independently (downscale chains included); LadderWallNs
	// the fastest EncodeLadder pass over the same frames.
	IndependentWallNs int64   `json:"independent_wall_ns"`
	LadderWallNs      int64   `json:"ladder_wall_ns"`
	Speedup           float64 `json:"speedup"`

	// Rung0BitIdentical must be true: rung 0 runs TopSearcher on the
	// source in both modes, so the streams are the same bits by contract.
	Rung0BitIdentical bool `json:"rung0_bit_identical"`

	PerRung []LadderRungReport `json:"per_rung"`
}

// ladderSearcher builds a fresh named searcher (one per rung per encode —
// the Rung contract).
func ladderSearcher(name string) (search.Searcher, error) {
	return core.SearcherByName(name)
}

// downscaleChain builds rung r's input sequence from the source, paying
// the same per-level box filter the ladder pays. Intermediate levels are
// released back to the frame pool; the caller releases the returned
// frames (level 0 returns the source itself — never release that).
func downscaleChain(src []*frame.Frame, level int) []*frame.Frame {
	cur := src
	for l := 0; l < level; l++ {
		next := make([]*frame.Frame, len(cur))
		for i, f := range cur {
			next[i] = frame.DownscaleFrame(f)
		}
		if l > 0 {
			releaseFrames(cur)
		}
		cur = next
	}
	return cur
}

func releaseFrames(fs []*frame.Frame) {
	for _, f := range fs {
		f.Release()
	}
}

// RunLadder measures the ladder against per-rendition independent
// encodes and writes the honest comparison: wall clock and per-rung
// quality.
func RunLadder(cfg LadderConfig) (*LadderResult, error) {
	cfg = cfg.withDefaults()
	sizes := make([]frame.Size, cfg.Rungs)
	specs := make([]codec.RungSpec, cfg.Rungs)
	sizes[0] = cfg.Size
	for r := 1; r < cfg.Rungs; r++ {
		sizes[r] = frame.Size{W: sizes[r-1].W / 2, H: sizes[r-1].H / 2}
	}
	for r, sz := range sizes {
		specs[r] = codec.RungSpec{Size: sz}
	}
	if err := codec.ValidateLadder(specs); err != nil {
		return nil, err
	}
	frames := video.Generate(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	baseCfg := codec.Config{Qp: cfg.Qp, SearchRange: cfg.SearchRange}

	res := &LadderResult{
		Profile:     cfg.Profile.String(),
		TopSize:     fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Rungs:       cfg.Rungs,
		Frames:      cfg.Frames,
		Qp:          cfg.Qp,
		SearchRange: cfg.SearchRange,
		TopSearcher: cfg.TopSearcher,
		LowSearcher: cfg.LowSearcher,
		Host:        DetectHost(),
	}

	// Independent baseline: every rendition from scratch with the
	// full-effort searcher, timed as one serial pass per repeat.
	var indepPkts [][][]byte
	var indepStats []*codec.SequenceStats
	var bestIndep time.Duration
	for rep := 0; rep < cfg.Repeats; rep++ {
		pkts := make([][][]byte, cfg.Rungs)
		stats := make([]*codec.SequenceStats, cfg.Rungs)
		start := time.Now()
		for r := range sizes {
			s, err := ladderSearcher(cfg.TopSearcher)
			if err != nil {
				return nil, err
			}
			ecfg := baseCfg
			ecfg.Searcher = s
			in := downscaleChain(frames, r)
			p, st, err := codec.EncodePackets(ecfg, in)
			if r > 0 {
				releaseFrames(in)
			}
			if err != nil {
				return nil, fmt.Errorf("independent rung %d: %w", r, err)
			}
			pkts[r], stats[r] = p, st
		}
		if el := time.Since(start); rep == 0 || el < bestIndep {
			bestIndep, indepPkts, indepStats = el, pkts, stats
		}
	}

	// Ladder: rung 0 on the full-effort searcher, lower rungs on the
	// cheap searcher.
	mkRungs := func() ([]codec.Rung, error) {
		rungs := make([]codec.Rung, cfg.Rungs)
		for r, sz := range sizes {
			name := cfg.TopSearcher
			if r > 0 {
				name = cfg.LowSearcher
			}
			s, err := ladderSearcher(name)
			if err != nil {
				return nil, err
			}
			ecfg := baseCfg
			ecfg.Searcher = s
			rungs[r] = codec.Rung{Size: sz, Cfg: ecfg}
		}
		return rungs, nil
	}
	var ladderPkts [][][]byte
	var ladderStats []*codec.SequenceStats
	var bestLadder time.Duration
	for rep := 0; rep < cfg.Repeats; rep++ {
		rungs, err := mkRungs()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		pkts, stats, err := codec.EncodeLadder(rungs, frames)
		if err != nil {
			return nil, err
		}
		if el := time.Since(start); rep == 0 || el < bestLadder {
			bestLadder, ladderPkts, ladderStats = el, pkts, stats
		}
	}

	// Correctness gates before any speedup claim: rung 0 byte-identity
	// and a full decode of every rung with the unmodified decoder.
	res.Rung0BitIdentical = len(ladderPkts[0]) == len(indepPkts[0])
	for i := range indepPkts[0] {
		if !res.Rung0BitIdentical || !bytes.Equal(ladderPkts[0][i], indepPkts[0][i]) {
			res.Rung0BitIdentical = false
			break
		}
	}
	if !res.Rung0BitIdentical {
		return nil, fmt.Errorf("ladder rung 0 is not byte-identical to its independent encode")
	}
	for r, pkts := range ladderPkts {
		dec, err := codec.NewPacketDecoder(pkts[0])
		if err != nil {
			return nil, fmt.Errorf("ladder rung %d header: %w", r, err)
		}
		if dec.Size() != sizes[r] {
			return nil, fmt.Errorf("ladder rung %d decodes as %v, want %v", r, dec.Size(), sizes[r])
		}
		for i, pkt := range pkts[1:] {
			if _, err := dec.DecodePacket(pkt); err != nil {
				return nil, fmt.Errorf("ladder rung %d frame %d: %w", r, i, err)
			}
		}
	}

	res.IndependentWallNs = bestIndep.Nanoseconds()
	res.LadderWallNs = bestLadder.Nanoseconds()
	res.Speedup = float64(bestIndep.Nanoseconds()) / float64(bestLadder.Nanoseconds())

	for r := range sizes {
		rep := LadderRungReport{
			Size:                   fmt.Sprintf("%dx%d", sizes[r].W, sizes[r].H),
			Searcher:               cfg.TopSearcher,
			IndependentPointsPerMB: indepStats[r].AvgSearchPointsPerMB(),
			IndependentPSNRY:       indepStats[r].AvgPSNRY(),
			IndependentKbps:        indepStats[r].BitrateKbps(),
			LadderPointsPerMB:      ladderStats[r].AvgSearchPointsPerMB(),
			LadderPSNRY:            ladderStats[r].AvgPSNRY(),
			LadderKbps:             ladderStats[r].BitrateKbps(),
		}
		if r > 0 {
			rep.Searcher = cfg.LowSearcher
		}
		res.PerRung = append(res.PerRung, rep)
	}
	return res, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *LadderResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatLadder renders the result as an aligned text table.
func FormatLadder(r *LadderResult) string {
	out := fmt.Sprintf("simulcast ladder: %s %s, %d rungs, %d frames, Qp %d, range %d\n",
		r.Profile, r.TopSize, r.Rungs, r.Frames, r.Qp, r.SearchRange)
	out += fmt.Sprintf("host: %s (%d cpus), kernel ISA %s\n", r.Host.CPUModel, r.Host.NumCPU, r.Host.KernelISA)
	out += fmt.Sprintf("independent (%s every rung): %.1f ms   ladder (%s top, %s below): %.1f ms   speedup %.2fx\n",
		r.TopSearcher, float64(r.IndependentWallNs)/1e6,
		r.TopSearcher, r.LowSearcher, float64(r.LadderWallNs)/1e6, r.Speedup)
	out += fmt.Sprintf("rung 0 bit-identical to independent encode: %v\n", r.Rung0BitIdentical)
	out += fmt.Sprintf("%-9s %-10s %12s %12s %9s %9s %9s %9s\n",
		"size", "searcher", "ind pts/MB", "lad pts/MB", "ind PSNR", "lad PSNR", "ind kbps", "lad kbps")
	for _, p := range r.PerRung {
		out += fmt.Sprintf("%-9s %-10s %12.1f %12.1f %9.2f %9.2f %9.1f %9.1f\n",
			p.Size, p.Searcher, p.IndependentPointsPerMB, p.LadderPointsPerMB,
			p.IndependentPSNRY, p.LadderPSNRY, p.IndependentKbps, p.LadderKbps)
	}
	return out
}
