package experiment

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// RateConfig configures the rate-control benchmark: rate-controlled
// encodes (Config.TargetKbps) measured across execution modes — serial,
// wavefront workers, cross-frame pipeline, shared pool — per searcher.
// The rate servo historically collapsed all of these back to serial;
// since the frame-lag controller the modes compose, and this artifact
// (BENCH_rate.json) tracks both sides of that claim PR over PR: the kbps
// tracking error must stay tight while ns/frame drops with workers, and
// every mode's bitstream must remain byte-identical to the serial
// reference.
type RateConfig struct {
	Profile video.Profile
	Size    frame.Size
	Frames  int
	Qp      int
	// TargetKbps is the rate-control target (default 80).
	TargetKbps float64
	Seed       uint64
	// Workers is the parallel width measured against serial (default
	// min(4, GOMAXPROCS)).
	Workers int
	// Repeats is how many times each encode runs; the fastest repeat is
	// reported (default 3).
	Repeats int
}

func (c RateConfig) withDefaults() RateConfig {
	if c.Size == (frame.Size{}) {
		c.Size = frame.QCIF
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.Qp <= 0 {
		c.Qp = 16
	}
	if c.TargetKbps <= 0 {
		c.TargetKbps = 80
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Workers <= 0 {
		c.Workers = 4
		if n := runtime.GOMAXPROCS(0); n < c.Workers {
			c.Workers = n
		}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// RatePoint is one (searcher, execution mode) measurement of a
// rate-controlled encode.
type RatePoint struct {
	Searcher string `json:"searcher"`
	// Mode is the execution mode: serial, workers, workers+pipeline or
	// pool+pipeline.
	Mode         string  `json:"mode"`
	Workers      int     `json:"workers"`
	NsPerFrame   float64 `json:"ns_per_frame"`
	FPS          float64 `json:"fps"`
	TargetKbps   float64 `json:"target_kbps"`
	AchievedKbps float64 `json:"achieved_kbps"`
	// TrackingErrPct is |achieved − target| / target, in percent.
	TrackingErrPct float64 `json:"tracking_err_pct"`
	PSNRY          float64 `json:"psnr_y_db"`
	// Speedup is relative to this searcher's serial point.
	Speedup float64 `json:"speedup_vs_serial"`
	// BitIdentical reports whether the mode's bitstream was byte-equal to
	// the serial reference — the frame-lag controller's core guarantee.
	BitIdentical bool `json:"bit_identical"`
}

// RateResult is the full rate-control report, serialisable to
// BENCH_rate.json.
type RateResult struct {
	Profile    string      `json:"profile"`
	Size       string      `json:"size"`
	Frames     int         `json:"frames"`
	Qp         int         `json:"qp"`
	TargetKbps float64     `json:"target_kbps"`
	GoMaxProc  int         `json:"gomaxprocs"`
	Points     []RatePoint `json:"points"`
}

// rateSearchers builds a fresh searcher per encode (they are stateful):
// plain ACBM, complexity-budgeted ACBM (the second controller that used
// to force serial analysis) and FSBM as the exhaustive baseline.
func rateSearchers() []struct {
	name string
	mk   func() (search.Searcher, error)
} {
	return []struct {
		name string
		mk   func() (search.Searcher, error)
	}{
		{"ACBM", func() (search.Searcher, error) { return core.New(core.DefaultParams), nil }},
		{"ACBM-budget", func() (search.Searcher, error) { return core.NewBudgeted(150, core.DefaultParams) }},
		{"FSBM", func() (search.Searcher, error) { return &search.FSBM{}, nil }},
	}
}

// RunRate measures rate-controlled encode wall-clock and kbps tracking
// across execution modes for each searcher.
func RunRate(cfg RateConfig) (*RateResult, error) {
	cfg = cfg.withDefaults()
	frames := video.Generate(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	res := &RateResult{
		Profile:    cfg.Profile.String(),
		Size:       fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:     cfg.Frames,
		Qp:         cfg.Qp,
		TargetKbps: cfg.TargetKbps,
		GoMaxProc:  runtime.GOMAXPROCS(0),
	}
	modes := []struct {
		name     string
		workers  int
		pipeline bool
		pool     bool
	}{
		{"serial", 1, false, false},
		{"workers", cfg.Workers, false, false},
		{"workers+pipeline", cfg.Workers, true, false},
		{"pool+pipeline", cfg.Workers, true, true},
	}
	for _, s := range rateSearchers() {
		var refBS []byte
		var base float64
		for _, mode := range modes {
			var best time.Duration
			var stats *codec.SequenceStats
			var bs []byte
			var pool *codec.Pool
			if mode.pool {
				pool = codec.NewPool(mode.workers)
			}
			for rep := 0; rep < cfg.Repeats; rep++ {
				searcher, err := s.mk()
				if err != nil {
					if pool != nil {
						pool.Close()
					}
					return nil, err
				}
				ecfg := codec.Config{
					Qp: cfg.Qp, FPS: 30, TargetKbps: cfg.TargetKbps,
					Searcher: searcher, Pipeline: mode.pipeline,
				}
				if mode.pool {
					ecfg.Pool = pool
				} else {
					ecfg.Workers = mode.workers
				}
				start := time.Now()
				st, b, err := codec.EncodeSequence(ecfg, frames)
				el := time.Since(start)
				if err != nil {
					if pool != nil {
						pool.Close()
					}
					return nil, fmt.Errorf("rate %s %s: %w", s.name, mode.name, err)
				}
				if rep == 0 || el < best {
					best, stats, bs = el, st, b
				}
			}
			if pool != nil {
				pool.Close()
			}
			if refBS == nil {
				refBS = bs
			}
			perFrame := float64(best.Nanoseconds()) / float64(cfg.Frames)
			achieved := stats.BitrateKbps()
			pt := RatePoint{
				Searcher:       s.name,
				Mode:           mode.name,
				Workers:        mode.workers,
				NsPerFrame:     perFrame,
				FPS:            1e9 / perFrame,
				TargetKbps:     cfg.TargetKbps,
				AchievedKbps:   achieved,
				TrackingErrPct: 100 * math.Abs(achieved-cfg.TargetKbps) / cfg.TargetKbps,
				PSNRY:          stats.AvgPSNRY(),
				BitIdentical:   bytes.Equal(bs, refBS),
			}
			if base == 0 {
				base = perFrame
			}
			pt.Speedup = base / perFrame
			res.Points = append(res.Points, pt)
			if !pt.BitIdentical {
				return nil, fmt.Errorf("rate %s %s: bitstream differs from serial reference", s.name, mode.name)
			}
		}
	}
	return res, nil
}

// FormatRate renders the result as an aligned text table.
func FormatRate(r *RateResult) string {
	out := fmt.Sprintf("rate control: %s %s, %d frames, Qp %d, target %.0f kbit/s, GOMAXPROCS %d\n",
		r.Profile, r.Size, r.Frames, r.Qp, r.TargetKbps, r.GoMaxProc)
	out += fmt.Sprintf("%-12s %-17s %8s %12s %8s %10s %8s %8s %10s\n",
		"algo", "mode", "workers", "ns/frame", "fps", "kbps", "err%", "speedup", "identical")
	for _, p := range r.Points {
		ident := "yes"
		if !p.BitIdentical {
			ident = "NO"
		}
		out += fmt.Sprintf("%-12s %-17s %8d %12.0f %8.2f %10.1f %8.1f %7.2fx %10s\n",
			p.Searcher, p.Mode, p.Workers, p.NsPerFrame, p.FPS,
			p.AchievedKbps, p.TrackingErrPct, p.Speedup, ident)
	}
	return out
}
