package main

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/video"
)

// TestTracedEncodeIsThePlainEncode pins what the traced replay relies
// on: decorating the searcher and attaching the traced observer changes
// no output byte and no ACBM statistic, and the encode still runs at the
// configured worker count — every inter frame forks once per worker —
// in both the private-worker and the shared-pool configuration.
func TestTracedEncodeIsThePlainEncode(t *testing.T) {
	frames := video.Generate(video.Foreman, frame.QCIF, 6, 3)
	pool := codec.NewPool(3)
	defer pool.Close()
	for _, tc := range []struct {
		name  string
		mode  func(*codec.Config)
		forks int
	}{
		{"workers3", func(c *codec.Config) { c.Workers = 3 }, 3},
		{"serial", func(c *codec.Config) { c.Workers = 1 }, 1},
		{"pool-pipeline", func(c *codec.Config) { c.Pool, c.Pipeline = pool, true }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plainACBM := core.New(core.DefaultParams)
			cfg := codec.Config{Qp: 16, Searcher: plainACBM, FPS: 30}
			tc.mode(&cfg)
			_, want, err := codec.EncodeSequence(cfg, frames)
			if err != nil {
				t.Fatal(err)
			}

			tracedACBM := core.New(core.DefaultParams)
			ts, err := newTracedSearcher(tracedACBM)
			if err != nil {
				t.Fatal(err)
			}
			ob := newTracedObserver(newTracer(), "test", ts)
			cfg.Searcher, cfg.Observer = ts, ob
			_, got, err := codec.EncodeSequence(cfg, frames)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("traced encode differs from the plain encode")
			}
			if tracedACBM.Stats() != plainACBM.Stats() {
				t.Fatalf("ACBM stats %+v, want %+v", tracedACBM.Stats(), plainACBM.Stats())
			}
			tot := ob.totals()
			if tot.frames != len(frames) || tot.inter != len(frames)-1 {
				t.Fatalf("observed %d frames (%d inter), want %d (%d)", tot.frames, tot.inter, len(frames), len(frames)-1)
			}
			for i, n := range tot.forks {
				if tc.forks > 0 && n != tc.forks || n < 1 {
					t.Fatalf("inter frame %d forked %d searchers, want %d", i, n, tc.forks)
				}
			}
			if tot.searchSelf <= 0 || tot.analysisSelf <= 0 || tot.searchSelf > 3*tot.analysis {
				t.Fatalf("implausible self times: search %v, analysis self %v of %v", tot.searchSelf, tot.analysisSelf, tot.analysis)
			}
		})
	}
}
