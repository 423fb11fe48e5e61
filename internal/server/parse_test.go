package server

import (
	"math"
	"net/url"
	"testing"

	"repro/internal/codec"
)

// FuzzParseSessionConfig feeds parseSessionConfig the untrusted /encode
// query strings it faces in production. It must never panic, and
// whatever it accepts must be encodable: a quantiser in 1..31, a
// buildable searcher, a finite non-negative bitrate target, a valid rung
// chain for ladder sessions, and never a session-wide kbps target on a
// ladder (targets are per rung there). Plain `go test` runs the seeds;
// `go test -fuzz FuzzParseSessionConfig` explores further.
func FuzzParseSessionConfig(f *testing.F) {
	for _, seed := range []string{
		"",
		"qp=14&me=acbm",
		"qp=31&me=fsbm&entropy=arith&gop=3&ap=1&deblock=true&range=7",
		"priority=batch&qoslevel=2",
		"budget=150",
		"budget=150&me=acbm&qoslevel=1",
		"kbps=250&me=pbm",
		"ladder=64x64,32x32@300,16x16&me=pbm",
		"ladder=128x96@500,64x48@200&budget=80",
		// Malformed or rejected.
		"kbps=250&ladder=64x64,32x32",
		"budget=150&me=pbm",
		"budget=-1",
		"budget=NaN",
		"kbps=Inf",
		"kbps=-3",
		"qp=0",
		"qp=abc",
		"qp=99999999999999999999",
		"qoslevel=9",
		"priority=urgent",
		"entropy=huffman",
		"me=bogus",
		"ladder=65x64",
		"ladder=64x64,48x48",
		"ladder=-16x-16",
		"ladder=64x64@NaN",
		"ladder=,",
		"%zz&qp=%31%36",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): malformed pairs are dropped
		cfg, opts, err := parseSessionConfig(q)
		if err != nil {
			return
		}
		if cfg.Qp < 1 || cfg.Qp > 31 {
			t.Fatalf("%q: accepted qp %d", raw, cfg.Qp)
		}
		if s, err := opts.newSearcher(); err != nil || s == nil {
			t.Fatalf("%q: accepted, but newSearcher() = %v, %v", raw, s, err)
		}
		if k := cfg.TargetKbps; !(k >= 0) || math.IsInf(k, 0) {
			t.Fatalf("%q: accepted kbps target %v", raw, k)
		}
		if len(opts.ladder) == 0 {
			return
		}
		if err := codec.ValidateLadder(opts.ladder); err != nil {
			t.Fatalf("%q: accepted an invalid ladder: %v", raw, err)
		}
		if cfg.TargetKbps > 0 {
			t.Fatalf("%q: accepted kbps together with ladder", raw)
		}
		for i, r := range opts.ladder {
			if r.Size.W <= 0 || r.Size.H <= 0 || !(r.TargetKbps >= 0) || math.IsInf(r.TargetKbps, 0) {
				t.Fatalf("%q: accepted rung %d = %+v", raw, i, r)
			}
		}
	})
}
