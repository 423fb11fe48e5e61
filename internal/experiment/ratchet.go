package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Ratchet is the checked-in ns/frame regression gate (BENCH_ratchet.json).
// It pins one serial baseline per searcher — GOMAXPROCS=1, Workers=1,
// pipeline off, so the number is a pure single-thread kernel+encoder
// measurement — and bench-smoke fails CI when a fresh measurement
// exceeds baseline × (1 + Tolerance). The band is deliberately wide
// (encode benchmarks on shared CI runners jitter ±10–20%); the ratchet
// exists to catch step regressions — an accidental scalar fallback, a
// quadratic slip in the hot path — not single-digit drift.
//
// The baselines are only directly meaningful on the host that recorded
// them. When the current host differs (CPU model or active kernel ISA),
// Check widens the band by CrossHostMultiplier and flags the outcome so
// the caller can warn instead of silently gating on an
// apples-to-oranges comparison. Refreshing after a deliberate perf
// change: `acbmbench -experiment ratchet -update-ratchet -json`.
type Ratchet struct {
	Host   Host   `json:"host"`
	Frames int    `json:"frames"`
	Qp     int    `json:"qp"`
	Seed   uint64 `json:"seed"`
	// Tolerance is the fractional slowdown allowed over each baseline
	// on the recording host (0.40 → fail beyond 1.40× baseline).
	Tolerance float64 `json:"tolerance"`
	// CrossHostMultiplier further scales the allowed limit when the
	// measuring host's CPU model or kernel ISA differs from Host.
	CrossHostMultiplier float64 `json:"cross_host_multiplier"`
	// Baselines maps searcher name → serial ns/frame.
	Baselines map[string]float64 `json:"ns_per_frame_baselines"`
}

// DefaultRatchetPath is where bench-smoke looks for the checked-in gate.
const DefaultRatchetPath = "BENCH_ratchet.json"

const (
	defaultRatchetTolerance = 0.40
	defaultCrossHostMult    = 2.5
)

// RatchetOutcome is the verdict for one searcher's baseline.
type RatchetOutcome struct {
	Searcher   string
	BaselineNs float64
	MeasuredNs float64
	// LimitNs is the ceiling after tolerance (and, cross-host, the
	// multiplier) is applied.
	LimitNs   float64
	CrossHost bool
	OK        bool
}

func (o RatchetOutcome) String() string {
	verdict := "ok"
	if !o.OK {
		verdict = "REGRESSION"
	}
	note := ""
	if o.CrossHost {
		note = " [cross-host band]"
	}
	return fmt.Sprintf("%-6s baseline %.0f ns/frame, measured %.0f (%.2fx), limit %.0f: %s%s",
		o.Searcher, o.BaselineNs, o.MeasuredNs, o.MeasuredNs/o.BaselineNs, o.LimitNs, verdict, note)
}

// LoadRatchet reads a checked-in ratchet file.
func LoadRatchet(path string) (*Ratchet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Ratchet
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Tolerance <= 0 {
		r.Tolerance = defaultRatchetTolerance
	}
	if r.CrossHostMultiplier < 1 {
		r.CrossHostMultiplier = defaultCrossHostMult
	}
	if len(r.Baselines) == 0 {
		return nil, fmt.Errorf("%s: no ns_per_frame_baselines", path)
	}
	return &r, nil
}

// RatchetFromSpeed pins a new ratchet from a speed run: one baseline
// per searcher, taken from the serial point (GOMAXPROCS=1, Workers=1,
// pipeline off). An error means the result has no such point — the
// sweep was run without the serial cell.
func RatchetFromSpeed(res *SpeedResult, cfg SpeedConfig) (*Ratchet, error) {
	cfg = cfg.withDefaults()
	r := &Ratchet{
		Host:                res.Host,
		Frames:              res.Frames,
		Qp:                  res.Qp,
		Seed:                cfg.Seed,
		Tolerance:           defaultRatchetTolerance,
		CrossHostMultiplier: defaultCrossHostMult,
		Baselines:           map[string]float64{},
	}
	for _, p := range res.Points {
		if serialPoint(p) {
			r.Baselines[p.Searcher] = p.NsPerFrame
		}
	}
	if len(r.Baselines) == 0 {
		return nil, fmt.Errorf("speed result has no serial (gomaxprocs=1, workers=1, pipeline off) points")
	}
	return r, nil
}

func serialPoint(p SpeedPoint) bool {
	return p.GoMaxProcs == 1 && p.Workers == 1 && !p.Pipeline
}

// Check compares a fresh speed result against the baselines. It returns
// one outcome per baseline searcher (sorted by name) and an error only
// when the comparison itself is impossible — a baseline searcher with
// no serial point in res. Regressions are reported through the OK
// flags, not the error, so the caller can print the full table before
// failing.
func (r *Ratchet) Check(res *SpeedResult) ([]RatchetOutcome, error) {
	cross := !r.Host.SameCPU(res.Host)
	band := 1 + r.Tolerance
	if cross {
		band *= r.CrossHostMultiplier
	}
	names := make([]string, 0, len(r.Baselines))
	for name := range r.Baselines {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []RatchetOutcome
	for _, name := range names {
		baseline := r.Baselines[name]
		measured := -1.0
		for _, p := range res.Points {
			if p.Searcher == name && serialPoint(p) {
				measured = p.NsPerFrame
				break
			}
		}
		if measured < 0 {
			return nil, fmt.Errorf("ratchet: no serial measurement for searcher %q", name)
		}
		limit := baseline * band
		out = append(out, RatchetOutcome{
			Searcher:   name,
			BaselineNs: baseline,
			MeasuredNs: measured,
			LimitNs:    limit,
			CrossHost:  cross,
			OK:         measured <= limit,
		})
	}
	return out, nil
}
