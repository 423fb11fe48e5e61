package experiment

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// ServeConfig configures the serving benchmark: cmd/vload drives M
// concurrent encode sessions against a running vcodecd and measures what
// a client of the "variable bandwidth channel" deployment cares about —
// time to first packet (stream startup) and per-frame packet cadence —
// across a sweep of session counts. The JSON artifact (BENCH_serve.json)
// is the serving counterpart of BENCH_speed.json.
type ServeConfig struct {
	// URLs are the endpoint base URLs, e.g. http://127.0.0.1:8323;
	// sessions round-robin across them (several gateways, or backends
	// driven directly).
	URLs []string
	// Sessions lists the concurrency levels to sweep (default {1, 4, 8}).
	Sessions []int
	// Frames per session (default 30).
	Frames int
	// Size and Profile describe the synthetic upload (default QCIF
	// Foreman — the paper's hard case).
	Size    frame.Size
	Profile video.Profile
	Qp      int    // default 16
	Seed    uint64 // default DefaultSeed
	// Searcher and Entropy are passed through as /encode query params.
	Searcher string
	Entropy  string
	// Kbps, when positive, requests per-session frame-lag rate control
	// (the kbps query param); sessions then run rate-controlled on the
	// shared pool at full parallelism.
	Kbps float64
	// Priority selects the sessions' scheduling tier: "" or "live",
	// "batch", or "mixed" (sessions alternate live/batch — the overload
	// shape the QoS controller's batch-first degradation is for).
	Priority string
	// QosPin, when non-empty, pins every session at that QoS level
	// (the qoslevel query param: "0".."3"); empty runs adaptive, under
	// the server's closed-loop controller.
	QosPin string
	// Verify byte-compares one session's packets per point against the
	// offline EncodePackets output — the "it serves traffic" claim is
	// then also an "it serves the right bits" claim. An adaptive run pins
	// the verified session at level 0 (the controller could otherwise
	// legitimately change its bytes mid-stream); a QosPin run verifies at
	// the pinned level against ApplyQosLevel.
	Verify bool
	// Retry503, when set, honors a 503's Retry-After: the session sleeps
	// the advertised delay and re-submits, up to RetryMax times (default
	// 4). Off by default — a load generator that silently retries hides
	// admission behavior unless explicitly asked to cooperate with it.
	Retry503 bool
	RetryMax int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if len(c.Sessions) == 0 {
		c.Sessions = []int{1, 4, 8}
	}
	if c.Frames <= 0 {
		c.Frames = 30
	}
	if c.Size == (frame.Size{}) {
		c.Size = frame.QCIF
	}
	if c.Qp <= 0 {
		c.Qp = 16
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Searcher == "" {
		c.Searcher = "acbm"
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 4
	}
	return c
}

// ServePoint is one session-count measurement.
type ServePoint struct {
	Sessions         int     `json:"sessions"`
	FramesPerSession int     `json:"frames_per_session"`
	TotalFrames      int     `json:"total_frames"`
	WallSeconds      float64 `json:"wall_seconds"`
	// FramesPerSec is aggregate serving throughput: frames streamed by
	// all sessions over the sweep's wall clock.
	FramesPerSec float64 `json:"frames_per_sec"`
	BytesOut     int64   `json:"bytes_out"`
	// FirstPacketMs* is the time from sending the request to receiving
	// the first frame packet (stream startup latency), across sessions.
	FirstPacketMsP50 float64 `json:"first_packet_ms_p50"`
	FirstPacketMsP99 float64 `json:"first_packet_ms_p99"`
	// FrameMs* is the gap between consecutive frame packets (steady-state
	// per-frame latency), across all sessions' samples.
	FrameMsP50 float64 `json:"frame_ms_p50"`
	FrameMsP99 float64 `json:"frame_ms_p99"`
	// Retries503 counts client re-submissions after a 503, honoring its
	// Retry-After (only with ServeConfig.Retry503).
	Retries503 int  `json:"retries_503,omitempty"`
	Verified   bool `json:"verified,omitempty"`
	// QosFinalLevels histograms the sessions by the QoS level their
	// stream ended at (X-Vcodec-Qos-Level trailer): index L counts the
	// sessions that finished at level L.
	QosFinalLevels []int `json:"qos_final_levels,omitempty"`
	// QosTransitions totals the mid-stream level changes actuated across
	// all sessions (X-Vcodec-Qos-Transitions trailer).
	QosTransitions int `json:"qos_transitions,omitempty"`
	// Worst names the point's slowest session by trace ID, with its
	// per-frame timeline fetched from the flight recorder.
	Worst *WorstSession `json:"worst_session,omitempty"`
}

// ServeResult is the full serving report, serialisable to
// BENCH_serve.json.
type ServeResult struct {
	URL       string       `json:"url"`
	Profile   string       `json:"profile"`
	Size      string       `json:"size"`
	Frames    int          `json:"frames_per_session"`
	Qp        int          `json:"qp"`
	Searcher  string       `json:"searcher"`
	Entropy   string       `json:"entropy,omitempty"`
	GoMaxProc int          `json:"gomaxprocs"`
	Points    []ServePoint `json:"points"`
}

// RunServe sweeps the configured session counts against the daemon. It
// fails on any session that does not complete.
func RunServe(cfg ServeConfig) (*ServeResult, error) {
	cfg = cfg.withDefaults()
	frames, upload, err := renderClip(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var offline [][]byte
	if cfg.Verify {
		scfg, err := offlineConfig(cfg)
		if err != nil {
			return nil, err
		}
		offline, _, err = codec.EncodePackets(scfg, frames)
		if err != nil {
			return nil, err
		}
	}

	res := &ServeResult{
		URL:       strings.Join(cfg.URLs, ","),
		Profile:   cfg.Profile.String(),
		Size:      fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:    cfg.Frames,
		Qp:        cfg.Qp,
		Searcher:  cfg.Searcher,
		Entropy:   cfg.Entropy,
		GoMaxProc: runtime.GOMAXPROCS(0),
	}
	client := &http.Client{} // no timeout: sessions are long-lived streams
	for _, n := range cfg.Sessions {
		pt, b := runServePoint(client, cfg.URLs, upload, n, cfg, offline)
		if err := b.requireCompleted(); err != nil {
			return nil, fmt.Errorf("sessions=%d: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// offlineConfig maps the benchmark parameters onto the library encoder
// for the verification encode (Workers=1 — identity across worker counts
// is the codec's own guarantee).
func offlineConfig(cfg ServeConfig) (codec.Config, error) {
	scfg := codec.Config{Qp: cfg.Qp, FPS: 30, Workers: 1, TargetKbps: cfg.Kbps}
	mode, err := codec.ParseEntropy(cfg.Entropy)
	if err != nil {
		return scfg, err
	}
	scfg.Entropy = mode
	s, err := core.SearcherByName(cfg.Searcher)
	if err != nil {
		return scfg, err
	}
	scfg.Searcher = s
	if cfg.QosPin != "" {
		// A pinned session's bytes are the offline encoder's at that
		// level — the server's documented qoslevel contract.
		level, err := strconv.Atoi(cfg.QosPin)
		if err != nil || level < 0 || level > server.MaxQosLevel {
			return scfg, fmt.Errorf("bad QosPin %q (want 0..%d)", cfg.QosPin, server.MaxQosLevel)
		}
		scfg = server.ApplyQosLevel(scfg, level)
	}
	return scfg, nil
}

// retries is the 503 re-submission budget of each session.
func (c ServeConfig) retries() int {
	if c.Retry503 {
		return c.RetryMax
	}
	return 0
}

// sessionURL is session i's /encode URL on base: the clip's coding
// parameters plus the serving-layer ones — its priority tier (under
// "mixed", odd sessions run batch) and, for the verified session of an
// adaptive run, the level-0 pin that keeps its bytes offline-comparable
// while the controller degrades the rest.
func sessionURL(base string, i int, verify bool, cfg ServeConfig) string {
	u := fmt.Sprintf("%s/encode?qp=%d&me=%s&entropy=%s", base, cfg.Qp, cfg.Searcher, cfg.Entropy)
	if cfg.Kbps > 0 {
		// Fixed-point formatting: %g's exponent form ("1e+06") would have
		// its '+' decoded as a space in the query string.
		u += "&kbps=" + strconv.FormatFloat(cfg.Kbps, 'f', -1, 64)
	}
	switch {
	case cfg.QosPin != "":
		u += "&qoslevel=" + cfg.QosPin
	case verify:
		u += "&qoslevel=0"
	}
	if cfg.Priority == "batch" || cfg.Priority == "mixed" && i%2 == 1 {
		u += "&priority=batch"
	}
	return u
}

// runServePoint runs one burst of n sessions round-robin across bases
// and aggregates it; with an offline reference, session 0 is
// byte-verified against it. The burst is returned for the caller's
// pass/fail policy.
func runServePoint(client *http.Client, bases []string, upload []byte, n int, cfg ServeConfig, offline [][]byte) (*ServePoint, *burst) {
	b := runBurst(client, n, func(i int) session {
		s := session{upload: upload, frames: cfg.Frames, retries: cfg.retries()}
		if i == 0 {
			s.ref = offline
		}
		s.url = sessionURL(bases[i%len(bases)], i, s.ref != nil, cfg)
		return s
	})

	pt := &ServePoint{
		Sessions:         n,
		FramesPerSession: cfg.Frames,
		WallSeconds:      b.wall.Seconds(),
		QosFinalLevels:   make([]int, server.MaxQosLevel+1),
		Verified:         offline != nil && b.samples[0].outcome == completed,
	}
	for i := range b.samples {
		s := &b.samples[i]
		pt.Retries503 += s.retries503
		if s.outcome != completed {
			continue
		}
		pt.TotalFrames += s.frames
		pt.BytesOut += s.bytes
		if s.qosLevel >= 0 && s.qosLevel <= server.MaxQosLevel {
			pt.QosFinalLevels[s.qosLevel]++
		}
		pt.QosTransitions += s.qosChanges
	}
	if b.wall > 0 {
		pt.FramesPerSec = float64(pt.TotalFrames) / b.wall.Seconds()
	}
	firsts, gaps := b.latencies()
	pt.FirstPacketMsP50 = quantileMs(firsts, 0.50)
	pt.FirstPacketMsP99 = quantileMs(firsts, 0.99)
	pt.FrameMsP50 = quantileMs(gaps, 0.50)
	pt.FrameMsP99 = quantileMs(gaps, 0.99)
	pt.Worst = b.worst(client, bases)
	return pt, b
}

// quantileMs returns the q-quantile of the samples in milliseconds
// (nearest-rank; 0 for an empty set).
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e6
}

// FormatServe renders the result as an aligned text table.
func FormatServe(r *ServeResult) string {
	out := fmt.Sprintf("serving: %s, %s %s, %d frames/session, Qp %d, %s, GOMAXPROCS %d\n",
		r.URL, r.Profile, r.Size, r.Frames, r.Qp, r.Searcher, r.GoMaxProc)
	out += fmt.Sprintf("%8s %8s %10s %9s %12s %12s %10s %10s %9s %12s\n",
		"sessions", "frames", "wall s", "frames/s", "first p50ms", "first p99ms", "gap p50ms", "gap p99ms", "verified", "qos levels")
	for _, p := range r.Points {
		v := "-"
		if p.Verified {
			v = "yes"
		}
		out += fmt.Sprintf("%8d %8d %10.2f %9.1f %12.1f %12.1f %10.2f %10.2f %9s %12s\n",
			p.Sessions, p.TotalFrames, p.WallSeconds, p.FramesPerSec,
			p.FirstPacketMsP50, p.FirstPacketMsP99, p.FrameMsP50, p.FrameMsP99, v,
			formatLevelHist(p.QosFinalLevels))
		out += formatWorst(p.Worst)
	}
	return out
}

// formatLevelHist renders a final-level histogram as "L0:8 L2:4"
// (levels with no sessions omitted; "-" when empty).
func formatLevelHist(levels []int) string {
	var parts []string
	for l, n := range levels {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("L%d:%d", l, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
