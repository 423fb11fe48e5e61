package experiment

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// QosConfig drives the closed-loop QoS benchmark behind BENCH_qos.json:
// a self-hosted vcodecd is ramped past saturation with mixed-priority
// sessions and the report shows what graceful degradation buys — frame
// latency held down by trading quality, zero truncated sessions, and the
// controller restoring full quality once the ramp ends. A per-level
// offline cost table quantifies what each degradation rung costs in
// PSNR/bitrate and buys in encode time, and every level is byte-verified
// against the offline encoder through a pinned session first.
type QosConfig struct {
	// Sessions lists the ramp's concurrency levels (default {2, 8, 12}:
	// below, at, and past the degradation point on one core).
	Sessions []int
	// Frames per session (default 200 — long enough that the degraded
	// steady state, not the overload-onset transient, sets the gap
	// percentiles).
	Frames  int
	Size    frame.Size
	Profile video.Profile
	Qp      int
	Seed    uint64
	// Searcher is the sessions' requested estimator (default acbm — the
	// expensive tier the controller degrades away from).
	Searcher string
	Entropy  string
	// MaxSessions is the self-hosted daemon's admission cap (default 16:
	// the whole ramp admits, so overload shows up as latency for the
	// controller to fix, not as 503s).
	MaxSessions int
	// Interval and TargetFrameMs tune the daemon's controller (defaults
	// 25ms / 25 — a fast tick so the ramp degrades within a few frames;
	// see withDefaults for how the target is placed).
	Interval      time.Duration
	TargetFrameMs float64
	// RestoreWait bounds how long each point waits for the controller to
	// walk back to level 0 after its sessions drain (default 30s).
	RestoreWait time.Duration
	// DaemonBin, when set, execs that vcodecd binary as a separate OS
	// process instead of self-hosting in-process. On a saturated machine
	// this is the honest measurement: co-hosted, the load generator's
	// reader goroutines starve behind the encoder's CPU-bound work in the
	// one shared runtime and packets appear in scheduler-sized bursts;
	// as separate processes the kernel timeslices encoder and client
	// fairly, so gap percentiles reflect emission cadence.
	DaemonBin string
}

func (c QosConfig) withDefaults() QosConfig {
	if len(c.Sessions) == 0 {
		c.Sessions = []int{2, 8, 12}
	}
	if c.Frames <= 0 {
		// Long enough that the degraded steady state dominates the gap
		// percentiles: the unavoidable onset transient — each session's
		// one in-flight full-cost frame when the overload hits, before
		// its next hand-off can actuate — is a handful of samples, and
		// at ~200 gaps per session it stays below the p99 rank instead
		// of defining it.
		c.Frames = 200
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
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.TargetFrameMs <= 0 {
		// Sits between the degraded steady state's latency (the ramp's
		// 8-way PBM sharing, batch preemption included) and the overloaded
		// full-quality one: low enough that a light load runs undegraded,
		// high enough that the restore projection holds the degraded level
		// until the ramp actually ends instead of limit-cycling.
		c.TargetFrameMs = 25
	}
	if c.RestoreWait <= 0 {
		c.RestoreWait = 30 * time.Second
	}
	return c
}

// QosPoint is one ramp step's outcome.
type QosPoint struct {
	Sessions         int     `json:"sessions"`
	TotalFrames      int     `json:"total_frames"`
	WallSeconds      float64 `json:"wall_seconds"`
	FramesPerSec     float64 `json:"frames_per_sec"`
	FirstPacketMsP50 float64 `json:"first_packet_ms_p50"`
	FirstPacketMsP99 float64 `json:"first_packet_ms_p99"`
	FrameMsP50       float64 `json:"frame_ms_p50"`
	FrameMsP99       float64 `json:"frame_ms_p99"`
	// QosFinalLevels histograms the sessions by final QoS level; under
	// overload the mass moves to the degraded rungs (batch first).
	QosFinalLevels []int `json:"qos_final_levels"`
	QosTransitions int   `json:"qos_transitions"`
	// Degrades/Restores are the controller's step deltas across this
	// point (scraped from /metrics).
	Degrades int64 `json:"degrades"`
	Restores int64 `json:"restores"`
	// RestoredToZero records that the controller walked back to level 0
	// after the point's sessions drained — degradation is not sticky.
	RestoredToZero bool `json:"restored_to_zero"`
	// Worst names the ramp step's slowest session by trace ID, with the
	// flight-recorder timeline showing where its frames spent the time.
	Worst *WorstSession `json:"worst_session,omitempty"`
}

// QosLevelCost is one degradation rung's offline price/performance: what
// level L costs in quality and bitrate and buys in per-frame encode time.
type QosLevelCost struct {
	Level            int     `json:"level"`
	PSNRY            float64 `json:"psnr_y_db"`
	Kbps             float64 `json:"kbps"`
	EncodeMsPerFrame float64 `json:"encode_ms_per_frame"`
	// PinnedVerified: a session pinned at this level through the daemon
	// streamed bytes identical to the offline ApplyQosLevel encode.
	PinnedVerified bool `json:"pinned_verified"`
}

// QosResult is the full report, serialisable to BENCH_qos.json.
type QosResult struct {
	URL       string         `json:"url"`
	Profile   string         `json:"profile"`
	Size      string         `json:"size"`
	Frames    int            `json:"frames_per_session"`
	Qp        int            `json:"qp"`
	Searcher  string         `json:"searcher"`
	Entropy   string         `json:"entropy,omitempty"`
	GoMaxProc int            `json:"gomaxprocs"`
	Levels    []QosLevelCost `json:"levels"`
	Points    []QosPoint     `json:"points"`
}

// RunQos boots a vcodecd with a fast QoS control loop, byte-verifies
// every degradation level through a pinned session, then ramps
// mixed-priority adaptive sessions past saturation. It returns an error
// — not a report — if any session truncates or the controller fails to
// restore full quality after a ramp step.
func RunQos(cfg QosConfig) (*QosResult, error) {
	cfg = cfg.withDefaults()
	frames, upload, err := renderClip(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	if err != nil {
		return nil, err
	}

	url, stop, err := startQosDaemon(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()

	res := &QosResult{
		URL:       url,
		Profile:   cfg.Profile.String(),
		Size:      fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:    cfg.Frames,
		Qp:        cfg.Qp,
		Searcher:  cfg.Searcher,
		Entropy:   cfg.Entropy,
		GoMaxProc: runtime.GOMAXPROCS(0),
	}
	client := &http.Client{}

	// Phase 1: the ladder itself. For each level, the offline encode
	// prices the rung (PSNR/kbps/encode time) and one pinned session
	// through the daemon must reproduce it byte for byte.
	for level := 0; level <= server.MaxQosLevel; level++ {
		scfg := serveConfigFor(cfg)
		scfg.QosPin = strconv.Itoa(level)
		offCfg, err := offlineConfig(scfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		offline, stats, err := codec.EncodePackets(offCfg, frames)
		if err != nil {
			return nil, fmt.Errorf("level %d offline encode: %w", level, err)
		}
		encodeWall := time.Since(start)

		pt, b := runServePoint(client, []string{url}, upload, 1, scfg, offline)
		if err := b.requireCompleted(); err != nil {
			return nil, fmt.Errorf("pinned level %d: %w", level, err)
		}
		res.Levels = append(res.Levels, QosLevelCost{
			Level:            level,
			PSNRY:            stats.AvgPSNRY(),
			Kbps:             stats.BitrateKbps(),
			EncodeMsPerFrame: float64(encodeWall.Nanoseconds()) / 1e6 / float64(cfg.Frames),
			PinnedVerified:   pt.Verified,
		})
	}

	// Phase 2: the overload ramp. Adaptive mixed-priority sessions; the
	// controller is the only thing standing between the ramp and the
	// saturation latency the baseline benchmark measured.
	counters := []string{"vcodecd_qos_degrades_total", "vcodecd_qos_restores_total"}
	for _, n := range cfg.Sessions {
		pre := scrapeCounters(client, []string{url}, counters...)
		scfg := serveConfigFor(cfg)
		scfg.Priority = "mixed"
		pt, b := runServePoint(client, []string{url}, upload, n, scfg, nil)
		qpt := QosPoint{
			Sessions:         n,
			TotalFrames:      pt.TotalFrames,
			WallSeconds:      pt.WallSeconds,
			FramesPerSec:     pt.FramesPerSec,
			FirstPacketMsP50: pt.FirstPacketMsP50,
			FirstPacketMsP99: pt.FirstPacketMsP99,
			FrameMsP50:       pt.FrameMsP50,
			FrameMsP99:       pt.FrameMsP99,
			QosFinalLevels:   pt.QosFinalLevels,
			QosTransitions:   pt.QosTransitions,
			Worst:            pt.Worst,
		}
		if err := b.requireCompleted(); err != nil {
			return nil, fmt.Errorf("sessions=%d: %w", n, err)
		}
		// The point's load is gone; the controller must hand quality
		// back (restore hysteresis: a few ticks per step). The counter
		// deltas are read only after that walk so the point's Restores
		// include its own ramp-down.
		qpt.RestoredToZero = waitQosLevelZero(client, url, cfg.RestoreWait)
		post := scrapeCounters(client, []string{url}, counters...)
		qpt.Degrades, qpt.Restores = post[0]-pre[0], post[1]-pre[1]
		if !qpt.RestoredToZero {
			return nil, fmt.Errorf("sessions=%d: controller did not restore to level 0 within %v", n, cfg.RestoreWait)
		}
		res.Points = append(res.Points, qpt)
	}
	return res, nil
}

// startQosDaemon brings up the vcodecd under test — exec'd from
// cfg.DaemonBin when set (see the field comment), self-hosted in-process
// otherwise — and returns its base URL plus a shutdown func.
func startQosDaemon(cfg QosConfig) (string, func(), error) {
	if cfg.DaemonBin == "" {
		return SelfHost(server.Config{
			MaxSessions:      cfg.MaxSessions,
			MaxQueued:        64,
			QosInterval:      cfg.Interval,
			QosTargetFrameMs: cfg.TargetFrameMs,
		})
	}

	tmp, err := os.MkdirTemp("", "qosbench")
	if err != nil {
		return "", nil, err
	}
	addrfile := filepath.Join(tmp, "addr")
	cmd := exec.Command(cfg.DaemonBin,
		"-addr", "127.0.0.1:0",
		"-addrfile", addrfile,
		"-max-sessions", strconv.Itoa(cfg.MaxSessions),
		"-max-queued", "64",
		"-qos-interval", cfg.Interval.String(),
		"-qos-target-ms", strconv.FormatFloat(cfg.TargetFrameMs, 'f', -1, 64),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(tmp)
		return "", nil, err
	}
	stop := func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		os.RemoveAll(tmp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrfile); err == nil && len(b) > 0 {
			return "http://" + string(b), stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			return "", nil, fmt.Errorf("daemon %s never wrote its address", cfg.DaemonBin)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// serveConfigFor maps the QoS benchmark parameters onto the serve-sweep
// plumbing it reuses.
func serveConfigFor(cfg QosConfig) ServeConfig {
	return ServeConfig{
		Frames:   cfg.Frames,
		Size:     cfg.Size,
		Profile:  cfg.Profile,
		Qp:       cfg.Qp,
		Seed:     cfg.Seed,
		Searcher: cfg.Searcher,
		Entropy:  cfg.Entropy,
	}
}

// waitQosLevelZero polls /healthz until the daemon reports qos_level 0.
func waitQosLevelZero(client *http.Client, base string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var hz struct {
				QosLevel int `json:"qos_level"`
			}
			ok := json.NewDecoder(resp.Body).Decode(&hz) == nil && hz.QosLevel == 0
			resp.Body.Close()
			if ok {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// FormatQos renders the result as aligned text tables.
func FormatQos(r *QosResult) string {
	out := fmt.Sprintf("qos: %s, %s %s, %d frames/session, Qp %d, %s, GOMAXPROCS %d\n",
		r.URL, r.Profile, r.Size, r.Frames, r.Qp, r.Searcher, r.GoMaxProc)
	out += fmt.Sprintf("%6s %9s %7s %12s %9s\n", "level", "psnr-y dB", "kbps", "enc ms/frame", "verified")
	for _, l := range r.Levels {
		v := "-"
		if l.PinnedVerified {
			v = "yes"
		}
		out += fmt.Sprintf("%6d %9.2f %7.1f %12.2f %9s\n", l.Level, l.PSNRY, l.Kbps, l.EncodeMsPerFrame, v)
	}
	out += fmt.Sprintf("%8s %8s %10s %9s %10s %10s %13s %11s %8s %9s\n",
		"sessions", "frames", "wall s", "frames/s", "gap p50ms", "gap p99ms", "final levels", "transitions", "deg/res", "restored")
	for _, p := range r.Points {
		rst := "no"
		if p.RestoredToZero {
			rst = "yes"
		}
		out += fmt.Sprintf("%8d %8d %10.2f %9.1f %10.2f %10.2f %13s %11d %5d/%-3d %8s\n",
			p.Sessions, p.TotalFrames, p.WallSeconds, p.FramesPerSec,
			p.FrameMsP50, p.FrameMsP99, formatLevelHist(p.QosFinalLevels),
			p.QosTransitions, p.Degrades, p.Restores, rst)
		out += formatWorst(p.Worst)
	}
	return out
}
