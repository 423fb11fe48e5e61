package main

// latencyLimitMs is the per-frame latency limit: three frame intervals
// at 30 fps, just above vcodecd's 75 ms QoS target.
const latencyLimitMs = 100

// endToEndUnits are the metrics a user of the system sees, with their
// units, as BENCHMARK.json lists them. Both workloads run a closed loop
// and report all of them:
//
//   - setup_s: process launch (served) or first library call (batch) to
//     ready for timed work, warm-up encode included; the median of
//     setupRepeats set-ups.
//   - peak_rss_mb: peak resident memory (VmHWM) of the system under
//     test: the library process, or vcodecd plus vcodec-gateway.
//   - fps: source frames completed per second, the median of the rates
//     of the run's encodes or sessions, so one burst of noise from
//     outside the program moves one sample.
//   - frame_ms_p50, frame_ms_p99: per-frame latency, from the previous
//     frame's completion to this frame's. A session's first frame is
//     left out: its latency is first_packet_ms_p50's sample. p99 is the
//     median of the 99th percentiles of tailWindows consecutive windows.
//   - first_packet_ms_p50: session start to the first frame packet
//     (for the library, the first EncodeFrame of an encode).
//   - max_fps: the highest rate sustained without a growing backlog or a
//     frame past the latency limit. In a closed loop that is the
//     achieved rate, so it equals fps.
//   - on_time_frac: attempted frames delivered, verified and within the
//     latency limit. It is 1 - missed_frac, reported as its complement
//     because a metric must never read 0.
//   - delivered_frac: attempted frames delivered and byte-identical to
//     the serial reference; 1 - failed_frac, for the same reason.
//   - psnr_y_db, kbps: the rate-distortion point (rung 0's PSNR and the
//     sum of all rungs' rates for the ladder).
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"peak_rss_mb":         "MB",
	"fps":                 "frames/s",
	"frame_ms_p50":        "ms",
	"frame_ms_p99":        "ms",
	"first_packet_ms_p50": "ms",
	"max_fps":             "frames/s",
	"on_time_frac":        "fraction",
	"delivered_frac":      "fraction",
	"psnr_y_db":           "dB",
	"kbps":                "kbit/s",
}

// endToEnd collects one run's end-to-end measurements.
type endToEnd struct {
	setupS             []float64
	rssMB              float64
	fps                float64
	frameP50, frameP99 float64
	firstP50           float64
	maxFPS             float64
	attempted, failed  int
	onTime             int // frames delivered, verified and within the limit
	psnr, kbps         float64
}

func (e endToEnd) result() *result {
	frac := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return float64(n) / float64(of)
	}
	v := map[string]float64{
		"setup_s":             median(e.setupS),
		"peak_rss_mb":         e.rssMB,
		"fps":                 e.fps,
		"frame_ms_p50":        e.frameP50,
		"frame_ms_p99":        e.frameP99,
		"first_packet_ms_p50": e.firstP50,
		"max_fps":             e.maxFPS,
		"on_time_frac":        frac(e.onTime, e.attempted),
		"delivered_frac":      frac(e.attempted-e.failed, e.attempted),
		"psnr_y_db":           e.psnr,
		"kbps":                e.kbps,
	}
	m := make(map[string]metric, len(v))
	for name, x := range v {
		m[name] = metric{Value: x, Unit: endToEndUnits[name]}
	}
	return &result{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}
}
