package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
)

// perLayerUnits is the per-layer ledger a --trace 1 run prints. Every
// workload reports every entry; one that does not apply to a workload
// (the server layers on the library workload, the lower rungs outside
// the ladder) reads 0. Each comment names the end-to-end metric the
// entry should move, and on which workload.
var perLayerUnits = map[string]string{
	// → fps on batch; little on ladder. Search self time and points come
	// from a Workers=1 replay, where self times add up.
	"search.ms_per_frame":        "ms",
	"search.points_per_mb":       "count", // exact: the paper's Table 1 count
	"search.sad_bytes_per_frame": "bytes", // computed: points × 2 × 256
	// → explain search.points_per_mb; guard psnr_y_db everywhere.
	"core.fsbm_rate":     "fraction", // macroblocks escalated to full search
	"core.critical_frac": "fraction", // escalated share of those failing condition 1
	// → fps and frame_ms_p50 on ladder, less on batch.
	"codec.analysis_ms_per_frame":  "ms",
	"codec.entropy_ms_per_frame":   "ms",
	"codec.nonsearch_ms_per_frame": "ms",       // analysis minus search, Workers=1
	"codec.search_share":           "fraction", // search over analysis, Workers=1
	// → frame_ms_p99 and fps on ladder; none on batch (no pool).
	"codec.queue_wait_ms_per_frame": "ms",
	"codec.stall_ms_p99":            "ms",
	// → fps on ladder: the slowest rung limits it.
	"codec.rung_ms_per_frame.r0": "ms",
	"codec.rung_ms_per_frame.r1": "ms",
	"codec.rung_ms_per_frame.r2": "ms",
	// → kbps and psnr_y_db; allocations → peak_rss_mb and fps.
	"codec.bits_per_frame":   "bits",
	"codec.skip_mb_frac":     "fraction",
	"codec.intra_mb_frac":    "fraction",
	"codec.allocs_per_frame": "count",
	// → fps on batch and ladder; pool misses → peak_rss_mb.
	"frame.interp_bytes_per_frame": "bytes",
	"frame.pool_miss_frac":         "fraction",
	// → fps on ladder (read), frame_ms_p50 on ladder (emit),
	// delivered_frac and psnr_y_db (rejections, QoS level).
	"server.read_ms_per_frame":        "ms",
	"server.emit_ms_per_frame":        "ms",
	"server.rejected":                 "count",
	"server.qos_level_max":            "count",
	"server.offline_gap_ms_per_frame": "ms", // served per-frame time minus the library replay's
	// → first_packet_ms_p50, frame_ms_p99 and delivered_frac on ladder.
	"gateway.route_ms_p50":     "ms",
	"gateway.relay_gap_ms_p99": "ms",
	"gateway.retries":          "count",
	// Traced minus untraced replay wall time, as a share of untraced.
	"trace.overhead_pct": "%",
	// Flight-recorder frames that aged out before they were read.
	"trace.dropped_frames": "count",
}

// ledger is one traced run's per-layer values.
type ledger struct {
	v map[string]float64
	// replayMsPerFrame is the plain replay's wall time per source frame,
	// the offline side of server.offline_gap_ms_per_frame.
	replayMsPerFrame float64
}

func (l *ledger) metrics() map[string]metric {
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{Value: l.v[name], Unit: unit}
	}
	return m
}

// servedLedger collects what the served system reports about itself:
// /metrics before and after the timed phase, and, in a traced run, each
// session's flight record once the session has ended.
type servedLedger struct {
	trace             bool
	tr                *tracer
	beBefore, beAfter promSample
	gwBefore, gwAfter promSample
	records           []*obs.Record
	lags              []float64
	servedMsPerFrame  []float64 // closed-loop session wall per frame
}

func newServedLedger(trace bool) *servedLedger {
	return &servedLedger{trace: trace, tr: newTracer()}
}

// scrape snapshots both /metrics pages.
func (l *servedLedger) scrape(c *http.Client, f *fleet, before bool) error {
	be, err := scrape(c, f.beURL)
	if err != nil {
		return err
	}
	gw, err := scrape(c, f.gwURL)
	if err != nil {
		return err
	}
	if before {
		l.beBefore, l.gwBefore = be, gw
	} else {
		l.beAfter, l.gwAfter = be, gw
	}
	return nil
}

// session records one finished session: a client span keyed by its
// trace ID and, in a traced run, the backend's flight record for it,
// fetched through the gateway now that the session is over.
func (l *servedLedger) session(c *http.Client, f *fleet, s session, out *sessionOut) {
	if out.err == nil {
		l.servedMsPerFrame = append(l.servedMsPerFrame, ms(out.wall)/float64(s.frames))
	}
	if !l.trace {
		return
	}
	l.tr.add(span{Trace: s.traceID, Name: "loadgen.session"}, out.start, out.start.Add(out.wall))
	rec, err := fetchRecord(c, f.gwURL, s.traceID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: flight record:", err)
		return
	}
	l.records = append(l.records, rec)
	l.tr.extra = append(l.tr.extra, rec)
}

// fill adds the served layers to a replay ledger.
func (l *servedLedger) fill(led *ledger) {
	v := led.v
	var readMs, emitMs, queueMs float64
	var stalls []float64
	rungMs := map[int]float64{}
	frames, qmax, dropped := 0, 0, 0
	for _, r := range l.records {
		dropped += r.DroppedFrames
		for _, e := range r.Events {
			if e.Rung == 0 {
				frames++
			}
			readMs += e.ReadMs
			emitMs += e.EmitMs
			queueMs += e.QueueWaitMs
			stalls = append(stalls, e.StallMs)
			rungMs[e.Rung] += e.AnalysisMs
			if e.QosLevel > qmax {
				qmax = e.QosLevel
			}
		}
	}
	if frames > 0 {
		v["server.read_ms_per_frame"] = readMs / float64(frames)
		v["server.emit_ms_per_frame"] = emitMs / float64(frames)
		v["codec.queue_wait_ms_per_frame"] = queueMs / float64(frames)
		v["codec.stall_ms_p99"] = quantile(stalls, 0.99)
		for r := 0; r < 3; r++ {
			v[fmt.Sprintf("codec.rung_ms_per_frame.r%d", r)] = rungMs[r] / float64(frames)
		}
	}
	v["server.qos_level_max"] = float64(qmax)
	v["trace.dropped_frames"] = float64(dropped)
	v["server.rejected"] = delta(l.beBefore, l.beAfter, "vcodecd_sessions_rejected_total") +
		delta(l.gwBefore, l.gwAfter, "gateway_sessions_rejected_total")
	hits := l.beAfter.sumPrefix("vcodecd_frame_pool_hits_total") - l.beBefore.sumPrefix("vcodecd_frame_pool_hits_total")
	misses := l.beAfter.sumPrefix("vcodecd_frame_pool_misses_total") - l.beBefore.sumPrefix("vcodecd_frame_pool_misses_total")
	if hits+misses > 0 {
		v["frame.pool_miss_frac"] = misses / (hits + misses)
	}
	v["gateway.route_ms_p50"] = histQuantile(l.gwBefore, l.gwAfter, "gateway_route_seconds", 0.5)
	v["gateway.relay_gap_ms_p99"] = histQuantile(l.gwBefore, l.gwAfter, "gateway_relay_gap_seconds", 0.99)
	v["gateway.retries"] = delta(l.gwBefore, l.gwAfter, "gateway_retries_total")
	v["server.offline_gap_ms_per_frame"] = median(l.servedMsPerFrame) - led.replayMsPerFrame
}

// replayLedger replays each clip in process through the library, three
// ways, and derives the codec, search, core and frame layers from them:
//
//   - plain: the program's configuration (the library defaults for the
//     batch workload; vcodecd's shared Pool and Pipeline for served
//     ones), undecorated. It gives allocations, half-pel fill bytes and
//     the untraced wall time;
//   - traced: the same configuration with the traced searcher and
//     observer. It gives analysis, entropy and per-rung times, and its
//     wall time against plain's is the tracing overhead;
//   - serial: traced at Workers=1, where search and the rest of
//     analysis run one after the other, so their self times add up.
//
// Every replay must reproduce the reference bytes; the plain and traced
// replays run twice, alternating, and the faster of each counts. The
// replays' spans join tr's, and all of them are written out at the end.
func (w *workload) replayLedger(clips []*clip, refs []*encoded, o runOpts, tr *tracer) (*ledger, error) {
	led := &ledger{v: map[string]float64{}}
	v := led.v
	pool := codec.NewPool(0)
	defer pool.Close()
	served := w.query != ""
	program := func(c codec.Config) codec.Config {
		if served {
			c.Pool, c.Pipeline = pool, true
		}
		return c
	}

	var (
		srcFrames              int
		plainWall, tracedWall  time.Duration
		mallocs, interpB       uint64
		poolHits, poolMisses   uint64
		conf, serial           []frameTotals
		points, pframeMBs      int
		bits, skip, intra, mbs int
		stats                  core.Stats
	)
	for i, c := range clips {
		ref := refs[i]
		srcFrames += len(c.frames)
		check := func(what string, e *encoded, err error) error {
			if err != nil {
				return fmt.Errorf("%s replay: %w", what, err)
			}
			if bad := countFailed(ref.verify(e)); bad > 0 || len(e.packets[0]) != len(ref.packets[0]) {
				return fmt.Errorf("%s replay differs from the serial reference in %d frames", what, bad)
			}
			return nil
		}
		bestPlain, bestTraced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for rep := 0; rep < 2; rep++ {
			var ms0, ms1 runtime.MemStats
			_, ib0 := frame.InterpFillStats()
			h0, m0 := poolCounts()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			e, err := w.encodeWith(c.frames, func(int) codec.Config { return program(w.config()) })
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err := check("plain", e, err); err != nil {
				return nil, err
			}
			bestPlain = min(bestPlain, d)
			if rep == 0 {
				_, ib1 := frame.InterpFillStats()
				h1, m1 := poolCounts()
				mallocs += ms1.Mallocs - ms0.Mallocs
				interpB += ib1 - ib0
				poolHits += h1 - h0
				poolMisses += m1 - m0
			}

			obsv, err := w.tracedConfigs(tr, fmt.Sprintf("replay-%s-%d-%d", w.name, o.seed, i), program)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			e, err = w.encodeWith(c.frames, obsv.config)
			d = time.Since(t0)
			if err := check("traced", e, err); err != nil {
				return nil, err
			}
			bestTraced = min(bestTraced, d)
			if rep == 0 {
				conf = appendTotals(conf, obsv.observers)
			}
		}
		plainWall += bestPlain
		tracedWall += bestTraced

		obsv, err := w.tracedConfigs(tr, fmt.Sprintf("serial-%s-%d-%d", w.name, o.seed, i), func(c codec.Config) codec.Config {
			c.Workers = 1
			return c
		})
		if err != nil {
			return nil, err
		}
		e, err := w.encodeWith(c.frames, obsv.config)
		if err := check("serial traced", e, err); err != nil {
			return nil, err
		}
		serial = appendTotals(serial, obsv.observers)
		for _, a := range obsv.acbm {
			stats.Add(a.Stats())
		}
		for _, st := range e.stats {
			for _, fs := range st.Frames {
				bits += fs.Bits
				skip += fs.SkipMBs
				intra += fs.IntraMBs
				mbs += fs.Macroblocks
				if fs.Type == codec.PFrame {
					points += fs.SearchPoints
					pframeMBs += fs.Macroblocks
				}
			}
		}
	}

	n := float64(srcFrames)
	sumRung := func(ts []frameTotals, f func(frameTotals) time.Duration) float64 {
		var d time.Duration
		for _, t := range ts {
			d += f(t)
		}
		return ms(d) / n
	}
	v["search.ms_per_frame"] = sumRung(serial, func(t frameTotals) time.Duration { return t.searchSelf })
	v["codec.nonsearch_ms_per_frame"] = sumRung(serial, func(t frameTotals) time.Duration { return t.analysisSelf })
	if a := sumRung(serial, func(t frameTotals) time.Duration { return t.analysis }); a > 0 {
		v["codec.search_share"] = v["search.ms_per_frame"] / a
	}
	v["codec.analysis_ms_per_frame"] = sumRung(conf, func(t frameTotals) time.Duration { return t.analysis })
	v["codec.entropy_ms_per_frame"] = sumRung(conf, func(t frameTotals) time.Duration { return t.entropy })
	v["codec.queue_wait_ms_per_frame"] = sumRung(conf, func(t frameTotals) time.Duration { return t.queue })
	var stalls []float64
	for _, t := range conf {
		stalls = append(stalls, t.stallsMs...)
	}
	v["codec.stall_ms_p99"] = quantile(stalls, 0.99)
	for r := range w.ladderSizes() {
		var d time.Duration
		for k := r; k < len(conf); k += len(w.ladderSizes()) {
			d += conf[k].analysis
		}
		v[fmt.Sprintf("codec.rung_ms_per_frame.r%d", r)] = ms(d) / n
	}
	if pframeMBs > 0 {
		v["search.points_per_mb"] = float64(points) / float64(pframeMBs)
	}
	v["search.sad_bytes_per_frame"] = float64(points) * 2 * 256 / n
	v["core.fsbm_rate"] = stats.FSBMRate()
	if nonEasy := stats.Blocks - stats.Easy; nonEasy > 0 {
		v["core.critical_frac"] = float64(stats.CriticalCnt) / float64(nonEasy)
	}
	v["codec.bits_per_frame"] = float64(bits) / n
	if mbs > 0 {
		v["codec.skip_mb_frac"] = float64(skip) / float64(mbs)
		v["codec.intra_mb_frac"] = float64(intra) / float64(mbs)
	}
	v["codec.allocs_per_frame"] = float64(mallocs) / n
	v["frame.interp_bytes_per_frame"] = float64(interpB) / n
	if poolHits+poolMisses > 0 {
		v["frame.pool_miss_frac"] = float64(poolMisses) / float64(poolHits+poolMisses)
	}
	v["trace.overhead_pct"] = (ms(tracedWall) - ms(plainWall)) / ms(plainWall) * 100
	led.replayMsPerFrame = ms(plainWall) / n

	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return led, nil
}

// tracedRun is one decorated replay's per-rung ACBM instances, observers
// and configurations.
type tracedRun struct {
	acbm      []*core.ACBM
	observers []*tracedObserver
	cfgs      []codec.Config
}

func (t *tracedRun) config(r int) codec.Config { return t.cfgs[r] }

// tracedConfigs builds each rung's configuration with a decorated ACBM
// instance and a traced observer; adjust applies the replay's mode.
func (w *workload) tracedConfigs(tr *tracer, trace string, adjust func(codec.Config) codec.Config) (*tracedRun, error) {
	t := &tracedRun{}
	for r := range w.ladderSizes() {
		c := w.config()
		a := c.Searcher.(*core.ACBM)
		ts, err := newTracedSearcher(a)
		if err != nil {
			return nil, err
		}
		ob := newTracedObserver(tr, fmt.Sprintf("%s-r%d", trace, r), ts)
		c.Searcher, c.Observer = ts, ob
		t.acbm = append(t.acbm, a)
		t.observers = append(t.observers, ob)
		t.cfgs = append(t.cfgs, adjust(c))
	}
	return t, nil
}

func appendTotals(ts []frameTotals, obs []*tracedObserver) []frameTotals {
	for _, o := range obs {
		ts = append(ts, o.totals())
	}
	return ts
}

// poolCounts sums the frame pools' hits and misses over every class.
func poolCounts() (hits, misses uint64) {
	for _, c := range frame.PoolStats() {
		hits += uint64(c.Hits)
		misses += uint64(c.Misses)
	}
	return
}
