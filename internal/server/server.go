package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/search"
)

// ContentType is the media type of the framed packet stream /encode
// returns (codec.PacketWriter records).
const ContentType = "application/x-vcodec-packets"

// LadderContentType is the media type a simulcast session returns: the
// rungs' packet streams interleaved as codec.LadderPacketWriter records.
const LadderContentType = "application/x-vcodec-ladder-packets"

// Trailer names carrying per-session results at the end of the packet
// stream.
const (
	TrailerFrames = "X-Vcodec-Frames"
	TrailerPSNRY  = "X-Vcodec-Psnr-Y"
	TrailerKbps   = "X-Vcodec-Kbps"
	// TrailerTargetKbps echoes the session's kbps target (rate-controlled
	// sessions only), so a client can read achieved-vs-target from the
	// trailers alone.
	TrailerTargetKbps = "X-Vcodec-Target-Kbps"
	TrailerError      = "X-Vcodec-Error"
	// TrailerRungs summarises a ladder session per rung as
	// "WxH:frames:psnrY:kbps" entries joined by ";", in rung order.
	TrailerRungs = "X-Vcodec-Rungs"
	// TrailerTrace echoes the session's trace ID (minted here, or
	// accepted from an inbound X-Vcodec-Trace header — typically the
	// gateway's), the key into /debug/vcodec/trace.
	TrailerTrace = obs.TraceIDHeader
)

// Config sizes the serving layer.
type Config struct {
	// PoolWorkers is the shared analysis pool size (0 = GOMAXPROCS).
	// This is the machine-wide analysis parallelism: sessions share it
	// fairly instead of each spinning up its own worker set.
	PoolWorkers int
	// MaxSessions caps concurrently encoding sessions (default 8).
	MaxSessions int
	// MaxQueued caps sessions waiting for admission (default 32); beyond
	// it /encode fails fast with 503.
	MaxQueued int
	// MaxFramesPerSession bounds one upload (0 = unlimited).
	MaxFramesPerSession int
	// QosInterval is the closed-loop QoS controller's tick period
	// (default 250ms). Negative disables the controller entirely:
	// sessions then encode at their requested (or pinned) level no
	// matter the load.
	QosInterval time.Duration
	// QosTargetFrameMs is the per-frame analysis latency — EncodeFrame
	// wall clock, shared-pool queueing included — the controller steers
	// the EWMA to stay under (default 75, comfortably inside an
	// interactive frame interval).
	QosTargetFrameMs float64
}

func (c Config) withDefaults() Config {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 32
	}
	if c.QosInterval == 0 {
		c.QosInterval = 250 * time.Millisecond
	}
	if c.QosTargetFrameMs <= 0 {
		c.QosTargetFrameMs = 75
	}
	return c
}

// Server is the encode service: it owns the shared analysis pool and the
// session scheduler. Serve it with net/http via Handler.
type Server struct {
	cfg   Config
	pool  *codec.Pool
	sched *scheduler
	qos   *qosController // nil when Config.QosInterval < 0
	mux   *http.ServeMux
	m     metrics
	obs   *obs.Registry // per-session flight recorders (always on)
	hist  serverHists
	start time.Time
}

// serverHists are vcodecd's latency distributions, exposed on /metrics.
// Every observation is a phase boundary the serving path already times,
// so the histograms cost one atomic add each on top of existing code.
type serverHists struct {
	firstPacket *obs.Histogram // request start → first frame packet flushed
	frameGap    *obs.Histogram // gap between consecutive frame-packet flushes
	read        *obs.Histogram // Y4M source-frame read (client upload pressure)
	analysis    *obs.Histogram // per-frame phase-1 wall clock
	entropy     *obs.Histogram // per-frame phase-2 wall clock
	emit        *obs.Histogram // per-packet write + client flush
	queueWait   *obs.Histogram // per-frame summed shared-pool queue wait
}

func newServerHists() serverHists {
	return serverHists{
		firstPacket: obs.NewHistogram("vcodecd_first_packet_seconds", "request start to first frame packet flushed"),
		frameGap:    obs.NewHistogram("vcodecd_frame_gap_seconds", "gap between consecutive frame-packet flushes"),
		read:        obs.NewHistogram("vcodecd_read_seconds", "Y4M source-frame read latency"),
		analysis:    obs.NewHistogram("vcodecd_analysis_seconds", "per-frame macroblock-analysis wall clock"),
		entropy:     obs.NewHistogram("vcodecd_entropy_seconds", "per-frame entropy-coding wall clock"),
		emit:        obs.NewHistogram("vcodecd_emit_seconds", "per-packet write plus client flush"),
		queueWait:   obs.NewHistogram("vcodecd_queue_wait_seconds", "per-frame summed shared-pool queue wait"),
	}
}

// New builds a server and starts its analysis pool and QoS control loop.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  codec.NewPool(cfg.PoolWorkers),
		sched: newScheduler(cfg.MaxSessions, cfg.MaxQueued),
		mux:   http.NewServeMux(),
		obs:   obs.NewRegistry(0),
		hist:  newServerHists(),
		start: time.Now(),
	}
	if cfg.QosInterval > 0 {
		s.qos = newQosController(cfg.QosInterval, cfg.QosTargetFrameMs, cfg.MaxSessions, s.sched)
	}
	s.mux.HandleFunc("/encode", s.handleEncode)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/vcodec/sessions", s.handleDebugSessions)
	s.mux.HandleFunc("/debug/vcodec/trace", s.handleDebugTrace)
	s.mux.HandleFunc("/debug/vcodec/qos", s.handleDebugQos)
	return s
}

// Handler returns the HTTP handler tree (/encode, /healthz, /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown: new sessions are rejected with 503 and
// the call blocks until every in-flight session has finished (or ctx
// expires). Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.beginDrain()
	return s.sched.waitIdle(ctx)
}

// Close stops the QoS control loop and releases the analysis pool. Only
// call it after Drain has returned nil (pool workers must be idle).
func (s *Server) Close() {
	if s.qos != nil {
		s.qos.close()
	}
	s.pool.Close()
}

// handleEncode runs one encode session: Y4M frames in (chunked), framed
// packets out, flushed per packet.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a YUV4MPEG2 stream", http.StatusMethodNotAllowed)
		return
	}
	cfg, opts, err := parseSessionConfig(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.sched.admit(r.Context(), opts.batch); err != nil {
		switch err {
		case errDraining, errQueueFull:
			s.m.sessionsRejected.Add(1)
			// Retry-After scales with the actual backlog and how degraded
			// the fleet already is — a rejected client under deep overload
			// backs off harder than one that just raced a full queue.
			_, queued := s.sched.counts()
			step := 0
			if s.qos != nil {
				step = s.qos.currentStep()
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queued, step, s.cfg.MaxSessions)))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default: // client gave up while queued
		}
		return
	}
	defer s.sched.release(opts.batch)
	s.m.sessionsTotal.Add(1)

	// Trace identity: accept a sanitized inbound ID (normally minted by
	// the fronting gateway) or mint one here. The ID keys the session's
	// flight recorder into /debug/vcodec/trace and is echoed in the
	// response trailers, so client, gateway and backend all name the
	// same session.
	traceID := obs.SanitizeTraceID(r.Header.Get(obs.TraceIDHeader))
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	pri := "live"
	if opts.batch {
		pri = "batch"
	}
	meName := strings.ToLower(r.URL.Query().Get("me"))
	if meName == "" {
		meName = "acbm"
	}
	rec := obs.NewFlightRecorder(traceID, obs.Meta{Priority: pri, Searcher: meName, PinnedLevel: opts.pinned, Rungs: len(opts.ladder)}, 0)
	s.obs.Add(rec)
	defer s.obs.Complete(rec)

	// pprof labels scope the session goroutine — and the pipeline writer
	// goroutine it spawns, which inherits the labels at creation — so a
	// CPU or goroutine profile taken under load attributes samples to
	// session, priority class and searcher.
	pprof.Do(r.Context(), pprof.Labels(
		"vcodec_session", traceID,
		"vcodec_priority", pri,
		"vcodec_searcher", meName,
	), func(ctx context.Context) {
		s.encodeSession(ctx, w, r, cfg, opts, rec, traceID)
	})
}

// encodeSession runs one admitted session: Y4M frames in, framed packets
// out, the flight recorder observing every phase boundary along the way.
// A plain session feeds a codec.EncodeStream and frames its packets with
// codec.PacketWriter; a ladder session (opts.ladder) feeds a
// codec.LadderStream and tags every record with its rung
// (codec.LadderPacketWriter). Ingest, emit, observation and trailers are
// shared: a plain session is rung 0 of 1.
func (s *Server) encodeSession(ctx context.Context, w http.ResponseWriter, r *http.Request, cfg codec.Config, opts sessionOpts, rec *obs.FlightRecorder, traceID string) {
	fail := func(err error) {
		rec.Finish(err)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	y4m, err := frame.NewY4MReader(r.Body)
	if err != nil {
		fail(err)
		return
	}
	ladder := len(opts.ladder) > 0
	specs, sz := opts.ladder, y4m.Size()
	switch {
	case ladder && sz != specs[0].Size:
		fail(fmt.Errorf("source is %dx%d, ladder top rung wants %dx%d", sz.W, sz.H, specs[0].Size.W, specs[0].Size.H))
		return
	case sz.W%16 != 0 || sz.H%16 != 0:
		fail(fmt.Errorf("frame size %dx%d not divisible into 16x16 macroblocks", sz.W, sz.H))
		return
	}
	if !ladder {
		specs = []codec.RungSpec{{Size: sz, TargetKbps: cfg.TargetKbps}}
	}
	if fps := y4m.FPS(); fps > 0 {
		cfg.FPS = fps
	}
	// Sessions share the machine-sized pool (never private workers) and
	// pipeline entropy of frame n over analysis of frame n+1. Per-session
	// rate profiles (kbps, budget, per-rung kbps) ride the same path: the
	// frame-lag controllers decide before analysis and observe after
	// entropy, so a rate-controlled session keeps full pool parallelism
	// and still streams the bytes the offline encoder would produce.
	cfg.Pool = s.pool
	cfg.Pipeline = true
	if opts.batch {
		cfg.Priority = codec.PriorityBatch
	}

	// QoS coupling. A pinned session (qoslevel=N) takes its degradation
	// at admission and is exempt from the controller — its whole stream
	// (every rung of a ladder) encodes at one level, byte-verifiable
	// against the offline encoder. An adaptive plain session registers
	// with the control loop and applies the controller's target level at
	// each frame hand-off below. Ladder sessions never register: the rungs
	// are the quality ladder.
	var qs *qosSession
	qosLevel := 0
	if opts.pinned >= 0 {
		qosLevel = opts.pinned
		rec.SetQosLevel(qosLevel)
	} else if s.qos != nil && !ladder {
		qs = s.qos.register(opts.batch)
		defer s.qos.unregister(qs)
	}
	cheapSearcher := &search.PBM{}

	// One encoder config per rung: shared knobs from the query, the rung's
	// bitrate target, and a fresh searcher instance each (the Rung
	// contract: a ladder's rungs analyse on parallel goroutines). The
	// observer feeds the session's flight recorder and the server-wide
	// histograms and phase counters; observation is one-way, so nothing
	// here can change an output bit.
	rungs := make([]codec.Rung, len(specs))
	for i, spec := range specs {
		rcfg := cfg
		rcfg.TargetKbps = spec.TargetKbps
		if rcfg.Searcher, err = opts.newSearcher(); err != nil {
			fail(err)
			return
		}
		if opts.pinned >= 0 {
			rcfg = ApplyQosLevel(rcfg, opts.pinned)
		}
		rcfg.Observer = &sessionObserver{rec: rec, srv: s, rung: i, rungs: len(specs)}
		rungs[i] = codec.Rung{Size: spec.Size, Cfg: rcfg}
	}

	// The response streams while the request body is still being read;
	// HTTP/1 needs full-duplex explicitly enabled (no-op error on HTTP/2).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	contentType, trailers := ContentType, []string{TrailerFrames, TrailerPSNRY, TrailerKbps, TrailerTargetKbps, TrailerQosLevel, TrailerQosTransitions, TrailerTrace, TrailerError}
	if ladder {
		contentType, trailers = LadderContentType, []string{TrailerFrames, TrailerRungs, TrailerQosLevel, TrailerTrace, TrailerError}
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Trailer", strings.Join(trailers, ", "))

	// The labelled request context (see handleEncode) dies the moment the
	// client disconnects (or a fronting gateway abandons the attempt).
	// Every per-frame step checks it, so a dead session releases its
	// scheduler slot and pool share within one frame instead of encoding
	// the rest of a buffered upload into a socket nobody reads — small
	// packets can keep "succeeding" into kernel buffers long after the
	// peer is gone.

	begin := time.Now()
	// Emit-side state: owned by whichever goroutine runs emit (the
	// pipeline writer; LadderStream serialises its rungs' emits), never
	// shared.
	var lastEmit time.Time
	var write func(rung int, p codec.Packet) error // the framing, chosen with the stream below
	emit := func(rung int, p codec.Packet) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("client gone: %w", err)
		}
		emitStart := time.Now()
		if err := write(rung, p); err != nil {
			return err
		}
		// Flush per packet: this is what turns the response into a live
		// stream (first-byte latency of one frame) and what propagates a
		// slow client's backpressure into the encode loop.
		if err := rc.Flush(); err != nil {
			return err
		}
		emitDur := time.Since(emitStart)
		if s.qos != nil && !ladder {
			s.qos.observe(0, emitDur)
		}
		s.hist.emit.Observe(emitDur)
		s.m.packetsTotal.Add(1)
		s.m.bytesOut.Add(int64(len(p.Data)))
		if p.Index > 0 {
			s.m.framesTotal.Add(1)
			rec.FrameEmitted((p.Index-1)*len(rungs)+rung, emitDur)
			now := time.Now()
			if lastEmit.IsZero() {
				s.hist.firstPacket.Observe(now.Sub(begin))
			} else {
				s.hist.frameGap.Observe(now.Sub(lastEmit))
			}
			lastEmit = now
		}
		return nil
	}

	var (
		encode  func(*frame.Frame) error
		actuate func(codec.Actuation) // adaptive QoS, plain sessions only
		finish  func() ([]*codec.SequenceStats, error)
	)
	if ladder {
		lpw := codec.NewLadderPacketWriter(w)
		write = func(rung int, p codec.Packet) error { return lpw.WritePacket(rung, p.Index, p.Data) }
		l, err := codec.NewLadderStream(rungs, emit)
		if err != nil {
			fail(err)
			return
		}
		encode, finish = l.EncodeFrame, l.Close
	} else {
		pw := codec.NewPacketWriter(w)
		write = func(_ int, p codec.Packet) error { return pw.WritePacket(p.Index, p.Data) }
		es := codec.NewEncodeStream(rungs[0].Cfg, func(p codec.Packet) error { return emit(0, p) })
		encode, actuate = es.EncodeFrame, es.Actuate
		finish = func() ([]*codec.SequenceStats, error) {
			st, err := es.Close()
			return []*codec.SequenceStats{st}, err
		}
	}

	frames := 0
	var sessionErr error
	for {
		if err := ctx.Err(); err != nil {
			sessionErr = fmt.Errorf("client gone: %w", err)
			break
		}
		readStart := time.Now()
		f, err := y4m.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			sessionErr = err
			break
		}
		readDur := time.Since(readStart)
		rec.FrameRead(frames*len(rungs), readDur) // the source read is a rung-0 event
		s.hist.read.Observe(readDur)
		if s.cfg.MaxFramesPerSession > 0 && frames >= s.cfg.MaxFramesPerSession {
			sessionErr = fmt.Errorf("session frame cap (%d) exceeded", s.cfg.MaxFramesPerSession)
			break
		}
		// Frame hand-off is the only point a QoS level may change: the
		// actuation lands on the session goroutine before this frame's
		// analysis, so the stream stays deterministic for the actuation
		// schedule it actually received.
		if qs != nil {
			if t := int(qs.target.Load()); t != qosLevel {
				actuate(qosActuationFor(t, rungs[0].Cfg.Searcher, cheapSearcher))
				rec.FrameActuated(frames, t)
				qosLevel = t
				qs.applied.Store(int32(t))
				if frames > 0 {
					qs.transitions.Add(1)
				}
				s.qos.actuations.Add(1)
			}
		}
		encStart := time.Now()
		if err := encode(f); err != nil {
			sessionErr = err
			break
		}
		if s.qos != nil {
			s.qos.observe(time.Since(encStart), 0)
		}
		frames++
	}
	stats, closeErr := finish()
	if sessionErr == nil {
		sessionErr = closeErr
	}
	s.m.sessionNs.Add(time.Since(begin).Nanoseconds())

	// Declared trailers: set after the body, shipped with the final chunk.
	w.Header().Set(TrailerFrames, strconv.Itoa(frames))
	if ladder {
		w.Header().Set(TrailerRungs, rungsTrailer(specs, stats))
	} else {
		st := stats[0]
		w.Header().Set(TrailerPSNRY, strconv.FormatFloat(st.AvgPSNRY(), 'f', 2, 64))
		w.Header().Set(TrailerKbps, strconv.FormatFloat(st.BitrateKbps(), 'f', 1, 64))
		if cfg.TargetKbps > 0 {
			w.Header().Set(TrailerTargetKbps, strconv.FormatFloat(cfg.TargetKbps, 'f', 1, 64))
			// Only completed sessions enter the tracking sums: a truncated
			// stream's bitrate (an I-frame-heavy prefix, or zero frames)
			// would skew the achieved/target ratio the metrics promise.
			if sessionErr == nil {
				s.m.rateSessions.Add(1)
				s.m.rateTargetMilliKbps.Add(int64(cfg.TargetKbps * 1000))
				s.m.rateAchievedMilliKbps.Add(int64(st.BitrateKbps() * 1000))
			}
		}
		transitions := 0
		if qs != nil {
			transitions = int(qs.transitions.Load())
		}
		w.Header().Set(TrailerQosTransitions, strconv.Itoa(transitions))
	}
	w.Header().Set(TrailerQosLevel, strconv.Itoa(qosLevel))
	w.Header().Set(TrailerTrace, traceID)
	rec.Finish(sessionErr)
	if sessionErr != nil {
		s.m.sessionsFailed.Add(1)
		w.Header().Set(TrailerError, sessionErr.Error())
		log.Printf("session %s failed after %d frames: %v", traceID, frames, sessionErr)
	}
}

// sessionObserver bridges one rung's codec.FrameObserver events into the
// session's flight recorder, keying slots as frame×rungs+rung (a plain
// session is rung 0 of 1), and into the server-wide histograms and phase
// counters. Its methods run on the session or rung goroutine
// (FrameAnalyzed) and the pipeline writer goroutine (FrameWritten);
// every target is lock-free.
type sessionObserver struct {
	rec         *obs.FlightRecorder
	srv         *Server
	rung, rungs int
}

func (o *sessionObserver) FrameAnalyzed(index int, wall, queueWait, maxStall time.Duration, intra bool, qp int) {
	o.rec.FrameAnalyzed(index*o.rungs+o.rung, wall, queueWait, maxStall, intra, qp)
	o.srv.m.analysisNs.Add(int64(wall))
	o.srv.hist.analysis.Observe(wall)
	if queueWait > 0 {
		o.srv.hist.queueWait.Observe(queueWait)
	}
}

func (o *sessionObserver) FrameWritten(index int, wall time.Duration, bits int) {
	o.rec.FrameWritten(index*o.rungs+o.rung, wall, bits)
	o.srv.m.entropyNs.Add(int64(wall))
	o.srv.hist.entropy.Observe(wall)
}

// sessionOpts carries the serving-layer (non-codec) session parameters.
type sessionOpts struct {
	// batch marks the session PriorityBatch on the shared pool (and
	// first in line for QoS degradation).
	batch bool
	// pinned, when ≥ 0, fixes the session's QoS level for its whole
	// lifetime, exempt from the controller. -1 = adaptive.
	pinned int
	// ladder, when non-empty, makes this a simulcast session encoding
	// every rung of the chain (top rung first).
	ladder []codec.RungSpec
	// newSearcher builds a fresh motion-searcher instance from the me and
	// budget parameters; every rung of a session gets its own (stateful
	// searchers would race across rung goroutines).
	newSearcher func() (search.Searcher, error)
}

// parseSessionConfig maps /encode query parameters onto a codec.Config:
// qp, me (searcher), entropy, gop, range, ap, deblock, kbps (target
// bitrate; frame-lag rate control) and budget (target motion-search
// positions/MB; the ACBM complexity servo). Rate profiles run at full
// pool parallelism — nothing here degrades the session to serial. The
// serving-layer parameters ride alongside: priority (live|batch pool
// tier) and qoslevel (pin the session at one degradation level).
func parseSessionConfig(q url.Values) (codec.Config, sessionOpts, error) {
	cfg := codec.Config{Qp: 16}
	opts := sessionOpts{pinned: -1}
	switch strings.ToLower(q.Get("priority")) {
	case "", "live":
	case "batch":
		opts.batch = true
	default:
		return cfg, opts, fmt.Errorf("unknown priority %q (want live|batch)", q.Get("priority"))
	}
	if v := q.Get("qoslevel"); v != "" {
		n, e := strconv.Atoi(v)
		if e != nil || n < 0 || n > MaxQosLevel {
			return cfg, opts, fmt.Errorf("bad qoslevel=%q (want 0..%d)", v, MaxQosLevel)
		}
		opts.pinned = n
	}
	var err error
	intArg := func(name string, def int) int {
		v := q.Get(name)
		if v == "" {
			return def
		}
		n, e := strconv.Atoi(v)
		if e != nil && err == nil {
			err = fmt.Errorf("bad %s=%q", name, v)
		}
		return n
	}
	boolArg := func(name string) bool {
		v := q.Get(name)
		if v == "" {
			return false
		}
		b, e := strconv.ParseBool(v)
		if e != nil && err == nil {
			err = fmt.Errorf("bad %s=%q", name, v)
		}
		return b
	}
	cfg.Qp = intArg("qp", 16)
	cfg.SearchRange = intArg("range", 0)
	cfg.IntraPeriod = intArg("gop", 0)
	cfg.AdvancedPrediction = boolArg("ap")
	cfg.Deblock = boolArg("deblock")
	if v := q.Get("kbps"); v != "" {
		kbps, e := strconv.ParseFloat(v, 64)
		if e != nil || !(kbps >= 0) || math.IsInf(kbps, 0) {
			return cfg, opts, fmt.Errorf("bad kbps=%q", v)
		}
		cfg.TargetKbps = kbps
	}
	if err != nil {
		return cfg, opts, err
	}
	if cfg.Qp < 1 || cfg.Qp > 31 {
		return cfg, opts, fmt.Errorf("qp %d out of range 1..31", cfg.Qp)
	}
	if cfg.SearchRange < 0 || cfg.SearchRange > codec.MaxSearchRange {
		return cfg, opts, fmt.Errorf("range %d out of range 0..%d (0 = default %d)",
			cfg.SearchRange, codec.MaxSearchRange, codec.DefaultSearchRange)
	}
	meName, budget := q.Get("me"), 0.0
	if v := q.Get("budget"); v != "" {
		target, e := strconv.ParseFloat(v, 64)
		if e != nil || !(target > 0) || math.IsInf(target, 0) {
			return cfg, opts, fmt.Errorf("bad budget=%q (want positive positions/MB)", v)
		}
		if me := strings.ToLower(meName); me != "" && me != "acbm" {
			return cfg, opts, fmt.Errorf("budget requires the ACBM searcher (got me=%q)", meName)
		}
		budget = target
	}
	opts.newSearcher = func() (search.Searcher, error) {
		if budget > 0 {
			b, err := core.NewBudgeted(budget, core.DefaultParams)
			if err != nil {
				return nil, err
			}
			return b, nil
		}
		return core.SearcherByName(meName)
	}
	if _, err := opts.newSearcher(); err != nil {
		return cfg, opts, err
	}
	switch strings.ToLower(q.Get("entropy")) {
	case "", "expgolomb", "eg":
		cfg.Entropy = codec.EntropyExpGolomb
	case "arith", "arithmetic", "sac":
		cfg.Entropy = codec.EntropyArith
	default:
		return cfg, opts, fmt.Errorf("unknown entropy backend %q", q.Get("entropy"))
	}
	if v := q.Get("ladder"); v != "" {
		specs, e := codec.ParseLadderSpec(v)
		if e != nil {
			return cfg, opts, e
		}
		if cfg.TargetKbps > 0 {
			return cfg, opts, fmt.Errorf("kbps is per-rung in a ladder session (use ladder=WxH@kbps)")
		}
		opts.ladder = specs
	}
	return cfg, opts, nil
}
