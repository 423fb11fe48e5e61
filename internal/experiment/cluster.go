package experiment

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/gateway"
	"repro/internal/gateway/chaos"
	"repro/internal/server"
	"repro/internal/video"
)

// ClusterConfig drives the chaos-scenario cluster benchmark behind
// BENCH_cluster.json: a vcodec-gateway fronting N vcodecd backends is put
// through named fault scenarios while every session byte-verifies its
// stream end to end. The invariant under test is the gateway's delivery
// contract: under every fault a session either completes byte-identical
// to the offline encoder (possibly after retry) or fails with an explicit
// error — never a truncated stream passed off as a complete one.
type ClusterConfig struct {
	// URLs lists the endpoints to drive (multi-endpoint targets: sessions
	// round-robin across them). Empty means self-host a full topology —
	// backends, chaos proxies, gateway — in-process.
	URLs []string
	// Backends is the self-hosted backend count (default 2).
	Backends int
	// Scenarios to run, in order (default all of Scenarios).
	Scenarios []string
	// Sessions per scenario burst (default 8).
	Sessions int
	// Frames per session (default 24) plus the clip shape, as in
	// ServeConfig.
	Frames   int
	Size     frame.Size
	Profile  video.Profile
	Qp       int
	Seed     uint64
	Searcher string
	Entropy  string
	// Retry503, when set, makes the client honor a 503's Retry-After and
	// re-submit the session (up to RetryMax times) — the load generator's
	// side of admission control.
	Retry503 bool
	RetryMax int
}

// Scenarios are the named fault plans, in escalation order.
var Scenarios = []string{"baseline", "degraded-latency", "backend-crash", "partition", "high-load"}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Backends <= 0 {
		c.Backends = 2
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = Scenarios
	}
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.Frames <= 0 {
		c.Frames = 24
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

// ClusterPoint is one scenario's outcome.
type ClusterPoint struct {
	Scenario string `json:"scenario"`
	Sessions int    `json:"sessions"`
	// Completed sessions finished with a stream byte-identical to the
	// offline encoder — every one is verified, not a sample.
	Completed int `json:"completed"`
	// Retried counts completed sessions that needed more than one
	// dispatch attempt (X-Vcodec-Attempts > 1).
	Retried int `json:"retried"`
	// FailedExplicit counts sessions that failed loudly: a non-200, a
	// transport error, or an X-Vcodec-Error trailer. Under chaos these
	// are legitimate outcomes.
	FailedExplicit int `json:"failed_explicit"`
	// Truncated counts contract violations: a stream that ended cleanly,
	// claimed no error, and was not the complete byte-identical clip.
	// RunCluster fails the whole benchmark if any scenario has one.
	Truncated        int     `json:"truncated"`
	Client503Retries int     `json:"client_503_retries,omitempty"`
	WallSeconds      float64 `json:"wall_seconds"`
	FirstPacketMsP50 float64 `json:"first_packet_ms_p50"`
	FirstPacketMsP99 float64 `json:"first_packet_ms_p99"`
	// GatewayRetries/BreakerTrips are the gateway metric deltas across
	// the scenario (zero when driving bare backends).
	GatewayRetries int64 `json:"gateway_retries"`
	BreakerTrips   int64 `json:"breaker_trips"`
	// Worst names the scenario's slowest completed session by trace ID,
	// timeline fetched through the gateway's fleet-wide trace proxy.
	Worst *WorstSession `json:"worst_session,omitempty"`
}

// ClusterResult is the full chaos report, serialisable to
// BENCH_cluster.json.
type ClusterResult struct {
	URLs     []string       `json:"urls"`
	Backends int            `json:"backends"`
	Profile  string         `json:"profile"`
	Size     string         `json:"size"`
	Frames   int            `json:"frames_per_session"`
	Qp       int            `json:"qp"`
	Searcher string         `json:"searcher"`
	Entropy  string         `json:"entropy,omitempty"`
	Points   []ClusterPoint `json:"points"`
}

// selfCluster is the in-process topology: real vcodecd servers, a chaos
// proxy in front of each, and a gateway routing across the proxies.
type selfCluster struct {
	stops []func() // the backends'
	fleet *chaos.Fleet
	gw    *gateway.Gateway
	gwSrv *http.Server
	url   string
}

func startSelfCluster(cfg ClusterConfig) (*selfCluster, error) {
	c := &selfCluster{}
	fail := func(err error) (*selfCluster, error) {
		c.close()
		return nil, err
	}
	var targets []string
	for i := 0; i < cfg.Backends; i++ {
		// Small per-backend admission so high-load actually sheds: the
		// gateway's retry path is part of the topology under test.
		url, stop, err := SelfHost(server.Config{MaxSessions: 4, MaxQueued: 2})
		if err != nil {
			return fail(err)
		}
		c.stops = append(c.stops, stop)
		targets = append(targets, strings.TrimPrefix(url, "http://"))
	}
	fleet, err := chaos.NewFleet(targets)
	if err != nil {
		return fail(err)
	}
	c.fleet = fleet
	gw, err := gateway.New(gateway.Config{
		Backends:     fleet.URLs(),
		PollInterval: 100 * time.Millisecond,
		// Short enough that a partitioned committed stream resolves within
		// the scenario window, long enough to never fire on a healthy one.
		StreamIdleTimeout: 1500 * time.Millisecond,
		BreakerCooldown:   time.Second,
		MaxSessions:       256,
	})
	if err != nil {
		return fail(err)
	}
	c.gw = gw
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	c.gwSrv = &http.Server{Handler: gw.Handler()}
	go c.gwSrv.Serve(gln)
	c.url = "http://" + gln.Addr().String()
	return c, nil
}

func (c *selfCluster) close() {
	if c == nil {
		return
	}
	if c.gwSrv != nil {
		c.gwSrv.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	if c.fleet != nil {
		c.fleet.Close()
	}
	for _, stop := range c.stops {
		stop()
	}
}

// RunCluster runs the configured chaos scenarios and aggregates the
// report. It returns an error — not a report — if any scenario produced
// a truncated-but-clean session, because that is the one outcome the
// gateway contract forbids.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()

	var self *selfCluster
	urls := cfg.URLs
	if len(urls) == 0 {
		var err error
		if self, err = startSelfCluster(cfg); err != nil {
			return nil, err
		}
		defer self.close()
		urls = []string{self.url}
	} else {
		for _, sc := range cfg.Scenarios {
			if sc != "baseline" && sc != "high-load" {
				return nil, fmt.Errorf("scenario %q needs fault injection: it runs self-hosted only (omit -url)", sc)
			}
		}
	}
	if err := WaitHealthy(urls, 10*time.Second); err != nil {
		return nil, err
	}

	frames, upload, err := renderClip(cfg.Profile, cfg.Size, cfg.Frames, cfg.Seed)
	if err != nil {
		return nil, err
	}
	scfg, err := offlineConfig(ServeConfig{Qp: cfg.Qp, Searcher: cfg.Searcher, Entropy: cfg.Entropy})
	if err != nil {
		return nil, err
	}
	offline, _, err := codec.EncodePackets(scfg, frames)
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{
		URLs:     urls,
		Backends: cfg.Backends,
		Profile:  cfg.Profile.String(),
		Size:     fmt.Sprintf("%dx%d", cfg.Size.W, cfg.Size.H),
		Frames:   cfg.Frames,
		Qp:       cfg.Qp,
		Searcher: cfg.Searcher,
		Entropy:  cfg.Entropy,
	}
	client := &http.Client{}
	for _, name := range cfg.Scenarios {
		pt, err := runScenario(client, name, urls, upload, offline, cfg, self)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// runScenario fires one burst of sessions under one named fault plan.
func runScenario(client *http.Client, name string, urls []string, upload []byte, offline [][]byte, cfg ClusterConfig, self *selfCluster) (*ClusterPoint, error) {
	sessions := cfg.Sessions
	if name == "high-load" {
		// Oversubscribe the fleet: self-hosted backends admit 4+2 each, so
		// 3x the configured burst guarantees 503s and gateway retries.
		sessions = cfg.Sessions * 3
	}
	// An outage lands mid-burst, as the faulted backend starts answering
	// its first session: however short the burst, that backend is serving
	// it then. The outage lasts 1.5 s or until the burst drains, whichever
	// comes first, so it cannot leak into the next scenario.
	var proxy *chaos.Proxy
	burstDone := make(chan struct{})
	var outages sync.WaitGroup
	if self != nil {
		proxy = self.fleet.Proxies[0] // chaos always hits the first backend
		restart := func() {
			outages.Add(1)
			go func() {
				defer outages.Done()
				t := time.NewTimer(1500 * time.Millisecond)
				defer t.Stop()
				select {
				case <-t.C:
				case <-burstDone:
				}
				proxy.SetPlan(chaos.Plan{})
			}()
		}
		switch name {
		case "degraded-latency":
			proxy.SetPlan(chaos.Plan{Latency: 15 * time.Millisecond})
		case "backend-crash":
			// The backend "process" dies: established connections reset,
			// new ones are refused until the restart.
			proxy.ArmOnSession(chaos.Plan{RefuseNew: true}, true, restart)
		case "partition":
			// Sockets stay open, bytes stop. The stall catches sessions
			// before their first byte, and the gateway's first-packet
			// timeout outlasts it, so they must wait it out and complete
			// byte-identical; a committed stream it caught would fail via
			// the idle watchdog.
			proxy.ArmOnSession(chaos.Plan{Stall: true}, false, restart)
		}
	}

	scfg := ServeConfig{Qp: cfg.Qp, Searcher: cfg.Searcher, Entropy: cfg.Entropy, Retry503: cfg.Retry503, RetryMax: cfg.RetryMax}
	counters := []string{"gateway_retries_total", "gateway_backend_breaker_trips_total"}
	before := scrapeCounters(client, urls, counters...)
	// Every session byte-verifies: under a fault each one must complete
	// identical to the offline encoder or fail loudly.
	b := runBurst(client, sessions, func(i int) session {
		url := sessionURL(urls[i%len(urls)], i, false, scfg)
		return session{url: url, upload: upload, frames: cfg.Frames, ref: offline, retries: scfg.retries()}
	})
	if proxy != nil {
		// Lift (or disarm) the fault, stop the restart timer, then let
		// breakers close and health polls settle before the next scenario
		// starts from a clean fleet.
		proxy.SetPlan(chaos.Plan{})
		close(burstDone)
		outages.Wait()
		time.Sleep(300 * time.Millisecond)
	}
	after := scrapeCounters(client, urls, counters...)

	pt := &ClusterPoint{
		Scenario:       name,
		Sessions:       sessions,
		Completed:      b.count(completed),
		FailedExplicit: b.count(explicitFail),
		Truncated:      b.count(truncated),
		WallSeconds:    b.wall.Seconds(),
		GatewayRetries: after[0] - before[0],
		BreakerTrips:   after[1] - before[1],
		// The scenario's tail, timeline resolved through the gateway's
		// trace proxy (best-effort under chaos — the serving backend may
		// be the one that just died).
		Worst: b.worst(client, urls),
	}
	for i := range b.samples {
		s := &b.samples[i]
		pt.Client503Retries += s.retries503
		if s.outcome == completed && s.attempts > 1 {
			pt.Retried++
		}
	}
	firsts, _ := b.latencies()
	pt.FirstPacketMsP50 = quantileMs(firsts, 0.50)
	pt.FirstPacketMsP99 = quantileMs(firsts, 0.99)

	// The cluster policy: explicit failures are legitimate under a fault,
	// a truncation never is.
	if pt.Truncated > 0 {
		return nil, fmt.Errorf("%d sessions returned truncated-but-clean streams (delivery contract violated)", pt.Truncated)
	}
	if pt.Completed == 0 {
		return nil, fmt.Errorf("no session completed (%d explicit failures)", pt.FailedExplicit)
	}
	if name == "baseline" && pt.FailedExplicit > 0 {
		return nil, fmt.Errorf("%d failures with no fault injected", pt.FailedExplicit)
	}
	return pt, nil
}

// FormatCluster renders the chaos report as an aligned text table.
func FormatCluster(r *ClusterResult) string {
	out := fmt.Sprintf("cluster: %s, %d backends, %s %s, %d frames/session, Qp %d, %s\n",
		strings.Join(r.URLs, ","), r.Backends, r.Profile, r.Size, r.Frames, r.Qp, r.Searcher)
	out += fmt.Sprintf("%-18s %9s %10s %8s %9s %10s %8s %9s %12s %12s\n",
		"scenario", "sessions", "completed", "retried", "failed", "truncated", "wall s", "gw-retry", "first p50ms", "first p99ms")
	for _, p := range r.Points {
		out += fmt.Sprintf("%-18s %9d %10d %8d %9d %10d %8.2f %9d %12.1f %12.1f\n",
			p.Scenario, p.Sessions, p.Completed, p.Retried, p.FailedExplicit, p.Truncated,
			p.WallSeconds, p.GatewayRetries, p.FirstPacketMsP50, p.FirstPacketMsP99)
		out += formatWorst(p.Worst)
	}
	return out
}
