// Command vload is the load generator for vcodecd and vcodec-gateway: it
// drives M concurrent encode sessions against one or more endpoints
// (uploading a synthetic Y4M clip, streaming the packet response) across
// a sweep of session counts and reports aggregate throughput plus
// first-packet and per-frame latency percentiles — the numbers behind
// BENCH_serve.json.
//
// Usage:
//
//	vload -url http://127.0.0.1:8323 -sessions 1,4,8 -frames 30 -json BENCH_serve.json
//	vload -selfhost -sessions 1,4,8 -verify -json BENCH_serve.json
//	vload -url http://gw-a:8320,http://gw-b:8320 -sessions 8 -verify
//	vload -chaos -json BENCH_cluster.json
//	vload -qos -json BENCH_qos.json
//
// -url accepts multiple comma-separated endpoints; sessions round-robin
// across them (several gateways, or backends driven directly).
//
// -selfhost boots an in-process vcodecd on a loopback port and drives it
// over real HTTP — the one-command way to regenerate the artifact.
// -verify additionally byte-compares one session per point against the
// offline EncodePackets output, turning the throughput claim into a
// correctness claim.
//
// -retry-after makes a session honor a 503's Retry-After header: sleep
// the advertised delay and re-submit (bounded retries). Off by default
// so admission behavior stays visible in the report.
//
// -chaos switches to the cluster chaos benchmark: a self-hosted
// vcodec-gateway topology (N backends behind fault-injecting proxies) is
// run through the named scenarios — baseline, degraded-latency,
// backend-crash, partition, high-load — while every session byte-verifies
// its stream end to end; the aggregate lands in BENCH_cluster.json. With
// -url, only the no-fault-injection scenarios (baseline, high-load) can
// run against the remote endpoints. -scenarios picks a subset.
//
// -priority tags the sweep's sessions with a scheduling tier: live,
// batch, or mixed (sessions alternate — the shape that shows the QoS
// controller degrading batch before live). -qoslevel pins every session
// at a fixed degradation level; the default is adaptive, under the
// daemon's closed-loop controller, and the report's "qos levels" column
// histograms where each session's stream ended up.
//
// -qos switches to the closed-loop QoS benchmark: a self-hosted vcodecd
// with a fast control loop is ramped past saturation with mixed-priority
// sessions; each degradation level is first byte-verified through a
// pinned session against the offline encoder, and every ramp step must
// end with zero truncated sessions and the controller restored to level
// 0. The aggregate lands in BENCH_qos.json.
//
// Every report names each point's slowest session by its trace ID (the
// X-Vcodec-Trace trailer) and dumps that session's per-frame timeline —
// read, queue wait, analysis, entropy and emit latency, bits, Qp, QoS
// level — pulled from the serving node's flight recorder via
// /debug/vcodec/trace (through the gateway's fleet-wide proxy on -chaos
// runs). A tail-latency investigation starts from that ID, not from a
// percentile.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

func main() {
	var (
		url       = flag.String("url", "", "endpoint base URL(s), comma-separated (e.g. http://127.0.0.1:8323)")
		selfhost  = flag.Bool("selfhost", false, "boot an in-process daemon on a loopback port and drive it")
		pool      = flag.Int("pool", 0, "selfhost: analysis pool workers (0 = GOMAXPROCS)")
		sessions  = flag.String("sessions", "1,4,8", "comma-separated session counts to sweep")
		frames    = flag.Int("frames", 30, "frames per session")
		sizeName  = flag.String("size", "qcif", "clip size: sqcif|qcif|cif")
		profName  = flag.String("profile", "foreman", "clip profile: carphone|foreman|missamerica|table")
		qp        = flag.Int("qp", 16, "quantiser parameter")
		me        = flag.String("me", "acbm", "motion estimator")
		entropy   = flag.String("entropy", "", "entropy backend: expgolomb|arith")
		kbps      = flag.Float64("kbps", 0, "per-session rate-control target in kbit/s (0 = constant Qp)")
		seed      = flag.Uint64("seed", 0, "clip seed (0 = experiment default)")
		verify    = flag.Bool("verify", false, "byte-compare one session per point against the offline encoder")
		retryA    = flag.Bool("retry-after", false, "on 503, honor Retry-After and re-submit (bounded)")
		retryMax  = flag.Int("retry-max", 4, "max 503 re-submissions per session with -retry-after")
		priority  = flag.String("priority", "", "session scheduling tier: live|batch|mixed (default live)")
		qosPin    = flag.String("qoslevel", "", "pin sessions at this QoS level 0..3 (default adaptive)")
		chaosRun  = flag.Bool("chaos", false, "run the cluster chaos benchmark instead of the serve sweep")
		ladderRun = flag.Bool("ladder", false, "run the simulcast ladder benchmark (offline EncodeLadder vs independent encodes) instead of the serve sweep")
		rungs     = flag.Int("rungs", 0, "ladder: rung count (default 3)")
		qosRun    = flag.Bool("qos", false, "run the closed-loop QoS overload benchmark instead of the serve sweep")
		qosBin    = flag.String("daemon", "", "qos: exec this vcodecd binary as a separate process (honest gap percentiles on a saturated machine)")
		scens     = flag.String("scenarios", "", "chaos: comma-separated scenario subset (default all)")
		backends  = flag.Int("backends", 2, "chaos: self-hosted backend count")
		jsonPath  = flag.String("json", "", "write the report to this path (BENCH_serve.json / BENCH_cluster.json)")
		wait      = flag.Duration("wait", 10*time.Second, "how long to wait for /healthz before starting")
	)
	flag.Parse()

	counts, err := parseSessions(*sessions)
	if err != nil {
		fatal(err)
	}
	size, err := frame.SizeByName(*sizeName)
	if err != nil {
		fatal(err)
	}
	prof, err := video.ProfileByName(*profName)
	if err != nil {
		fatal(err)
	}
	var urls []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	switch *priority {
	case "", "live", "batch", "mixed":
	default:
		fatal(fmt.Errorf("bad -priority %q (want live, batch or mixed)", *priority))
	}

	if *ladderRun {
		if *selfhost || len(urls) > 0 {
			fatal(fmt.Errorf("-ladder is an offline benchmark; drop -selfhost/-url"))
		}
		// Ladder defaults differ from the serve sweep's (TableTennis for
		// its spatially diverse motion, a 16-aligned 2:1 top size): honor a
		// flag only when the user set it explicitly.
		lcfg := experiment.LadderConfig{Profile: video.TableTennis, Rungs: *rungs, Seed: *seed}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "frames":
				lcfg.Frames = *frames
			case "qp":
				lcfg.Qp = *qp
			case "size":
				lcfg.Size = size
			case "profile":
				lcfg.Profile = prof
			}
		})
		res, err := experiment.RunLadder(lcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.FormatLadder(res))
		if *jsonPath != "" {
			if err := res.WriteJSON(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return
	}

	if *qosRun {
		if *selfhost || len(urls) > 0 {
			fatal(fmt.Errorf("-qos self-hosts its own daemon; drop -selfhost/-url"))
		}
		// The serve sweep's defaults stop below saturation; leave the ramp
		// and clip length to RunQos unless set explicitly.
		qosCounts, qosFrames := []int(nil), 0
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sessions":
				qosCounts = counts
			case "frames":
				qosFrames = *frames
			}
		})
		res, err := experiment.RunQos(experiment.QosConfig{
			Sessions:  qosCounts,
			Frames:    qosFrames,
			Size:      size,
			Profile:   prof,
			Qp:        *qp,
			Seed:      *seed,
			Searcher:  *me,
			Entropy:   *entropy,
			DaemonBin: *qosBin,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.FormatQos(res))
		if *jsonPath != "" {
			if err := res.WriteJSON(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return
	}

	if *chaosRun {
		if *selfhost {
			fatal(fmt.Errorf("-chaos self-hosts its own topology; drop -selfhost"))
		}
		var scenarios []string
		for _, s := range strings.Split(*scens, ",") {
			if s = strings.TrimSpace(s); s != "" {
				scenarios = append(scenarios, s)
			}
		}
		res, err := experiment.RunCluster(experiment.ClusterConfig{
			URLs:      urls,
			Backends:  *backends,
			Scenarios: scenarios,
			Sessions:  counts[len(counts)-1],
			Frames:    *frames,
			Size:      size,
			Profile:   prof,
			Qp:        *qp,
			Seed:      *seed,
			Searcher:  *me,
			Entropy:   *entropy,
			Retry503:  *retryA,
			RetryMax:  *retryMax,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.FormatCluster(res))
		if *jsonPath != "" {
			if err := res.WriteJSON(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return
	}

	if *selfhost {
		if len(urls) > 0 {
			fatal(fmt.Errorf("-url and -selfhost are mutually exclusive"))
		}
		maxSess := 0
		for _, n := range counts {
			if n > maxSess {
				maxSess = n
			}
		}
		srv := server.New(server.Config{PoolWorkers: *pool, MaxSessions: maxSess})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go http.Serve(ln, srv.Handler())
		urls = []string{"http://" + ln.Addr().String()}
		fmt.Printf("vload: self-hosted daemon on %s\n", urls[0])
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("-url is required (or use -selfhost)"))
	}
	for _, u := range urls {
		if err := waitHealthy(u, *wait); err != nil {
			fatal(err)
		}
	}

	res, err := experiment.RunServe(experiment.ServeConfig{
		URLs:     urls,
		Sessions: counts,
		Frames:   *frames,
		Size:     size,
		Profile:  prof,
		Qp:       *qp,
		Seed:     *seed,
		Searcher: *me,
		Entropy:  *entropy,
		Kbps:     *kbps,
		Priority: *priority,
		QosPin:   *qosPin,
		Verify:   *verify,
		Retry503: *retryA,
		RetryMax: *retryMax,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatServe(res))
	if *jsonPath != "" {
		if err := res.WriteJSON(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v: %w", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func parseSessions(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad session count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no session counts in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vload:", err)
	os.Exit(1)
}
