package experiment

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/video"
)

// The load generator's one session client. The serve sweep, the chaos
// scenarios and the QoS ramp all drive vcodecd (or the gateway) through
// runSession and classify what came back the same way; each runner then
// applies its own pass/fail policy to the outcomes.

// outcome classifies a finished session.
type outcome int

const (
	// completed: a clean end carrying every frame, byte-identical to the
	// reference when one was given.
	completed outcome = iota
	// explicitFail: the session failed loudly — a transport error, a
	// non-200, an X-Vcodec-Error trailer, or a record cut off mid-read.
	explicitFail
	// truncated: a clean end that is not the complete clip — the wrong
	// frame count, an out-of-order index or a byte mismatch. Neither
	// failover nor graceful degradation may ever produce one.
	truncated
)

// session is one client's request.
type session struct {
	url     string   // full /encode URL, query included
	upload  []byte   // the Y4M clip
	frames  int      // frame packets the stream must carry
	ref     [][]byte // offline packets to byte-compare (nil: no byte check)
	retries int      // 503 re-submissions honoring Retry-After (0: none)
}

// sessionSample is one client's observations.
type sessionSample struct {
	outcome     outcome
	err         error
	firstPacket time.Duration   // accepted submission → first frame packet
	frameGaps   []time.Duration // between consecutive frame packets
	wall        time.Duration   // accepted submission → stream drained
	frames      int
	bytes       int64
	retries503  int
	qosLevel    int    // final QoS level (trailer)
	qosChanges  int    // mid-stream level transitions (trailer)
	traceID     string // X-Vcodec-Trace trailer — flight-recorder key
	backend     string // X-Vcodec-Backend trailer (gateway runs)
	attempts    int    // X-Vcodec-Attempts trailer (1 when absent)
}

// runSession uploads the clip, streams the packets back and timestamps
// each arrival. A 503 is re-submitted after its advertised Retry-After,
// up to s.retries times. Packet indices must run 0, 1, 2, … and, with a
// reference, every packet is compared byte for byte as it arrives.
func runSession(client *http.Client, s session) sessionSample {
	var out sessionSample
	fail := func(o outcome, err error) sessionSample {
		out.outcome, out.err = o, err
		return out
	}
	var resp *http.Response
	var begin time.Time
	for {
		begin = time.Now() // startup latency is per accepted submission
		var err error
		resp, err = client.Post(s.url, "video/x-yuv4mpeg", bytes.NewReader(s.upload))
		if err != nil {
			return fail(explicitFail, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || out.retries503 >= s.retries {
			break
		}
		delay := 200 * time.Millisecond
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			delay = time.Duration(ra) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out.retries503++
		time.Sleep(delay)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fail(explicitFail, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}

	pr := codec.NewPacketReader(resp.Body)
	var mismatch error
	var last time.Time
	for n := 0; ; n++ {
		idx, data, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(explicitFail, err) // cut mid-record: loud, detectable
		}
		now := time.Now()
		out.bytes += int64(len(data))
		switch {
		case mismatch != nil:
		case idx != n:
			mismatch = fmt.Errorf("packet %d arrived with index %d", n, idx)
		case s.ref != nil && (n >= len(s.ref) || !bytes.Equal(data, s.ref[n])):
			mismatch = fmt.Errorf("packet %d differs from the offline encoder", n)
		}
		if n == 0 {
			continue // header packet: startup is measured to the first frame
		}
		if out.frames == 0 {
			out.firstPacket = now.Sub(begin)
		} else {
			out.frameGaps = append(out.frameGaps, now.Sub(last))
		}
		last = now
		out.frames++
	}
	out.wall = time.Since(begin)
	trailer := resp.Trailer
	out.qosLevel, _ = strconv.Atoi(trailer.Get("X-Vcodec-Qos-Level"))
	out.qosChanges, _ = strconv.Atoi(trailer.Get("X-Vcodec-Qos-Transitions"))
	out.traceID = trailer.Get(obs.TraceIDHeader)
	out.backend = trailer.Get("X-Vcodec-Backend")
	out.attempts = 1
	if a, err := strconv.Atoi(trailer.Get("X-Vcodec-Attempts")); err == nil {
		out.attempts = a
	}
	switch {
	case trailer.Get("X-Vcodec-Error") != "":
		return fail(explicitFail, fmt.Errorf("server: %s", trailer.Get("X-Vcodec-Error")))
	case mismatch != nil:
		return fail(truncated, mismatch)
	case out.frames != s.frames:
		return fail(truncated, fmt.Errorf("clean stream with %d/%d frames", out.frames, s.frames))
	}
	return out
}

// burst is one batch of concurrent sessions.
type burst struct {
	samples []sessionSample
	wall    time.Duration
}

// runBurst runs n sessions concurrently, session i as req(i) describes
// it, and waits for all of them.
func runBurst(client *http.Client, n int, req func(i int) session) *burst {
	b := &burst{samples: make([]sessionSample, n)}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.samples[i] = runSession(client, req(i))
		}()
	}
	wg.Wait()
	b.wall = time.Since(start)
	return b
}

// count returns how many sessions ended with outcome o.
func (b *burst) count(o outcome) int {
	n := 0
	for i := range b.samples {
		if b.samples[i].outcome == o {
			n++
		}
	}
	return n
}

// requireCompleted is the serve and QoS policy: every session must
// complete.
func (b *burst) requireCompleted() error {
	failed := len(b.samples) - b.count(completed)
	if failed == 0 {
		return nil
	}
	var first error
	for i := range b.samples {
		if first = b.samples[i].err; first != nil {
			break
		}
	}
	return fmt.Errorf("%d/%d sessions failed (%d truncated): %w", failed, len(b.samples), b.count(truncated), first)
}

// latencies returns the completed sessions' first-packet times and
// frame gaps.
func (b *burst) latencies() (firsts, gaps []time.Duration) {
	for i := range b.samples {
		if s := &b.samples[i]; s.outcome == completed {
			firsts = append(firsts, s.firstPacket)
			gaps = append(gaps, s.frameGaps...)
		}
	}
	return firsts, gaps
}

// worst names the slowest completed session and pulls its timeline back
// from the endpoints' flight recorders before later sessions push it out
// of the completed ring (nil when no completed session has a trace ID).
func (b *burst) worst(client *http.Client, bases []string) *WorstSession {
	var s *sessionSample
	for i := range b.samples {
		c := &b.samples[i]
		if c.outcome == completed && c.traceID != "" && (s == nil || c.wall > s.wall) {
			s = c
		}
	}
	if s == nil {
		return nil
	}
	w := &WorstSession{
		TraceID:       s.traceID,
		Backend:       s.backend,
		Attempts:      s.attempts,
		WallMs:        float64(s.wall.Nanoseconds()) / 1e6,
		FirstPacketMs: float64(s.firstPacket.Nanoseconds()) / 1e6,
		GapP99Ms:      quantileMs(s.frameGaps, 0.99),
	}
	w.Timeline, w.DroppedFrames = fetchTimeline(client, bases, s.traceID)
	return w
}

// renderClip renders a benchmark's synthetic upload: the frames, for the
// offline reference encode, and their Y4M bytes at 30 fps.
func renderClip(p video.Profile, size frame.Size, n int, seed uint64) ([]*frame.Frame, []byte, error) {
	frames := video.Generate(p, size, n, seed)
	var body bytes.Buffer
	err := frame.WriteY4M(&body, frames, 30, 1)
	return frames, body.Bytes(), err
}

// SelfHost serves a vcodecd built from cfg on a loopback port, in
// process, and returns its base URL and a func that shuts it down.
func SelfHost(cfg server.Config) (string, func(), error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}, nil
}

// WaitHealthy polls every endpoint's /healthz until it answers 200 OK. A
// transport error or any other status — a gateway answers 503 until one
// of its backends is eligible — counts as not yet healthy; after timeout
// it gives up with the last reason.
func WaitHealthy(bases []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, base := range bases {
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("endpoint %s not healthy after %v: %w", base, timeout, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// scrapeCounters sums each named metric family, over all its label sets,
// across the endpoints' /metrics. An unreachable endpoint, or one that
// does not export a family, contributes zero.
func scrapeCounters(client *http.Client, bases []string, families ...string) []int64 {
	sums := make([]int64, len(families))
	for _, base := range bases {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, found := strings.Cut(sc.Text(), " ")
			if !found {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				continue
			}
			name, _, _ = strings.Cut(name, "{")
			if i := slices.Index(families, name); i >= 0 {
				sums[i] += int64(v)
			}
		}
		resp.Body.Close()
	}
	return sums
}
