package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The served system's binaries, built by run.sh from this checkout.
var (
	vcodecdBin = filepath.Join(buildDir, "bin", "vcodecd")
	gatewayBin = filepath.Join(buildDir, "bin", "vcodec-gateway")
)

// fleet is one vcodecd behind one vcodec-gateway, both on loopback
// ports the processes pick themselves.
type fleet struct {
	backend, gateway *exec.Cmd
	beURL, gwURL     string
}

// startFleet launches vcodecd, then the gateway in front of it, and
// returns once the gateway reports an eligible backend.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	var err error
	beAddr := filepath.Join(dir, "vcodecd.addr")
	gwAddr := filepath.Join(dir, "gateway.addr")
	os.Remove(beAddr)
	os.Remove(gwAddr)
	if f.backend, f.beURL, err = launch(dir, vcodecdBin, beAddr, "-addr", "127.0.0.1:0", "-addrfile", beAddr); err != nil {
		return nil, err
	}
	if f.gateway, f.gwURL, err = launch(dir, gatewayBin, gwAddr, "-addr", "127.0.0.1:0", "-addrfile", gwAddr,
		"-backends", f.beURL, "-poll-interval", "20ms"); err != nil {
		f.stop()
		return nil, err
	}
	// Health polls close their connections, so that during the timed work
	// the load generator's are the only ones open.
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := poll.Get(f.gwURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("gateway not healthy after 10s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// launch starts bin with its log in dir and waits for the address it
// publishes in addrFile.
func launch(dir, bin, addrFile string, args ...string) (*exec.Cmd, string, error) {
	logf, err := os.OpenFile(filepath.Join(dir, filepath.Base(bin)+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, "", fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + strings.TrimSpace(string(b)), nil
		}
		if time.Now().After(deadline) {
			stopCmd(cmd)
			return nil, "", fmt.Errorf("%s published no address within 10s", bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the gateway down, then the backend, each with SIGTERM (a
// graceful drain), and returns their summed peak resident memory.
func (f *fleet) stop() float64 {
	rss := 0.0
	for _, c := range []*exec.Cmd{f.gateway, f.backend} {
		if c != nil {
			r := stopCmd(c)
			fmt.Fprintf(os.Stderr, "perfbench: %s peak RSS %.1f MB\n", filepath.Base(c.Path), r)
			rss += r
		}
	}
	return rss
}

// stopCmd reads c's peak resident memory, then terminates it,
// escalating to SIGKILL after 10s, and waits for it. The peak is read
// from /proc while the process lives: the exit-time rusage of a child
// also counts the memory of the process that spawned it.
func stopCmd(c *exec.Cmd) float64 {
	rss := peakRSSMB(c.Process.Pid)
	_ = c.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reports that
	done := make(chan struct{})
	go func() {
		_ = c.Wait() // a drained server exits 0; a killed one is reported by its log
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.Process.Kill()
		<-done
	}
	return rss
}

// peakRSSMB is a live process's peak resident memory (VmHWM) in MB, or 0
// if it cannot be read.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setupFleet launches the fleet setupRepeats times, each time until a
// warm-up session through the gateway has completed, and keeps the last
// one running. It returns the set-up times.
func setupFleet(dir string, warm func(*fleet) error) (*fleet, []float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f, err := startFleet(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(f); err != nil {
			f.stop()
			return nil, nil, fmt.Errorf("warm-up session: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return f, times, nil
		}
		f.stop()
	}
	panic("unreachable")
}

// promSample is one scraped Prometheus text line, keyed by the metric
// name with its label set.
type promSample map[string]float64

// scrape fetches a /metrics page and closes the connection it used.
func scrape(c *http.Client, url string) (promSample, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer c.CloseIdleConnections()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", url, resp.Status)
	}
	s := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s, sc.Err()
}

// delta is after minus before for one series.
func delta(before, after promSample, key string) float64 { return after[key] - before[key] }

// sumPrefix sums every series of a metric family (all label sets).
func (s promSample) sumPrefix(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates quantile q of the observations a histogram
// gained between two scrapes, interpolating inside the log bucket the
// quantile falls in. It returns milliseconds.
func histQuantile(before, after promSample, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, name+"_bucket{le=\"") {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, name+"_bucket{le=\""), "\"}")
		if le == "+Inf" {
			continue
		}
		x, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{x, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := delta(before, after, name+"_count")
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			frac := 0.0
			if b.n > prevN {
				frac = (rank - prevN) / (b.n - prevN)
			}
			return (prevLe + frac*(b.le-prevLe)) * 1000
		}
		prevLe, prevN = b.le, b.n
	}
	return bs[len(bs)-1].le * 1000
}
