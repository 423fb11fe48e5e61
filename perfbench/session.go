package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// newClient is the load generator's HTTP client. It opens no more
// connections than the host has CPUs.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}}
}

// session is one simulcast upload to /encode, sent as fast as the server
// reads it; the response is the rungs' interleaved packet records.
type session struct {
	clip    *clip
	frames  int // frames uploaded (a prefix of the clip)
	query   string
	rungs   int
	traceID string
}

// sessionOut is what the client saw of one session.
type sessionOut struct {
	start time.Time
	done  []time.Time // when the last byte of each frame's last packet arrived
	first time.Duration
	wall  time.Duration
	got   *encoded // received packets, indexed like a reference encode
	err   error    // transport, status or trailer error
}

var errSessionOver = errors.New("session over")

// run streams the session's Y4M upload and reads the packet stream back
// concurrently, timestamping every packet as it completes.
func (s session) run(c *http.Client, url string) *sessionOut {
	out := &sessionOut{done: make([]time.Time, s.frames), got: &encoded{packets: make([][][]byte, s.rungs)}}
	for r := range out.got.packets {
		out.got.packets[r] = make([][]byte, s.frames+1)
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/encode?"+s.query, pr)
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set(obs.TraceIDHeader, s.traceID)

	out.start = time.Now()
	wrote := make(chan error, 1)
	go func() {
		_, err := pw.Write(s.clip.y4m[:s.clip.headerLen])
		for i := 0; i < s.frames && err == nil; i++ {
			_, err = pw.Write(s.clip.frameBytes(i))
		}
		pw.CloseWithError(err) // nil closes cleanly: end of upload
		wrote <- err
	}()

	out.err = s.read(c, req, out)
	pr.CloseWithError(errSessionOver) // unblocks the writer if the server stopped reading
	if werr := <-wrote; out.err == nil && werr != nil && !errors.Is(werr, errSessionOver) {
		out.err = fmt.Errorf("upload: %w", werr)
	}
	out.wall = time.Since(out.start)
	return out
}

func (s session) read(c *http.Client, req *http.Request, out *sessionOut) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %s: %s", resp.Status, b)
	}
	seen := make([]int, s.frames+1) // rungs received per packet index
	lr := codec.NewLadderPacketReader(resp.Body)
	for {
		rung, idx, data, err := lr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		now := time.Now()
		if rung < 0 || rung >= s.rungs || idx < 0 || idx > s.frames || out.got.packets[rung][idx] != nil {
			return fmt.Errorf("unexpected record rung %d index %d", rung, idx)
		}
		out.got.packets[rung][idx] = data
		if idx == 0 {
			continue
		}
		if out.first == 0 {
			out.first = now.Sub(out.start)
		}
		if seen[idx]++; seen[idx] == s.rungs {
			out.done[idx-1] = now
		}
	}
	if e := resp.Trailer.Get("X-Vcodec-Error"); e != "" {
		return fmt.Errorf("session error trailer: %s", e)
	}
	return nil
}

// fetchRecord reads a finished session's flight record through the
// gateway. It must only be called after the session's response ended:
// the recorder's snapshot of a running session can skip frames.
func fetchRecord(c *http.Client, url, traceID string) (*obs.Record, error) {
	resp, err := c.Get(url + "/debug/vcodec/trace?id=" + traceID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: %s", traceID, resp.Status)
	}
	var rec obs.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, fmt.Errorf("trace %s: %w", traceID, err)
	}
	if !rec.Done {
		return nil, fmt.Errorf("trace %s: session not finished", traceID)
	}
	return &rec, nil
}

func countFailed(ok []bool) int {
	n := 0
	for _, g := range ok {
		if !g {
			n++
		}
	}
	return n
}

func reportErr(out *sessionOut) {
	if out.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: session failed:", out.err)
	}
}
