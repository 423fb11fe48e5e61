package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median.
const setupRepeats = 5

// warmFrames is how many frames a set-up encodes before it counts as
// ready: enough to fill the frame pools and touch every kernel.
const warmFrames = 4

// sutReport is what the library system under test reports to the
// benchmark process.
type sutReport struct {
	SetupS  []float64 `json:"setup_s"`
	FrameMs []float64 `json:"frame_ms"` // EncodeFrame latency of every timed frame
	FirstMs []float64 `json:"first_ms"` // first frame of each encode
	EncodeS []float64 `json:"encode_s"` // wall time of each encode of the clip
	Frames  int       `json:"frames"`
	Digests []string  `json:"digests"` // SHA-256 of each encode's bitstream
	PeakMB  float64   `json:"peak_mb"` // the process's own VmHWM at the end
}

// runLibrarySUT is the library workload's system under test. It runs in
// its own process so that its peak resident memory is the encoder's
// alone. Set-up reads the Y4M clip and warms an encoder; the timed loop
// then encodes the whole clip with a fresh encoder, back to back, until
// seconds have passed.
func runLibrarySUT(path string, seconds float64) error {
	cfgFor := func(fps float64) codec.Config {
		c := workloads["batch-foreman-cif"].config()
		c.FPS = fps
		return c
	}
	var (
		rep    sutReport
		frames []*frame.Frame
		fps    float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		st, err := frame.ReadY4M(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if len(st.Frames) < warmFrames {
			return fmt.Errorf("%s holds %d frames, need at least %d", path, len(st.Frames), warmFrames)
		}
		enc := codec.NewEncoder(cfgFor(st.FPS()))
		for _, f := range st.Frames[:warmFrames] {
			if _, err := enc.EncodeFrame(f); err != nil {
				return err
			}
		}
		enc.Bitstream()
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		frames, fps = st.Frames, st.FPS()
	}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		enc := codec.NewEncoder(cfgFor(fps))
		for i, f := range frames {
			t := time.Now()
			if _, err := enc.EncodeFrame(f); err != nil {
				return err
			}
			d := ms(time.Since(t))
			rep.FrameMs = append(rep.FrameMs, d)
			if i == 0 {
				rep.FirstMs = append(rep.FirstMs, d)
			}
		}
		bits := enc.Bitstream()
		rep.EncodeS = append(rep.EncodeS, time.Since(t0).Seconds())
		rep.Digests = append(rep.Digests, digest(bits))
		rep.Frames += len(frames)
	}
	rep.PeakMB = peakRSSMB(os.Getpid())
	return json.NewEncoder(os.Stdout).Encode(&rep)
}

// runBatch runs batch-foreman-cif: the clip is rendered and its serial
// reference encoded first, then a child process (the system under test)
// sets up and encodes for the measured time.
func runBatch(w *workload, o runOpts) (*result, error) {
	c, err := renderClip(w.profile, w.size, w.clip, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(c.frames)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.dir, "clip.y4m")
	if err := os.WriteFile(path, c.y4m, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--sut", path, "--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("library system under test: %w", err)
	}
	var rep sutReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("library system under test report: %w", err)
	}

	want := digest(ref.packets[0][0])
	failed, onTime := 0, 0
	for i, d := range rep.Digests {
		if d != want {
			fmt.Fprintf(os.Stderr, "perfbench: encode %d of the clip differs from the serial reference\n", i)
			failed += w.clip
			continue
		}
		for _, l := range rep.FrameMs[i*w.clip : (i+1)*w.clip] {
			if l <= latencyLimitMs {
				onTime++
			}
		}
	}
	var rates []float64
	for _, d := range rep.EncodeS {
		rates = append(rates, float64(w.clip)/d)
	}
	fps := median(rates)
	e := endToEnd{
		setupS:    rep.SetupS,
		rssMB:     rep.PeakMB,
		fps:       fps,
		frameP50:  quantile(rep.FrameMs, 0.5),
		frameP99:  tailQuantile(rep.FrameMs, 0.99),
		firstP50:  median(rep.FirstMs),
		maxFPS:    fps, // closed loop: the achieved rate is the sustainable rate
		attempted: rep.Frames,
		failed:    failed,
		onTime:    onTime,
		psnr:      ref.stats[0].AvgPSNRY(),
		kbps:      ref.stats[0].BitrateKbps(),
	}
	res := e.result()
	if o.trace {
		l, err := w.replayLedger([]*clip{c}, []*encoded{ref}, o, newTracer())
		if err != nil {
			return nil, err
		}
		res.Metrics = l.metrics()
	}
	return res, nil
}
