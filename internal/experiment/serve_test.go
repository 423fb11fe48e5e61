package experiment

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// TestRunServeWorstSession drives the serving benchmark against an
// in-process vcodecd and pins the flight-recorder contract the reports
// depend on: every point names its slowest session by trace ID, the
// timeline fetched for that ID has one event per streamed frame, and
// the rendered report prints both.
func TestRunServeWorstSession(t *testing.T) {
	srv := server.New(server.Config{MaxSessions: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	res, err := RunServe(ServeConfig{
		URLs:     []string{ts.URL},
		Sessions: []int{2},
		Frames:   4,
		Size:     frame.SQCIF,
		Profile:  video.Foreman,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	w := res.Points[0].Worst
	if w == nil {
		t.Fatal("point has no worst session")
	}
	if w.TraceID == "" {
		t.Error("worst session has no trace ID")
	}
	if w.WallMs <= 0 {
		t.Errorf("worst session wall %v ms", w.WallMs)
	}
	if len(w.Timeline) != 4 {
		t.Fatalf("worst-session timeline has %d events, want 4", len(w.Timeline))
	}
	for _, ev := range w.Timeline {
		if ev.Bits <= 0 || ev.AnalysisMs <= 0 {
			t.Errorf("frame %d: bits=%d analysis=%.3fms", ev.Index, ev.Bits, ev.AnalysisMs)
		}
	}

	report := FormatServe(res)
	if !strings.Contains(report, "trace="+w.TraceID) {
		t.Errorf("report does not name the worst session's trace ID:\n%s", report)
	}
	if !strings.Contains(report, "frame   3") {
		t.Errorf("report does not dump the per-frame timeline:\n%s", report)
	}
}

// TestRunClusterScenarios runs the chaos benchmark self-hosted through a
// fault-free and a backend-crash scenario. RunCluster itself fails on any
// truncated session; on top, every session must be accounted for, the
// worst session must carry the frame gaps the shared client records, and
// the crash must actually hit the burst: a short burst still sees at
// least one retry or explicit failure.
func TestRunClusterScenarios(t *testing.T) {
	res, err := RunCluster(ClusterConfig{
		Scenarios: []string{"baseline", "backend-crash"},
		Sessions:  4,
		Frames:    6,
		Size:      frame.SQCIF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	if p := res.Points[0]; p.Completed != p.Sessions {
		t.Errorf("baseline: %d/%d sessions completed", p.Completed, p.Sessions)
	}
	if p := res.Points[1]; p.Retried+p.FailedExplicit == 0 && p.GatewayRetries == 0 {
		t.Errorf("backend-crash: no retry and no failure (%d completed, %d gateway retries): the fault missed the burst",
			p.Completed, p.GatewayRetries)
	}
	for _, p := range res.Points {
		if p.Truncated != 0 || p.Completed+p.FailedExplicit != p.Sessions {
			t.Errorf("%s: %d completed + %d failed + %d truncated of %d sessions",
				p.Scenario, p.Completed, p.FailedExplicit, p.Truncated, p.Sessions)
		}
		if p.Worst == nil {
			t.Errorf("%s: no worst session", p.Scenario)
		} else if p.Worst.GapP99Ms <= 0 {
			t.Errorf("%s: worst session gap p99 %v ms over 6 frames", p.Scenario, p.Worst.GapP99Ms)
		}
	}
}

// TestRunQosPinnedLevels runs the QoS benchmark in-process at a tiny
// scale: every degradation level must byte-verify through its pinned
// session, and the ramp point must neither truncate nor stay degraded.
func TestRunQosPinnedLevels(t *testing.T) {
	res, err := RunQos(QosConfig{Sessions: []int{2}, Frames: 6, Size: frame.SQCIF})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != server.MaxQosLevel+1 {
		t.Fatalf("%d levels, want %d", len(res.Levels), server.MaxQosLevel+1)
	}
	for _, l := range res.Levels {
		if !l.PinnedVerified {
			t.Errorf("level %d: pinned session not verified", l.Level)
		}
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	// RunQos errors on any truncated or failed session, so a report means
	// every session completed; the frame total confirms it.
	if p := res.Points[0]; p.TotalFrames != 12 || !p.RestoredToZero {
		t.Errorf("ramp point: %d frames, restored %v", p.TotalFrames, p.RestoredToZero)
	}
}
