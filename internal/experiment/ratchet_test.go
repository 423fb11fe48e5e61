package experiment

import (
	"path/filepath"
	"strings"
	"testing"
)

func speedResultFor(t *testing.T, host Host, ns map[string]float64) *SpeedResult {
	t.Helper()
	res := &SpeedResult{Profile: "Foreman", Size: "176x144", Frames: 30, Qp: 16, Host: host}
	for name, v := range ns {
		res.Points = append(res.Points,
			SpeedPoint{Searcher: name, GoMaxProcs: 1, Workers: 1, Pipeline: false, NsPerFrame: v},
			// A pipeline point with a different time must never be picked
			// as the serial baseline.
			SpeedPoint{Searcher: name, GoMaxProcs: 1, Workers: 1, Pipeline: true, NsPerFrame: v / 2})
	}
	return res
}

func TestRatchetPinAndCheck(t *testing.T) {
	host := Host{CPUModel: "cpu-A", KernelISA: "avx2"}
	pin := speedResultFor(t, host, map[string]float64{"ACBM": 1000, "PBM": 400})
	r, err := RatchetFromSpeed(pin, SpeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Baselines["ACBM"] != 1000 || r.Baselines["PBM"] != 400 {
		t.Fatalf("baselines = %v, want serial points {ACBM:1000 PBM:400}", r.Baselines)
	}

	// Round-trip through the JSON file bench-smoke would read.
	path := filepath.Join(t.TempDir(), "BENCH_ratchet.json")
	if err := WriteJSON(path, r); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRatchet(path)
	if err != nil {
		t.Fatal(err)
	}

	// Same host, inside the band: ok.
	outcomes, err := r2.Check(speedResultFor(t, host, map[string]float64{"ACBM": 1300, "PBM": 400}))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.OK || o.CrossHost {
			t.Errorf("same-host in-band outcome not ok: %v", o)
		}
	}

	// Same host, past baseline×(1+tolerance): the regressed searcher
	// fails, the healthy one stays ok.
	outcomes, err = r2.Check(speedResultFor(t, host, map[string]float64{"ACBM": 1500, "PBM": 400}))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RatchetOutcome{}
	for _, o := range outcomes {
		byName[o.Searcher] = o
	}
	if byName["ACBM"].OK {
		t.Errorf("ACBM at 1.5x baseline with tolerance %.2f should regress: %v", r2.Tolerance, byName["ACBM"])
	}
	if !byName["PBM"].OK {
		t.Errorf("PBM unchanged should stay ok: %v", byName["PBM"])
	}

	// Different CPU model: the band widens by the cross-host multiplier,
	// so the same 1.5x measurement passes — flagged cross-host.
	other := Host{CPUModel: "cpu-B", KernelISA: "avx2"}
	outcomes, err = r2.Check(speedResultFor(t, other, map[string]float64{"ACBM": 1500, "PBM": 400}))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.OK || !o.CrossHost {
			t.Errorf("cross-host outcome should be ok and flagged: %v", o)
		}
	}

	// A baseline searcher with no serial measurement is a hard error,
	// not a silent pass.
	if _, err := r2.Check(speedResultFor(t, host, map[string]float64{"ACBM": 1000})); err == nil {
		t.Error("Check with a missing searcher should error")
	}
}

// TestDispatchReportSane runs the CI-time dispatch sanity probe on the
// real dispatch state of the machine running the tests.
func TestDispatchReportSane(t *testing.T) {
	report, err := DispatchReport()
	if err != nil {
		t.Fatalf("DispatchReport: %v\n%s", err, report)
	}
	for _, want := range []string{"kernel tiers:", "active tier:", "probe scalar ok", "probe swar   ok"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
